"""Reference implementations the tests compare the package against.

Each is the textbook definition, written for clarity rather than speed: one
value or one node at a time, or one composed op at a time on the autodiff tape.
"""

import math

from forewarn.autodiff import sigmoid, tanh
from forewarn.core import ValidationError

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def pinball_loss(y: float, y_hat: float, q: float) -> float:
    """q * (y - y_hat)_+ + (1 - q) * (y_hat - y)_+ for one observation."""
    if not (0.0 < q < 1.0):
        raise ValidationError(f"quantile level {q} outside (0, 1)")
    diff = float(y) - float(y_hat)
    return q * max(diff, 0.0) + (1.0 - q) * max(-diff, 0.0)


def gaussian_nll(y: float, mu: float, sigma: float) -> float:
    """Pointwise Gaussian negative log-likelihood with a 1e-6 sigma floor."""
    if sigma <= 0.0:
        raise ValidationError(f"sigma must be > 0, got {sigma}")
    sigma = max(float(sigma), 1e-6)
    z = (float(y) - float(mu)) / sigma
    return HALF_LOG_2PI + math.log(sigma) + 0.5 * z * z


def safety_metric_fn(actual: float, threshold: float) -> float:
    """Margin of one raw-state value against its requirement: |actual| - threshold.

    >= 0 means the requirement is violated. threshold must be positive.
    """
    if not threshold > 0:
        raise ValidationError(f"threshold must be > 0, got {threshold}")
    return abs(float(actual)) - float(threshold)


def rule_matches(rule, row) -> bool:
    """Whether a feature row lies inside every interval lo < x_j <= hi of a cart Rule."""
    return all(lo < row[j] <= hi for j, lo, hi in rule.intervals)


def tree_depth(tree) -> int:
    """Edges on the longest root-to-leaf path of a cart RegressionTree."""
    def walk(node) -> int:
        return 0 if node.is_leaf else 1 + max(walk(node.left), walk(node.right))

    return walk(tree.root)


def tree_leaves(tree) -> list:
    """The leaf Nodes of a cart RegressionTree, left to right."""
    def walk(node) -> list:
        return [node] if node.is_leaf else walk(node.left) + walk(node.right)

    return walk(tree.root)


def gru_step(p: dict, pre: str, x, state):
    """One GRU step composed of autodiff ops, a drop-in for forecasters._gru_step.

    The same arithmetic as autodiff.gru_cell, op for op, but with one tape
    node per op, each differentiated by the op table.
    """
    n = state.shape[1]
    rz = sigmoid(x @ p[pre + "W_rz"] + state @ p[pre + "U_rz"] + p[pre + "b_rz"])
    r, z = rz[:, :n], rz[:, n:]
    cand = tanh(x @ p[pre + "W_n"] + r * (state @ p[pre + "U_n"]) + p[pre + "b_n"])
    return (1.0 - z) * cand + z * state
