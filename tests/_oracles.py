"""Reference implementations the tests compare the package against.

Each is the textbook definition, written for clarity rather than speed: one
value or one node at a time, or one composed op at a time on the autodiff tape.
"""

import math

import numpy as np

from forewarn import autodiff
from forewarn.autodiff import concat, log, mean, relu, sigmoid, square, tanh
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


def cross_validate_rows(x, y, max_depths, min_leaves, k: int, seed: int) -> list[dict]:
    """cart.cross_validate's rows by one fit_cart per (depth, leaf size, fold).

    Configurations go in max_depths-then-min_leaves order, duplicates
    included; a leaf size some fold's training rows cannot hold twice is
    skipped at every depth.
    """
    from forewarn.cart import fit_cart

    perm = np.random.default_rng(seed).permutation(x.shape[0])
    folds = np.array_split(perm, k)
    rows = []
    for depth in max_depths:
        for leaf in min_leaves:
            fold_mse = []
            for i in range(k):
                test_idx = folds[i]
                train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
                if train_idx.size < 2 * leaf:
                    fold_mse = None
                    break
                tree = fit_cart(x[train_idx], y[train_idx], max_depth=depth, min_samples_leaf=leaf)
                fold_mse.append(tree.mse(x[test_idx], y[test_idx]))
            if fold_mse is not None:
                cv_mse = float(np.mean(fold_mse))
                rows.append({"max_depth": depth, "min_samples_leaf": leaf, "cv_mse": cv_mse})
    return rows


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


def dense(x, W, b, relu: bool = False):
    """A dense layer composed of autodiff ops, a drop-in for autodiff.dense.

    x @ W, + b and relu are one tape node each, differentiated by the op table.
    """
    pre = x @ W + b
    return autodiff.relu(pre) if relu else pre  # the flag shadows the op's name


def pinball_mean(pred, y, qs):
    """Mean pinball loss of a (B, h, |Q|) block composed of autodiff ops.

    A drop-in for autodiff.pinball_mean, with one tape node per op.
    """
    diff = y[:, :, None] - pred
    q = qs.reshape(1, 1, -1)
    return mean(relu(diff) * q + relu(-diff) * (1.0 - q))


def gaussian_nll_mean(mu, sigma, y):
    """Mean Gaussian NLL of (B, h) heads composed of autodiff ops.

    A drop-in for autodiff.gaussian_nll_mean, with one tape node per op.
    """
    err = y - mu
    return mean(log(sigma) + square(err) / (square(sigma) * 2.0) + HALF_LOG_2PI)


def _causal_conv(p: dict, pre: str, x, dilation: int):
    """Kernel-3 causal 1-D convolution along axis 1 of (B, k, C_in), zero-padded."""
    bsz, k, c_in = x.shape
    xp = concat([np.zeros((bsz, 2 * dilation, c_in)), x], axis=1)
    out = None
    for tap in range(3):
        start = tap * dilation
        piece = xp[:, start : start + k, :] @ p[f"{pre}.W{2 - tap}"]
        out = piece if out is None else out + piece
    return out + p[f"{pre}.b"]


def convseq2seq_forward(spec, p, batch, h: int, n_quantiles: int):
    """convseq2seq's full-length forward, the reference for forward_quantiles' branch.

    Both causal layers (dilations 1 and 2) run on all k lookback steps, each
    zero-padded in front, and the decoder reads the last step of the second;
    the package runs each layer only at the steps that reach that one. A
    Tensor when p holds Tensors, else an ndarray.
    """
    static, past, cov = batch["static"], batch["past_target"], batch["past_cov"]
    bsz, k, _ = cov.shape
    tiled = np.repeat(static[:, None, :], k, axis=1)
    seq = concat([past.reshape(bsz, k, 1), cov, tiled], axis=2)
    c0 = relu(_causal_conv(p, "conv0", seq, dilation=1))
    c1 = relu(_causal_conv(p, "conv1", c0, dilation=2))
    x = c1[:, k - 1, :]
    for i in range(spec.get("decoder_layers")):
        x = autodiff.dense(x, p[f"dec{i}.W"], p[f"dec{i}.b"], relu=True)
    return autodiff.dense(x, p["head.W"], p["head.b"]).reshape(bsz, h, n_quantiles)


def relu_array(x: np.ndarray) -> np.ndarray:
    """The ReLU on an ndarray as np.where(x > 0, x, 0.0): NaN and -0.0 map to +0.0."""
    return np.where(x > 0, x, 0.0)


def dense_array(x: np.ndarray, W: np.ndarray, b: np.ndarray, relu: bool = False) -> np.ndarray:
    """A dense layer on ndarrays as x @ W + b, then relu_array: one new array per op."""
    pre = x @ W + b
    return relu_array(pre) if relu else pre


def violation_signs(values: np.ndarray, axis: int) -> np.ndarray:
    """One verdict per horizon laid along `axis`: +1 where its max is >= 0, else -1."""
    arr = np.asarray(values, dtype=np.float64)
    return np.where(arr.max(axis=axis) >= 0.0, 1, -1)
