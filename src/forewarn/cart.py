"""Regression-tree analysis of prediction accuracy over the scenario space.

Fits a CART regression tree to per-scenario F3 scores so the regions of the
scenario box where the monitor is weak become explicit, auditable rules.
Splits greedily minimize the summed squared error of the two children;
candidate thresholds are midpoints between consecutive sorted unique feature
values; ties are broken toward the lower feature index, then the lower
threshold, so fits are deterministic. Model selection is k-fold
cross-validation over a small (max_depth, min_samples_leaf) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import Episode, ValidationError, check_setting
from .evaluation import ModelEval, confusion, f_beta, precision_recall

__all__ = [
    "Node",
    "RegressionTree",
    "fit_cart",
    "r_squared",
    "CVResult",
    "cross_validate",
    "Rule",
    "extract_rules",
    "scenario_f3_table",
]


@dataclass
class Node:
    """One tree node; feature is None at leaves. value/count describe the node's rows."""

    value: float
    count: int
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class RegressionTree:
    root: Node
    max_depth: int
    min_samples_leaf: int
    n_features: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = _check_features(features, self.n_features)
        out = np.empty(x.shape[0])
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    def mse(self, features: np.ndarray, targets: np.ndarray) -> float:
        y = np.asarray(targets, dtype=np.float64)
        return float(np.mean((self.predict(features) - y) ** 2))


def _check_features(features, n_features: int | None = None) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("features contain non-finite values")
    if n_features is not None and x.shape[1] != n_features:
        raise ValidationError(f"expected {n_features} features, got {x.shape[1]}")
    return x


def _sse(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    return float(np.sum((y - y.mean()) ** 2))


def _best_split(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """(score, feature, threshold) minimizing child SSE, or None.

    Scanning features ascending and thresholds ascending with a strict
    comparison implements the documented tie-break. The threshold scan stays
    scalar on purpose: numpy's scalar x**2 and its array square can differ in
    the last bit, and a vectorized scan changed the score in 18 of 20000
    random split searches.
    """
    n = y.size
    best = None  # (score, feature, threshold)
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        ys = y[order]
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        total1, total2 = c1[-1], c2[-1]
        for i in range(min_leaf, n - min_leaf + 1):
            if xs[i - 1] == xs[i]:
                continue
            left_sse = c2[i - 1] - c1[i - 1] ** 2 / i
            r1 = total1 - c1[i - 1]
            r2 = total2 - c2[i - 1]
            right_sse = r2 - r1**2 / (n - i)
            score = max(left_sse, 0.0) + max(right_sse, 0.0)
            if best is None or score < best[0]:
                best = (score, j, 0.5 * (xs[i - 1] + xs[i]))
    return best


def fit_cart(
    features, targets, max_depth: int = 4, min_samples_leaf: int = 5
) -> RegressionTree:
    """Greedy least-squares regression tree; see module docstring for rules.

    A constant target (or no admissible split) yields a single leaf. Splits
    are only taken when they strictly reduce the squared error.
    """
    x = _check_features(features)
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValidationError(f"targets shape {y.shape} does not match {x.shape[0]} rows")
    if not np.all(np.isfinite(y)):
        raise ValidationError("targets contain non-finite values")
    max_depth = check_setting("max_depth", max_depth)
    min_samples_leaf = check_setting("min_samples_leaf", min_samples_leaf, low=1)
    if x.shape[0] < 2 * min_samples_leaf:
        raise ValidationError(
            f"need at least {2 * min_samples_leaf} rows to allow a split, got {x.shape[0]}"
        )

    def build(rows: np.ndarray, depth: int) -> Node:
        ys = y[rows]
        node = Node(value=float(ys.mean()), count=int(rows.size))
        if depth >= max_depth or rows.size < 2 * min_samples_leaf or np.all(ys == ys[0]):
            return node
        found = _best_split(x[rows], ys, min_samples_leaf)
        if found is None:
            return node
        score, j, thr = found
        if not score < _sse(ys):  # no strict improvement: stop
            return node
        mask = x[rows, j] <= thr
        node.feature = j
        node.threshold = float(thr)
        node.left = build(rows[mask], depth + 1)
        node.right = build(rows[~mask], depth + 1)
        return node

    root = build(np.arange(x.shape[0]), 0)
    return RegressionTree(
        root=root, max_depth=max_depth, min_samples_leaf=min_samples_leaf, n_features=x.shape[1]
    )


def r_squared(tree: RegressionTree, features, targets) -> float:
    """1 - SSE/SST on the given rows; 1.0 when both are zero (constant, exact)."""
    y = np.asarray(targets, dtype=np.float64)
    sse = float(np.sum((tree.predict(features) - y) ** 2))
    sst = _sse(y)
    if sst == 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def _cut(node: Node, depth: int) -> Node:
    """A copy of the subtree with every node at `depth` below `node` made a leaf."""
    if node.is_leaf or depth == 0:
        return Node(value=node.value, count=node.count)
    return Node(
        node.value, node.count, node.feature, node.threshold,
        _cut(node.left, depth - 1), _cut(node.right, depth - 1),
    )


# ----------------------------------------------------------------- selection


@dataclass(frozen=True)
class CVResult:
    tree: RegressionTree
    max_depth: int
    min_samples_leaf: int
    cv_mse: float
    r2: float
    rows: list[dict] = field(repr=False, default_factory=list)


def cross_validate(
    features,
    targets,
    max_depths: Sequence[int] = (1, 2, 3, 4, 5),
    min_leaves: Sequence[int] = (2, 5, 10),
    k: int = 10,
    seed: int = 0,
) -> CVResult:
    """Pick (max_depth, min_samples_leaf) by k-fold CV mean MSE, refit on all data.

    Folds come from one seeded shuffle, so selection is deterministic. The
    reported r2 is on the full data with the refit tree. Each (fold, leaf size)
    is fit once, at the largest depth: greedy splits do not depend on
    max_depth, so that tree cut at a depth is the fit at that depth.
    """
    x = _check_features(features)
    y = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    k = check_setting("k", k, low=2)
    seed = check_setting("seed", seed)
    if k > n:
        raise ValidationError(f"k={k} folds need at least k rows, got {n}")
    depths = [check_setting("max_depth", depth) for depth in max_depths]
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    fold_mse: dict[int, dict[int, list[float]]] = {}  # leaf -> depth -> per-fold MSE
    for leaf in dict.fromkeys(min_leaves) if depths else ():
        scores: dict[int, list[float]] | None = {depth: [] for depth in depths}
        for i in range(k):
            test_idx = folds[i]
            train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
            if train_idx.size < 2 * leaf:
                scores = None
                break
            tree = fit_cart(x[train_idx], y[train_idx], max(depths), min_samples_leaf=leaf)
            for depth in scores:
                cut = RegressionTree(_cut(tree.root, depth), depth, leaf, tree.n_features)
                scores[depth].append(cut.mse(x[test_idx], y[test_idx]))
        if scores is not None:
            fold_mse[leaf] = scores
    rows: list[dict] = []
    best = None  # (cv_mse, max_depth, min_leaf)
    for depth in depths:
        for leaf in min_leaves:
            if leaf not in fold_mse:
                continue
            cv_mse = float(np.mean(fold_mse[leaf][depth]))
            rows.append({"max_depth": depth, "min_samples_leaf": leaf, "cv_mse": cv_mse})
            if best is None or cv_mse < best[0]:
                best = (cv_mse, depth, leaf)
    if best is None:
        raise ValidationError("no admissible configuration for this data size")
    cv_mse, depth, leaf = best
    tree = fit_cart(x, y, max_depth=depth, min_samples_leaf=leaf)
    return CVResult(
        tree=tree,
        max_depth=depth,
        min_samples_leaf=leaf,
        cv_mse=cv_mse,
        r2=r_squared(tree, x, y),
        rows=rows,
    )


# ----------------------------------------------------------------- rules


@dataclass(frozen=True)
class Rule:
    """Conjunction of per-feature intervals lo < x_j <= hi mapping to a leaf mean."""

    intervals: tuple[tuple[int, float, float], ...]  # (feature, lo, hi), lo exclusive
    value: float
    count: int

    def text(self, feature_names: Sequence[str] | None = None) -> str:
        def name(j: int) -> str:
            return feature_names[j] if feature_names is not None else f"x{j}"

        parts = []
        for j, lo, hi in self.intervals:
            if lo == -np.inf and hi < np.inf:
                parts.append(f"{name(j)} <= {hi:g}")
            elif hi == np.inf and lo > -np.inf:
                parts.append(f"{name(j)} > {lo:g}")
            else:
                parts.append(f"{lo:g} < {name(j)} <= {hi:g}")
        head = " and ".join(parts) if parts else "always"
        return f"{head} -> {self.value:.4f}  (n={self.count})"


def extract_rules(tree: RegressionTree) -> list[Rule]:
    """One rule per leaf; together they partition the feature space exactly."""
    rules: list[Rule] = []

    def walk(node: Node, bounds: dict[int, tuple[float, float]]) -> None:
        if node.is_leaf:
            intervals = tuple(
                (j, lo, hi) for j, (lo, hi) in sorted(bounds.items()) if (lo, hi) != (-np.inf, np.inf)
            )
            rules.append(Rule(intervals=intervals, value=node.value, count=node.count))
            return
        j, thr = node.feature, node.threshold
        lo, hi = bounds.get(j, (-np.inf, np.inf))
        walk(node.left, {**bounds, j: (lo, min(hi, thr))})
        walk(node.right, {**bounds, j: (max(lo, thr), hi)})

    walk(tree.root, {})
    return rules


# ----------------------------------------------------------------- bridging


def scenario_f3_table(
    ev: ModelEval, q: float, episodes: Sequence[Episode]
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Per-episode F3 rows for tree fitting: (features, f3 scores, feature names).

    Decisions and truths are pooled per episode (confusion counts over that
    episode's windows), so each scenario contributes one row. Features are the
    raw scenario values, one row per episode that has windows in `ev`.
    """
    try:
        col = ev.quantiles.index(q)
    except ValueError:
        raise ValidationError(f"quantile {q} not in evaluated grid {ev.quantiles}") from None
    ids = np.asarray(ev.episode_ids)
    names: tuple[str, ...] | None = None
    feats: list[np.ndarray] = []
    scores: list[float] = []
    for ep in episodes:
        mask = ids == ep.id
        if not mask.any():
            continue
        if names is None:
            names = ep.scenario.names
        elif ep.scenario.names != names:
            raise ValidationError(f"episode {ep.id!r} has different scenario dimensions")
        c = confusion(ev.decisions[mask, col], ev.truths[mask])
        p, r, _ = precision_recall(c)
        feats.append(np.array(ep.scenario.values))
        scores.append(f_beta(p, r))
    if not feats:
        raise ValidationError("no evaluated windows matched the given episodes")
    return np.stack(feats), np.array(scores), names
