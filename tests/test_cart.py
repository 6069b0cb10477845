"""Regression trees: fitting, cross-validation, rules, scenario bridging."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import cross_validate_rows, rule_matches, tree_depth, tree_leaves
from _synth import make_model, make_noise_windows
from forewarn.cart import (
    CVResult,
    Rule,
    cross_validate,
    extract_rules,
    fit_cart,
    r_squared,
    scenario_f3_table,
)
from forewarn.core import ValidationError, WindowConfig
from forewarn.evaluation import evaluate_model


def planted_data(seed=0, n=200, d=3):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    y = (x[:, 0] < 0.5).astype(np.float64)
    return x, y


# ------------------------------------------------------------------ fitting


def test_planted_step_is_recovered_exactly():
    x, y = planted_data()
    tree = fit_cart(x, y, max_depth=3, min_samples_leaf=5)
    assert tree_depth(tree) == 1  # one split separates the classes perfectly
    assert tree.root.feature == 0
    assert abs(tree.root.threshold - 0.5) < 0.1
    assert float(np.mean((tree.predict(x) - y) ** 2)) == 0.0
    preds = tree.predict(x)
    assert np.array_equal(preds, y)


def test_constant_target_yields_single_leaf():
    rng = np.random.default_rng(1)
    x = rng.random((30, 2))
    y = np.full(30, 0.7)
    tree = fit_cart(x, y, max_depth=4, min_samples_leaf=2)
    assert tree.root.is_leaf
    assert tree.root.value == float(np.mean(y)) and tree.root.count == 30
    assert np.all(tree.predict(rng.random((5, 2))) == tree.root.value)


def test_tree_beats_mean_predictor_on_random_data():
    rng = np.random.default_rng(2)
    x = rng.random((50, 3))
    y = rng.standard_normal(50)
    tree = fit_cart(x, y, max_depth=3, min_samples_leaf=2)
    assert float(np.mean((tree.predict(x) - y) ** 2)) <= float(np.var(y))


def test_deeper_trees_never_increase_training_mse():
    rng = np.random.default_rng(3)
    x = rng.random((80, 3))
    y = np.sin(3 * x[:, 0]) + 0.3 * rng.standard_normal(80)
    trees = [fit_cart(x, y, max_depth=d, min_samples_leaf=2) for d in range(6)]
    mses = [float(np.mean((tree.predict(x) - y) ** 2)) for tree in trees]
    assert all(b <= a + 1e-15 for a, b in zip(mses, mses[1:]))


def test_leaf_count_and_depth_limits_hold():
    rng = np.random.default_rng(4)
    x = rng.random((120, 4))
    y = rng.standard_normal(120)
    for max_depth, min_leaf in ((2, 5), (4, 10), (6, 3)):
        tree = fit_cart(x, y, max_depth=max_depth, min_samples_leaf=min_leaf)
        assert tree_depth(tree) <= max_depth
        assert all(leaf.count >= min_leaf for leaf in tree_leaves(tree))


def test_tie_breaks_prefer_lower_feature_then_lower_threshold():
    x0 = np.array([0.1, 0.3, 0.5, 0.7])
    # identical columns: the split must land on feature 0
    x = np.column_stack([x0, x0])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    tree = fit_cart(x, y, max_depth=1, min_samples_leaf=1)
    assert tree.root.feature == 0

    # two equally good thresholds by symmetry: the lower one wins
    xs = np.array([[0.1], [0.25], [0.45], [0.55], [0.75], [0.9]])
    ys = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    tree = fit_cart(xs, ys, max_depth=1, min_samples_leaf=2)
    assert tree.root.feature == 0
    assert tree.root.threshold == pytest.approx(0.35)


def test_fit_validation():
    x, y = planted_data(n=20)
    with pytest.raises(ValidationError, match="rows"):
        fit_cart(x, y[:-1])
    with pytest.raises(ValidationError, match="max_depth"):
        fit_cart(x, y, max_depth=-1)
    with pytest.raises(ValidationError, match="min_samples_leaf"):
        fit_cart(x, y, min_samples_leaf=0)
    with pytest.raises(ValidationError, match="at least"):
        fit_cart(x[:4], y[:4], min_samples_leaf=5)
    with pytest.raises(ValidationError, match="2-D"):
        fit_cart(y, y)
    with pytest.raises(ValidationError, match="non-finite"):
        fit_cart(np.array([[np.nan], [1.0], [2.0], [3.0]]), np.zeros(4), min_samples_leaf=1)


# ------------------------------------------------------------------ CV


def test_cross_validate_recovers_planted_structure():
    x, y = planted_data(seed=5, n=200)
    result = cross_validate(x, y, max_depths=(1, 2, 3), min_leaves=(2, 5), k=10, seed=0)
    assert isinstance(result, CVResult)
    assert result.r2 >= 0.9
    assert result.tree.root.feature == 0
    assert len(result.rows) == 6
    assert all(set(r) == {"max_depth", "min_samples_leaf", "cv_mse"} for r in result.rows)
    best_row = min(result.rows, key=lambda r: r["cv_mse"])
    assert result.cv_mse == best_row["cv_mse"]


def test_cross_validate_is_deterministic():
    x, y = planted_data(seed=6, n=60)
    a = cross_validate(x, y, max_depths=(1, 2), min_leaves=(2,), k=5, seed=3)
    b = cross_validate(x, y, max_depths=(1, 2), min_leaves=(2,), k=5, seed=3)
    assert a.rows == b.rows
    assert (a.max_depth, a.min_samples_leaf, a.cv_mse, a.r2) == (
        b.max_depth, b.min_samples_leaf, b.cv_mse, b.r2,
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(4, 40),
    n_features=st.integers(1, 3),
    levels=st.integers(2, 6),
    max_depths=st.lists(st.integers(0, 4), min_size=1, max_size=4),
    min_leaves=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    k=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)
@example(n=12, n_features=2, levels=3, max_depths=[3, 1, 3, 0], min_leaves=[2, 2, 6], k=4, seed=1)
def test_cross_validate_equals_one_fit_per_depth(
    n, n_features, levels, max_depths, min_leaves, k, seed
):
    # few distinct feature and target values, so ties in splits and scores occur;
    # unsorted and repeated depths and leaf sizes, some too big for a fold
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, (n, n_features)).astype(np.float64)
    y = rng.integers(0, levels, n) * 0.5
    k = min(k, n)
    want = cross_validate_rows(x, y, max_depths, min_leaves, k, seed)
    if not want:
        with pytest.raises(ValidationError, match="no admissible"):
            cross_validate(x, y, max_depths, min_leaves, k=k, seed=seed)
        return
    got = cross_validate(x, y, max_depths, min_leaves, k=k, seed=seed)
    assert got.rows == want
    best = min(want, key=lambda r: r["cv_mse"])  # the first of equal minima
    assert (got.max_depth, got.min_samples_leaf, got.cv_mse) == (
        best["max_depth"], best["min_samples_leaf"], best["cv_mse"],
    )


def test_cross_validate_checks_every_depth():
    x, y = planted_data(seed=9, n=20)
    for depths in ((1, -1), (2, 1.5), (True,)):
        with pytest.raises(ValidationError, match="max_depth"):
            cross_validate(x, y, max_depths=depths, min_leaves=(2,), k=2, seed=0)
    # also when no leaf size fits a fold
    with pytest.raises(ValidationError, match="max_depth"):
        cross_validate(x, y, max_depths=(1, -1), min_leaves=(50,), k=2, seed=0)


def test_cross_validate_k_bounds():
    x, y = planted_data(seed=7, n=8)
    grid = dict(max_depths=(1, 2, 3, 4, 5), min_leaves=(2, 5, 10), seed=0)
    with pytest.raises(ValidationError, match="folds"):
        cross_validate(x, y, k=9, **grid)
    with pytest.raises(ValidationError, match="k must be"):
        cross_validate(x, y, k=1, **grid)


def test_mean_predictor_has_zero_r_squared():
    rng = np.random.default_rng(8)
    x = rng.random((40, 2))
    y = rng.standard_normal(40)
    stump = fit_cart(x, y, max_depth=0, min_samples_leaf=1)
    assert stump.root.is_leaf
    assert abs(r_squared(stump, x, y)) < 1e-12


# ------------------------------------------------------------------ rules


def test_single_leaf_rule_has_empty_antecedent():
    rng = np.random.default_rng(9)
    x = rng.random((20, 2))
    tree = fit_cart(x, np.full(20, 0.5), max_depth=3, min_samples_leaf=2)
    rules = extract_rules(tree)
    assert len(rules) == 1
    assert rules[0].intervals == ()
    assert rules[0].text(["a", "b"]).startswith("always")


def test_depth_one_rules_partition():
    x, y = planted_data(seed=10)
    tree = fit_cart(x, y, max_depth=1, min_samples_leaf=5)
    rules = extract_rules(tree)
    assert len(rules) == 2
    thr = tree.root.threshold
    texts = [r.text(["a", "b", "c"]) for r in rules]
    assert any(f"a <= {thr:g}" in t for t in texts)
    assert any(f"a > {thr:g}" in t for t in texts)


def test_rules_partition_and_replay_leaf_means():
    rng = np.random.default_rng(11)
    x = rng.random((150, 3))
    y = np.sin(4 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(150)
    tree = fit_cart(x, y, max_depth=4, min_samples_leaf=5)
    rules = extract_rules(tree)
    assert len(rules) == len(tree_leaves(tree))

    probes = rng.random((10_000, 3))
    hits = np.zeros(10_000, dtype=int)
    for rule in rules:
        hits += np.array([rule_matches(rule, row) for row in probes], dtype=int)
    assert np.all(hits == 1)  # every point matches exactly one rule

    for rule in rules:
        mask = np.array([rule_matches(rule, row) for row in x])
        assert mask.sum() == rule.count
        assert np.mean(y[mask]) == rule.value  # same rows, same mean, exactly
        assert np.all(tree.predict(x[mask]) == rule.value)


def test_rule_intervals_are_sorted_by_feature():
    rng = np.random.default_rng(12)
    x = rng.random((100, 4))
    y = x[:, 3] + x[:, 1]
    tree = fit_cart(x, y, max_depth=3, min_samples_leaf=5)
    for rule in extract_rules(tree):
        features = [j for j, _, _ in rule.intervals]
        assert features == sorted(features)


# ------------------------------------------------------------------ bridging


def test_scenario_f3_table_pools_per_episode():
    rng = np.random.default_rng(13)
    wc = WindowConfig(h=2, cm=2)
    model = make_model("persistence", wc=wc)
    # ep_good: persistence predicts the violation; ep_bad: it misses
    s = make_noise_windows(rng, wc, n=4)
    past = s.past_target.copy()
    past[:, -1] = (1.0, -1.0, -1.0, -1.0)
    windows = replace(
        s,
        past_target=past,
        future_target=np.array([[0.5, -1.0], [-0.5, -1.0], [2.0, 2.0], [3.0, 3.0]]),
        episode_ids=np.array(["ep_good", "ep_good", "ep_bad", "ep_bad"]),
    )
    ev = evaluate_model(model, windows)

    from _synth import make_episode

    episodes = [make_episode(rng, eid="ep_good"), make_episode(rng, eid="ep_bad")]
    feats, scores, names = scenario_f3_table(ev, 0.5, episodes)
    assert feats.shape == (2, 3)
    assert names == episodes[0].scenario.names
    assert scores[0] == 1.0  # perfect on ep_good
    assert scores[1] == 0.0  # all misses on ep_bad
    assert np.array_equal(feats[0], episodes[0].scenario.values)
    with pytest.raises(ValidationError, match="not in"):
        scenario_f3_table(ev, 0.42, episodes)
    with pytest.raises(ValidationError, match="matched"):
        scenario_f3_table(ev, 0.5, [make_episode(rng, eid="other")])
