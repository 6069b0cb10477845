"""Metrics, rank statistics, repetition-based evaluation, sweep, bench."""

import math
import re
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _synth import (
    FIT_KW, identity_norm, make_episode, make_learnable_windows, make_model, make_noise_windows,
)
from forewarn import evaluation
from forewarn.core import QuantileGrid, Scenario, ValidationError, WindowConfig, violation_sign
from forewarn.data import build_split, fit_norm, phase_windows, windows_for_phase
from forewarn.evaluation import (
    BenchReport,
    Confusion,
    MetricSummary,
    bench,
    compare_samples,
    confusion,
    effect_magnitude,
    evaluate,
    evaluate_model,
    f_beta,
    mann_whitney_u,
    plot_data,
    precision_recall,
    q_risk,
    sweep,
    vargha_delaney,
)
from forewarn.forecasters import ForecasterSpec, predict_quantiles_batch
from forewarn.monitor import MonitorConfig
from forewarn.simulate import SimConfig, generate_dataset
from forewarn.training import TrainConfig, fit

WC = WindowConfig(h=2, cm=2)


# ------------------------------------------------------------------ q-risk


def brute_q_risk(y, p, q):
    num = 0.0
    den = 0.0
    for i in range(y.shape[0]):
        for t in range(y.shape[1]):
            diff = y[i, t] - p[i, t]
            num += 2.0 * (q * max(diff, 0.0) + (1.0 - q) * max(-diff, 0.0))
            den += abs(y[i, t])
    return num / den


def test_q_risk_hand_value():
    # one window, one lead: y=2, prediction 1, q=0.5 -> 2*0.5*1/2 = 0.5
    assert abs(q_risk(np.array([[2.0]]), np.array([[1.0]]), 0.5) - 0.5) < 1e-15


def test_q_risk_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n, h = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        y = rng.standard_normal((n, h)) + 0.5
        p = rng.standard_normal((n, h))
        q = float(rng.uniform(0.01, 0.99))
        assert abs(q_risk(y, p, q) - brute_q_risk(y, p, q)) < 1e-9


def test_q_risk_validation():
    y = np.zeros((2, 2))
    with pytest.raises(ValidationError, match="degenerate"):
        q_risk(y, y + 1.0, 0.5)
    with pytest.raises(ValidationError, match="matching"):
        q_risk(np.ones((2, 2)), np.ones((2, 3)), 0.5)
    with pytest.raises(ValidationError, match="outside"):
        q_risk(np.ones((2, 2)), np.ones((2, 2)), 1.0)


# ------------------------------------------------------------------ confusion


def test_confusion_hand_counts():
    d = np.array([1, 1, -1, -1, 1])
    t = np.array([1, -1, 1, -1, 1])
    c = confusion(d, t)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)


def test_confusion_matches_naive_scan():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = rng.choice([-1, 1], size=40)
        t = rng.choice([-1, 1], size=40)
        c = confusion(d, t)
        tp = sum(1 for a, b in zip(d, t) if a == 1 and b == 1)
        fp = sum(1 for a, b in zip(d, t) if a == 1 and b == -1)
        fn = sum(1 for a, b in zip(d, t) if a == -1 and b == 1)
        tn = sum(1 for a, b in zip(d, t) if a == -1 and b == -1)
        assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)


def test_confusion_rejects_other_labels():
    with pytest.raises(ValidationError):
        confusion(np.array([0, 1]), np.array([1, 1]))
    with pytest.raises(ValidationError, match="align"):
        confusion(np.array([1, 1]), np.array([1]))


@pytest.mark.parametrize("bad", [0, 2, 1.5, np.nan])
def test_confusion_refuses_a_label_other_than_plus_or_minus_one(bad):
    good = np.array([1.0, -1.0, 1.0])
    with_bad = np.array([1.0, -1.0, bad])
    with pytest.raises(ValidationError, match=r"^decisions must be \+-1 valued$"):
        confusion(with_bad, good)
    with pytest.raises(ValidationError, match=r"^truths must be \+-1 valued$"):
        confusion(good, with_bad)


def test_precision_recall_degenerate_conventions():
    p, r, flag = precision_recall(Confusion(tp=0, fp=0, fn=0, tn=5))
    assert (p, r, flag) == (1.0, 1.0, True)  # nothing flagged, nothing missed
    p, r, flag = precision_recall(Confusion(tp=0, fp=0, fn=2, tn=3))
    assert (p, r, flag) == (0.0, 0.0, True)  # silent misses
    p, r, flag = precision_recall(Confusion(tp=3, fp=1, fn=1, tn=0))
    assert flag is False
    assert abs(p - 0.75) < 1e-15 and abs(r - 0.75) < 1e-15


def test_f_beta_values():
    assert abs(f_beta(0.993, 0.985) - 0.986) < 5e-4  # beta=3 weighs recall
    assert f_beta(0.0, 0.0) == 0.0
    assert f_beta(0.5, 0.5) == 0.5  # at P = R, F-beta is P for any beta
    # closed form: (1+9)*p*r / (9p + r)
    p, r = 0.4, 0.9
    assert abs(f_beta(p, r) - 10 * p * r / (9 * p + r)) < 1e-15


# ------------------------------------------------------------------ rank stats


def test_mann_whitney_u_matches_pairwise_counting():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n1, n2 = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a = rng.integers(0, 5, size=n1).astype(float)  # integer values force ties
        b = rng.integers(0, 5, size=n2).astype(float)
        u, _ = mann_whitney_u(a, b)
        wins = sum(1.0 for x in a for y in b if x > y)
        ties = sum(1.0 for x in a for y in b if x == y)
        assert abs(u - (wins + 0.5 * ties)) < 1e-9


def test_mann_whitney_p_matches_scipy_asymptotic():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n1, n2 = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        ties = rng.random() < 0.5
        if ties:
            a = rng.integers(0, 4, size=n1).astype(float)
            b = rng.integers(0, 4, size=n2).astype(float)
        else:
            a = rng.standard_normal(n1)
            b = rng.standard_normal(n2) + 1.0
        u, p = mann_whitney_u(a, b)
        if np.all(np.concatenate([a, b]) == a[0]):
            continue  # zero-variance case checked separately
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic", use_continuity=False)
        assert abs(u - ref.statistic) < 1e-9
        assert abs(p - ref.pvalue) < 1e-9


def test_mann_whitney_degenerate_and_empty():
    u, p = mann_whitney_u([2.0, 2.0], [2.0, 2.0, 2.0])
    assert p == 1.0 and abs(u - 3.0) < 1e-12  # all ties: U = n1*n2/2
    with pytest.raises(ValidationError):
        mann_whitney_u([], [1.0])


def test_vargha_delaney_hand_and_scipy_cross_check():
    assert vargha_delaney([1.0, 2.0, 3.0], [0.0, 0.0]) == 1.0
    assert vargha_delaney([0.0], [1.0, 2.0]) == 0.0
    assert vargha_delaney([1.0, 2.0], [1.0, 2.0]) == 0.5
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.integers(0, 5, size=7).astype(float)
        b = rng.integers(0, 5, size=6).astype(float)
        # scipy's U statistic is the same pairwise count, so U/(n1*n2) = A-hat
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided").statistic / (7 * 6)
        assert abs(vargha_delaney(a, b) - ref) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stat", [mann_whitney_u, vargha_delaney])
def test_rank_statistics_reject_non_finite_samples(stat, bad):
    # NaN compares false both ways, so no rank or pair count means anything for it
    with pytest.raises(ValidationError, match="finite"):
        stat([1.0, bad, 2.0], [2.0, 0.5])
    with pytest.raises(ValidationError, match="finite"):
        stat([2.0, 0.5], [1.0, bad])


def test_effect_magnitude_thresholds():
    assert effect_magnitude(0.5) == "negligible"
    assert effect_magnitude(0.559) == "negligible"
    assert effect_magnitude(0.56) == "small"
    assert effect_magnitude(0.44) == "small"  # symmetric
    assert effect_magnitude(0.64) == "medium"
    assert effect_magnitude(0.71) == "large"
    assert effect_magnitude(0.0) == "large"


def test_compare_samples_keys():
    out = compare_samples([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert set(out) == {"u", "p", "a_hat", "magnitude"}
    assert out["a_hat"] == 0.0 and out["magnitude"] == "large"


# ------------------------------------------------------------------ model eval


def windows_with(v_last, future, rng):
    """Windows whose persistence forecasts are v_last and truths sign(max future), in order."""
    batch = make_noise_windows(rng, WC, len(v_last))
    past = batch.past_target.copy()
    past[:, -1] = v_last
    return replace(batch, past_target=past, future_target=np.array(future, dtype=np.float64))


def test_evaluate_model_exact_confusion_and_qrisk():
    rng = np.random.default_rng(5)
    model = make_model("persistence", wc=WC)
    windows = windows_with(
        [1.0, 1.0, -1.0, -1.0],
        [[0.5, -1.0],    # predicted +, true +  -> TP
         [-0.5, -1.0],   # predicted +, true -  -> FP
         [2.0, -1.0],    # predicted -, true +  -> FN
         [-2.0, -1.0]],  # predicted -, true -  -> TN
        rng,
    )
    ev = evaluate_model(model, windows)
    assert np.array_equal(ev.truths, [1, -1, 1, -1])
    y_true = windows.future_target
    for q in model.grid.qs:
        row = ev.per_q[q]
        assert (row["tp"], row["fp"], row["fn"], row["tn"]) == (1, 1, 1, 1)
        assert row["precision"] == 0.5 and row["recall"] == 0.5
        assert not row["degenerate_precision"]
        pred = np.repeat(windows.past_target[:, -1:], WC.h, axis=1)
        assert abs(row["q_risk"] - brute_q_risk(y_true, pred, q)) < 1e-12


def test_evaluate_model_coverage_counts_a_truth_equal_to_its_forecast_as_covered(monkeypatch):
    model = make_model("persistence", wc=WC, qs=(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.995))
    future = [[0.0, 0.0], [1.0, -1.0], [0.5, 0.5], [-2.0, 3.0]]
    windows = windows_with([0.0] * 4, future, np.random.default_rng(6))
    # every cell's forecast at level j is levels[j]; ties at 0.0, 0.5, 1.0, -1.0 and 3.0
    levels = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    preds = np.broadcast_to(levels, (4, WC.h, levels.size)).copy()
    monkeypatch.setattr(evaluation, "predict_quantiles_batch", lambda *a, **kw: preds)
    ev = evaluate_model(model, windows)
    cells = [ev.per_q[q]["coverage"] * 8 for q in model.grid.qs]
    joint = [ev.per_q[q]["joint_coverage"] * 4 for q in model.grid.qs]
    assert cells == [2, 2, 4, 6, 7, 7, 8]
    assert joint == [0, 0, 1, 2, 3, 3, 4]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_coverage_rises_with_the_level_and_bounds_joint_coverage_property(data):
    n, h, n_q = data.draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6))
    # a few small integers, so truths often tie with forecasts and levels with each other
    values = st.integers(-3, 3).map(float)
    y = data.draw(hnp.arrays(np.float64, (n, h), elements=values))
    assume(np.any(y != 0.0))  # q-risk refuses an all-zero target
    preds = np.sort(data.draw(hnp.arrays(np.float64, (n, h, n_q), elements=values)), axis=2)
    wc = WindowConfig(h=h, cm=2)
    model = make_model("persistence", wc=wc, qs=tuple((np.arange(n_q) + 1.0) / (n_q + 1)))
    windows = replace(make_noise_windows(np.random.default_rng(0), wc, n), future_target=y)
    with patch.object(evaluation, "predict_quantiles_batch", lambda *a, **kw: preds):
        ev = evaluate_model(model, windows)
    coverage = np.array([ev.per_q[q]["coverage"] for q in model.grid.qs])
    joint = np.array([ev.per_q[q]["joint_coverage"] for q in model.grid.qs])
    covered = y[:, :, None] <= preds
    assert coverage.tolist() == [covered[:, :, j].sum() / (n * h) for j in range(n_q)]
    assert joint.tolist() == [covered[:, :, j].all(axis=1).sum() / n for j in range(n_q)]
    assert np.all(np.diff(coverage) >= 0) and np.all(np.diff(joint) >= 0)
    assert np.all(joint <= coverage)


def test_a_metric_of_exactly_zero_is_a_violation_whatever_the_norm():
    # every episode touches the cross-track limit once; at this seed the norm's
    # round trip takes that 0.0 below zero, which would score it as safe
    episodes = []
    for ep in generate_dataset(SimConfig(n_scenarios=20, episode_len=60, seed=15)):
        metric = ep.safety_metric.copy()
        metric[55, ep.metric_names.index("margin_cte")] = 0.0
        episodes.append(replace(ep, safety_metric=metric))
    wc = WindowConfig(h=3, cm=1)
    norm, phases = phase_windows(episodes, wc, "margin_cte")
    mean, std = norm.stats("margin_cte")
    assert (0.0 - mean) / std * std + mean < 0.0
    model = fit(
        ForecasterSpec("persistence"), phases["train"], phases["val"], TrainConfig(),
        norm=norm, target="margin_cte", lc_names=episodes[0].lc_names,
    )
    test = phases["test"]
    ev = evaluate_model(model, test)
    metric = {ep.id: ep.metric("margin_cte") for ep in episodes}
    raw = np.array([
        metric[e][t + 1 : t + 1 + wc.h] for e, t in zip(test.episode_ids, test.origin_t)
    ])
    assert np.array_equal((raw - mean) / std, test.future_target)  # the windows' own horizons
    assert np.count_nonzero(raw.max(axis=1) == 0.0) > 0
    assert np.array_equal(ev.truths, violation_sign(raw, axis=1))


def test_an_empty_batch_is_refused_by_name():
    empty = make_noise_windows(np.random.default_rng(0), WC, 3)[:0]
    model = make_model("seq2seq", wc=WC)
    for call in (predict_quantiles_batch, evaluate_model):
        with pytest.raises(ValidationError, match="^empty window batch$"):
            call(model, empty)


@pytest.mark.parametrize("dims", ["reordered", "renamed"])
def test_windows_whose_scenario_dims_differ_from_the_models_are_refused(dims):
    rng = np.random.default_rng(10)
    eps = [make_episode(rng, t_len=60, eid=f"ep{i}") for i in range(3)]
    dims0 = eps[0].scenario.dims
    other = dims0[::-1] if dims == "reordered" else tuple(
        replace(d, name=f"x{i}") for i, d in enumerate(dims0)
    )
    split = build_split(eps)
    norm = fit_norm(eps, split)
    model = make_model("seq2seq", wc=WC, decoder_layers=1, neurons=20)
    batch = windows_for_phase(eps, split, WC, norm, "test", target="m")
    assert len(evaluate_model(model, batch).truths) == len(batch)
    eps = [
        replace(ep, scenario=Scenario(
            ep.scenario.values[::-1] if dims == "reordered" else ep.scenario.values, other
        ))
        for ep in eps
    ]
    batch = windows_for_phase(eps, split, WC, norm, "test", target="m")
    names = tuple(d.name for d in other)
    message = re.escape(f"scenario dims {names} do not match model {model.scenario_dims}")
    for call in (predict_quantiles_batch, evaluate_model):
        with pytest.raises(ValidationError, match=message):
            call(model, batch)


def test_evaluate_model_counts_are_monotone_across_quantiles():
    # non-crossing forecasts: raising the quantile can only add positives,
    # so FN never increases and FP never decreases with q
    rng = np.random.default_rng(6)
    model = make_model("seq2seq", wc=WC, qs=(0.05, 0.25, 0.5, 0.75, 0.95), decoder_layers=1, neurons=20)
    windows = make_noise_windows(rng, WC, 60)
    ev = evaluate_model(model, windows)
    qs = model.grid.qs
    fns = [ev.per_q[q]["fn"] for q in qs]
    fps = [ev.per_q[q]["fp"] for q in qs]
    assert all(b <= a for a, b in zip(fns, fns[1:]))
    assert all(b >= a for a, b in zip(fps, fps[1:]))


def test_a_non_finite_batch_forecast_is_refused_not_scored():
    # a 1e308 head bias overflows once denormalized by std 2; an inf forecast
    # would otherwise count as a predicted violation, a NaN one as none
    rng = np.random.default_rng(9)
    model = make_model(
        "seq2seq", wc=WC, norm=identity_norm(scale=(0.0, 2.0)), decoder_layers=1, neurons=20
    )
    model.params["head.b"][:] = 1e308
    windows = make_noise_windows(rng, WC, 4)
    with pytest.raises(ValidationError, match="non-finite"):
        predict_quantiles_batch(model, windows)
    with pytest.raises(ValidationError, match="non-finite"):
        evaluate_model(model, windows)


def test_metric_summary():
    s = MetricSummary.of([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert abs(s.half_ci - 1.96 * 1.0 / math.sqrt(3)) < 1e-12
    assert MetricSummary.of([4.0]).half_ci == 0.0
    # equal values are their own mean with no spread, though 0.2 * 3 / 3 is not 0.2
    assert MetricSummary.of([0.2, 0.2, 0.2]) == MetricSummary(0.2, 0.0, (0.2, 0.2, 0.2))


def test_evaluate_repetitions_and_determinism():
    rng = np.random.default_rng(7)
    train = make_learnable_windows(rng, 12, WC)
    val = make_learnable_windows(rng, 6, WC)
    test = make_learnable_windows(rng, 10, WC)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=9)
    grid = QuantileGrid((0.1, 0.5, 0.9))
    rep_a = evaluate(
        ForecasterSpec("persistence"), cfg, train, val, test, repetitions=3, grid=grid, **FIT_KW
    )
    rep_b = evaluate(
        ForecasterSpec("persistence"), cfg, train, val, test, repetitions=3, grid=grid, **FIT_KW
    )
    assert rep_a.repetitions == 3 and rep_a.family == "persistence"
    assert rep_a.h == WC.h and rep_a.cm == WC.cm
    for q in grid.qs:
        for key, summary in rep_a.per_q[q].items():
            assert len(summary.values) == 3
            assert summary.values == rep_b.per_q[q][key].values
            # persistence has no training variance: all repetitions identical
            assert summary.half_ci == 0.0
    with pytest.raises(ValidationError):
        evaluate(
            ForecasterSpec("persistence"), cfg, train, val, test, repetitions=0, grid=grid,
            **FIT_KW,
        )


def test_evaluate_trains_neural_families_per_repetition():
    rng = np.random.default_rng(8)
    train = make_learnable_windows(rng, 16, WC)
    val = make_learnable_windows(rng, 8, WC)
    test = make_learnable_windows(rng, 8, WC)
    grid = QuantileGrid((0.2, 0.8))
    cfg = TrainConfig(epochs=2, batch_size=8, seed=1)
    spec = ForecasterSpec("seq2seq", {"decoder_layers": 1, "neurons": 20})
    report = evaluate(spec, cfg, train, val, test, repetitions=2, grid=grid, **FIT_KW)
    for q in grid.qs:
        assert len(report.per_q[q]["q_risk"].values) == 2
        assert all(math.isfinite(v) for v in report.per_q[q]["q_risk"].values)
    data = plot_data(report)
    assert set(data) == {"fn_vs_quantile", "fp_vs_quantile", "qrisk_vs_quantile"}
    assert data["fn_vs_quantile"]["x"] == list(grid.qs)
    assert len(data["fp_vs_quantile"]["y"]) == len(grid.qs)


# ------------------------------------------------------------------ sweep


def test_sweep_emits_rows_and_skips_infeasible_configs(caplog):
    rng = np.random.default_rng(9)
    episodes = [make_episode(rng, t_len=20, eid=f"ep{i}") for i in range(3)]
    rows = sweep(
        episodes,
        families=("persistence",),
        base_cfg=TrainConfig(epochs=1, seed=0),
        h_values=(2,),
        cm_values=(1, 9),
        repetitions=1,
        grid=QuantileGrid((0.1, 0.5, 0.9)),
    )
    assert len(rows) == 2
    by_cm = {r["cm"]: r for r in rows}
    assert by_cm[1]["total_window"] == 4 and by_cm[9]["total_window"] == 20
    assert not by_cm[1]["skipped"]
    assert math.isfinite(by_cm[1]["qrisk_sum_mean"])
    assert by_cm[9]["skipped"] and "windows" in by_cm[9]["skipped_reason"]


def test_sweep_rows_carry_the_model_size_of_each_family_and_config():
    rng = np.random.default_rng(12)
    episodes = [make_episode(rng, t_len=20, eid=f"ep{i}") for i in range(3)]
    rows = sweep(
        episodes, ("persistence", "seq2seq"), TrainConfig(epochs=1, seed=0),
        h_values=(2, 40), cm_values=(1,), repetitions=1, grid=QuantileGrid((0.1, 0.5, 0.9)),
    )

    def seq2seq_size(k, h, n=80, layers=2, n_static=3, n_cov=2, n_q=3):
        d_in = n_static + k + k * n_cov  # encoder input, then 2 decoder layers and the head
        return d_in * n + n + layers * (n * n + n) + n * h * n_q + h * n_q

    got = {(r["family"], r["h"], r["skipped"]): (r["parameter_count"], r["parameter_bytes"])
           for r in rows}
    assert got == {  # k = h * cm; h=40 has no windows in 20-step episodes
        ("persistence", 2, False): (0, 0),
        ("seq2seq", 2, False): (seq2seq_size(2, 2), 8 * seq2seq_size(2, 2)),
        ("persistence", 40, True): (0, 0),
        ("seq2seq", 40, True): (seq2seq_size(40, 40), 8 * seq2seq_size(40, 40)),
    }


def test_sweep_total_window_column():
    rng = np.random.default_rng(10)
    episodes = [make_episode(rng, t_len=250, eid=f"ep{i}") for i in range(2)]
    rows = sweep(
        episodes,
        families=("persistence",),
        base_cfg=TrainConfig(epochs=1, seed=0),
        h_values=(3, 12),
        cm_values=(1, 3, 9),
        repetitions=1,
        grid=QuantileGrid((0.5,)),
    )
    assert len(rows) == 6
    assert {(r["h"], r["cm"], r["total_window"]) for r in rows} == {
        (3, 1, 6), (3, 3, 12), (3, 9, 30), (12, 1, 24), (12, 3, 48), (12, 9, 120),
    }
    assert not any(r["skipped"] for r in rows)


def test_sweep_rejects_an_unknown_family_even_when_every_config_is_skipped():
    rng = np.random.default_rng(11)
    episodes = [make_episode(rng, t_len=20, eid=f"ep{i}") for i in range(2)]
    with pytest.raises(ValidationError, match="unknown family 'bogus'"):
        sweep(
            episodes, ["persistence", "bogus"], TrainConfig(epochs=1),
            h_values=(40,), cm_values=(1,), repetitions=1,
        )


def test_sweep_without_episodes_is_a_named_error():
    with pytest.raises(ValidationError, match="sweep needs at least one episode"):
        sweep([], ["persistence"], TrainConfig(), h_values=(3, 12), cm_values=(1, 3, 9),
              repetitions=1)


# ------------------------------------------------------------------ bench


def test_bench_reports_latency_and_memory():
    rng = np.random.default_rng(11)
    model = make_model("persistence", wc=WC)
    episode = make_episode(rng)  # 16 decisions a pass, so 30 timed pushes restart it
    report = bench(MonitorConfig(model), episode, warmup=2, iters=30)
    assert isinstance(report, BenchReport)
    assert report.iters == 30
    assert 0 < report.median_ms <= report.p99_ms
    assert report.mean_ms > 0
    assert report.parameter_count == 0 and report.parameter_bytes == 0
    assert report.peak_alloc_bytes > 0
    assert report.peak_alloc_source == "tracemalloc"
    d = report.to_dict()
    assert d["family"] == "persistence" and d["h"] == WC.h
    with pytest.raises(ValidationError):
        bench(MonitorConfig(model), episode, warmup=-1, iters=0)


def test_bench_ar_rnn_runs_with_paths():
    rng = np.random.default_rng(12)
    model = make_model("ar_rnn", wc=WC, cell="gru", nodes=40, dropout=0.1)
    report = bench(MonitorConfig(model, n_paths=20), make_episode(rng), warmup=1, iters=5)
    assert report.parameter_count > 0
    assert report.parameter_bytes == report.parameter_count * 8


def test_bench_refuses_an_episode_whose_channels_are_not_the_models():
    # the model reads its channels by position: swapped ones would be timed as valid input
    from forewarn.monitor import replay

    model = make_model("persistence", wc=WC)
    swapped = replace(make_episode(np.random.default_rng(14)), lc_names=("c1", "c0"))
    message = re.escape("episode ep0: channels ('c1', 'c0') do not match model ('c0', 'c1')")
    for run in (lambda: bench(MonitorConfig(model), swapped, warmup=0, iters=1),
                lambda: replay(swapped, MonitorConfig(model))):
        with pytest.raises(ValidationError, match=message):
            run()


def test_bench_needs_an_episode_that_outlasts_the_lookback():
    model = make_model("persistence", wc=WC)
    short = make_episode(np.random.default_rng(13), t_len=WC.k)
    with pytest.raises(ValidationError, match="episode ep0 has no step after the lookback k=4"):
        bench(MonitorConfig(model), short, warmup=0, iters=1)
