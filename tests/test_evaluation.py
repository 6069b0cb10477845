"""Metrics, rank statistics, repetition-based evaluation, sweep, bench."""

import math

import numpy as np
import pytest
import scipy.stats

from _synth import FIT_KW, make_episode, make_learnable_windows, make_model, make_sample
from forewarn.core import QuantileGrid, ValidationError, WindowConfig, WindowSample
from forewarn.data import build_split, fit_norm, windows_for_phase
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
from forewarn.training import TrainConfig

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
    assert abs(f_beta(0.5, 0.5, beta=1.0) - 0.5) < 1e-15
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


def window_with(v_last, future, rng):
    """A window whose persistence forecast is v_last and truth sign(max future)."""
    past = rng.standard_normal(WC.k)
    past[-1] = v_last
    return WindowSample(
        scenario=make_sample(rng, WC).scenario,
        past_target=past,
        past_covariates=rng.standard_normal((WC.k, 2)),
        future_target=np.asarray(future, dtype=np.float64),
        denorm=(0.0, 1.0),
        episode_id="ep0",
        origin_t=WC.k - 1,
    )


def test_evaluate_model_exact_confusion_and_qrisk():
    rng = np.random.default_rng(5)
    model = make_model("persistence", wc=WC)
    windows = [
        window_with(1.0, [0.5, -1.0], rng),   # predicted +, true +  -> TP
        window_with(1.0, [-0.5, -1.0], rng),  # predicted +, true -  -> FP
        window_with(-1.0, [2.0, -1.0], rng),  # predicted -, true +  -> FN
        window_with(-1.0, [-2.0, -1.0], rng), # predicted -, true -  -> TN
    ]
    ev = evaluate_model(model, windows)
    assert np.array_equal(ev.truths, [1, -1, 1, -1])
    y_true = np.stack([w.future_target for w in windows])
    for q in model.grid.qs:
        row = ev.per_q[q]
        assert (row["tp"], row["fp"], row["fn"], row["tn"]) == (1, 1, 1, 1)
        assert row["precision"] == 0.5 and row["recall"] == 0.5
        assert not row["degenerate_precision"]
        pred = np.stack([np.full(WC.h, w.past_target[-1]) for w in windows])
        assert abs(row["q_risk"] - brute_q_risk(y_true, pred, q)) < 1e-12


@pytest.mark.parametrize("family", ["persistence", "seq2seq", "ar_rnn"])
def test_evaluate_model_on_a_window_batch_equals_it_on_its_samples(family):
    rng = np.random.default_rng(8)
    eps = [make_episode(rng, t_len=60, eid=f"ep{i}") for i in range(3)]
    split = build_split(eps)
    batch = windows_for_phase(eps, split, WC, fit_norm(eps, split), "test", target="m")
    model = make_model(family, wc=WC)
    on_batch = evaluate_model(model, batch, mc_seed=4, n_paths=20)
    on_samples = evaluate_model(model, list(batch), mc_seed=4, n_paths=20)
    assert np.array_equal(on_batch.decisions, on_samples.decisions)
    assert np.array_equal(on_batch.truths, on_samples.truths)
    assert np.array_equal(on_batch.episode_ids, on_samples.episode_ids)
    assert on_batch.per_q == on_samples.per_q


def test_evaluate_model_counts_are_monotone_across_quantiles():
    # non-crossing forecasts: raising the quantile can only add positives,
    # so FN never increases and FP never decreases with q
    rng = np.random.default_rng(6)
    model = make_model("seq2seq", wc=WC, qs=(0.05, 0.25, 0.5, 0.75, 0.95), decoder_layers=1, neurons=20)
    windows = [make_sample(rng, WC) for _ in range(60)]
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
    model = make_model("seq2seq", wc=WC, decoder_layers=1, neurons=20)
    model.params["head.b"][:] = 1e308
    windows = [make_sample(rng, WC, denorm=(0.0, 2.0)) for _ in range(4)]
    with pytest.raises(ValidationError, match="non-finite"):
        predict_quantiles_batch(model, windows)
    with pytest.raises(ValidationError, match="non-finite"):
        evaluate_model(model, windows)


def test_metric_summary():
    s = MetricSummary.of([1.0, 2.0, 3.0])
    assert s.mean == 2.0
    assert abs(s.half_ci - 1.96 * 1.0 / math.sqrt(3)) < 1e-12
    assert MetricSummary.of([4.0]).half_ci == 0.0


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
        h_values=(2, 40), cm_values=(1,), grid=QuantileGrid((0.1, 0.5, 0.9)),
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
            h_values=(40,), cm_values=(1,),
        )


def test_sweep_without_episodes_is_a_named_error():
    with pytest.raises(ValidationError, match="sweep needs at least one episode"):
        sweep([], ["persistence"], TrainConfig())


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


def test_bench_needs_an_episode_that_outlasts_the_lookback():
    model = make_model("persistence", wc=WC)
    short = make_episode(np.random.default_rng(13), t_len=WC.k)
    with pytest.raises(ValidationError, match="episode ep0 has no step after the lookback k=4"):
        bench(MonitorConfig(model), short, warmup=0, iters=1)
