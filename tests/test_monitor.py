"""Streaming monitor: warm-up, decisions, hysteresis, alarms, replay."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _synth import make_episode, make_model
from forewarn import core, forecasters
from forewarn.core import ValidationError, WindowConfig, violation_sign
from forewarn.data import NormStats, make_windows
from forewarn.forecasters import SAMPLING_FAMILIES, predict_quantiles_batch
from forewarn.monitor import Alarm, MonitorConfig, SafetyMonitor, decisions, replay

WC = WindowConfig(h=2, cm=2)  # k = 4
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
SMALL_HYPERS = {
    "persistence": {},
    "seq2seq": {"decoder_layers": 1, "neurons": 20},
    "convseq2seq": {"decoder_layers": 1, "neurons": 20, "channels": 20},
    "ar_rnn": {"cell": "gru", "nodes": 40, "dropout": 0.1},
    "attn_seq2seq": {"state": 40, "heads": 4, "dropout": 0.1},
}
# non-identity stats, so the monitor's normalization is exercised
SKEWED_NORM = NormStats({"m": (0.3, 1.7), "c0": (-0.2, 0.9), "c1": (1.1, 2.3)})


def persistence_cfg(**kw):
    return MonitorConfig(make_model("persistence", wc=WC), **kw)


def push_stream(monitor, ys, rng):
    """Push metric values with noise covariates; returns push results."""
    return [monitor.push(rng.standard_normal(2), y) for y in ys]


def test_config_validation():
    model = make_model("persistence", wc=WC)
    MonitorConfig(model)  # 0.995 is in the default test grid
    with pytest.raises(ValidationError, match="not in grid"):
        MonitorConfig(model, decision_quantile=0.42)
    with pytest.raises(ValidationError, match="hysteresis"):
        MonitorConfig(model, hysteresis=-1)
    with pytest.raises(ValidationError, match="n_paths"):
        MonitorConfig(model, n_paths=0)


def test_monitor_requires_complete_norm_stats():
    # a model without stats for every channel is refused before a monitor can run it
    with pytest.raises(ValidationError, match=r"no stats for channels \['c0', 'c1'\]"):
        make_model("persistence", wc=WC, norm=NormStats({"m": (0.0, 1.0)}))


def test_monitor_rejects_wrong_scenario_width():
    rng = np.random.default_rng(1)
    scenario = make_episode(rng, n_static=5).scenario
    with pytest.raises(ValidationError, match="dims"):
        SafetyMonitor(persistence_cfg(), scenario)


def test_no_decision_during_warmup():
    rng = np.random.default_rng(2)
    monitor = SafetyMonitor(persistence_cfg(), make_episode(rng).scenario)
    for _ in range(WC.k):
        assert monitor.push(rng.standard_normal(2), -1.0) is None
        assert monitor.last_decision is None and monitor.last_forecast is None
    monitor.push(rng.standard_normal(2), -1.0)
    assert monitor.last_decision == -1  # first decision at t = k


def test_push_schema_errors():
    rng = np.random.default_rng(3)
    monitor = SafetyMonitor(persistence_cfg(), make_episode(rng).scenario)
    with pytest.raises(ValidationError, match="shape"):
        monitor.push([1.0, 2.0, 3.0], 0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        monitor.push([np.nan, 0.0], 0.0)
    with pytest.raises(ValidationError, match="non-finite"):
        monitor.push([0.0, 0.0], np.inf)


def test_a_refused_observation_leaves_the_monitor_as_it_was():
    # 1.7e308 is finite but overflows once divided by the target's std of 0.5;
    # it is refused at the push that brings it, in warm-up as after it, and the
    # monitor then decides as one that never saw that push
    norm = NormStats({"m": (0.0, 0.5), "c0": (0.0, 1.0), "c1": (0.0, 1.0)})
    cfg = MonitorConfig(make_model("seq2seq", wc=WC, norm=norm, **SMALL_HYPERS["seq2seq"]))
    ep = make_episode(np.random.default_rng(23), t_len=12)
    y = ep.metric("m")
    seen, clean = SafetyMonitor(cfg, ep.scenario), SafetyMonitor(cfg, ep.scenario)

    def same_state():
        assert seen.last_decision == clean.last_decision
        if clean.last_forecast is not None:
            assert np.array_equal(seen.last_forecast.values, clean.last_forecast.values)

    for t in range(ep.length):
        if t in (1, 8):
            with pytest.raises(ValidationError, match="non-finite"):
                seen.push(ep.lc_outputs[t], 1.7e308)
            same_state()
        alarm = seen.push(ep.lc_outputs[t], y[t])
        want = clean.push(ep.lc_outputs[t], y[t])
        assert (alarm is None) == (want is None)
        same_state()
    assert clean.last_decision is not None


@pytest.mark.filterwarnings("error")
def test_a_refused_observation_is_only_a_named_error():
    # +-1.7e308 / 0.5 overflows: only the named error may come out, no numpy
    # RuntimeWarning before it
    norm = NormStats({"m": (0.0, 0.5), "c0": (0.0, 1.0), "c1": (0.0, 0.5)})
    monitor = SafetyMonitor(
        MonitorConfig(make_model("persistence", wc=WC, norm=norm)),
        make_episode(np.random.default_rng(25)).scenario,
    )
    with pytest.raises(ValidationError, match="non-finite"):
        monitor.push([0.0, 0.0], 1.7e308)
    with pytest.raises(ValidationError, match="non-finite"):
        monitor.push([0.0, -1.7e308], 0.0)
    assert monitor.push([0.0, 0.0], 0.0) is None  # still warming up: nothing was counted


def test_a_push_starts_no_thread(monkeypatch):
    # a push forecasts one window, one chunk of ar_rnn's decoding, which runs inline
    def boom(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(forecasters, "ThreadPoolExecutor", boom)
    monkeypatch.setattr(forecasters, "_WORKERS", 2)
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 1)  # one window a chunk
    model = make_model("ar_rnn", wc=WC, **SMALL_HYPERS["ar_rnn"])
    ep = make_episode(np.random.default_rng(26), t_len=12)
    assert len(replay(ep, MonitorConfig(model, n_paths=10))) == 12 - WC.k
    windows = make_windows(ep, (0, ep.length), WC, model.norm, target="m")
    with pytest.raises(AssertionError, match="thread pool"):  # two chunks would start one
        predict_quantiles_batch(model, windows[:2], mc_seed=0, n_paths=10)


def test_each_forecast_carries_its_push_origin_and_the_model_grid():
    # QuantileForecast checks nothing itself; the monitor stamps each forecast
    # with its own push counter and one (h, |Q|) row per lead time
    rng = np.random.default_rng(24)
    model = make_model("seq2seq", wc=WC, qs=(0.1, 0.5, 0.9, 0.995), **SMALL_HYPERS["seq2seq"])
    monitor = SafetyMonitor(MonitorConfig(model), make_episode(rng).scenario)
    origins = []
    for t, y in enumerate(rng.standard_normal(10)):
        alarm = monitor.push(rng.standard_normal(2), float(y))
        fc = monitor.last_forecast
        if fc is None:
            continue
        assert fc.grid == model.grid and fc.values.shape == (WC.h, len(model.grid))
        assert alarm is None or alarm.forecast is fc
        origins.append(fc.origin_t)
    assert origins == list(range(WC.k, 10))


def test_persistence_decisions_follow_last_value():
    # persistence repeats the newest metric value, so the decision at t is
    # exactly the sign of y[t]; zero counts as a violation
    rng = np.random.default_rng(4)
    ys = [-1.0, -1.0, -1.0, -1.0, 2.0, -3.0, 0.0, 5.0]
    monitor = SafetyMonitor(persistence_cfg(), make_episode(rng).scenario)
    results = push_stream(monitor, ys, rng)
    assert all(r is None for r in results[: WC.k])
    decisions = []
    monitor2 = SafetyMonitor(persistence_cfg(), make_episode(np.random.default_rng(4)).scenario)
    for y in ys:
        monitor2.push(rng.standard_normal(2), y)
        decisions.append(monitor2.last_decision)
    assert decisions[WC.k :] == [1, -1, 1, 1]


def test_alarm_payload_and_hysteresis_one():
    rng = np.random.default_rng(5)
    ys = [-1.0, -1.0, -1.0, -1.0, 2.0, -3.0, 4.0, 5.0]
    monitor = SafetyMonitor(persistence_cfg(hysteresis=1), make_episode(rng).scenario)
    results = push_stream(monitor, ys, rng)
    alarm_ts = [r.origin_t for r in results if isinstance(r, Alarm)]
    assert alarm_ts == [4, 6, 7]
    alarm = results[4]
    assert alarm.time_to_violation == 1  # constant positive column violates at lead 1
    assert alarm.forecast.values.shape == (WC.h, 3)
    assert np.all(alarm.forecast.values == 2.0)


def test_hysteresis_two_needs_consecutive_positives():
    rng = np.random.default_rng(6)
    ys = [-1.0, -1.0, -1.0, -1.0, 2.0, -3.0, 4.0, 5.0]
    monitor = SafetyMonitor(persistence_cfg(hysteresis=2), make_episode(rng).scenario)
    results = push_stream(monitor, ys, rng)
    assert [r.origin_t for r in results if isinstance(r, Alarm)] == [7]


def test_hysteresis_two_alternating_never_alarms():
    rng = np.random.default_rng(7)
    ys = [-1.0] * WC.k + [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    monitor = SafetyMonitor(persistence_cfg(hysteresis=2), make_episode(rng).scenario)
    assert all(r is None for r in push_stream(monitor, ys, rng))


def test_hysteresis_zero_behaves_like_one():
    rng = np.random.default_rng(8)
    ys = [-1.0, -1.0, -1.0, -1.0, 2.0, -3.0, 4.0, 5.0]
    m0 = SafetyMonitor(persistence_cfg(hysteresis=0), make_episode(np.random.default_rng(9)).scenario)
    m1 = SafetyMonitor(persistence_cfg(hysteresis=1), make_episode(np.random.default_rng(9)).scenario)
    r0 = push_stream(m0, ys, np.random.default_rng(10))
    r1 = push_stream(m1, ys, np.random.default_rng(10))
    assert [r.origin_t for r in r0 if r] == [r.origin_t for r in r1 if r]


def test_pushes_leave_parameters_unchanged():
    rng = np.random.default_rng(11)
    model = make_model("seq2seq", wc=WC, decoder_layers=1, neurons=20)
    before = {k: v.tobytes() for k, v in model.params.items()}
    monitor = SafetyMonitor(MonitorConfig(model), make_episode(rng).scenario)
    push_stream(monitor, list(np.linspace(-1, 1, 10)), rng)
    assert {k: v.tobytes() for k, v in model.params.items()} == before


def test_higher_quantile_decision_is_implied():
    # non-crossing rows: a violation at the decision quantile implies one at
    # every higher quantile of the same forecast
    rng = np.random.default_rng(12)
    model = make_model("seq2seq", wc=WC, qs=(0.1, 0.5, 0.9, 0.995), decoder_layers=1, neurons=20)
    monitor = SafetyMonitor(MonitorConfig(model, decision_quantile=0.5), make_episode(rng).scenario)
    checked = 0
    for y in rng.standard_normal(30):
        monitor.push(rng.standard_normal(2), float(y))
        fc = monitor.last_forecast
        if fc is None:
            continue
        signs = [violation_sign(fc.values[:, j]) for j in range(fc.values.shape[1])]
        for lo, hi in zip(signs, signs[1:]):
            assert not (lo == 1 and hi == -1)
        checked += 1
    assert checked == 30 - WC.k


def test_ar_rnn_pushes_are_reproducible_across_monitors():
    rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
    model = make_model("ar_rnn", wc=WC, cell="gru", nodes=40, dropout=0.1)
    scenario = make_episode(np.random.default_rng(14)).scenario
    ma = SafetyMonitor(MonitorConfig(model, seed=5, n_paths=30), scenario)
    mb = SafetyMonitor(MonitorConfig(model, seed=5, n_paths=30), scenario)
    for y in np.linspace(-1, 1, 8):
        ma.push(rng_a.standard_normal(2), float(y))
        mb.push(rng_b.standard_normal(2), float(y))
        if ma.last_forecast is not None:
            assert np.array_equal(ma.last_forecast.values, mb.last_forecast.values)
            assert ma.last_decision == mb.last_decision


def test_replay_counts_and_determinism():
    rng = np.random.default_rng(15)
    metric = np.concatenate([np.full(10, -2.0), np.full(10, 3.0)]).reshape(-1, 1)
    ep = make_episode(rng, t_len=20, metric=metric)
    cfg = persistence_cfg()
    steps = replay(ep, cfg)
    assert len(steps) == 20 - WC.k  # exactly T - k decisions
    assert [t for t, _, _ in steps] == list(range(WC.k, 20))
    # persistence: decision tracks sign of the current metric value
    assert [d for _, d, _ in steps] == [-1] * 6 + [1] * 10
    again = replay(ep, cfg)
    assert [(t, d) for t, d, _ in steps] == [(t, d) for t, d, _ in again]
    assert [a.origin_t for _, _, a in steps if a] == [a.origin_t for _, _, a in again if a]


def test_replay_no_violations_no_alarms():
    rng = np.random.default_rng(16)
    ep = make_episode(rng, t_len=15, metric=np.full((15, 1), -1.0))
    steps = replay(ep, persistence_cfg())
    assert len(steps) == 15 - WC.k
    assert all(a is None for _, _, a in steps)
    assert all(d == -1 for _, d, _ in steps)


def test_replay_rejects_mismatched_channels():
    rng = np.random.default_rng(17)
    ep = make_episode(rng, n_cov=3)
    with pytest.raises(ValidationError, match="channels"):
        replay(ep, persistence_cfg())


@pytest.mark.parametrize("family", SMALL_HYPERS)
def test_push_forecasts_equal_predict_quantiles_on_make_windows(family):
    model = make_model(family, wc=WC, norm=SKEWED_NORM, **SMALL_HYPERS[family])
    cfg = MonitorConfig(model, decision_quantile=0.5, seed=9, n_paths=30)
    ep = make_episode(np.random.default_rng(18), t_len=30)
    windows = {
        w.origin_t: w for w in make_windows(ep, (0, ep.length), WC, SKEWED_NORM, target="m")
    }
    monitor = SafetyMonitor(cfg, ep.scenario)
    y = ep.metric("m")
    compared = 0
    for t in range(ep.length):
        monitor.push(ep.lc_outputs[t], y[t])
        if t not in windows or monitor.last_forecast is None:
            continue
        want = predict_quantiles_batch(
            model, [windows[t]], mc_seed=cfg.seed, n_paths=cfg.n_paths
        )[0]
        assert monitor.last_forecast.origin_t == t
        assert np.array_equal(monitor.last_forecast.values, want)
        compared += 1
    assert compared == ep.length - WC.total  # origins k..T-1-h


@pytest.mark.parametrize("family, bound", [("persistence", None), ("seq2seq", 1e6)])
@PROPERTY
@given(data=st.data())
def test_any_finite_stream_yields_t_minus_k_decisions(family, bound, data):
    # persistence forecasts stay finite for any finite input; a neural
    # forward can overflow, so its inputs keep a physical magnitude
    elements = st.floats(
        min_value=-bound if bound else None,
        max_value=bound,
        allow_nan=False,
        allow_infinity=False,
    )
    shape = st.tuples(st.integers(0, 12), st.just(3))  # rows of [metric, c0, c1]
    stream = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    monitor = SafetyMonitor(
        MonitorConfig(make_model(family, wc=WC, **SMALL_HYPERS[family])),
        make_episode(np.random.default_rng(19)).scenario,
    )
    decisions = 0
    for t, row in enumerate(stream):
        monitor.push(row[1:], row[0])
        assert (monitor.last_decision is None) == (t < WC.k)
        decisions += monitor.last_decision is not None
    assert decisions == max(len(stream) - WC.k, 0)


@pytest.mark.parametrize("family", SMALL_HYPERS)
def test_push_builds_no_window_sample_or_stacked_batch(family, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("called on the monitor's hot path")

    monkeypatch.setattr(core.WindowSample, "__post_init__", boom)
    monkeypatch.setattr(forecasters, "stack_windows", boom)
    if family not in SAMPLING_FAMILIES:
        monkeypatch.setattr(forecasters, "derived_seed", boom)
    model = make_model(family, wc=WC, **SMALL_HYPERS[family])
    ep = make_episode(np.random.default_rng(20), t_len=12)
    assert len(replay(ep, MonitorConfig(model, n_paths=10))) == 12 - WC.k


def test_each_decision_is_one_call_of_the_monitor_modules_predictor(monkeypatch):
    # benchmarks/tracing.py times the monitor's forecasts by wrapping this name
    predict, origins = forecasters.predict_quantiles, []

    def counting(model, batch, **kwargs):
        origins.append(int(batch["origin_t"][0]))
        return predict(model, batch, **kwargs)

    monkeypatch.setattr("forewarn.monitor.predict_quantiles", counting)
    ep = make_episode(np.random.default_rng(22), t_len=15)
    steps = list(decisions(ep, persistence_cfg()))
    assert origins == [t for t, *_ in steps] == list(range(WC.k, ep.length))


@pytest.mark.parametrize("family", ["persistence", "seq2seq", "ar_rnn"])
def test_memory_held_is_bounded_in_stream_length(family):
    model = make_model(family, wc=WC, **SMALL_HYPERS[family])
    ep = make_episode(np.random.default_rng(21), t_len=2000)
    y = ep.metric("m")

    def held_after(pushes):
        """Traced bytes released by dropping a monitor fed `pushes` observations."""
        monitor = SafetyMonitor(MonitorConfig(model, n_paths=10), ep.scenario)
        for t in range(pushes):
            monitor.push(ep.lc_outputs[t], y[t])
        gc.collect()
        with_monitor = tracemalloc.get_traced_memory()[0]
        del monitor
        gc.collect()
        return with_monitor - tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        short, long = held_after(50), held_after(ep.length)
    finally:
        tracemalloc.stop()
    assert 0 < long <= short + 2048
