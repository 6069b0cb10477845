import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import safety_metric_fn, violation_signs
from _synth import make_episode as make_synth_episode
from _synth import make_model
from forewarn.core import (
    DEFAULT_QUANTILES,
    Episode,
    QuantileForecast,
    QuantileGrid,
    Scenario,
    ScenarioDim,
    ValidationError,
    WindowBatch,
    WindowConfig,
    WindowSample,
    first_violation_index,
    violation_sign,
)
from forewarn.data import NormStats
from forewarn.monitor import MonitorConfig, decisions

DIMS = (
    ScenarioDim("time_of_day", 0.0, 1.0),
    ScenarioDim("cloud_cover", 0.0, 1.0),
    ScenarioDim("cte_start", -8.0, 8.0),
    ScenarioDim("he_start", -10.0, 10.0),
)


def make_episode(t=20, seed=0):
    rng = np.random.default_rng(seed)
    scen = Scenario((0.5, 0.5, 1.0, -2.0), DIMS)
    state = rng.normal(size=(t, 2))
    metric = np.abs(state) - np.array([5.0, 5.0])
    return Episode(
        id="ep0",
        scenario=scen,
        dt_seconds=1.0,
        lc_outputs=state + rng.normal(scale=0.1, size=(t, 2)),
        raw_state=state,
        safety_metric=metric,
        lc_names=("cte_est", "he_est"),
        state_names=("cte_act", "he_act"),
        metric_names=("margin_cte", "margin_he"),
    )


# ---------------------------------------------------------------- operations


def test_safety_metric_hand_values():
    assert safety_metric_fn(4.0, 5.0) == pytest.approx(-1.0, abs=1e-12)
    assert safety_metric_fn(-5.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    assert safety_metric_fn(7.3, 5.0) == pytest.approx(2.3, abs=1e-12)


def test_safety_metric_rejects_bad_threshold():
    with pytest.raises(ValidationError):
        safety_metric_fn(1.0, 0.0)
    with pytest.raises(ValidationError):
        safety_metric_fn(1.0, -2.0)


def test_safety_metric_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = float(rng.normal(scale=10))
        thr = float(rng.uniform(0.1, 10))
        assert safety_metric_fn(a, thr) == safety_metric_fn(-a, thr)


def test_violation_sign_zero_counts_as_violation():
    assert violation_sign([-1.0, 0.0, -2.0]) == 1


def test_violation_sign_all_negative():
    assert violation_sign([-1.0, -0.001, -2.0]) == -1


def test_violation_sign_empty_horizon():
    with pytest.raises(ValidationError, match="empty horizon"):
        violation_sign([])


def test_violation_sign_matches_naive_scan():
    rng = np.random.default_rng(2)
    for _ in range(300):
        vals = rng.normal(size=rng.integers(1, 12))
        naive = 1 if any(v >= 0 for v in vals) else -1
        assert violation_sign(vals) == naive


def test_violation_sign_along_an_axis_is_the_verdict_of_each_row():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 5)) - 1.0
    assert violation_sign(x, axis=1).tolist() == [violation_sign(row) for row in x]
    assert violation_sign(x, axis=0).tolist() == [violation_sign(col) for col in x.T]
    assert type(violation_sign(x)) is int and type(violation_sign(x[0])) is int


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    axis=st.integers(0, 2),
    data=st.data(),
)
def test_violation_sign_along_an_axis_matches_the_max_form_property(axis, data):
    # one-step horizons (a side of 1), exact and signed zeros, NaN cells and whole NaN rows
    shape = data.draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=4))
    elements = st.one_of(
        st.sampled_from((0.0, -0.0, np.nan, -np.inf, np.inf)), st.floats(-3.0, 3.0)
    )
    arr = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    nan_row = data.draw(st.integers(-1, shape[0] - 1))
    if nan_row >= 0:
        arr[nan_row] = np.nan
    got = violation_sign(arr, axis=axis)
    want = violation_signs(arr, axis)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_first_violation_index_hand_values():
    assert first_violation_index([-1.0, 0.2, 0.5]) == 2
    assert first_violation_index([0.0, -1.0, -1.0]) == 1
    assert first_violation_index([-1.0, -2.0]) is None


def test_first_violation_index_agrees_with_sign():
    rng = np.random.default_rng(3)
    for _ in range(300):
        vals = rng.normal(size=rng.integers(1, 10))
        idx = first_violation_index(vals)
        if violation_sign(vals) == 1:
            assert idx is not None and vals[idx - 1] >= 0
            assert all(v < 0 for v in vals[: idx - 1])
        else:
            assert idx is None


# ---------------------------------------------------------------- scenario


def test_scenario_roundtrip_and_unit_values():
    s = Scenario((0.25, 1.0, -8.0, 10.0), DIMS)
    assert s.values[s.names.index("cloud_cover")] == 1.0
    u = s.unit_values()
    assert u == pytest.approx([0.25, 1.0, 0.0, 1.0])


def test_scenario_names_are_built_once_and_stay_out_of_eq_hash_and_repr():
    s, fresh = Scenario((0.25, 1.0, -8.0, 10.0), DIMS), Scenario((0.25, 1.0, -8.0, 10.0), DIMS)
    assert s.names is s.names == tuple(d.name for d in DIMS)
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert replace(s, values=(0.5, 0.5, 0.0, 0.0)) != s


def test_scenario_out_of_range():
    with pytest.raises(ValidationError):
        Scenario((0.5, 0.5, 9.0, 0.0), DIMS)


def test_scenario_wrong_arity():
    with pytest.raises(ValidationError):
        Scenario((0.5, 0.5), DIMS)


def test_dim_bounds_must_be_ordered():
    with pytest.raises(ValidationError):
        ScenarioDim("x", 1.0, 1.0)


# ---------------------------------------------------------------- episode


def test_episode_lengths_must_agree():
    ep = make_episode()
    with pytest.raises(ValidationError):
        Episode(
            id="bad",
            scenario=ep.scenario,
            dt_seconds=1.0,
            lc_outputs=ep.lc_outputs[:-1],
            raw_state=ep.raw_state,
            safety_metric=ep.safety_metric,
            lc_names=ep.lc_names,
            state_names=ep.state_names,
            metric_names=ep.metric_names,
        )


def test_episode_unknown_metric_name():
    ep = make_episode()
    with pytest.raises(ValidationError):
        ep.metric("nope")


def test_episode_rejects_nonfinite():
    ep = make_episode()
    state = ep.raw_state.copy()
    state[0, 0] = np.nan
    with pytest.raises(ValidationError):
        Episode(
            id="bad",
            scenario=ep.scenario,
            dt_seconds=1.0,
            lc_outputs=ep.lc_outputs,
            raw_state=state,
            safety_metric=ep.safety_metric,
            lc_names=ep.lc_names,
            state_names=ep.state_names,
            metric_names=ep.metric_names,
        )


# ---------------------------------------------------------------- windows / grids


def test_window_config_lookback():
    wc = WindowConfig(h=3, cm=3)
    assert wc.k == 9
    assert wc.total == 12
    assert WindowConfig(h=12, cm=9).total == 120


def test_window_config_rejects_bad_values():
    with pytest.raises(ValidationError):
        WindowConfig(h=0, cm=1)
    with pytest.raises(ValidationError):
        WindowConfig(h=3, cm=0)


def test_default_quantile_grid():
    g = QuantileGrid()
    assert g.qs == DEFAULT_QUANTILES
    assert len(g) == 7
    assert g.index(0.995) == 6


def test_quantile_grid_must_increase():
    with pytest.raises(ValidationError):
        QuantileGrid((0.5, 0.5))
    with pytest.raises(ValidationError):
        QuantileGrid((0.9, 0.1))
    with pytest.raises(ValidationError):
        QuantileGrid((0.0, 0.5))
    with pytest.raises(ValidationError):
        QuantileGrid(())


def test_quantile_forecast_non_crossing_enforced():
    # QuantileForecast holds what its one producer, the monitor, gives it: a
    # head whose raw quantiles cross ([1, 0.5, 1] at every lead time) reaches
    # the forecast as sorted, denormalized rows, ties kept
    wc = WindowConfig(h=2, cm=2)
    norm = NormStats({"m": (0.3, 2.0), "c0": (0.0, 1.0), "c1": (0.0, 1.0)})
    model = make_model("seq2seq", wc=wc, qs=(0.1, 0.5, 0.9), norm=norm, decoder_layers=1, neurons=20)
    model.params["head.W"][:] = 0.0
    model.params["head.b"][:] = np.tile([1.0, 0.5, 1.0], wc.h)
    ep = make_synth_episode(np.random.default_rng(4), t_len=wc.k + 3)
    want = np.tile(np.array([0.5, 1.0, 1.0]) * 2.0 + 0.3, (wc.h, 1))
    forecasts = [fc for *_, fc in decisions(ep, MonitorConfig(model, decision_quantile=0.5))]
    assert len(forecasts) == 3
    for fc in forecasts:
        assert np.array_equal(fc.values, want)


def test_quantile_forecast_column():
    g = QuantileGrid((0.1, 0.9))
    f = QuantileForecast(np.array([[0.0, 1.0], [2.0, 3.0]]), g, origin_t=0)
    assert f.column(0.9) == pytest.approx([1.0, 3.0])


def test_window_sample_is_a_row_handle_its_batch_checks():
    names = tuple(d.name for d in DIMS)

    def one(cov, static_width=4):  # a one-window batch, cut from episode ep0
        return WindowBatch(
            static=np.zeros((1, static_width)), past_target=np.zeros((1, 9)), past_cov=cov[None],
            future_target=np.zeros((1, 3)), episode_ids=np.array(["ep0"]),
            origin_t=np.array([10]), scenario_dims=names,
        )

    batch = one(np.zeros((9, 2)))
    (s,) = batch  # iterating gives the handles; an int index selects nothing
    assert (s.batch, s.index, s.episode_id) == (batch, 0, "ep0")
    refusal = r"static must be 2-dimensional, got shape \(4,\)"
    for index in (0, -1, np.int64(0)):
        with pytest.raises(ValidationError, match=refusal):
            batch[index]
    with pytest.raises(ValidationError, match="window index must be an int >= 0 and < 1"):
        WindowSample(batch, 1)
    with pytest.raises(IndexError):
        batch[1]
    with pytest.raises(ValidationError, match="disagree"):
        one(np.zeros((8, 2)))
    message = re.escape(f"static has 3 columns, scenario dims {names} name 4")
    with pytest.raises(ValidationError, match=message):
        one(np.zeros((9, 2)), static_width=3)


def test_window_batch_is_checked_once_as_a_whole():
    names = tuple(d.name for d in DIMS)

    def batch(n=3, ids=3, dims=names, cov=None, origin_t=None):
        return WindowBatch(
            static=np.zeros((n, 4)),
            past_target=np.zeros((n, 9)),
            past_cov=np.zeros((n, 9, 2)) if cov is None else cov,
            future_target=np.zeros((n, 3)),
            episode_ids=np.full(ids, "ep0"),
            origin_t=np.arange(n) if origin_t is None else origin_t,
            scenario_dims=dims,
        )

    ok = batch(dims=list(names))
    assert len(ok) == 3 and ok.origin_t[list(ok)[1].index] == 1
    assert ok.scenario_dims == names and ok[::2].scenario_dims == names
    assert isinstance(ok[::2], WindowBatch) and len(ok[::2]) == 2
    with pytest.raises(ValidationError, match="disagree"):
        batch(ids=2)
    with pytest.raises(ValidationError, match="disagree"):
        batch(cov=np.zeros((3, 8, 2)))
    with pytest.raises(ValidationError, match="static has 4 columns, scenario dims .* name 5"):
        batch(dims=(*names, "extra"))
    cov = np.zeros((3, 9, 2))
    cov[2, 4, 1] = np.nan
    with pytest.raises(ValidationError, match="past_cov contains non-finite"):
        batch(cov=cov)
    # origin_t seeds each window's Monte-Carlo draws, so it must be a valid seed word
    with pytest.raises(ValidationError, match="origin_t must be >= 0 in every window, got -1"):
        batch(origin_t=np.array([0, -1, 2]))
    for column in (np.array([0.0, 1.0, 2.0]), np.array([True, False, True])):
        with pytest.raises(ValidationError, match=f"origin_t must be ints, got dtype {column.dtype}"):
            batch(origin_t=column)
