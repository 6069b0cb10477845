from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forewarn.core import (
    Episode, Scenario, ScenarioDim, ValidationError, WindowBatch, WindowConfig,
)
from forewarn.data import (
    DatasetError,
    EpisodeSplit,
    NormStats,
    STD_EPSILON,
    build_split,
    dataset_hash,
    fit_norm,
    make_windows,
    phase_windows,
    read_episodes,
    split_episode,
    windows_for_phase,
    write_episodes,
)
from forewarn.simulate import SimConfig, generate_dataset

DIMS = (
    ScenarioDim("time_of_day", 0.0, 1.0),
    ScenarioDim("cloud_cover", 0.0, 1.0),
    ScenarioDim("cte_start", -8.0, 8.0),
    ScenarioDim("he_start", -10.0, 10.0),
)


def make_episode(t=40, seed=0, eid="ep0"):
    rng = np.random.default_rng(seed)
    scen = Scenario((0.3, 0.7, -1.0, 2.0), DIMS)
    state = rng.normal(scale=3.0, size=(t, 2))
    return Episode(
        id=eid,
        scenario=scen,
        dt_seconds=0.5,
        lc_outputs=state + rng.normal(scale=0.3, size=(t, 2)),
        raw_state=state,
        safety_metric=np.abs(state) - 5.0,
        lc_names=("cte_est", "he_est"),
        state_names=("cte_act", "he_act"),
        metric_names=("margin_cte", "margin_he"),
    )


# ------------------------------------------------------------- serialization


def test_write_read_roundtrip_is_identity(tmp_path):
    eps = [make_episode(seed=s, eid=f"ep{s}") for s in range(3)]
    # adversarial floats that expose lossy formatting
    nasty = np.array([[0.1 + 0.2, 1.0 / 3.0], [1e-300, 1e300], [-7.3, np.pi]])
    eps.append(
        Episode(
            id="nasty",
            scenario=eps[0].scenario,
            dt_seconds=0.1 + 0.2,
            lc_outputs=nasty,
            raw_state=nasty * np.e,
            safety_metric=nasty - 5.0,
            lc_names=("a", "b"),
            state_names=("cte_act", "he_act"),
            metric_names=("m1", "m2"),
        )
    )
    path = tmp_path / "eps.jsonl"
    write_episodes(path, eps)
    back = read_episodes(path)
    assert len(back) == len(eps)
    for a, b in zip(eps, back):
        assert a.id == b.id
        assert a.dt_seconds == b.dt_seconds
        assert a.scenario.values == b.scenario.values
        assert a.scenario.dims == b.scenario.dims
        assert np.array_equal(a.lc_outputs, b.lc_outputs)
        assert np.array_equal(a.raw_state, b.raw_state)
        assert np.array_equal(a.safety_metric, b.safety_metric)
        assert a.lc_names == b.lc_names
        assert a.state_names == b.state_names
        assert a.metric_names == b.metric_names


# finite doubles, with the edges a lossy writer gets wrong drawn often
FINITE = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _episodes_of_any_finite_doubles(draw):
    """An episode whose columns hold any finite doubles; dt and the bounds are numpy ints."""
    t = draw(st.integers(1, 4))
    lo = draw(st.integers(-5, 4))
    hi = draw(st.integers(lo + 1, 5))
    value = draw(st.sampled_from([float(lo), -0.0 if lo <= 0 <= hi else float(hi)])
                 | st.floats(lo, hi))
    def column(width):
        return np.array(draw(st.lists(FINITE, min_size=t * width, max_size=t * width)),
                        dtype=np.float64).reshape(t, width)
    return Episode(
        id=draw(st.text(min_size=1, max_size=4)),
        scenario=Scenario((value,), (ScenarioDim("d", np.int64(lo), np.int64(hi)),)),
        dt_seconds=np.int64(draw(st.integers(1, 10))),
        lc_outputs=column(2),
        raw_state=column(2),
        safety_metric=column(1),
        lc_names=("a", "b"),
        state_names=("c", "d"),
        metric_names=("m",),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ep=_episodes_of_any_finite_doubles())
def test_an_episode_round_trips_to_the_bit(tmp_path_factory, ep):
    path = tmp_path_factory.mktemp("roundtrip") / "eps.jsonl"
    write_episodes(path, [ep])
    (back,) = read_episodes(path)
    def bits(*xs):
        return np.array(xs, dtype=np.float64).tobytes()
    assert back.id == ep.id
    assert bits(back.dt_seconds) == bits(ep.dt_seconds)
    assert bits(*back.scenario.values) == bits(*ep.scenario.values)
    (dim,), (dim_back,) = ep.scenario.dims, back.scenario.dims
    assert bits(dim_back.lo, dim_back.hi) == bits(dim.lo, dim.hi)
    for name in ("lc_outputs", "raw_state", "safety_metric"):
        assert getattr(back, name).tobytes() == getattr(ep, name).tobytes(), name


def test_write_is_byte_deterministic(tmp_path):
    eps = [make_episode(seed=s, eid=f"ep{s}") for s in range(2)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_episodes(p1, eps)
    write_episodes(p2, eps)
    assert p1.read_bytes() == p2.read_bytes()
    assert dataset_hash(p1) == dataset_hash(p2)


def test_malformed_json_names_line(tmp_path):
    eps = [make_episode(eid="e1"), make_episode(eid="e2")]
    path = tmp_path / "eps.jsonl"
    write_episodes(path, eps)
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-10]  # truncate the second record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="line 2"):
        read_episodes(path)


def test_unequal_column_lengths_names_line(tmp_path):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, [make_episode(eid="e1")])
    text = path.read_text()
    # drop one value from one column.
    idx = text.index('"he_est":[') + len('"he_est":[')
    end = text.index(",", idx)
    path.write_text(text[:idx] + text[end + 1 :])
    with pytest.raises(DatasetError, match="line 1.*unequal"):
        read_episodes(path)


def test_missing_field_names_line(tmp_path):
    path = tmp_path / "eps.jsonl"
    path.write_text('{"id":"x","dt":1.0}\n')
    with pytest.raises(DatasetError, match="line 1"):
        read_episodes(path)


@pytest.mark.parametrize("edit, message", [
    (lambda line: line.replace(b'"e2"', b'"e\x802"'), "line 2: not ASCII"),
    (lambda line: line.replace(b'"dt":0.5', b'"dt":' + b"9" * 400), "line 2: malformed"),
    (lambda line: b"[" * 100_000 + b"\n", "line 2: invalid JSON"),
], ids=["non_ascii", "overflowing_number", "nested_too_deep"])
def test_non_ascii_overflowing_or_too_deep_line_names_line(tmp_path, edit, message):
    path = tmp_path / "eps.jsonl"
    write_episodes(path, [make_episode(eid="e1"), make_episode(eid="e2")])
    first, second = path.read_bytes().splitlines(keepends=True)
    edited = edit(second)
    assert edited != second
    path.write_bytes(first + edited)
    with pytest.raises(DatasetError, match=message):
        read_episodes(path)


def test_empty_file_reads_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_episodes(path) == []


def test_generated_dataset_roundtrip_and_stable_hash(tmp_path):
    cfg = SimConfig(n_scenarios=10, episode_len=30)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_episodes(p1, generate_dataset(cfg))
    write_episodes(p2, generate_dataset(cfg))
    assert dataset_hash(p1) == dataset_hash(p2)
    back = read_episodes(p1)
    assert [ep.id for ep in back] == [f"ep{i:04d}" for i in range(10)]


# ------------------------------------------------------------- normalization


def test_fit_norm_population_std():
    ep = make_episode(t=10)
    # overwrite one channel with a known sequence on the train rows (0..6)
    lc = ep.lc_outputs.copy()
    lc[:7, 0] = [1, 2, 3, 1, 2, 3, 2]  # mean 2, population std of [1,2,3] pattern
    ep2 = Episode(
        id="n", scenario=ep.scenario, dt_seconds=1.0, lc_outputs=lc,
        raw_state=ep.raw_state, safety_metric=ep.safety_metric,
        lc_names=ep.lc_names, state_names=ep.state_names, metric_names=ep.metric_names,
    )
    split = build_split([ep2])
    norm = fit_norm([ep2], split)
    mean, std = norm.channels["cte_est"]
    arr = np.array([1, 2, 3, 1, 2, 3, 2], dtype=float)
    assert mean == pytest.approx(arr.mean(), abs=1e-15)
    assert std == pytest.approx(arr.std(), abs=1e-15)  # ddof=0


def test_fit_norm_simple_triplet():
    # the canonical hand case: [1,2,3] -> mean 2.0, std sqrt(2/3)
    arr = np.array([1.0, 2.0, 3.0])
    assert arr.std() == pytest.approx(0.816496580927726, abs=1e-12)


def test_constant_channel_clamped(caplog):
    ep = make_episode(t=20)
    lc = ep.lc_outputs.copy()
    lc[:, 1] = 4.25
    ep2 = Episode(
        id="c", scenario=ep.scenario, dt_seconds=1.0, lc_outputs=lc,
        raw_state=ep.raw_state, safety_metric=ep.safety_metric,
        lc_names=ep.lc_names, state_names=ep.state_names, metric_names=ep.metric_names,
    )
    split = build_split([ep2])
    with caplog.at_level("WARNING"):
        norm = fit_norm([ep2], split)
    assert "clamping" in caplog.text
    mean, std = norm.channels["he_est"]
    assert std == STD_EPSILON
    assert np.all((lc[:, 1] - mean) / std == 0.0)


def test_unknown_channel_errors():
    eps = [make_episode()]
    norm = fit_norm(eps, build_split(eps))
    with pytest.raises(DatasetError):
        norm.stats("bogus")


# ------------------------------------------------------------- splits


def test_split_200():
    ep = make_episode(t=200)
    s = split_episode(ep)
    assert s.train == (0, 140)
    assert s.val == (140, 160)
    assert s.test == (160, 200)


def test_split_10():
    s = split_episode(make_episode(t=10))
    assert s.train == (0, 7)
    assert s.val == (7, 8)
    assert s.test == (8, 10)


def test_split_too_short():
    with pytest.raises(DatasetError, match="T=9"):
        split_episode(make_episode(t=9))


# ------------------------------------------------------------- windows


def test_window_count_with_context():
    ep = make_episode(t=100)
    norm = fit_norm([ep], build_split([ep]))
    wc = WindowConfig(h=3, cm=3)  # k = 9
    # segment of length 40 starting at 50: earlier context exists
    samples = make_windows(ep, (50, 90), wc, norm, "margin_cte")
    assert len(samples) == 38
    assert samples.origin_t[0] == 49
    assert samples.origin_t[-1] == 86


def test_window_minimal_segment():
    ep = make_episode(t=100)
    norm = fit_norm([ep], build_split([ep]))
    samples = make_windows(ep, (50, 53), WindowConfig(h=3, cm=3), norm, "margin_cte")
    assert len(samples) == 1
    assert samples.origin_t[0] == 49


def test_window_segment_too_short_yields_empty():
    ep = make_episode(t=100)
    norm = fit_norm([ep], build_split([ep]))
    assert len(make_windows(ep, (50, 52), WindowConfig(h=3, cm=3), norm, "margin_cte")) == 0


def test_window_lookback_never_crosses_episode_start():
    ep = make_episode(t=30)
    norm = fit_norm([ep], build_split([ep]))
    wc = WindowConfig(h=2, cm=4)  # k = 8
    samples = make_windows(ep, (0, 21), wc, norm, "margin_cte")
    # origins: 7 .. 18
    assert samples.origin_t.tolist() == list(range(7, 19))


def test_window_contents_match_enumeration_oracle():
    ep = make_episode(t=60, seed=3)
    split = build_split([ep])
    norm = fit_norm([ep], split)
    wc = WindowConfig(h=4, cm=2)  # k = 8
    seg = split[ep.id].test
    batch = make_windows(ep, seg, wc, norm, target="margin_he")
    # oracle: enumerate every origin and test validity from first principles
    metric = ep.metric("margin_he")
    mean, std = norm.channels["margin_he"]
    expected = [
        t
        for t in range(ep.length)
        if t - wc.k + 1 >= 0          # lookback stays inside the episode
        and t + 1 >= seg[0]           # first target inside the segment
        and t + wc.h <= seg[1] - 1    # last target inside the segment
    ]
    assert batch.origin_t.tolist() == expected
    for i, t in enumerate(expected):
        past, future = batch.past_target[i], batch.future_target[i]
        assert np.allclose(past, (metric[t - wc.k + 1 : t + 1] - mean) / std, atol=1e-15)
        assert np.allclose(future, (metric[t + 1 : t + 1 + wc.h] - mean) / std, atol=1e-15)
        back = future * std + mean
        assert np.max(np.abs(back - metric[t + 1 : t + 1 + wc.h])) < 1e-12
        for j, name in enumerate(ep.lc_names):
            m, sd = norm.channels[name]
            assert np.allclose(
                batch.past_cov[i, :, j],
                (ep.lc_outputs[t - wc.k + 1 : t + 1, j] - m) / sd,
                atol=1e-15,
            )


def _enumerated_windows(ep, segment, wc, norm, target):
    """The per-window reference: one dict of columns per valid origin, in order."""
    k, h = wc.k, wc.h
    mean, std = norm.channels[target]
    metric_n = (ep.metric(target) - mean) / std
    cov_n = np.column_stack(
        [(ep.lc_outputs[:, j] - norm.channels[name][0]) / norm.channels[name][1]
         for j, name in enumerate(ep.lc_names)]
    )
    return [
        {
            "static": ep.scenario.unit_values(),
            "past_target": metric_n[t - k + 1 : t + 1],
            "past_cov": cov_n[t - k + 1 : t + 1],
            "future_target": metric_n[t + 1 : t + 1 + h],
            "episode_ids": ep.id,
            "origin_t": t,
        }
        for t in range(max(segment[0] - 1, k - 1), segment[1] - h)
    ]


def _assert_batch_equals_samples(batch, samples, k, h, n_cov, n_static, ids):
    """Every column equal to the samples', dtype included; `ids` are the ids the call was given."""
    shapes = {"static": (n_static,), "past_target": (k,), "past_cov": (k, n_cov),
              "future_target": (h,), "episode_ids": (), "origin_t": ()}
    dtypes = dict.fromkeys(shapes, np.float64) | {"episode_ids": np.array(ids).dtype,
                                                  "origin_t": np.dtype(int)}
    want = {
        name: np.array([s[name] for s in samples], dtype=dtypes[name]).reshape(-1, *shape)
        for name, shape in shapes.items()
    }
    assert isinstance(batch, WindowBatch) and len(batch) == len(samples)
    for name, arr in want.items():
        got = getattr(batch, name)
        assert got.dtype == arr.dtype and got.shape == arr.shape, name
        assert np.array_equal(got, arr), name


@st.composite
def _episode_cuts(draw):
    """(T, segment, h, cm); the segment may be too short for any window."""
    t_len = draw(st.integers(10, 60))
    s1 = t_len - draw(st.integers(0, t_len))  # the simplest draws cut the whole episode
    s0 = draw(st.integers(0, s1))
    return t_len, (s0, s1), draw(st.integers(1, 5)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cuts=_episode_cuts(), seed=st.integers(0, 2**16))
def test_columnar_windows_equal_per_window_enumeration(cuts, seed):
    t_len, segment, h, cm = cuts
    ep = make_episode(t=t_len, seed=seed)
    norm = fit_norm([ep], build_split([ep]))
    wc = WindowConfig(h=h, cm=cm)
    want = _enumerated_windows(ep, segment, wc, norm, "margin_he")
    batch = make_windows(ep, segment, wc, norm, target="margin_he")
    for got, ref in ((batch, want), (batch[1::2], want[1::2])):
        _assert_batch_equals_samples(got, ref, wc.k, h, n_cov=2, n_static=len(DIMS), ids=[ep.id])
    for i, (got, ref) in enumerate(zip(batch, want)):  # iterating gives row handles
        assert (got.batch, got.index, got.episode_id) == (batch, i, ref["episode_ids"])
    assert batch.scenario_dims == batch[1::2].scenario_dims == ep.scenario.names


@st.composite
def _phase_cuts(draw):
    """(lengths, segments, h, cm): 2-5 episodes of unequal lengths, some cut too short.

    A drawn case forces no episode, the first, a middle one (with 3 or more),
    the last or every episode to yield no window, by a segment shorter than h.
    The others draw any segment, so they too may yield none.
    """
    lengths = draw(st.lists(st.integers(10, 60), min_size=2, max_size=5, unique=True))
    h, cm = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = len(lengths)
    forced = {
        "none": set(), "first": {0}, "last": {n - 1}, "every": set(range(n)),
        "middle": {draw(st.integers(1, n - 2))} if n > 2 else set(),
    }[draw(st.sampled_from(["none", "first", "middle", "last", "every"]))]
    segments = []
    for i, t_len in enumerate(lengths):
        s0 = draw(st.integers(0, t_len))
        top = min(t_len, s0 + h - 1) if i in forced else t_len
        segments.append((s0, draw(st.integers(s0, top))))
    return lengths, segments, h, cm


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cuts=_phase_cuts(), phase=st.sampled_from(["train", "val", "test"]), seed=st.integers(0, 99))
@example(cuts=([10, 11, 12], [(0, 10), (0, 11), (0, 11)], 3, 3), phase="test", seed=0)
def test_windows_for_phase_equals_per_episode_enumeration_property(cuts, phase, seed, caplog):
    lengths, segments, h, cm = cuts
    eps = [
        replace(make_episode(t=t_len, seed=seed + i, eid=f"ep{i}"),
                scenario=Scenario((0.2 * i, 0.5, -1.0, i), DIMS))
        for i, t_len in enumerate(lengths)
    ]
    norm = fit_norm(eps, build_split(eps))
    split = {ep.id: EpisodeSplit(seg, seg, seg) for ep, seg in zip(eps, segments)}
    wc = WindowConfig(h=h, cm=cm)
    per_episode = [_enumerated_windows(ep, seg, wc, norm, "margin_he")
                   for ep, seg in zip(eps, segments)]
    caplog.clear()
    with caplog.at_level("WARNING"):
        batch = windows_for_phase(eps, split, wc, norm, phase, target="margin_he")
    want = [w for windows in per_episode for w in windows]
    ids = [ep.id for ep in eps]
    _assert_batch_equals_samples(batch, want, wc.k, h, n_cov=2, n_static=len(DIMS), ids=ids)
    excluded = [r.getMessage() for r in caplog.records if "excluded" in r.getMessage()]
    assert excluded == [
        f"episode {ep.id}: {phase} segment {seg} too short for windows (k={wc.k}, h={h}); excluded"
        for ep, seg, windows in zip(eps, segments, per_episode) if not windows
    ]


def test_a_call_with_no_window_gives_an_empty_batch():
    # T=10 at (h=3, cm=3): every phase is shorter than k + h = 12, so no view fits
    eps = [make_episode(t=10, seed=s, eid=f"ep{s}") for s in range(3)]
    split = build_split(eps)
    norm = fit_norm(eps, split)
    wc = WindowConfig(h=3, cm=3)
    batches = [windows_for_phase(eps, split, wc, norm, phase, "margin_cte")
               for phase in ("train", "val", "test")]
    batches.append(make_windows(eps[0], (0, 10), wc, norm, "margin_cte"))
    for batch in batches:
        assert len(batch) == 0
        for name, shape in (("static", (0, len(DIMS))), ("past_target", (0, 9)),
                            ("past_cov", (0, 9, 2)), ("future_target", (0, 3))):
            assert getattr(batch, name).shape == shape and getattr(batch, name).dtype == np.float64
        assert batch.origin_t.shape == batch.episode_ids.shape == (0,)
        assert batch.origin_t.dtype == np.dtype(int) and batch.episode_ids.dtype.kind == "U"
        assert batch.scenario_dims == eps[0].scenario.names


def _without(norm, channel):
    return NormStats({name: stats for name, stats in norm.channels.items() if name != channel})


def _no_metric(ep):
    return replace(ep, metric_names=("margin_x", "margin_he"))


_FAULT_MESSAGES = {
    "segment": (DatasetError, "segment (0, 41) out of bounds for T=40"),
    "target stats": (DatasetError, "no normalization stats for channel 'margin_cte'"),
    "target metric": (ValidationError,
                      "episode 'ep1' has no metric 'margin_cte' (has ('margin_x', 'margin_he'))"),
    "channel stats": (DatasetError, "no normalization stats for channel 'he_est'"),
}


@pytest.mark.parametrize("fault", list(_FAULT_MESSAGES))
def test_an_episodes_window_checks_run_in_order(fault):
    # this fault and every one checked after it: the first is the one raised
    faults = list(_FAULT_MESSAGES)[list(_FAULT_MESSAGES).index(fault):]
    ep = make_episode(t=40, eid="ep1")
    norm = fit_norm([ep], build_split([ep]))
    if "target stats" in faults:
        norm = _without(norm, "margin_cte")
    if "channel stats" in faults:
        norm = _without(norm, "he_est")
    if "target metric" in faults:
        ep = _no_metric(ep)
    segment = (0, 41) if "segment" in faults else (0, 40)
    error, message = _FAULT_MESSAGES[fault]
    with pytest.raises(error) as info:
        make_windows(ep, segment, WindowConfig(h=3, cm=2), norm, "margin_cte")
    assert str(info.value) == message


@pytest.mark.parametrize("fault", list(_FAULT_MESSAGES))
def test_window_errors_keep_their_text_and_episode_order(fault):
    # the middle episode is bad, and a later check or a later episode is bad too:
    # each episode is checked in turn (bounds, target stats, target metric, channel
    # stats), so the first fault met in that order is the one raised
    eps = [make_episode(t=40, seed=s, eid=f"ep{s}") for s in range(3)]
    split = build_split(eps)
    norm = fit_norm(eps, split)
    past_end = {"ep1": (0, 41), "ep2": (0, 42)}
    if fault == "segment":  # ep1 also lacks the metric, ep2 is out of bounds too
        eps[1] = _no_metric(eps[1])
    elif fault == "target stats":  # met at ep0, before ep1's bounds
        norm = _without(norm, "margin_cte")
    elif fault == "target metric":  # ep1, before ep2's bounds
        eps[1], past_end = _no_metric(eps[1]), {"ep2": (0, 42)}
    else:  # met at ep0, before ep1's missing metric
        norm, eps[1], past_end = _without(norm, "he_est"), _no_metric(eps[1]), {}
    split |= {eid: EpisodeSplit(*[seg] * 3) for eid, seg in past_end.items()}
    error, message = _FAULT_MESSAGES[fault]
    with pytest.raises(error) as info:
        windows_for_phase(eps, split, WindowConfig(h=3, cm=2), norm, "val", "margin_cte")
    assert str(info.value) == message


def test_windows_for_phase_concatenates_episode_batches_in_order():
    eps = [
        replace(make_episode(t=90, seed=s, eid=f"e{s}"),
                scenario=Scenario((0.1 * s, 0.5, 0.0, s), DIMS))
        for s in range(3)
    ]
    split = build_split(eps)
    norm = fit_norm(eps, split)
    wc = WindowConfig(h=2, cm=3)
    pooled = windows_for_phase(eps, split, wc, norm, "val", "margin_cte")
    parts = [make_windows(ep, split[ep.id].val, wc, norm, "margin_cte") for ep in eps]
    for name in (*WindowBatch.COLUMNS, "episode_ids", "origin_t"):
        assert np.array_equal(getattr(pooled, name), np.concatenate([getattr(p, name) for p in parts]))
    for ep, part in zip(eps, parts):
        assert np.array_equal(part.static, np.tile(ep.scenario.unit_values(), (len(part), 1)))
        assert set(part.episode_ids) == {ep.id}


def test_windows_for_phase_pools_and_warns(caplog):
    eps = [make_episode(t=200, seed=s, eid=f"e{s}") for s in range(3)]
    split = build_split(eps)
    norm = fit_norm(eps, split)
    wc = WindowConfig(h=3, cm=3)
    test_windows = windows_for_phase(eps, split, wc, norm, "test", "margin_cte")
    assert len(test_windows) == 3 * 38  # test segment length 40 each
    train_windows = windows_for_phase(eps, split, wc, norm, "train", "margin_cte")
    assert len(train_windows) == 3 * 129  # origins 8..136
    # a horizon longer than the val segment warns and yields nothing
    big = WindowConfig(h=21, cm=1)
    with caplog.at_level("WARNING"):
        none = windows_for_phase(eps, split, big, norm, "val", "margin_cte")
    assert len(none) == 0
    assert "excluded" in caplog.text


@pytest.mark.parametrize("reversed_", ["channels", "dims"])
def test_windows_for_phase_refuses_an_episode_ordering_channels_or_dims_apart(reversed_):
    ep0, ep1 = (make_episode(t=40, seed=s, eid=f"ep{s}") for s in range(2))
    if reversed_ == "channels":
        ep1 = replace(ep1, lc_outputs=ep1.lc_outputs[:, ::-1], lc_names=ep1.lc_names[::-1])
    else:
        ep1 = replace(ep1, scenario=Scenario(ep1.scenario.values[::-1], DIMS[::-1]))
    message = (
        f"episode ep1: channels {ep1.lc_names} and scenario dims {ep1.scenario.names} differ "
        f"from episode ep0's {ep0.lc_names} and {ep0.scenario.names}"
    )
    split = build_split([ep0, ep1])
    norm = fit_norm([ep0, ep1], split)
    with pytest.raises(DatasetError) as info:
        windows_for_phase([ep0, ep1], split, WindowConfig(h=3, cm=2), norm, "train", "margin_cte")
    assert str(info.value) == message


def test_phase_windows_is_the_default_split_its_norm_and_each_phase():
    episodes = [make_episode(t=40, seed=i, eid=f"ep{i}") for i in range(3)]
    wc = WindowConfig(h=3, cm=2)
    norm, phases = phase_windows(episodes, wc, "margin_cte")
    split = build_split(episodes)
    assert norm == fit_norm(episodes, split)
    assert list(phases) == ["train", "val", "test"]
    for phase, batch in phases.items():
        want = windows_for_phase(episodes, split, wc, norm, phase, target="margin_cte")
        for name in ("origin_t", "episode_ids", *WindowBatch.COLUMNS):
            assert np.array_equal(getattr(batch, name), getattr(want, name)), (phase, name)
