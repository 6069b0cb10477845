import numpy as np
import pytest

from _oracles import safety_metric_fn
from forewarn.core import Scenario, ScenarioDim, ValidationError
from forewarn.simulate import (
    DEFAULT_DIMS,
    DEFAULT_REQUIREMENTS,
    SimConfig,
    SimulationError,
    generate_dataset,
    lhs_sample,
    simulate_episode,
)


def scen(tod=0.5, cloud=0.5, cte=0.0, he=0.0):
    return Scenario((tod, cloud, cte, he), DEFAULT_DIMS)


def state(ep, name):
    """The raw-state series of one named channel."""
    return ep.raw_state[:, ep.state_names.index(name)]


QUIET = dict(noise_base=0.0, noise_cloud_gain=0.0, noise_tod_gain=0.0, bias_gain=0.0)


# ---------------------------------------------------------------- LHS


def test_lhs_one_sample_per_stratum_every_dimension():
    for seed in (0, 1, 7, 42):
        n = 50
        scenarios = lhs_sample(n, DEFAULT_DIMS, seed)
        assert len(scenarios) == n
        values = np.array([s.values for s in scenarios])
        for j, d in enumerate(DEFAULT_DIMS):
            strata = np.floor((values[:, j] - d.lo) / (d.hi - d.lo) * n).astype(int)
            assert sorted(strata) == list(range(n))


def test_lhs_deterministic():
    a = lhs_sample(20, DEFAULT_DIMS, 42)
    b = lhs_sample(20, DEFAULT_DIMS, 42)
    assert [s.values for s in a] == [s.values for s in b]
    c = lhs_sample(20, DEFAULT_DIMS, 43)
    assert [s.values for s in a] != [s.values for s in c]


def test_lhs_n_one_and_bad_n():
    (only,) = lhs_sample(1, DEFAULT_DIMS, 0)
    for v, d in zip(only.values, DEFAULT_DIMS):
        assert d.lo <= v <= d.hi
    with pytest.raises(ValidationError):
        lhs_sample(0, DEFAULT_DIMS, 0)


def test_lhs_works_on_custom_box():
    dims = (ScenarioDim("a", -2.0, -1.0), ScenarioDim("b", 10.0, 20.0))
    for s in lhs_sample(9, dims, 5):
        assert -2.0 <= s.values[0] <= -1.0
        assert 10.0 <= s.values[1] <= 20.0


# ---------------------------------------------------------------- plant


def test_zero_noise_zero_start_stays_on_centerline():
    cfg = SimConfig(episode_len=50, **QUIET)
    ep = simulate_episode(scen(), cfg)
    assert np.all(ep.raw_state == 0.0)
    assert np.all(ep.lc_outputs == 0.0)
    assert np.all(ep.metric("margin_cte") == -5.0)


def test_quiet_controller_recovers_offset_start():
    cfg = SimConfig(episode_len=100, **QUIET)
    ep = simulate_episode(scen(cte=6.0), cfg)
    cte = state(ep, "cte_act")
    assert cte[0] == 6.0
    assert abs(cte[-1]) < 0.1  # settled back to the centerline
    assert np.abs(state(ep, "he_act")).max() <= 45.0


def test_estimates_are_state_plus_bias_when_noiseless():
    cfg = SimConfig(
        episode_len=30, noise_base=0.0, noise_cloud_gain=0.0, noise_tod_gain=0.0,
        bias_gain=4.0,
    )
    ep = simulate_episode(scen(cloud=1.0, cte=1.0), cfg)
    bias = 4.0 * (1.0 - 0.5)
    assert np.allclose(ep.lc_outputs, ep.raw_state + bias, atol=1e-12)


def test_episode_deterministic_given_seed_and_index():
    cfg = SimConfig(episode_len=80)
    a = simulate_episode(scen(cloud=0.9, cte=3.0), cfg, index=7)
    b = simulate_episode(scen(cloud=0.9, cte=3.0), cfg, index=7)
    assert np.array_equal(a.raw_state, b.raw_state)
    assert np.array_equal(a.lc_outputs, b.lc_outputs)
    c = simulate_episode(scen(cloud=0.9, cte=3.0), cfg, index=8)
    assert not np.array_equal(a.lc_outputs, c.lc_outputs)
    d = simulate_episode(scen(cloud=0.9, cte=3.0), SimConfig(episode_len=80, seed=43), index=7)
    assert not np.array_equal(a.lc_outputs, d.lc_outputs)


def test_metric_columns_match_ingestion_check():
    cfg = SimConfig(episode_len=60)
    ep = simulate_episode(scen(cloud=0.8, cte=4.0, he=-5.0), cfg, index=3)
    for req in DEFAULT_REQUIREMENTS:  # exact: the metric is defined pointwise
        want = [safety_metric_fn(x, req.threshold) for x in state(ep, req.channel)]
        assert np.array_equal(ep.metric(req.name), want)
    assert ep.metric_names == ("margin_cte", "margin_he")
    assert np.array_equal(ep.metric("margin_cte"), np.abs(state(ep, "cte_act")) - 5.0)


def test_diverged_plant_raises():
    cfg = SimConfig(episode_len=10, speed_mps=1e10, dt_seconds=1e308, **QUIET)
    with pytest.raises(SimulationError, match="diverged plant"):
        simulate_episode(scen(he=10.0), cfg)


def test_scenario_without_start_dims_rejected():
    # the simulator reads a scenario's values by DEFAULT_DIMS' order: any other
    # box, a reordered or rescaled one too, is refused by name
    reordered = Scenario((0.0, 0.0, 0.5, 0.5), DEFAULT_DIMS[::-1])
    wider_dims = (*DEFAULT_DIMS[:3], ScenarioDim("he_start", -20.0, 20.0))
    wider = Scenario((0.5, 0.5, 0.0, 0.0), wider_dims)
    for scenario in (Scenario((0.5,), (ScenarioDim("cloud_cover", 0.0, 1.0),)), reordered, wider):
        with pytest.raises(ValidationError, match=r"scenario dims \(.*\) are not DEFAULT_DIMS"):
            simulate_episode(scenario, SimConfig(episode_len=10))


# ---------------------------------------------------------------- dataset-level


def test_generate_dataset_ids_and_determinism():
    cfg = SimConfig(n_scenarios=12, episode_len=40)
    eps = generate_dataset(cfg)
    assert [ep.id for ep in eps] == [f"ep{i:04d}" for i in range(12)]
    eps2 = generate_dataset(cfg)
    for a, b in zip(eps, eps2):
        assert a.scenario.values == b.scenario.values
        assert np.array_equal(a.lc_outputs, b.lc_outputs)
        assert np.array_equal(a.raw_state, b.raw_state)


def test_default_dataset_violation_fraction_in_band():
    eps = generate_dataset(SimConfig())
    frac = np.mean([bool((ep.metric("margin_cte") >= 0.0).any()) for ep in eps])
    assert 0.2 <= frac <= 0.7
    # both classes must exist in the held-out tail of the episodes too
    tail = [bool((ep.metric("margin_cte")[160:] >= 0.0).any()) for ep in eps]
    assert 0.0 < np.mean(tail) < 1.0


def test_default_dataset_heading_bounded():
    eps = generate_dataset(SimConfig())
    worst = max(float(np.abs(state(ep, "he_act")).max()) for ep in eps)
    assert worst <= 45.0
