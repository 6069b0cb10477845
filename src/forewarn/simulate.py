"""Synthetic taxiing plant with a noisy perception stage.

The plant is a kinematic cross-track/heading model steered by a proportional
controller that only sees *estimated* state. The estimator's noise and bias
depend on the scenario (cloud cover, time of day), so the closed loop settles
at a scenario-dependent offset from the centerline: some scenarios violate the
cross-track requirement persistently, some only under noise, most never.

Scenario points are drawn by Latin hypercube sampling over the scenario box.
All randomness is derived from (config seed, episode index), so regenerating a
dataset is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Episode,
    SafetyRequirement,
    Scenario,
    ScenarioDim,
    ValidationError,
    check_setting,
)

__all__ = [
    "SimulationError",
    "SimConfig",
    "DEFAULT_DIMS",
    "DEFAULT_REQUIREMENTS",
    "lhs_sample",
    "simulate_episode",
    "generate_dataset",
]


class SimulationError(RuntimeError):
    """The plant left the finite regime."""


DEFAULT_DIMS: tuple[ScenarioDim, ...] = (
    ScenarioDim("time_of_day", 0.0, 1.0),
    ScenarioDim("cloud_cover", 0.0, 1.0),
    ScenarioDim("cte_start", -8.0, 8.0),
    ScenarioDim("he_start", -10.0, 10.0),
)

DEFAULT_REQUIREMENTS: tuple[SafetyRequirement, ...] = (
    SafetyRequirement("margin_cte", "cte_act", 5.0),
    SafetyRequirement("margin_he", "he_act", 5.0),
)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the plant, the estimator, and the batch generator.

    Units: cross-track error in meters, heading error in degrees, speed in
    m/s, control (heading rate) in deg/s. Noise gains are per unit of the
    scenario feature they multiply.
    """

    n_scenarios: int = 200
    episode_len: int = 200
    dt_seconds: float = 1.0
    speed_mps: float = 5.0
    k_c: float = 0.8
    k_h: float = 0.5
    u_max_deg_s: float = 6.0
    noise_base: float = 0.3
    noise_cloud_gain: float = 1.2
    noise_tod_gain: float = 0.6
    bias_gain: float = 7.0
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("n_scenarios", "episode_len"):
            check_setting(name, getattr(self, name), low=1)
        check_setting("seed", self.seed)
        for name in ("dt_seconds", "u_max_deg_s"):
            check_setting(name, getattr(self, name), float, above=True)
        for name in ("noise_base", "noise_cloud_gain", "noise_tod_gain"):
            check_setting(name, getattr(self, name), float)


def lhs_sample(n: int, dims: Sequence[ScenarioDim], seed: int) -> list[Scenario]:
    """Latin hypercube sample of n scenarios over the given box.

    Each dimension's range is cut into n equal-width strata; exactly one
    sample lands in each stratum, and strata are paired across dimensions by
    independent random permutations. Deterministic for a given seed.
    """
    n = check_setting("n", n, low=1)
    seed = check_setting("seed", seed)
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    cols = []
    for d in dims:
        # one uniform draw inside each stratum, then shuffle the strata
        offsets = rng.uniform(size=n)
        points = (np.arange(n) + offsets) / n
        points = points[rng.permutation(n)]
        cols.append(d.lo + points * (d.hi - d.lo))
    values = np.column_stack(cols)
    return [Scenario(tuple(row), dims) for row in values]


def simulate_episode(scenario: Scenario, cfg: SimConfig, index: int = 0) -> Episode:
    """Run the closed loop for cfg.episode_len steps from one scenario point.

    Per step: the estimator produces (cte_est, he_est) = truth + bias + noise,
    the controller commands a clamped heading rate from the estimates only,
    and the plant integrates forward (explicit Euler):

        cte <- cte + speed * sin(he) * dt        (he in radians)
        he  <- he  + u * dt,  u = clamp(-k_c*cte_est - k_h*he_est, +-u_max)

    Recorded state/estimates/metrics at step t describe the plant *before*
    the step-t control is applied; the metrics are DEFAULT_REQUIREMENTS'. The
    scenario is a point of the DEFAULT_DIMS box, its values in that order. The
    noise stream is seeded by (cfg.seed, index), so episode `index` is
    reproducible in isolation.
    """
    if scenario.dims != DEFAULT_DIMS:
        raise ValidationError(
            f"scenario dims {scenario.names} are not DEFAULT_DIMS "
            f"{tuple(d.name for d in DEFAULT_DIMS)}: the simulator needs those bounds and order"
        )
    tod, cloud, cte, he = scenario.values
    t_len = cfg.episode_len
    rng = np.random.default_rng((cfg.seed, index))
    noise = rng.normal(size=(t_len, 2)) * (
        cfg.noise_base + cfg.noise_cloud_gain * cloud + cfg.noise_tod_gain * tod
    )
    bias = cfg.bias_gain * (cloud - 0.5)

    state = np.empty((t_len, 2))
    est = np.empty((t_len, 2))
    for t in range(t_len):
        if not (math.isfinite(cte) and math.isfinite(he)):
            raise SimulationError(f"diverged plant at step {t}")
        state[t, 0] = cte
        state[t, 1] = he
        cte_est = cte + bias + float(noise[t, 0])
        he_est = he + bias + float(noise[t, 1])
        est[t, 0] = cte_est
        est[t, 1] = he_est
        u = -cfg.k_c * cte_est - cfg.k_h * he_est
        u = min(max(u, -cfg.u_max_deg_s), cfg.u_max_deg_s)
        cte = cte + cfg.speed_mps * math.sin(math.radians(he)) * cfg.dt_seconds
        he = he + u * cfg.dt_seconds
    if not (math.isfinite(cte) and math.isfinite(he)):
        raise SimulationError(f"diverged plant at step {t_len}")

    state_names = ("cte_act", "he_act")
    metric_cols = []
    for req in DEFAULT_REQUIREMENTS:
        j = state_names.index(req.channel)
        metric_cols.append(np.abs(state[:, j]) - req.threshold)
    return Episode(
        id=f"ep{index:04d}",
        scenario=scenario,
        dt_seconds=cfg.dt_seconds,
        lc_outputs=est,
        raw_state=state,
        safety_metric=np.column_stack(metric_cols),
        lc_names=("cte_est", "he_est"),
        state_names=state_names,
        metric_names=tuple(req.name for req in DEFAULT_REQUIREMENTS),
    )


def generate_dataset(cfg: SimConfig) -> list[Episode]:
    """One episode per LHS point of the DEFAULT_DIMS box, ids ep0000.. in sampling order."""
    scenarios = lhs_sample(cfg.n_scenarios, DEFAULT_DIMS, cfg.seed)
    return [simulate_episode(s, cfg, index=i) for i, s in enumerate(scenarios)]
