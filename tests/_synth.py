"""Synthetic windows, models, and episodes shared by the test modules."""

import numpy as np

from forewarn.core import Episode, QuantileGrid, Scenario, ScenarioDim, WindowConfig, WindowSample
from forewarn.data import NormStats
from forewarn.forecasters import ForecasterSpec, TrainedForecaster, init_params


def identity_norm(n_cov=2, target="m"):
    """Pass-through (0, 1) stats for the target and the covariates c0, c1, ..."""
    return NormStats({target: (0.0, 1.0), **{f"c{i}": (0.0, 1.0) for i in range(n_cov)}})


# fit's channel keywords for windows of the default two covariates
FIT_KW = {"norm": identity_norm(), "target": "m", "lc_names": ("c0", "c1")}


def unit_dims(n):
    return tuple(ScenarioDim(f"s{i}", 0.0, 1.0) for i in range(n))


def make_sample(rng, wc, n_cov=2, n_static=3, denorm=(0.0, 1.0), episode_id="ep0", origin_t=None):
    """One window filled with unstructured standard-normal noise.

    Its origin defaults to k - 1, the first step with a whole lookback behind it.
    """
    return WindowSample(
        scenario=Scenario(tuple(rng.random(n_static)), unit_dims(n_static)),
        past_target=rng.standard_normal(wc.k),
        past_covariates=rng.standard_normal((wc.k, n_cov)),
        future_target=rng.standard_normal(wc.h),
        denorm=denorm,
        episode_id=episode_id,
        origin_t=wc.k - 1 if origin_t is None else origin_t,
    )


def make_learnable_windows(rng, n, wc, n_cov=2, n_static=3, noise=0.05, denorm=(0.0, 1.0)):
    """Windows whose future is a fixed function of the recent past and scenario.

    future ~= 0.6*past[-1] - 0.2*past[-2] + 0.5*static[0] + noise, so a small
    model can visibly beat both the zero predictor and persistence.
    """
    dims = unit_dims(n_static)
    out = []
    for i in range(n):
        static = rng.random(n_static)
        past = rng.standard_normal(wc.k)
        prev = past[-2] if wc.k > 1 else 0.0
        base = 0.6 * past[-1] - 0.2 * prev + 0.5 * static[0]
        out.append(
            WindowSample(
                scenario=Scenario(tuple(static), dims),
                past_target=past,
                past_covariates=rng.standard_normal((wc.k, n_cov)),
                future_target=base + noise * rng.standard_normal(wc.h),
                denorm=denorm,
                episode_id=f"ep{i:04d}",
                origin_t=wc.k - 1,
            )
        )
    return out


def make_model(
    family="persistence",
    wc=WindowConfig(h=2, cm=2),
    n_cov=2,
    n_static=3,
    qs=(0.1, 0.5, 0.995),
    seed=0,
    zero=False,
    norm=None,
    target="m",
    **hyper,
):
    """An untrained (randomly initialized) forecaster with pass-through norm."""
    spec = ForecasterSpec(family, hyper)
    grid = QuantileGrid(tuple(qs))
    params = init_params(spec, wc, len(grid), n_cov, n_static, seed)
    if zero:
        params = {k: np.zeros_like(v) for k, v in params.items()}
    return TrainedForecaster(
        spec=spec,
        wc=wc,
        grid=grid,
        target=target,
        lc_names=tuple(f"c{i}" for i in range(n_cov)),
        scenario_dims=tuple(d.name for d in unit_dims(n_static)),
        norm=norm if norm is not None else identity_norm(n_cov, target),
        params=params,
    )


def make_episode(rng, t_len=20, n_cov=2, n_static=3, eid="ep0", metric=None, dt=1.0):
    """One episode with noise covariates and an optional hand-chosen metric."""
    scenario = Scenario(tuple(rng.random(n_static)), unit_dims(n_static))
    if metric is None:
        metric = rng.standard_normal((t_len, 1))
    metric = np.asarray(metric, dtype=np.float64).reshape(t_len, -1)
    return Episode(
        id=eid,
        scenario=scenario,
        dt_seconds=dt,
        lc_outputs=rng.standard_normal((t_len, n_cov)),
        raw_state=rng.standard_normal((t_len, 1)),
        safety_metric=metric,
        lc_names=tuple(f"c{i}" for i in range(n_cov)),
        state_names=("x0",),
        metric_names=tuple(f"m{j}" if j else "m" for j in range(metric.shape[1])),
    )
