"""Synthetic windows, models, and episodes shared by the test modules."""

import numpy as np

from forewarn.core import Episode, QuantileGrid, Scenario, ScenarioDim, WindowBatch, WindowConfig
from forewarn.data import NormStats
from forewarn.forecasters import ForecasterSpec, TrainedForecaster, init_params


def identity_norm(n_cov=2, target="m", scale=(0.0, 1.0)):
    """Pass-through (0, 1) stats for the covariates c0, c1, ...; the target's are `scale`.

    `scale` is the target's (mean, std): the model takes its forecasts back to
    the original scale by it.
    """
    return NormStats({target: scale, **{f"c{i}": (0.0, 1.0) for i in range(n_cov)}})


# fit's channel keywords for windows of the default two covariates
FIT_KW = {"norm": identity_norm(), "target": "m", "lc_names": ("c0", "c1")}


def unit_dims(n):
    return tuple(ScenarioDim(f"s{i}", 0.0, 1.0) for i in range(n))


def window_batch(static, past, cov, future, origin_t=0):
    """A WindowBatch of the given rows, window i cut from its own episode ep{i:04d}.

    The static columns are the values of the unit dims s0, s1, ..., which are
    their own unit values.
    """
    static = np.asarray(static, dtype=np.float64)
    n, n_static = static.shape
    ids = np.array([f"ep{i:04d}" for i in range(n)])
    return WindowBatch(
        static=static,
        past_target=past,
        past_cov=cov,
        future_target=future,
        episode_ids=ids,
        origin_t=np.full(n, origin_t),
        scenario_dims=tuple(d.name for d in unit_dims(n_static)),
    )


def make_noise_windows(rng, wc, n=1, n_cov=2, n_static=3, origin_t=None):
    """n windows filled with unstructured standard-normal noise, as one WindowBatch.

    Each window draws its scenario, lookback, covariates and future in turn.
    origin_t is one origin for every window, or one per window; it defaults to
    k - 1, the first step with a whole lookback behind it.
    """
    draws = [
        (rng.random(n_static), rng.standard_normal(wc.k), rng.standard_normal((wc.k, n_cov)),
         rng.standard_normal(wc.h))
        for _ in range(n)
    ]
    static, past, cov, future = map(np.array, zip(*draws))
    return window_batch(static, past, cov, future, wc.k - 1 if origin_t is None else origin_t)


def make_learnable_windows(rng, n, wc, n_cov=2, n_static=3, noise=0.05):
    """n windows whose future is a fixed function of the recent past and scenario.

    future ~= 0.6*past[-1] - 0.2*past[-2] + 0.5*static[0] + noise, so a small
    model can visibly beat both the zero predictor and persistence.
    """
    static, past, cov, future = [], [], [], []
    for _ in range(n):
        static.append(rng.random(n_static))
        past.append(rng.standard_normal(wc.k))
        prev = past[-1][-2] if wc.k > 1 else 0.0
        base = 0.6 * past[-1][-1] - 0.2 * prev + 0.5 * static[-1][0]
        cov.append(rng.standard_normal((wc.k, n_cov)))
        future.append(base + noise * rng.standard_normal(wc.h))
    return window_batch(static, past, cov, future, wc.k - 1)


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
