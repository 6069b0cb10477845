"""Losses, the optimizer, and the training loops.

Training happens on the normalized scale: quantile families minimize mean
pinball loss over every (sample, lead, quantile) cell; ar_rnn minimizes the
Gaussian negative log-likelihood, teacher-forced over the horizon. Adam is
bias-corrected and gradients are clipped to a global norm *before* the step.

Everything is deterministic given TrainConfig.seed: parameter init, batch
shuffling, and dropout masks all derive from it, so two fits on the same data
produce byte-identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .core import QuantileGrid, ValidationError, WindowConfig, WindowSample, derived_seed
from .data import NormStats
from .forecasters import (
    ForecasterSpec,
    TrainedForecaster,
    forward_gaussian,
    forward_quantiles,
    init_params,
    stack_windows,
)

__all__ = [
    "TrainingDivergedError",
    "TrainConfig",
    "pinball_loss",
    "gaussian_nll",
    "loss_and_grads",
    "clip_global_norm",
    "init_adam_state",
    "adam_step",
    "fit",
    "grid_tune",
    "TuneResult",
]

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
DIVERGENCE_THRESHOLD = 1e12


class TrainingDivergedError(RuntimeError):
    """The loss left the finite (or plausibly finite) regime."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    lr: float = 1e-3
    clip_norm: float = 1.0
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be >= 1")
        if not (self.lr > 0 and self.clip_norm > 0):
            raise ValidationError("lr and clip_norm must be > 0")
        if self.patience < 0:
            raise ValidationError("patience must be >= 0")


# ----------------------------------------------------------------- losses


def pinball_loss(y: float, y_hat: float, q: float) -> float:
    """q * (y - y_hat)_+ + (1 - q) * (y_hat - y)_+ for one observation."""
    if not (0.0 < q < 1.0):
        raise ValidationError(f"quantile level {q} outside (0, 1)")
    diff = float(y) - float(y_hat)
    return q * max(diff, 0.0) + (1.0 - q) * max(-diff, 0.0)


def _pinball_mean(pred: Tensor, y: np.ndarray, qs: np.ndarray) -> Tensor:
    """Mean pinball over a (B, h, |Q|) prediction block."""
    diff = Tensor(y[:, :, None]) - pred
    q = qs.reshape(1, 1, -1)
    return (diff.relu() * q + (-diff).relu() * (1.0 - q)).mean()


def gaussian_nll(y: float, mu: float, sigma: float) -> float:
    """Pointwise Gaussian negative log-likelihood with a 1e-6 sigma floor."""
    if sigma <= 0.0:
        raise ValidationError(f"sigma must be > 0, got {sigma}")
    sigma = max(float(sigma), 1e-6)
    z = (float(y) - float(mu)) / sigma
    return HALF_LOG_2PI + math.log(sigma) + 0.5 * z * z


def _gaussian_nll_mean(mu: Tensor, sigma: Tensor, y: np.ndarray) -> Tensor:
    err = Tensor(y) - mu
    return (sigma.log() + err.square() / (sigma.square() * 2.0) + HALF_LOG_2PI).mean()


def loss_and_grads(
    spec: ForecasterSpec,
    params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    grid: QuantileGrid,
    train: bool = True,
    rng: np.random.Generator | None = None,
    compute_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """One forward (and optionally backward) pass over a stacked batch."""
    p = {name: Tensor(v) for name, v in params.items()}
    h = batch["future_target"].shape[1]
    if spec.family == "ar_rnn":
        mu, sigma = forward_gaussian(spec, p, batch, h, train=train, rng=rng)
        loss = _gaussian_nll_mean(mu, sigma, batch["future_target"])
    else:
        pred = forward_quantiles(spec, p, batch, h, len(grid), train=train, rng=rng)
        loss = _pinball_mean(pred, batch["future_target"], np.array(grid.qs))
    if not compute_grads:
        return loss.item(), {}
    loss.backward()
    return loss.item(), {name: p[name].grad for name in params}


# ----------------------------------------------------------------- optimizer


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is <= max_norm; returns the raw norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Bias-corrected Adam update, in place."""
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, g in grads.items():
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ----------------------------------------------------------------- fitting


def _infer_window_config(samples: Sequence[WindowSample]) -> WindowConfig:
    k, h = samples[0].k, samples[0].h
    if h < 1 or k < 1 or k % h != 0:
        raise ValidationError(f"windows with k={k}, h={h} do not fit a (h, cm) config")
    return WindowConfig(h=h, cm=k // h)


def _check_divergence(loss: float, epoch: int, what: str) -> None:
    if not math.isfinite(loss) or abs(loss) > DIVERGENCE_THRESHOLD:
        raise TrainingDivergedError(f"{what} loss diverged at epoch {epoch}: {loss!r}")


def _eval_loss(spec, params, arrays, grid, chunk=4096) -> float:
    n = arrays["future_target"].shape[0]
    total = 0.0
    for i in range(0, n, chunk):
        sub = {k: v[i : i + chunk] for k, v in arrays.items()}
        loss, _ = loss_and_grads(spec, params, sub, grid, train=False, compute_grads=False)
        total += loss * sub["future_target"].shape[0]
    return total / n


def fit(
    spec: ForecasterSpec,
    train_windows: Sequence[WindowSample],
    val_windows: Sequence[WindowSample],
    cfg: TrainConfig,
    grid: QuantileGrid = QuantileGrid(),
    norm: NormStats | None = None,
    target: str = "target",
    lc_names: tuple[str, ...] | None = None,
) -> TrainedForecaster:
    """Train one forecaster; returns the best-validation-epoch parameters.

    persistence is a no-op baseline. For runtime (monitor) use, pass the full
    NormStats and real channel names so the checkpoint is self-describing;
    otherwise the windows' target stats and identity covariate stats are stored.
    """
    if not train_windows or not val_windows:
        raise ValidationError("fit needs non-empty train and val window sets")
    wc = _infer_window_config(train_windows)
    n_cov = train_windows[0].past_covariates.shape[1]
    n_static = len(train_windows[0].scenario.dims)
    if lc_names is None:
        lc_names = tuple(f"cov{j}" for j in range(n_cov))
    if norm is None:
        norm = NormStats({**dict.fromkeys(lc_names, (0.0, 1.0)), target: train_windows[0].denorm})

    if spec.family == "persistence":
        return TrainedForecaster(
            spec=spec, wc=wc, grid=grid, target=target, lc_names=lc_names,
            n_static=n_static, norm=norm, params={},
            training_log={"note": "persistence baseline needs no training", "seed": cfg.seed},
        )

    train_arrays = stack_windows(train_windows)
    val_arrays = stack_windows(val_windows)
    params = init_params(
        spec, wc, len(grid), n_cov, n_static, seed=np.random.SeedSequence((cfg.seed, 1))
    )
    adam = init_adam_state(params)
    shuffle_rng = np.random.default_rng((cfg.seed, 2))
    dropout_rng = np.random.default_rng((cfg.seed, 3))
    n = train_arrays["future_target"].shape[0]

    best_val = math.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = 0
    since_improve = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for i in range(0, n, cfg.batch_size):
            idx = perm[i : i + cfg.batch_size]
            sub = {k: v[idx] for k, v in train_arrays.items()}
            loss, grads = loss_and_grads(spec, params, sub, grid, train=True, rng=dropout_rng)
            _check_divergence(loss, epoch, "training")
            clip_global_norm(grads, cfg.clip_norm)
            adam_step(params, grads, adam, cfg.lr)
            epoch_loss += loss * len(idx)
        train_losses.append(epoch_loss / n)
        val_loss = _eval_loss(spec, params, val_arrays, grid)
        _check_divergence(val_loss, epoch, "validation")
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.patience:
                break
    return TrainedForecaster(
        spec=spec, wc=wc, grid=grid, target=target, lc_names=lc_names,
        n_static=n_static, norm=norm, params=best_params,
        training_log={
            "seed": cfg.seed,
            "train_loss": train_losses,
            "val_loss": val_losses,
            "best_epoch": best_epoch,
            "best_val_loss": best_val,
            "stopped_epoch": len(val_losses),
        },
    )


# ----------------------------------------------------------------- tuning

TRAIN_AXES = ("batch_size", "lr", "clip_norm")


@dataclass(frozen=True)
class TuneResult:
    best_spec: ForecasterSpec
    best_cfg: TrainConfig
    rows: list[dict]


def grid_tune(
    family: str,
    axes: dict[str, Sequence],
    train_windows: Sequence[WindowSample],
    val_windows: Sequence[WindowSample],
    base_cfg: TrainConfig,
    repetitions: int = 5,
    grid: QuantileGrid = QuantileGrid(),
    norm: NormStats | None = None,
    target: str = "target",
    lc_names: tuple[str, ...] | None = None,
) -> TuneResult:
    """Exhaustive sweep over `axes` with `repetitions` seeds per configuration.

    Axes may name model hyperparameters (the family's grid) or training knobs
    (batch_size, lr, clip_norm). Configurations are ranked by the mean over
    repetitions of the validation q-Risk summed over the quantile grid,
    computed on the original scale. Diverged runs score infinity, so any
    configuration that ever diverges ranks behind every stable one.
    """
    from .evaluation import q_risk  # late import; evaluation also imports training

    from itertools import product

    from .forecasters import GRIDS, predict_quantiles_batch

    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    model_keys = sorted(k for k in axes if k in GRIDS[family])
    train_keys = sorted(k for k in axes if k in TRAIN_AXES)
    unknown = set(axes) - set(model_keys) - set(train_keys)
    if unknown:
        raise ValidationError(f"unknown tuning axes {sorted(unknown)} for family {family!r}")
    keys = model_keys + train_keys
    combos = list(product(*(list(axes[k]) for k in keys))) if keys else [()]

    rows: list[dict] = []
    scores: list[float] = []
    configs: list[tuple[ForecasterSpec, TrainConfig]] = []
    y_true = np.stack([s.future_target_original() for s in val_windows])
    for ci, combo in enumerate(combos):
        chosen = dict(zip(keys, combo))
        spec = ForecasterSpec(family, {k: chosen[k] for k in model_keys})
        cfg = replace(base_cfg, **{k: chosen[k] for k in train_keys})
        configs.append((spec, cfg))
        rep_scores = []
        for rep in range(repetitions):
            seed = derived_seed(base_cfg.seed, ci, rep)
            row = {
                "family": family, "config_index": ci, "params": dict(spec.params),
                "batch_size": cfg.batch_size, "lr": cfg.lr, "clip_norm": cfg.clip_norm,
                "rep": rep, "seed": seed, "diverged": False,
                "val_qrisk_sum": math.inf, "per_q": {},
            }
            try:
                model = fit(
                    spec, train_windows, val_windows, replace(cfg, seed=seed),
                    grid=grid, norm=norm, target=target, lc_names=lc_names,
                )
                preds = predict_quantiles_batch(
                    model, val_windows, mc_seed=seed + 1, n_paths=100
                )
                per_q = {
                    q: q_risk(y_true, preds[:, :, j], q) for j, q in enumerate(grid.qs)
                }
                row["per_q"] = per_q
                row["val_qrisk_sum"] = float(sum(per_q.values()))
            except TrainingDivergedError:
                row["diverged"] = True
            rows.append(row)
            rep_scores.append(row["val_qrisk_sum"])
        scores.append(float(np.mean(rep_scores)))
    best_index = int(np.argmin(scores))
    best_spec, best_cfg = configs[best_index]
    return TuneResult(best_spec=best_spec, best_cfg=best_cfg, rows=rows)
