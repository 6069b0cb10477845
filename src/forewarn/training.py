"""Losses, the optimizer, and the training loops.

Training happens on the normalized scale: quantile families minimize mean
pinball loss over every (sample, lead, quantile) cell; ar_rnn minimizes the
Gaussian negative log-likelihood, teacher-forced over the horizon. Each loss
is one fused autodiff op (pinball_mean, gaussian_nll_mean). Adam is
bias-corrected with fixed betas and eps (ADAM_BETA1, ...), and gradients are
clipped to a global norm *before* the step. fit keeps every parameter as a
view into one flat float64 buffer and Adam's two moments in one buffer each:
the clipped gradients are gathered into one flat gradient, and one elementwise
Adam step on the buffers updates every parameter with the bits a step per
parameter gives. Dropout runs exactly when a dropout rng is passed: fit passes
one, validation and prediction pass none.

Everything is deterministic given TrainConfig.seed: parameter init, batch
shuffling, and dropout masks all derive from it, so two fits on the same data
produce byte-identical parameters. Tuning over many fits (grid_tune) lives in
evaluation, which scores each fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Tensor, gaussian_nll_mean, pinball_mean
from .core import (
    QuantileGrid, ValidationError, WindowBatch, WindowConfig, WindowSample, as_batch,
    check_setting,
)
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
    "loss_and_grads",
    "clip_global_norm",
    "adam_step",
    "fit",
]

DIVERGENCE_THRESHOLD = 1e12
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
_EVAL_CHUNK = 4096  # validation windows per forward pass


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
        for key, value in vars(self).items():
            if key in ("lr", "clip_norm"):
                check_setting(key, value, float, above=True)
            else:
                low = 1 if key in ("epochs", "batch_size") else 0
                object.__setattr__(self, key, check_setting(key, value, low=low))


def loss_and_grads(
    spec: ForecasterSpec,
    params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    grid: QuantileGrid,
    rng: np.random.Generator | None = None,
    compute_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    """One forward (and optionally backward) pass over a stacked batch.

    Dropout runs if and only if rng is given, as in training. Without grads the
    forward runs on the plain arrays and builds no tape; the loss is the same
    bits either way.
    """
    p = {name: Tensor(v) for name, v in params.items()} if compute_grads else params
    h = batch["future_target"].shape[1]
    if spec.family == "ar_rnn":
        mu, sigma = forward_gaussian(spec, p, batch, h, rng=rng)
        loss = gaussian_nll_mean(mu, sigma, batch["future_target"])
    else:
        pred = forward_quantiles(spec, p, batch, h, len(grid), rng=rng)
        loss = pinball_mean(pred, batch["future_target"], np.array(grid.qs))
    if not compute_grads:
        return loss.item(), {}
    loss.backward()
    # a parameter the loss does not read gets zeros: a convseq2seq lookback
    # under 5 steps skips conv1's taps that would read only zero padding
    return loss.item(), {
        name: np.zeros_like(v) if p[name].grad is None else p[name].grad
        for name, v in params.items()
    }


# ----------------------------------------------------------------- optimizer


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale grads in place so the global L2 norm is <= max_norm; returns the raw norm."""
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_step(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float
) -> None:
    """Step t (from 1) of bias-corrected Adam: updates param and its moments m, v in place."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grad * grad)
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ----------------------------------------------------------------- fitting


def _infer_window_config(arrays: dict[str, np.ndarray]) -> WindowConfig:
    k, h = arrays["past_target"].shape[1], arrays["future_target"].shape[1]
    if h < 1 or k < 1 or k % h != 0:
        raise ValidationError(f"windows with k={k}, h={h} do not fit a (h, cm) config")
    return WindowConfig(h=h, cm=k // h)


def _check_divergence(loss: float, epoch: int, what: str) -> None:
    if not math.isfinite(loss) or abs(loss) > DIVERGENCE_THRESHOLD:
        raise TrainingDivergedError(f"{what} loss diverged at epoch {epoch}: {loss!r}")


def _eval_loss(spec, params, arrays, grid) -> float:
    n = arrays["future_target"].shape[0]
    total = 0.0
    for i in range(0, n, _EVAL_CHUNK):
        sub = {k: v[i : i + _EVAL_CHUNK] for k, v in arrays.items()}
        loss, _ = loss_and_grads(spec, params, sub, grid, compute_grads=False)
        total += loss * sub["future_target"].shape[0]
    return total / n


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """One view per name into the flat buffer, laid out in the order of shapes."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


def fit(
    spec: ForecasterSpec,
    train_windows: WindowBatch | Sequence[WindowSample],
    val_windows: WindowBatch | Sequence[WindowSample],
    cfg: TrainConfig,
    grid: QuantileGrid = QuantileGrid(),
    *,
    norm: NormStats,
    target: str,
    lc_names: tuple[str, ...],
) -> TrainedForecaster:
    """Train one forecaster; returns the best-validation-epoch parameters.

    persistence is a no-op baseline. `norm` is the normalization the windows
    were cut with, and `target` and `lc_names` name their channels; the model
    stores all three, and the train windows' (h, cm) and scenario dims, so its
    checkpoint is self-describing and the monitor normalizes its inputs exactly
    as the windows were. Before any training, model.check_windows refuses train
    windows without len(lc_names) covariate channels, and val windows cut
    unlike the train windows: in scenario dims, lookback, horizon or width.

    training_log holds one entry per epoch run for the train and val loss and
    for the steps' raw gradient norms (before clipping): their median, their
    maximum, and the fraction of steps that were clipped.
    """
    train_windows, val_windows = as_batch(train_windows), as_batch(val_windows)
    train_arrays = stack_windows(train_windows)
    wc = _infer_window_config(train_arrays)

    # built and checked first: a norm missing a channel fails before any training
    model = TrainedForecaster(
        spec=spec, wc=wc, grid=grid, target=target, lc_names=lc_names,
        scenario_dims=train_windows.scenario_dims, norm=norm, params={},
        training_log={"note": "persistence baseline needs no training", "seed": cfg.seed},
    )
    model.check_windows(train_windows, "train windows: ")
    model.check_windows(val_windows, "val windows: ")
    if spec.family == "persistence":
        return model

    val_arrays = stack_windows(val_windows)
    params = init_params(
        spec, wc, len(grid), len(lc_names), model.n_static,
        seed=np.random.SeedSequence((cfg.seed, 1)),
    )
    # each parameter becomes a view into one buffer, which one Adam step updates
    shapes = {name: v.shape for name, v in params.items()}
    flat = np.concatenate([v.ravel() for v in params.values()])
    params = _views(flat, shapes)
    flat_grad, adam_m, adam_v = np.empty_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    step = 0
    shuffle_rng = np.random.default_rng((cfg.seed, 2))
    dropout_rng = np.random.default_rng((cfg.seed, 3))
    n = train_arrays["future_target"].shape[0]

    best_val = math.inf
    best_flat = flat.copy()
    best_epoch = 0
    since_improve = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    norm_medians: list[float] = []
    norm_maxes: list[float] = []
    clip_fractions: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        norms: list[float] = []
        for i in range(0, n, cfg.batch_size):
            idx = perm[i : i + cfg.batch_size]
            sub = {k: v[idx] for k, v in train_arrays.items()}
            loss, grads = loss_and_grads(spec, params, sub, grid, rng=dropout_rng)
            _check_divergence(loss, epoch, "training")
            norms.append(clip_global_norm(grads, cfg.clip_norm))
            np.concatenate([g.ravel() for g in grads.values()], out=flat_grad)
            step += 1
            adam_step(flat, flat_grad, adam_m, adam_v, step, cfg.lr)
            epoch_loss += loss * len(idx)
        train_losses.append(epoch_loss / n)
        norm_medians.append(float(np.median(norms)))
        norm_maxes.append(max(norms))
        clip_fractions.append(sum(g > cfg.clip_norm for g in norms) / len(norms))
        val_loss = _eval_loss(spec, params, val_arrays, grid)
        _check_divergence(val_loss, epoch, "validation")
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_flat = flat.copy()
            best_epoch = epoch
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.patience:
                break
    model.params = {name: v.copy() for name, v in _views(best_flat, shapes).items()}
    model.training_log = {
        "seed": cfg.seed,
        "train_loss": train_losses,
        "val_loss": val_losses,
        "best_epoch": best_epoch,
        "best_val_loss": best_val,
        "stopped_epoch": len(val_losses),
        "grad_norm_median": norm_medians,
        "grad_norm_max": norm_maxes,
        "clip_fraction": clip_fractions,
    }
    return model
