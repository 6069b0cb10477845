"""Forecast quality metrics, statistical comparisons, tuning, and benchmarking.

Metric conventions:

* q-Risk is the doubly-summed pinball loss over all test windows and lead
  times, normalized by the summed absolute target, on the original scale.
* Classification uses +1 = violation predicted/observed (the sign of the
  horizon maximum). Counts are exact; precision at TP+FP=0 is defined as 1
  when nothing was missed and 0 otherwise, and flagged as degenerate.
* Repetition-based evaluation retrains the model per repetition and reports
  mean +- half of the 95% CI (normal approximation, 1.96 * s / sqrt(R)).
* Family comparisons use the Mann-Whitney U test (two-sided, normal
  approximation with tie correction) plus the Vargha-Delaney A-hat effect
  size, U / (n1 n2), with the conventional 0.56 / 0.64 / 0.71 magnitude
  thresholds. Both reject non-finite samples.
* Every driver scores a trained model through evaluate_model: evaluate and
  sweep on the test windows, grid_tune on the validation windows.
"""

from __future__ import annotations

import logging
import math
import time
import tracemalloc
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    Episode, QuantileGrid, ValidationError, WindowBatch, WindowConfig, WindowSample,
    check_setting, derived_seed, violation_sign,
)
from .data import NormStats, phase_windows
from .forecasters import (
    GRIDS,
    ForecasterSpec,
    TrainedForecaster,
    future_target_original,
    init_params,
    predict_quantiles_batch,
    stack_windows,
)
from .monitor import MonitorConfig, SafetyMonitor
from .training import TrainConfig, TrainingDivergedError, fit

__all__ = [
    "q_risk",
    "Confusion",
    "confusion",
    "precision_recall",
    "f_beta",
    "mann_whitney_u",
    "vargha_delaney",
    "effect_magnitude",
    "compare_samples",
    "ModelEval",
    "evaluate_model",
    "MetricSummary",
    "EvalReport",
    "evaluate",
    "sweep",
    "TRAIN_AXES",
    "TuneResult",
    "grid_tune",
    "BenchReport",
    "bench",
    "plot_data",
]

logger = logging.getLogger(__name__)

CI95_T = 1.96


# ----------------------------------------------------------------- q-risk


def q_risk(y_true: np.ndarray, y_pred: np.ndarray, q: float) -> float:
    """2 * sum of pinball losses / sum of |y| over an (N, h) window block."""
    if not (0.0 < q < 1.0):
        raise ValidationError(f"quantile level {q} outside (0, 1)")
    y = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(y_pred, dtype=np.float64)
    if y.shape != p.shape or y.ndim != 2:
        raise ValidationError(f"q_risk needs matching (N, h) arrays, got {y.shape} vs {p.shape}")
    denom = float(np.abs(y).sum())
    if denom <= 1e-12:
        raise ValidationError("degenerate test set: sum of |target| is zero")
    diff = y - p
    ql = q * np.clip(diff, 0.0, None) + (1.0 - q) * np.clip(-diff, 0.0, None)
    return 2.0 * float(ql.sum()) / denom


# ----------------------------------------------------------------- confusion


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int


def confusion(decisions: np.ndarray, truths: np.ndarray) -> Confusion:
    """Count outcomes for +-1 labeled decisions vs truths (+1 = violation)."""
    d = np.asarray(decisions)
    t = np.asarray(truths)
    if d.shape != t.shape:
        raise ValidationError("decisions and truths must align")
    for arr, name in ((d, "decisions"), (t, "truths")):
        if not np.all(np.isin(arr, (-1, 1))):
            raise ValidationError(f"{name} must be +-1 valued")
    return Confusion(
        tp=int(np.sum((d == 1) & (t == 1))),
        fp=int(np.sum((d == 1) & (t == -1))),
        fn=int(np.sum((d == -1) & (t == 1))),
        tn=int(np.sum((d == -1) & (t == -1))),
    )


def precision_recall(c: Confusion) -> tuple[float, float, bool]:
    """(precision, recall, degenerate) with the documented TP+FP=0 convention.

    When nothing is flagged, precision is 1.0 if nothing was missed (FN=0)
    else 0.0; the third element flags that the convention was applied.
    Recall over zero positives is 1.0 (nothing to catch), also flagged.
    """
    degenerate = False
    if c.tp + c.fp == 0:
        precision = 1.0 if c.fn == 0 else 0.0
        degenerate = True
    else:
        precision = c.tp / (c.tp + c.fp)
    if c.tp + c.fn == 0:
        recall = 1.0
        degenerate = True
    else:
        recall = c.tp / (c.tp + c.fn)
    return precision, recall, degenerate


def f_beta(precision: float, recall: float, beta: float = 3.0) -> float:
    """(1+b^2) P R / (b^2 P + R); 0 when both are 0 (recall-weighted for b>1)."""
    if precision == 0.0 and recall == 0.0:
        return 0.0
    b2 = beta * beta
    return (1.0 + b2) * precision * recall / (b2 * precision + recall)


# ----------------------------------------------------------------- rank stats


def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, float]:
    """Average ranks (1-based) and the tie-correction term sum(t^3 - t)."""
    _, group, t = np.unique(x, return_inverse=True, return_counts=True, equal_nan=False)
    # a tie group ending at rank e holds ranks e - t + 1 .. e
    return (np.cumsum(t) - 0.5 * (t - 1))[group], float((t**3 - t).sum())


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """U statistic of the first sample and the two-sided asymptotic p-value.

    Normal approximation with tie correction, no continuity correction.
    A fully tied pooled sample has zero variance; p is defined as 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("mann_whitney_u needs non-empty samples")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("mann_whitney_u needs finite samples")
    n1, n2 = a.size, b.size
    n = n1 + n2
    ranks, tie_term = _average_ranks(np.concatenate([a, b]))
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var_u <= 0.0:
        return u1, 1.0
    z = (u1 - mean_u) / math.sqrt(var_u)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return u1, min(1.0, p)


def vargha_delaney(a: Sequence[float], b: Sequence[float]) -> float:
    """A-hat: P(a > b) + 0.5 P(a = b) over all pairs, exactly U / (n1 n2)."""
    u, _ = mann_whitney_u(a, b)
    return u / (np.size(a) * np.size(b))


def effect_magnitude(a_hat: float) -> str:
    """Conventional labels at 0.56 / 0.64 / 0.71 (symmetric around 0.5)."""
    d = max(a_hat, 1.0 - a_hat)
    if d < 0.56:
        return "negligible"
    if d < 0.64:
        return "small"
    if d < 0.71:
        return "medium"
    return "large"


def compare_samples(a: Sequence[float], b: Sequence[float]) -> dict:
    u, p = mann_whitney_u(a, b)
    a_hat = vargha_delaney(a, b)
    return {"u": u, "p": p, "a_hat": a_hat, "magnitude": effect_magnitude(a_hat)}


# ----------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class ModelEval:
    """Exact outcomes of one trained model on one test window set."""

    quantiles: tuple[float, ...]
    per_q: dict[float, dict]
    decisions: np.ndarray  # (N, |Q|) in {-1, +1}
    truths: np.ndarray  # (N,) in {-1, +1}
    episode_ids: np.ndarray  # (N,) str, the episode each window was cut from


def evaluate_model(
    model: TrainedForecaster,
    test_windows: WindowBatch | Sequence[WindowSample],
    mc_seed: int | None = None,
    n_paths: int = 100,
) -> ModelEval:
    """Forecast every test window once; exact counts and q-Risk per quantile."""
    if not test_windows:
        raise ValidationError("evaluate_model needs test windows")
    preds = predict_quantiles_batch(model, test_windows, mc_seed=mc_seed, n_paths=n_paths)
    y_true = future_target_original(stack_windows(test_windows))
    truths = violation_sign(y_true, axis=1)
    decisions = violation_sign(preds, axis=1)  # (N, |Q|)
    per_q: dict[float, dict] = {}
    for j, q in enumerate(model.grid.qs):
        c = confusion(decisions[:, j], truths)
        p, r, degenerate = precision_recall(c)
        per_q[q] = {
            "q_risk": q_risk(y_true, preds[:, :, j], q),
            "tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn,
            "precision": p, "recall": r, "f_beta": f_beta(p, r),
            "degenerate_precision": degenerate,
        }
    return ModelEval(
        quantiles=model.grid.qs,
        per_q=per_q,
        decisions=decisions,
        truths=truths,
        episode_ids=(
            test_windows.episode_ids if isinstance(test_windows, WindowBatch)
            else np.array([s.episode_id for s in test_windows])
        ),
    )


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    half_ci: float  # 0.5 * CI95 width = 1.96 * s / sqrt(R)
    values: tuple[float, ...]

    @staticmethod
    def of(values: Sequence[float]) -> "MetricSummary":
        arr = np.asarray(values, dtype=np.float64)
        mean = float(arr.mean())
        half = float(CI95_T * arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        return MetricSummary(mean, half, tuple(float(v) for v in arr))


METRIC_KEYS = ("q_risk", "precision", "recall", "f_beta", "tp", "fp", "fn", "tn")


@dataclass(frozen=True)
class EvalReport:
    family: str
    h: int
    cm: int
    repetitions: int
    quantiles: tuple[float, ...]
    per_q: dict[float, dict[str, MetricSummary]]


def evaluate(
    spec: ForecasterSpec,
    base_cfg: TrainConfig,
    train_windows: WindowBatch | Sequence[WindowSample],
    val_windows: WindowBatch | Sequence[WindowSample],
    test_windows: WindowBatch | Sequence[WindowSample],
    repetitions: int = 30,
    grid: QuantileGrid = QuantileGrid(),
    *,
    norm: NormStats,
    target: str,
    lc_names: tuple[str, ...],
    n_paths: int = 100,
) -> EvalReport:
    """Retrain `repetitions` times (fresh seed each) and aggregate test metrics.

    Each repetition derives its training seed and its Monte-Carlo seed from
    (base_cfg.seed, repetition), so the whole report is reproducible.
    """
    repetitions = check_setting("repetitions", repetitions, low=1)

    model_evals = []
    for rep in range(repetitions):
        seed = derived_seed(base_cfg.seed, 100, rep)
        model = fit(
            spec, train_windows, val_windows, replace(base_cfg, seed=seed),
            grid=grid, norm=norm, target=target, lc_names=lc_names,
        )
        model_evals.append(
            evaluate_model(model, test_windows, mc_seed=derived_seed(seed, 7), n_paths=n_paths)
        )
    per_q: dict[float, dict[str, MetricSummary]] = {}
    for q in grid.qs:
        per_q[q] = {
            key: MetricSummary.of([float(me.per_q[q][key]) for me in model_evals])
            for key in METRIC_KEYS
        }
    return EvalReport(
        family=spec.family,
        h=model.wc.h,
        cm=model.wc.cm,
        repetitions=repetitions,
        quantiles=grid.qs,
        per_q=per_q,
    )


# ----------------------------------------------------------------- sweep


def _model_size(spec: ForecasterSpec, wc: WindowConfig, *dims: int) -> dict:
    """parameter_count and parameter_bytes of the family's model at wc.

    dims are init_params' n_quantiles, n_cov and n_static.
    """
    params = init_params(spec, wc, *dims, seed=0)
    return {
        "parameter_count": int(sum(p.size for p in params.values())),
        "parameter_bytes": int(sum(p.nbytes for p in params.values())),
    }


def sweep(
    episodes,
    families: Sequence[str],
    base_cfg: TrainConfig,
    h_values: Sequence[int] = (3, 12),
    cm_values: Sequence[int] = (1, 3, 9),
    repetitions: int = 1,
    grid: QuantileGrid = QuantileGrid(),
    target: str | None = None,
    n_paths: int = 100,
) -> list[dict]:
    """Evaluate each family across the (h, cm) grid; one row per config.

    Configs whose windows do not fit any phase of the split are emitted as
    skipped rows with a warning. total_window = h * (1 + cm). Every family
    is checked before any work, also when every config is skipped. Each row,
    skipped or not, gives the size of the family's model at that config:
    parameter_count and parameter_bytes (0 for persistence).
    """
    specs = [ForecasterSpec(family) for family in families]
    if not episodes:
        raise ValidationError("sweep needs at least one episode")
    lc_names = episodes[0].lc_names
    n_static = len(episodes[0].scenario.names)
    target = target if target is not None else episodes[0].metric_names[0]
    rows: list[dict] = []
    for h in h_values:
        for cm in cm_values:
            wc = WindowConfig(h=h, cm=cm)
            row: dict = {
                "h": h, "cm": cm, "lookback": wc.k, "total_window": wc.total,
            }
            sizes = [_model_size(spec, wc, len(grid), len(lc_names), n_static) for spec in specs]
            norm, phases = phase_windows(episodes, wc, target)
            empty = [p for p, w in phases.items() if not w]
            if empty:
                logger.warning(
                    "sweep: skipping h=%d cm=%d (total window %d): no %s windows",
                    h, cm, wc.total, "/".join(empty),
                )
                for spec, size in zip(specs, sizes):
                    rows.append({**row, "family": spec.family, **size, "skipped": True,
                                 "skipped_reason": f"no {'/'.join(empty)} windows"})
                continue
            for spec, size in zip(specs, sizes):
                report = evaluate(
                    spec, base_cfg,
                    phases["train"], phases["val"], phases["test"],
                    repetitions=repetitions, grid=grid, norm=norm, target=target,
                    lc_names=lc_names, n_paths=n_paths,
                )
                rows.append({
                    **row,
                    "family": spec.family,
                    **size,
                    "skipped": False,
                    "qrisk_sum_mean": float(
                        sum(report.per_q[q]["q_risk"].mean for q in grid.qs)
                    ),
                    "report": report,
                })
    return rows


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
    train_windows: WindowBatch | Sequence[WindowSample],
    val_windows: WindowBatch | Sequence[WindowSample],
    base_cfg: TrainConfig,
    repetitions: int = 5,
    grid: QuantileGrid = QuantileGrid(),
    *,
    norm: NormStats,
    target: str,
    lc_names: tuple[str, ...],
) -> TuneResult:
    """Exhaustive sweep over `axes` with `repetitions` seeds per configuration.

    Axes may name model hyperparameters (the family's grid) or training knobs
    (batch_size, lr, clip_norm); each takes a non-empty list or tuple of
    values. Configurations are ranked by the mean over repetitions of the
    validation q-Risk summed over the quantile grid, computed on the original
    scale by evaluate_model. Diverged runs score infinity, so any
    configuration that ever diverges ranks behind every stable one.
    """
    repetitions = check_setting("repetitions", repetitions, low=1)
    model_keys = sorted(k for k in axes if k in GRIDS[family])
    train_keys = sorted(k for k in axes if k in TRAIN_AXES)
    unknown = set(axes) - set(model_keys) - set(train_keys)
    if unknown:
        raise ValidationError(f"unknown tuning axes {sorted(unknown)} for family {family!r}")
    for key, values in axes.items():
        if not (isinstance(values, (list, tuple)) and values):
            raise ValidationError(
                f"tuning axis {key!r} needs a non-empty list of values, got {values!r}"
            )
    keys = model_keys + train_keys

    rows: list[dict] = []
    scores: list[float] = []
    configs: list[tuple[ForecasterSpec, TrainConfig]] = []
    for ci, combo in enumerate(product(*(axes[k] for k in keys))):
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
                ev = evaluate_model(model, val_windows, mc_seed=seed + 1)
                row["per_q"] = {q: ev.per_q[q]["q_risk"] for q in grid.qs}
                row["val_qrisk_sum"] = float(sum(row["per_q"].values()))
            except TrainingDivergedError:
                row["diverged"] = True
            rows.append(row)
            rep_scores.append(row["val_qrisk_sum"])
        scores.append(float(np.mean(rep_scores)))
    best_spec, best_cfg = configs[int(np.argmin(scores))]
    return TuneResult(best_spec=best_spec, best_cfg=best_cfg, rows=rows)


# ----------------------------------------------------------------- bench


@dataclass(frozen=True)
class BenchReport:
    family: str
    h: int
    cm: int
    iters: int
    mean_ms: float
    median_ms: float
    p99_ms: float
    parameter_count: int
    parameter_bytes: int
    peak_alloc_bytes: int
    peak_alloc_source: str

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def bench(cfg: MonitorConfig, episode: Episode, warmup: int = 50, iters: int = 500) -> BenchReport:
    """Wall-clock latency and peak allocation of the monitor's decided pushes.

    The episode streams through SafetyMonitor.push, as in `forewarn monitor`, through a
    fresh monitor each time it runs out. Building a monitor and its k warm-up pushes
    are never timed; the first `warmup` decided pushes are timed but dropped. The peak
    is traced over one more decided push, as the tracemalloc hook slows allocation.
    """
    warmup = check_setting("warmup", warmup)
    iters = check_setting("iters", iters, low=1)
    model, k = cfg.model, cfg.model.wc.k
    if episode.length <= k:
        raise ValidationError(f"bench: episode {episode.id} has no step after the lookback k={k}")
    y = episode.metric(model.target)

    def decided_pushes():  # endless, each ready to call
        while True:
            monitor = SafetyMonitor(cfg, episode.scenario)
            steps = [partial(monitor.push, lc, v) for lc, v in zip(episode.lc_outputs, y)]
            for push in steps[:k]:
                push()
            yield from steps[k:]

    pushes = decided_pushes()
    times = np.empty(warmup + iters)
    for i in range(warmup + iters):
        push = next(pushes)
        t0 = time.perf_counter()
        push()
        times[i] = time.perf_counter() - t0
    push = next(pushes)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    push()
    _, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()
    ms = times[warmup:] * 1e3
    return BenchReport(
        family=model.spec.family,
        h=model.wc.h,
        cm=model.wc.cm,
        iters=iters,
        mean_ms=float(ms.mean()),
        median_ms=float(np.median(ms)),
        p99_ms=float(np.percentile(ms, 99)),
        parameter_count=model.parameter_count,
        parameter_bytes=model.parameter_bytes,
        peak_alloc_bytes=int(peak),
        peak_alloc_source="tracemalloc",
    )


# ----------------------------------------------------------------- plot data


def plot_data(report: EvalReport) -> dict:
    """x/y series for the standard plots (counts are repetition means)."""
    qs = list(report.quantiles)
    return {
        "fn_vs_quantile": {
            "x": qs, "y": [report.per_q[q]["fn"].mean for q in qs],
        },
        "fp_vs_quantile": {
            "x": qs, "y": [report.per_q[q]["fp"].mean for q in qs],
        },
        "qrisk_vs_quantile": {
            "x": qs, "y": [report.per_q[q]["q_risk"].mean for q in qs],
        },
    }
