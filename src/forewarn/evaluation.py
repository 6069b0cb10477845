"""Forecast quality metrics, statistical comparisons, and benchmarking.

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
  size with the conventional 0.56 / 0.64 / 0.71 magnitude thresholds.
"""

from __future__ import annotations

import logging
import math
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import QuantileGrid, ValidationError, WindowConfig, WindowSample, derived_seed
from .data import NormStats, build_split, fit_norm, windows_for_phase
from .forecasters import ForecasterSpec, TrainedForecaster, predict_quantiles, predict_quantiles_batch
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

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


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
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    tie_term = 0.0
    i = 0
    sx = x[order]
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        t = j - i + 1
        tie_term += t**3 - t
        i = j + 1
    return ranks, tie_term


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """U statistic of the first sample and the two-sided asymptotic p-value.

    Normal approximation with tie correction, no continuity correction.
    A fully tied pooled sample has zero variance; p is defined as 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("mann_whitney_u needs non-empty samples")
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
    """A-hat: P(a > b) + 0.5 P(a = b) over all pairs, computed exactly."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValidationError("vargha_delaney needs non-empty samples")
    wins = ties = 0.0
    chunk = max(1, 2_000_000 // max(1, b.size))
    for i in range(0, a.size, chunk):
        block = a[i : i + chunk, None]
        wins += float((block > b[None, :]).sum())
        ties += float((block == b[None, :]).sum())
    return (wins + 0.5 * ties) / (a.size * b.size)


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
    episode_ids: tuple[str, ...]


def evaluate_model(
    model: TrainedForecaster,
    test_windows: Sequence[WindowSample],
    mc_seed: int | None = None,
    n_paths: int = 100,
) -> ModelEval:
    """Forecast every test window once; exact counts and q-Risk per quantile."""
    if not test_windows:
        raise ValidationError("evaluate_model needs test windows")
    preds = predict_quantiles_batch(model, test_windows, mc_seed=mc_seed, n_paths=n_paths)
    y_true = np.stack([s.future_target_original() for s in test_windows])
    truths = np.where(y_true.max(axis=1) >= 0.0, 1, -1)
    decisions = np.where(preds.max(axis=1) >= 0.0, 1, -1)  # (N, |Q|)
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
        episode_ids=tuple(s.episode_id for s in test_windows),
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
    reps: tuple[ModelEval, ...] = field(repr=False, default=())


def evaluate(
    spec: ForecasterSpec,
    base_cfg: TrainConfig,
    train_windows: Sequence[WindowSample],
    val_windows: Sequence[WindowSample],
    test_windows: Sequence[WindowSample],
    repetitions: int = 30,
    grid: QuantileGrid = QuantileGrid(),
    norm: NormStats | None = None,
    target: str = "target",
    lc_names: tuple[str, ...] | None = None,
    n_paths: int = 100,
) -> EvalReport:
    """Retrain `repetitions` times (fresh seed each) and aggregate test metrics.

    Each repetition derives its training seed and its Monte-Carlo seed from
    (base_cfg.seed, repetition), so the whole report is reproducible.
    """
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")

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
    wc = WindowConfig(h=test_windows[0].h, cm=test_windows[0].k // test_windows[0].h)
    per_q: dict[float, dict[str, MetricSummary]] = {}
    for q in grid.qs:
        per_q[q] = {
            key: MetricSummary.of([float(me.per_q[q][key]) for me in model_evals])
            for key in METRIC_KEYS
        }
    return EvalReport(
        family=spec.family,
        h=wc.h,
        cm=wc.cm,
        repetitions=repetitions,
        quantiles=grid.qs,
        per_q=per_q,
        reps=tuple(model_evals),
    )


# ----------------------------------------------------------------- sweep


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
    skipped rows with a warning. total_window = h * (1 + cm).
    """
    split = build_split(episodes)
    norm = fit_norm(episodes, split)
    lc_names = episodes[0].lc_names
    target = target if target is not None else episodes[0].metric_names[0]
    rows: list[dict] = []
    for h in h_values:
        for cm in cm_values:
            wc = WindowConfig(h=h, cm=cm)
            row: dict = {
                "h": h, "cm": cm, "lookback": wc.k, "total_window": wc.total,
            }
            phase_windows = {
                phase: windows_for_phase(episodes, split, wc, norm, phase, target=target)
                for phase in ("train", "val", "test")
            }
            empty = [p for p, w in phase_windows.items() if not w]
            if empty:
                logger.warning(
                    "sweep: skipping h=%d cm=%d (total window %d): no %s windows",
                    h, cm, wc.total, "/".join(empty),
                )
                for family in families:
                    rows.append({**row, "family": family, "skipped": True,
                                 "skipped_reason": f"no {'/'.join(empty)} windows"})
                continue
            for family in families:
                report = evaluate(
                    ForecasterSpec(family), base_cfg,
                    phase_windows["train"], phase_windows["val"], phase_windows["test"],
                    repetitions=repetitions, grid=grid, norm=norm, target=target,
                    lc_names=lc_names, n_paths=n_paths,
                )
                rows.append({
                    **row,
                    "family": family,
                    "skipped": False,
                    "qrisk_sum_mean": float(
                        sum(report.per_q[q]["q_risk"].mean for q in grid.qs)
                    ),
                    "report": report,
                })
    return rows


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


def bench(
    model: TrainedForecaster,
    sample: WindowSample,
    warmup: int = 50,
    iters: int = 500,
    n_paths: int = 100,
) -> BenchReport:
    """Wall-clock latency of single-sample prediction plus memory figures.

    Timing excludes the tracemalloc pass (the hook slows allocation); the
    peak is measured on one representative call afterwards.
    """
    if warmup < 0 or iters < 1:
        raise ValidationError("bench needs warmup >= 0 and iters >= 1")

    def call():
        return predict_quantiles(model, sample, mc_seed=0, n_paths=n_paths)

    for _ in range(warmup):
        call()
    times = np.empty(iters)
    for i in range(iters):
        t0 = time.perf_counter()
        call()
        times[i] = time.perf_counter() - t0
    try:
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        call()
        _, peak = tracemalloc.get_traced_memory()
        if not was_tracing:
            tracemalloc.stop()
        peak_bytes, source = int(peak), "tracemalloc"
    except Exception:  # pragma: no cover - tracemalloc is stdlib, belt and braces
        k, h, nq = model.wc.k, model.wc.h, len(model.grid)
        paths = n_paths if model.spec.family == "ar_rnn" else 1
        peak_bytes = model.parameter_bytes + 8 * paths * (k + h) * max(nq, 8) * 4
        source = "analytic"
    ms = times * 1e3
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
        peak_alloc_bytes=peak_bytes,
        peak_alloc_source=source,
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
