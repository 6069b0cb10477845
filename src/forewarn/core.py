"""Core types and safety-metric operations.

Everything downstream (simulation, datasets, forecasters, the runtime monitor)
speaks in these types. Two conventions hold package-wide:

* Safety decisions are made on the **original physical scale** (meters,
  degrees). Normalization is a model-internal detail and never leaks into
  alarm logic.
* A safety metric is *margin-style*: ``metric = |actual| - threshold``, so a
  value ``>= 0`` is a violation and the sign alone carries the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "ScenarioDim",
    "Scenario",
    "SafetyRequirement",
    "Episode",
    "WindowConfig",
    "QuantileGrid",
    "DEFAULT_QUANTILES",
    "QuantileForecast",
    "WindowSample",
    "derived_seed",
    "safety_metric_fn",
    "violation_sign",
    "first_violation_index",
]


class ValidationError(ValueError):
    """A value violates a structural contract of a core type."""


def _as_float_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScenarioDim:
    """One scenario dimension: a named closed interval [lo, hi].

    ``kind`` is 'continuous' or 'categorical-as-real'; both are treated as
    reals everywhere, the kind is metadata for reporting.
    """

    name: str
    lo: float
    hi: float
    kind: str = "continuous"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario dimension needs a name")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValidationError(f"dimension {self.name!r}: bounds must be finite")
        if not self.lo < self.hi:
            raise ValidationError(f"dimension {self.name!r}: lo must be < hi")
        if self.kind not in ("continuous", "categorical-as-real"):
            raise ValidationError(f"dimension {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Scenario:
    """A point in the scenario box: one value per dimension, inside its range."""

    values: tuple[float, ...]
    dims: tuple[ScenarioDim, ...]

    def __post_init__(self) -> None:
        if len(self.dims) == 0:
            raise ValidationError("scenario needs at least one dimension")
        if len(self.values) != len(self.dims):
            raise ValidationError(
                f"scenario has {len(self.values)} values for {len(self.dims)} dimensions"
            )
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v, d in zip(self.values, self.dims):
            if not np.isfinite(v):
                raise ValidationError(f"dimension {d.name!r}: value is non-finite")
            if not (d.lo <= v <= d.hi):
                raise ValidationError(
                    f"dimension {d.name!r}: value {v} outside [{d.lo}, {d.hi}]"
                )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def unit_values(self) -> np.ndarray:
        """Values mapped to [0, 1] by the fixed affine map of each dimension.

        Data-independent, so model code can use it without fitting anything.
        """
        out = np.array(
            [(v - d.lo) / (d.hi - d.lo) for v, d in zip(self.values, self.dims)],
            dtype=np.float64,
        )
        return out

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))


@dataclass(frozen=True)
class SafetyRequirement:
    """A named bound on one raw-state channel: |channel| must stay < threshold."""

    name: str
    channel: str
    threshold: float

    def __post_init__(self) -> None:
        if not self.name or not self.channel:
            raise ValidationError("requirement needs a name and a channel")
        if not (np.isfinite(self.threshold) and self.threshold > 0):
            raise ValidationError(f"requirement {self.name!r}: threshold must be > 0")


@dataclass(frozen=True)
class Episode:
    """One simulated run: per-timestep signals plus the scenario that produced it.

    Arrays share the time axis (length T >= 1):

    * ``lc_outputs``   (T, D_o)  learned-component estimates (model inputs)
    * ``raw_state``    (T, D_s)  ground-truth plant state (never a model input)
    * ``safety_metric``(T, R)    one margin column per safety requirement

    The metric columns are ingestion-checked against :func:`safety_metric_fn`
    whenever requirements are supplied (see :meth:`check_metrics`).
    """

    id: str
    scenario: Scenario
    dt_seconds: float
    lc_outputs: np.ndarray
    raw_state: np.ndarray
    safety_metric: np.ndarray
    lc_names: tuple[str, ...]
    state_names: tuple[str, ...]
    metric_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("episode needs an id")
        if not (np.isfinite(self.dt_seconds) and self.dt_seconds > 0):
            raise ValidationError(f"episode {self.id!r}: dt_seconds must be > 0")
        object.__setattr__(self, "lc_outputs", _as_float_array(self.lc_outputs, "lc_outputs", 2))
        object.__setattr__(self, "raw_state", _as_float_array(self.raw_state, "raw_state", 2))
        object.__setattr__(
            self, "safety_metric", _as_float_array(self.safety_metric, "safety_metric", 2)
        )
        t = self.lc_outputs.shape[0]
        if t < 1:
            raise ValidationError(f"episode {self.id!r}: empty time axis")
        if self.raw_state.shape[0] != t or self.safety_metric.shape[0] != t:
            raise ValidationError(f"episode {self.id!r}: arrays disagree on length")
        for names, arr, what in (
            (self.lc_names, self.lc_outputs, "lc_outputs"),
            (self.state_names, self.raw_state, "raw_state"),
            (self.metric_names, self.safety_metric, "safety_metric"),
        ):
            if len(names) != arr.shape[1]:
                raise ValidationError(
                    f"episode {self.id!r}: {what} has {arr.shape[1]} columns "
                    f"but {len(names)} names"
                )
        object.__setattr__(self, "lc_names", tuple(self.lc_names))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(self, "metric_names", tuple(self.metric_names))

    @property
    def length(self) -> int:
        return self.lc_outputs.shape[0]

    def metric(self, name: str) -> np.ndarray:
        """The length-T safety-metric series for one requirement name."""
        try:
            j = self.metric_names.index(name)
        except ValueError:
            raise ValidationError(
                f"episode {self.id!r} has no metric {name!r} (has {self.metric_names})"
            ) from None
        return self.safety_metric[:, j]

    def state(self, name: str) -> np.ndarray:
        try:
            j = self.state_names.index(name)
        except ValueError:
            raise ValidationError(
                f"episode {self.id!r} has no state channel {name!r}"
            ) from None
        return self.raw_state[:, j]

    def check_metrics(self, requirements: Sequence[SafetyRequirement]) -> None:
        """Verify every metric column equals safety_metric_fn of its requirement.

        Raises ValidationError on the first mismatch. Exact comparison: the
        metric is defined pointwise from the raw state, not approximated.
        """
        for req in requirements:
            got = self.metric(req.name)
            want = np.abs(self.state(req.channel)) - req.threshold
            bad = np.nonzero(got != want)[0]
            if bad.size:
                t = int(bad[0])
                raise ValidationError(
                    f"episode {self.id!r}: metric {req.name!r} at t={t} is "
                    f"{got[t]!r}, expected {want[t]!r} from channel {req.channel!r}"
                )


@dataclass(frozen=True)
class WindowConfig:
    """Forecast horizon h and context multiplier cm; lookback k = cm * h."""

    h: int
    cm: int

    def __post_init__(self) -> None:
        if not (isinstance(self.h, int) and self.h >= 1):
            raise ValidationError(f"h must be an int >= 1, got {self.h!r}")
        if not (isinstance(self.cm, int) and self.cm >= 1):
            raise ValidationError(f"cm must be an int >= 1, got {self.cm!r}")

    @property
    def k(self) -> int:
        """Lookback length."""
        return self.cm * self.h

    @property
    def total(self) -> int:
        """Total span one sample covers: lookback plus horizon, h * (1 + cm)."""
        return self.h + self.k


DEFAULT_QUANTILES: tuple[float, ...] = (0.005, 0.025, 0.05, 0.5, 0.95, 0.975, 0.995)


@dataclass(frozen=True)
class QuantileGrid:
    """A strictly increasing tuple of quantile levels, all inside (0, 1)."""

    qs: tuple[float, ...] = DEFAULT_QUANTILES

    def __post_init__(self) -> None:
        object.__setattr__(self, "qs", tuple(float(q) for q in self.qs))
        if len(self.qs) == 0:
            raise ValidationError("quantile grid is empty")
        for q in self.qs:
            if not (0.0 < q < 1.0):
                raise ValidationError(f"quantile {q} outside (0, 1)")
        if any(b <= a for a, b in zip(self.qs, self.qs[1:])):
            raise ValidationError(f"quantile grid not strictly increasing: {self.qs}")

    def __len__(self) -> int:
        return len(self.qs)

    def index(self, q: float) -> int:
        for i, v in enumerate(self.qs):
            if v == q:
                return i
        raise ValidationError(f"quantile {q} not in grid {self.qs}")


@dataclass(frozen=True)
class QuantileForecast:
    """An (h, |Q|) matrix of original-scale quantile forecasts, rows non-crossing.

    Row t is the forecast for lead time tau = t + 1; column j is grid level
    qs[j]. Non-crossing means each row is non-decreasing left to right.
    """

    values: np.ndarray
    grid: QuantileGrid
    origin_t: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_float_array(self.values, "values", 2))
        if self.values.shape[1] != len(self.grid):
            raise ValidationError(
                f"forecast has {self.values.shape[1]} columns for a "
                f"{len(self.grid)}-level grid"
            )
        if np.any(np.diff(self.values, axis=1) < 0):
            raise ValidationError("quantile forecast rows must be non-decreasing")

    @property
    def h(self) -> int:
        return self.values.shape[0]

    def column(self, q: float) -> np.ndarray:
        """The length-h forecast series at one quantile level."""
        return self.values[:, self.grid.index(q)]


@dataclass(frozen=True)
class WindowSample:
    """One training/evaluation sample cut from an episode.

    ``past_target`` (k,) and ``future_target`` (h,) are the safety metric;
    ``past_covariates`` (k, D_o) are the learned-component outputs. All three
    are stored on the normalized scale; ``denorm = (mean, std)`` of the target
    channel takes forecasts back to the original scale.
    """

    scenario: Scenario
    past_target: np.ndarray
    past_covariates: np.ndarray
    future_target: np.ndarray
    denorm: tuple[float, float]
    episode_id: str = ""
    origin_t: int = -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "past_target", _as_float_array(self.past_target, "past_target", 1))
        object.__setattr__(
            self, "past_covariates", _as_float_array(self.past_covariates, "past_covariates", 2)
        )
        object.__setattr__(
            self, "future_target", _as_float_array(self.future_target, "future_target", 1)
        )
        if self.past_covariates.shape[0] != self.past_target.shape[0]:
            raise ValidationError("past_covariates and past_target disagree on lookback length")
        mean, std = self.denorm
        if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
            raise ValidationError(f"denorm (mean, std) must be finite with std > 0, got {self.denorm}")
        object.__setattr__(self, "denorm", (float(mean), float(std)))

    @property
    def k(self) -> int:
        return self.past_target.shape[0]

    @property
    def h(self) -> int:
        return self.future_target.shape[0]

    def future_target_original(self) -> np.ndarray:
        mean, std = self.denorm
        return self.future_target * std + mean


def derived_seed(*key: int) -> int:
    """A 32-bit seed drawn from the integer tuple `key` (one SeedSequence word)."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def safety_metric_fn(actual: float, threshold: float) -> float:
    """Margin of one raw-state value against its requirement: |actual| - threshold.

    >= 0 means the requirement is violated. threshold must be positive.
    """
    if not threshold > 0:
        raise ValidationError(f"threshold must be > 0, got {threshold}")
    return abs(float(actual)) - float(threshold)


def violation_sign(values: Sequence[float]) -> int:
    """Verdict over a horizon of metric values: +1 if any value >= 0, else -1.

    sign(0) is +1: touching the threshold counts as a violation.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("empty horizon")
    return 1 if float(arr.max()) >= 0.0 else -1


def first_violation_index(values: Sequence[float]) -> Optional[int]:
    """1-based index of the first metric value >= 0, or None if none violates."""
    arr = np.asarray(values, dtype=np.float64)
    hits = np.nonzero(arr >= 0.0)[0]
    if hits.size == 0:
        return None
    return int(hits[0]) + 1
