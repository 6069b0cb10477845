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

import math
from dataclasses import dataclass, fields
from functools import cached_property
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "check_setting",
    "ScenarioDim",
    "Scenario",
    "SafetyRequirement",
    "Episode",
    "WindowConfig",
    "QuantileGrid",
    "DEFAULT_QUANTILES",
    "QuantileForecast",
    "WindowSample",
    "WindowBatch",
    "as_batch",
    "derived_seed",
    "violation_sign",
    "first_violation_index",
]


class ValidationError(ValueError):
    """A value violates a structural contract of a core type."""


def check_setting(name: str, value, kind: type = int, low=0, high=math.inf, above=False):
    """`value` if it is a `kind` in [low, high), or (low, high) with `above`.

    int means numbers.Integral and float numbers.Real; a bool is neither. The
    type is checked before the range, and either failure is a ValidationError
    naming the setting, its value and the bound. An int comes back as a
    builtin int, a float unchanged.
    """
    typed = isinstance(value, Real if kind is float else Integral) and not isinstance(value, bool)
    if not (typed and (value > low if above else value >= low) and value < high):
        bound = f"{'>' if above else '>='} {low}" + (f" and < {high}" if high < math.inf else "")
        what = "a finite number" if kind is float else "an int"
        raise ValidationError(f"{name} must be {what} {bound}, got {value!r}")
    return value if kind is float else int(value)


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

    @cached_property  # built on first use; not a field, so eq, hash and repr ignore it
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
        if not (isinstance(self.id, str) and self.id):
            raise ValidationError(f"episode id must be a non-empty string, got {self.id!r}")
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


@dataclass(frozen=True)
class WindowConfig:
    """Forecast horizon h and context multiplier cm; lookback k = cm * h."""

    h: int
    cm: int

    def __post_init__(self) -> None:
        for name in ("h", "cm"):
            object.__setattr__(self, name, check_setting(name, getattr(self, name), low=1))

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
    Nothing here checks that: its one producer, SafetyMonitor.push, holds the
    invariants. origin_t is the monitor's own counter, the width is the
    model's grid, and forecasters.predict_quantiles has sorted each row and
    refused a non-finite value.
    """

    values: np.ndarray
    grid: QuantileGrid
    origin_t: int

    def column(self, q: float) -> np.ndarray:
        """The length-h forecast series at one quantile level."""
        return self.values[:, self.grid.index(q)]


@dataclass(frozen=True)
class WindowSample:
    """Window `index` of `batch`, a row handle: it holds no data and checks only its index."""

    batch: WindowBatch
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "index", check_setting("window index", self.index, high=len(self.batch))
        )

    @property
    def episode_id(self) -> str:
        return str(self.batch.episode_ids[self.index])


@dataclass(frozen=True, eq=False)
class WindowBatch:
    """N windows as columns: the arrays the forward passes take, plus provenance.

    ``past_target`` (N, k) and ``future_target`` (N, h) are the safety metric,
    ``past_cov`` (N, k, D_o) the learned-component outputs, all normalized;
    ``static`` (N, S) holds the scenario unit values, in the order of the S
    names in ``scenario_dims``. The scale that takes forecasts and targets back
    to the original one is the model's (its NormStats), not the batch's.
    ``episode_ids`` and ``origin_t`` (N,) say where each window was cut, origin_t
    being the episode step its lookback ends at, which also seeds its
    Monte-Carlo draws. The batch is checked once, as a whole: the arrays agree
    on N and k, static has one column per scenario dim, every float is finite
    and every origin_t is an int >= 0. A slice, an int array or a boolean mask
    selects a WindowBatch. An int index is refused: the columns it would give
    fail the shape check. Iterating yields a WindowSample handle per window,
    the list form training.fit also takes.
    """

    static: np.ndarray
    past_target: np.ndarray
    past_cov: np.ndarray
    future_target: np.ndarray
    episode_ids: np.ndarray
    origin_t: np.ndarray
    scenario_dims: tuple[str, ...]

    COLUMNS = ("static", "past_target", "past_cov", "future_target")

    def __post_init__(self) -> None:
        for name, ndim in zip(self.COLUMNS, (2, 2, 3, 2)):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), name, ndim))
        n, k = self.past_target.shape
        for name, got, want in (
            ("static rows", self.static.shape[:1], (n,)),
            ("past_cov (N, k)", self.past_cov.shape[:2], (n, k)),
            ("future_target rows", self.future_target.shape[:1], (n,)),
            ("episode_ids", np.shape(self.episode_ids), (n,)),
            ("origin_t", np.shape(self.origin_t), (n,)),
        ):
            if got != want:
                raise ValidationError(
                    f"window batch columns disagree: {name} is {got}, "
                    f"past_target {(n, k)} needs {want}"
                )
        dims = tuple(self.scenario_dims)
        if self.static.shape[1] != len(dims):
            raise ValidationError(
                f"static has {self.static.shape[1]} columns, scenario dims {dims} name {len(dims)}"
            )
        object.__setattr__(self, "scenario_dims", dims)
        origin_t = np.asarray(self.origin_t)
        if origin_t.dtype.kind not in "iu":
            raise ValidationError(f"origin_t must be ints, got dtype {origin_t.dtype}")
        if np.any(origin_t < 0):
            raise ValidationError(f"origin_t must be >= 0 in every window, got {origin_t.min()}")
        object.__setattr__(self, "origin_t", origin_t)

    def __len__(self) -> int:
        return self.past_target.shape[0]

    def __iter__(self):
        return (WindowSample(self, i) for i in range(len(self)))

    def __getitem__(self, index):
        return WindowBatch(  # a slice, an int array or a boolean mask selects rows
            *(getattr(self, f.name)[index] for f in fields(self) if f.name != "scenario_dims"),
            scenario_dims=self.scenario_dims,
        )


def as_batch(windows: WindowBatch | Sequence[WindowSample]) -> WindowBatch:
    """`windows` as one non-empty WindowBatch: a batch as it is, handles gathered.

    training.fit's two forms. Handles must index one batch; their rows are
    selected from it in one go.
    """
    if not len(windows):
        raise ValidationError("empty window batch")
    if isinstance(windows, WindowBatch):
        return windows
    batch = windows[0].batch
    if any(w.batch is not batch for w in windows):
        raise ValidationError("windows index different batches: select them from one WindowBatch")
    return batch[np.fromiter((w.index for w in windows), np.intp, len(windows))]


def derived_seed(*key: int) -> int:
    """A 32-bit seed drawn from the integer tuple `key` (one SeedSequence word)."""
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def violation_sign(values: Sequence[float], axis: int | None = None):
    """Verdict over a horizon of metric values: +1 if any value >= 0, else -1.

    sign(0) is +1: touching the threshold counts as a violation. With `axis`,
    an int array of verdicts, one per horizon laid along that axis.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("empty horizon")
    if axis is None:
        return 1 if float(arr.max()) >= 0.0 else -1
    return np.where(arr.max(axis=axis) >= 0.0, 1, -1)


def first_violation_index(values: Sequence[float]) -> Optional[int]:
    """1-based index of the first metric value >= 0, or None if none violates."""
    arr = np.asarray(values, dtype=np.float64)
    hits = np.nonzero(arr >= 0.0)[0]
    if hits.size == 0:
        return None
    return int(hits[0]) + 1
