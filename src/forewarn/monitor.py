"""The runtime safety monitor: streaming lookback buffer, forecasts, alarms.

A monitor wraps one trained forecaster and watches one scenario's stream of
(learned-component outputs, measured safety metric) observations. Once it has
seen more than a full lookback it forecasts after every push, takes the sign
of the configured decision quantile's horizon (>= 0 anywhere means violation
predicted), and raises an Alarm when `hysteresis` consecutive decisions are
positive.

Buffers are preallocated at construction; a push allocates only the fixed-size
window handed to the forecaster, never anything proportional to stream length.
The monitor consumes measured safety-metric values for its lookback; it never
feeds its own forecasts back in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    Episode,
    QuantileForecast,
    Scenario,
    ValidationError,
    WindowSample,
    derived_seed,
    first_violation_index,
    violation_sign,
)
from .forecasters import TrainedForecaster, predict_quantiles

__all__ = ["MonitorConfig", "Alarm", "SafetyMonitor", "replay"]


@dataclass(frozen=True)
class MonitorConfig:
    """Decision rule settings around one trained forecaster.

    hysteresis n >= 0 requires n consecutive positive decisions before an
    alarm; 0 and 1 both alarm on any single positive decision.
    """

    model: TrainedForecaster
    decision_quantile: float = 0.995
    hysteresis: int = 1
    seed: int = 0
    n_paths: int = 100

    def __post_init__(self) -> None:
        self.model.grid.index(self.decision_quantile)  # must be a grid level
        if not (isinstance(self.hysteresis, int) and self.hysteresis >= 0):
            raise ValidationError(f"hysteresis must be an int >= 0, got {self.hysteresis!r}")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be >= 1")


@dataclass(frozen=True)
class Alarm:
    """A predicted violation: when it is expected and the forecast behind it."""

    origin_t: int
    time_to_violation: int  # 1-based lead time into the horizon
    forecast: QuantileForecast


class SafetyMonitor:
    """Single-owner streaming monitor; see module docstring for the contract."""

    def __init__(self, cfg: MonitorConfig, scenario: Scenario) -> None:
        model = cfg.model
        if len(scenario.dims) != model.n_static:
            raise ValidationError(
                f"scenario has {len(scenario.dims)} dims, model expects {model.n_static}"
            )
        # fail at construction, not mid-stream, if the stats are incomplete
        self._target_denorm = model.norm._get(model.target)
        self._cov_stats = [model.norm._get(name) for name in model.lc_names]
        self.cfg = cfg
        self.scenario = scenario
        k = model.wc.k
        self._k = k
        self._lc_buf = np.zeros((k, len(model.lc_names)))
        self._y_buf = np.zeros(k)
        self._future_stub = np.zeros(model.wc.h)
        self._count = 0
        self._streak = 0
        self.last_decision: Optional[int] = None
        self.last_forecast: Optional[QuantileForecast] = None

    @property
    def t(self) -> int:
        """0-based index of the next observation to be pushed."""
        return self._count

    def push(self, lc_row: Sequence[float], metric_value: float) -> Optional[Alarm]:
        """Ingest one observation; returns an Alarm when one is raised.

        No decision is made until the buffer has wrapped once (the first
        decision uses observations 1..k at t = k), so a length-T stream
        yields exactly T - k decisions.
        """
        lc = np.asarray(lc_row, dtype=np.float64)
        if lc.shape != (self._lc_buf.shape[1],):
            raise ValidationError(
                f"observation has shape {lc.shape}, expected ({self._lc_buf.shape[1]},)"
            )
        y = float(metric_value)
        if not (np.all(np.isfinite(lc)) and np.isfinite(y)):
            raise ValidationError("observation contains non-finite values")

        k = self._k
        pos = self._count % k
        self._lc_buf[pos] = lc
        self._y_buf[pos] = y
        t = self._count
        self._count += 1

        if t < k:
            self.last_decision = None
            self.last_forecast = None
            return None

        # chronological order: the slot just written is the newest
        order = np.roll(np.arange(k), -(pos + 1))
        mean, std = self._target_denorm
        past_target = (self._y_buf[order] - mean) / std
        past_cov = np.empty_like(self._lc_buf)
        raw_cov = self._lc_buf[order]
        for j, (m_j, s_j) in enumerate(self._cov_stats):
            past_cov[:, j] = (raw_cov[:, j] - m_j) / s_j
        sample = WindowSample(
            scenario=self.scenario,
            past_target=past_target,
            past_covariates=past_cov,
            future_target=self._future_stub,
            denorm=(mean, std),
            origin_t=t,
        )
        forecast = predict_quantiles(
            self.cfg.model, sample, mc_seed=derived_seed(self.cfg.seed, t), n_paths=self.cfg.n_paths
        )
        column = forecast.column(self.cfg.decision_quantile)
        decision = violation_sign(column)
        self._streak = self._streak + 1 if decision == 1 else 0
        self.last_decision = decision
        self.last_forecast = forecast
        alarm = None
        if decision == 1 and self._streak >= self.cfg.hysteresis:
            alarm = Alarm(
                origin_t=t,
                time_to_violation=first_violation_index(column),
                forecast=forecast,
            )
        return alarm


def replay(episode: Episode, cfg: MonitorConfig) -> list[tuple[int, int, Optional[Alarm]]]:
    """Feed one episode through a fresh monitor; one (t, decision, alarm) per t >= k.

    The episode must carry the model's target metric and exactly its
    learned-component channels (same names, same order).
    """
    model = cfg.model
    if episode.lc_names != model.lc_names:
        raise ValidationError(
            f"episode channels {episode.lc_names} do not match model {model.lc_names}"
        )
    y = episode.metric(model.target)
    monitor = SafetyMonitor(cfg, episode.scenario)
    out: list[tuple[int, int, Optional[Alarm]]] = []
    for t in range(episode.length):
        alarm = monitor.push(episode.lc_outputs[t], y[t])
        if monitor.last_decision is not None:
            out.append((t, monitor.last_decision, alarm))
    return out
