"""The runtime safety monitor: streaming lookback buffer, forecasts, alarms.

A monitor wraps one trained forecaster and watches one scenario's stream of
(learned-component outputs, measured safety metric) observations. Once it has
seen more than a full lookback it forecasts after every push, takes the sign
of the configured decision quantile's horizon (>= 0 anywhere means violation
predicted), and raises an Alarm when `hysteresis` consecutive decisions are
positive.

Everything a push reuses is built at construction: a doubled ring buffer of
shape (2k, 1 + D_o) holding normalized [metric, learned-component outputs]
rows, the normalization means and stds as two rows, and the forecaster's batch
dict (scenario, origin; each push adds the lookback); forecasts come back on
the model's target scale, the one the ring is normalized with. A push
normalizes its observation once and checks that row for finiteness once; only
then does it count the row and write it twice, so a refused observation changes
nothing and the lookback is one contiguous slice of the ring, forecast by
forecasters.predict_quantiles as a one-window batch. A push allocates only the
normalized (1 + D_o) row, the forecaster's fixed-size arrays for one window
(for ar_rnn, its n_paths sample paths) and the QuantileForecast, never anything
proportional to stream length.
Every push hands the forecaster the configured seed and its origin t; ar_rnn
draws from both, as it does for any batch of windows, so a push's forecast is
the one batch prediction gives that window, up to BLAS rounding (about 1e-15: a
one-window GEMM rounds differently from a batch's).
The monitor consumes measured safety-metric values for its lookback; it never
feeds its own forecasts back in.

`decisions` yields (t, decision, alarm, forecast) as each push of one episode
through a fresh monitor returns; `replay` collects its (t, decision, alarm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    Episode,
    QuantileForecast,
    Scenario,
    ValidationError,
    check_setting,
    first_violation_index,
    violation_sign,
)
from .forecasters import DEFAULT_N_PATHS, TrainedForecaster, predict_quantiles

__all__ = ["MonitorConfig", "Alarm", "SafetyMonitor", "decisions", "replay"]


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
    n_paths: int = DEFAULT_N_PATHS

    def __post_init__(self) -> None:
        self.model.grid.index(self.decision_quantile)  # must be a grid level
        check_setting("hysteresis", self.hysteresis)
        check_setting("seed", self.seed)
        check_setting("n_paths", self.n_paths, low=1)


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
        model.check_scenario(scenario.names)
        # TrainedForecaster has checked that the stats cover every channel,
        # NormStats that they are finite with std > 0
        stats = np.array([model.norm.stats(c) for c in (model.target, *model.lc_names)])
        self._mean, self._std = stats.T.copy()
        self.cfg = cfg
        k = model.wc.k
        self._k = k
        # row t is written at t % k and t % k + k, so the newest k rows are one slice
        self._ring = np.zeros((2 * k, len(stats)))
        self._batch = {
            "static": scenario.unit_values()[None, :],
            "origin_t": np.zeros(1, dtype=np.int64),
        }
        self._count = 0
        self._streak = 0
        self.last_decision: Optional[int] = None
        self.last_forecast: Optional[QuantileForecast] = None

    def push(self, lc_row: Sequence[float], metric_value: float) -> Optional[Alarm]:
        """Ingest one observation; returns an Alarm when one is raised.

        No decision is made until the buffer has wrapped once (the first
        decision uses observations 1..k at t = k), so a length-T stream
        yields exactly T - k decisions. An observation that is non-finite once
        normalized raises ValidationError and leaves the monitor as it was.
        """
        lc = np.asarray(lc_row, dtype=np.float64)
        n_cov = self._ring.shape[1] - 1
        if lc.shape != (n_cov,):
            raise ValidationError(f"observation has shape {lc.shape}, expected ({n_cov},)")
        with np.errstate(over="ignore"):  # an overflow is refused below, by name
            row = (np.concatenate(([float(metric_value)], lc)) - self._mean) / self._std
        if not np.isfinite(row).all():
            raise ValidationError("normalized observation contains non-finite values")

        k = self._k
        t = self._count
        pos = t % k
        self._ring[pos] = self._ring[pos + k] = row
        self._count += 1

        if t < k:
            self.last_decision = None
            self.last_forecast = None
            return None

        window = self._ring[pos + 1 : pos + 1 + k]
        batch = self._batch
        batch["past_target"] = window[None, :, 0]
        batch["past_cov"] = window[None, :, 1:]
        batch["origin_t"][0] = t
        cfg = self.cfg
        values = predict_quantiles(cfg.model, batch, mc_seed=cfg.seed, n_paths=cfg.n_paths)
        forecast = QuantileForecast(values[0], cfg.model.grid, origin_t=t)
        column = forecast.column(cfg.decision_quantile)
        decision = violation_sign(column)
        self._streak = self._streak + 1 if decision == 1 else 0
        self.last_decision = decision
        self.last_forecast = forecast
        alarm = None
        if decision == 1 and self._streak >= cfg.hysteresis:
            alarm = Alarm(
                origin_t=t,
                time_to_violation=first_violation_index(column),
                forecast=forecast,
            )
        return alarm


def decisions(
    episode: Episode, cfg: MonitorConfig
) -> Iterator[tuple[int, int, Optional[Alarm], QuantileForecast]]:
    """Feed one episode through a fresh monitor, yielding each decision as it is made.

    One (t, decision, alarm, forecast) per t >= k, as soon as that push
    returns. The episode must carry the model's target metric and exactly its
    learned-component channels (same names, same order).
    """
    cfg.model.check_channels(episode)
    y = episode.metric(cfg.model.target)
    monitor = SafetyMonitor(cfg, episode.scenario)
    for t in range(episode.length):
        alarm = monitor.push(episode.lc_outputs[t], y[t])
        if monitor.last_decision is not None:
            yield t, monitor.last_decision, alarm, monitor.last_forecast


def replay(episode: Episode, cfg: MonitorConfig) -> list[tuple[int, int, Optional[Alarm]]]:
    """The (t, decision, alarm) of every decision of `decisions(episode, cfg)`."""
    return [(t, decision, alarm) for t, decision, alarm, _ in decisions(episode, cfg)]
