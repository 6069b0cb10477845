"""Episode serialization, normalization, splits, and window extraction.

File format: line-delimited ASCII JSON, one episode per line, written by
json.dumps with keys in a fixed order, so identical inputs produce identical
bytes (dataset hashes are stable). Each float is the shortest text that reads
back to the same double, -0.0 included, so a round trip keeps every bit.

Splits are time-based per episode, with fixed fractions: the first
floor(0.7*T) steps train, the next floor(0.1*T) validate, the rest test; an
episode needs T >= 10. Window extraction is rolling-origin with one window
per origin: a window's lookback may reach backward across a split boundary,
its targets may not leave the segment. Windows come as one columnar
WindowBatch per episode or phase, cut as strided views of each episode's
normalized series and copied once into the batch's arrays.
Normalization statistics are fit on training segments only. phase_windows
does the whole step once: split, fit the statistics, cut the three phases.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    Episode,
    Scenario,
    ScenarioDim,
    WindowBatch,
    WindowConfig,
)

__all__ = [
    "DatasetError",
    "NormStats",
    "EpisodeSplit",
    "STD_EPSILON",
    "write_episodes",
    "read_episode_lines",
    "read_episodes",
    "dataset_hash",
    "fit_norm",
    "split_episode",
    "build_split",
    "make_windows",
    "windows_for_phase",
    "phase_windows",
]

logger = logging.getLogger(__name__)

STD_EPSILON = 1e-9


class DatasetError(ValueError):
    """A dataset file or split request is malformed."""


# --------------------------------------------------------------- serialization


def _episode_line(ep: Episode) -> str:
    dims = ep.scenario.dims
    record = {
        "id": ep.id,
        "scenario": {
            "names": list(ep.scenario.names),
            "values": list(ep.scenario.values),
            "lo": [float(d.lo) for d in dims],
            "hi": [float(d.hi) for d in dims],
            "kind": [d.kind for d in dims],
        },
        "dt": float(ep.dt_seconds),
        "roles": {"lc": list(ep.lc_names), "state": list(ep.state_names),
                  "metric": list(ep.metric_names)},
        "columns": {
            name: column
            for names, arr in (
                (ep.lc_names, ep.lc_outputs),
                (ep.state_names, ep.raw_state),
                (ep.metric_names, ep.safety_metric),
            )
            for name, column in zip(names, arr.T.tolist())
        },
    }
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def write_episodes(path, episodes: Iterable[Episode]) -> None:
    """Write episodes as line-delimited records; byte-deterministic."""
    with open(path, "w", encoding="ascii") as f:
        for ep in episodes:
            f.write(_episode_line(ep))
            f.write("\n")


def _parse_record(obj: dict, lineno: int) -> Episode:
    try:
        scen = obj["scenario"]
        dims = tuple(
            ScenarioDim(n, float(lo), float(hi), kind)
            for n, lo, hi, kind in zip(
                scen["names"], scen["lo"], scen["hi"], scen["kind"], strict=True
            )
        )
        scenario = Scenario(tuple(float(v) for v in scen["values"]), dims)
        roles = obj["roles"]
        columns = obj["columns"]
        lengths = {name: len(seq) for name, seq in columns.items()}
        if len(set(lengths.values())) > 1:
            raise DatasetError(
                f"line {lineno}: unequal column lengths {lengths}"
            )
        def stack(names):
            return np.column_stack([np.asarray(columns[n], dtype=np.float64) for n in names])
        return Episode(
            id=obj["id"],
            scenario=scenario,
            dt_seconds=float(obj["dt"]),
            lc_outputs=stack(roles["lc"]),
            raw_state=stack(roles["state"]),
            safety_metric=stack(roles["metric"]),
            lc_names=tuple(roles["lc"]),
            state_names=tuple(roles["state"]),
            metric_names=tuple(roles["metric"]),
        )
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"line {lineno}: malformed episode record: {exc}") from exc


def read_episode_lines(lines) -> Iterator[Episode]:
    """Parse line-delimited episode records lazily, one per bytes line of `lines`.

    A record is parsed only when the caller asks for it, so a stream's earlier
    episodes are usable before a later malformed line raises DatasetError.
    Each line must be ASCII, as write_episodes writes it.
    """
    for lineno, line in enumerate(lines, 1):
        try:
            line = line.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"line {lineno}: not ASCII: {exc}") from None
        if not line.strip():
            raise DatasetError(f"line {lineno}: empty record")
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from exc
        yield _parse_record(obj, lineno)


def read_episodes(path) -> list[Episode]:
    """Parse a line-delimited episode file; errors carry the 1-based line number."""
    with open(path, "rb") as f:  # decoded line by line, so a bad byte names its line
        return list(read_episode_lines(f))


def dataset_hash(path) -> str:
    """sha256 of the file bytes; the stable identity of a generated dataset."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# --------------------------------------------------------------- normalization


@dataclass(frozen=True)
class NormStats:
    """Per-channel (mean, population std) fit on training segments only."""

    channels: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        for name, (mean, std) in self.channels.items():
            if not (math.isfinite(mean) and math.isfinite(std) and std > 0):
                raise DatasetError(
                    f"channel {name!r}: normalization (mean, std) must be finite "
                    f"with std > 0, got ({mean}, {std})"
                )

    def stats(self, channel: str) -> tuple[float, float]:
        """The channel's (mean, std); DatasetError when it has none."""
        try:
            return self.channels[channel]
        except KeyError:
            raise DatasetError(f"no normalization stats for channel {channel!r}") from None


def fit_norm(episodes: Sequence[Episode], split: dict[str, EpisodeSplit]) -> NormStats:
    """Mean/std per learned-component and metric channel over train segments.

    Population std (ddof=0). Channels with std below STD_EPSILON are clamped
    and logged: a constant channel normalizes to zeros instead of dividing by
    zero.
    """
    if not episodes:
        raise DatasetError("no episodes to fit normalization on")
    pools: dict[str, list[np.ndarray]] = {}
    for ep in episodes:
        seg = split[ep.id].train
        for names, arr in ((ep.lc_names, ep.lc_outputs), (ep.metric_names, ep.safety_metric)):
            for j, name in enumerate(names):
                pools.setdefault(name, []).append(arr[seg[0] : seg[1], j])
    channels = {}
    for name, chunks in pools.items():
        data = np.concatenate(chunks)
        mean = float(data.mean())
        std = float(data.std())
        if std < STD_EPSILON:
            logger.warning("channel %r is constant on train segments; clamping std", name)
            std = STD_EPSILON
        channels[name] = (mean, std)
    return NormStats(channels)


# --------------------------------------------------------------- splits


@dataclass(frozen=True)
class EpisodeSplit:
    """Half-open [start, end) bounds of the three phases of one episode."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def segment(self, phase: str) -> tuple[int, int]:
        if phase not in ("train", "val", "test"):
            raise DatasetError(f"unknown phase {phase!r}")
        return getattr(self, phase)


def split_episode(episode: Episode) -> EpisodeSplit:
    """Time-based split: floor(0.7*T) train, floor(0.1*T) val, remainder to test."""
    t = episode.length
    if t < 10:
        raise DatasetError(f"episode {episode.id!r} too short to split: T={t} < 10")
    # T >= 10 gives every phase at least one step: val floor(0.1*T) >= 1, test >= 0.2*T
    n_train = int(0.7 * t)
    n_val = int(0.1 * t)
    return EpisodeSplit(
        train=(0, n_train),
        val=(n_train, n_train + n_val),
        test=(n_train + n_val, t),
    )


def build_split(episodes: Sequence[Episode]) -> dict[str, EpisodeSplit]:
    """Each episode's split, by episode id; the ids must be unique."""
    split: dict[str, EpisodeSplit] = {}
    for ep in episodes:
        if ep.id in split:
            raise DatasetError(f"duplicate episode id {ep.id!r}")
        split[ep.id] = split_episode(ep)
    return split


# --------------------------------------------------------------- windows


def _cut(
    episode: Episode,
    segment: tuple[int, int],
    wc: WindowConfig,
    norm: NormStats,
    target: str,
) -> dict:
    """One episode's window origins and per-window columns.

    The columns are strided views into the episode's normalized series.
    """
    s0, s1 = segment
    if not (0 <= s0 <= s1 <= episode.length):
        raise DatasetError(f"segment {segment} out of bounds for T={episode.length}")
    k, h = wc.k, wc.h
    mean, std = norm.stats(target)
    metric_n = (episode.metric(target) - mean) / std
    cov_mean, cov_std = np.array([norm.stats(name) for name in episode.lc_names]).T
    cov_n = (episode.lc_outputs - cov_mean) / cov_std
    origins = np.arange(max(s0 - 1, k - 1), s1 - h)
    if not origins.size:
        return {"origin_t": origins, "past_target": np.empty((0, k)),
                "past_cov": np.empty((0, k, cov_n.shape[1])), "future_target": np.empty((0, h))}
    # window i starts at origins[i] - k + 1: its lookback, then its horizon
    rows = slice(origins[0] - k + 1, origins[-1] - k + 2)
    spans = np.lib.stride_tricks.sliding_window_view(metric_n, k + h)[rows]
    cov = np.lib.stride_tricks.sliding_window_view(cov_n, k, axis=0)[rows]
    return {"origin_t": origins, "past_target": spans[:, :k], "past_cov": cov.transpose(0, 2, 1),
            "future_target": spans[:, k:]}


def _batch(episodes: Sequence[Episode], cuts: list[dict]) -> WindowBatch:
    """Concatenate the episodes' cuts, in order, into one WindowBatch."""
    counts = [c["origin_t"].size for c in cuts]
    return WindowBatch(
        static=np.repeat([ep.scenario.unit_values() for ep in episodes], counts, axis=0),
        **{name: np.concatenate([c[name] for c in cuts])
           for name in ("past_target", "past_cov", "future_target", "origin_t")},
        episode_ids=np.repeat([ep.id for ep in episodes], counts),
        scenario_dims=episodes[0].scenario.names,
    )


def make_windows(
    episode: Episode,
    segment: tuple[int, int],
    wc: WindowConfig,
    norm: NormStats,
    target: str,
) -> WindowBatch:
    """Rolling-origin windows whose h targets lie inside the segment.

    The k-step lookback ends at the origin and may reach backward past the
    segment start (earlier observations are legitimately in the past), but
    never before the episode start. The batch is empty when the segment is
    too short.
    """
    return _batch([episode], [_cut(episode, segment, wc, norm, target)])


def windows_for_phase(
    episodes: Sequence[Episode],
    split: dict[str, EpisodeSplit],
    wc: WindowConfig,
    norm: NormStats,
    phase: str,
    target: str,
) -> WindowBatch:
    """One phase's windows of every episode, in episode order, as one WindowBatch.

    Columns are joined by position, so every episode must order its channels
    and scenario dims as the first does. Warns for each episode that yields none.
    """
    if not episodes:
        raise DatasetError("no episodes to cut windows from")
    first = episodes[0]
    cuts = []
    for ep in episodes:
        if (ep.lc_names, ep.scenario.names) != (first.lc_names, first.scenario.names):
            raise DatasetError(
                f"episode {ep.id}: channels {ep.lc_names} and scenario dims {ep.scenario.names} "
                f"differ from episode {first.id}'s {first.lc_names} and {first.scenario.names}"
            )
        seg = split[ep.id].segment(phase)
        cuts.append(_cut(ep, seg, wc, norm, target))
        if not cuts[-1]["origin_t"].size:
            logger.warning(
                "episode %s: %s segment %s too short for windows (k=%d, h=%d); excluded",
                ep.id, phase, seg, wc.k, wc.h,
            )
    return _batch(episodes, cuts)


def phase_windows(
    episodes: Sequence[Episode], wc: WindowConfig, target: str
) -> tuple[NormStats, dict[str, WindowBatch]]:
    """The default split's normalization and each phase's windows, by phase name."""
    split = build_split(episodes)
    norm = fit_norm(episodes, split)
    return norm, {
        phase: windows_for_phase(episodes, split, wc, norm, phase, target=target)
        for phase in ("train", "val", "test")
    }
