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
WindowBatch per episode or phase, taken in one gather: the stretches of all
the call's episodes that its windows read are joined into one series per
column and normalized once, and each column is one fancy index at the
windows' starts on a strided view of that series. A call whose segments are
all too short for a window gives an empty batch.
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


def _gather(
    pairs: Iterable[tuple[Episode, tuple[int, int]]],
    wc: WindowConfig,
    norm: NormStats,
    target: str,
    phase: str | None = None,
) -> WindowBatch:
    """Every (episode, segment) pair's windows, in pair order, as one WindowBatch.

    Each pair is checked in turn: segment bounds, target stats, target metric,
    channel stats. The stretches its windows read, from the first lookback to
    the segment end, are joined into one series per column and normalized
    once; the columns are then taken at each window's start in one fancy index
    each. With `phase`, a pair that yields no window is logged as excluded.
    """
    k, h = wc.k, wc.h
    episodes, firsts, counts, targets, covs = [], [], [], [], []
    for ep, segment in pairs:
        s0, s1 = segment
        if not (0 <= s0 <= s1 <= ep.length):
            raise DatasetError(f"segment {segment} out of bounds for T={ep.length}")
        mean, std = norm.stats(target)
        metric = ep.metric(target)
        cov_stats = [norm.stats(name) for name in ep.lc_names]
        first = max(s0 - 1, k - 1)  # origins first .. s1 - h - 1
        n = max(s1 - h - first, 0)
        if n:  # its windows read steps first - k + 1 .. s1 - 1, joined back to back
            targets.append(metric[first - k + 1 : s1])
            covs.append(ep.lc_outputs[first - k + 1 : s1])
        elif phase is not None:
            logger.warning(
                "episode %s: %s segment %s too short for windows (k=%d, h=%d); excluded",
                ep.id, phase, segment, k, h,
            )
        episodes.append(ep)
        firsts.append(first)
        counts.append(n)
    if targets:
        # a stretch is its n windows' n + k + h - 1 steps, so window j of the i-th
        # stretch starts (k + h - 1) * i + j steps into the joined series
        stretch = np.repeat(np.arange(len(targets)), [n for n in counts if n])
        starts = np.arange(stretch.size) + (k + h - 1) * stretch
        cov_mean, cov_std = np.array(cov_stats).T  # one channel order for every pair
        target_n = (np.concatenate(targets) - mean) / std
        cov_n = (np.concatenate(covs) - cov_mean) / cov_std
        windows = np.lib.stride_tricks.sliding_window_view
        past_target = windows(target_n, k)[starts]
        future_target = windows(target_n[k:], h)[starts]
        past_cov = windows(cov_n, k, axis=0).transpose(0, 2, 1)[starts]
    else:  # no pair has a window, and a view of k + h steps needs that many
        past_target, future_target = np.empty((0, k)), np.empty((0, h))
        past_cov = np.empty((0, k, episodes[0].lc_outputs.shape[1]))
    cum = np.cumsum(counts) - counts  # windows before each pair
    return WindowBatch(
        static=np.repeat([ep.scenario.unit_values() for ep in episodes], counts, axis=0),
        past_target=past_target,
        past_cov=past_cov,
        future_target=future_target,
        episode_ids=np.repeat([ep.id for ep in episodes], counts),
        origin_t=np.arange(sum(counts)) + np.repeat(np.subtract(firsts, cum), counts),
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
    return _gather([(episode, segment)], wc, norm, target)


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

    def pairs():  # checked as the gather reaches each episode, so errors keep episode order
        for ep in episodes:
            if (ep.lc_names, ep.scenario.names) != (first.lc_names, first.scenario.names):
                raise DatasetError(
                    f"episode {ep.id}: channels {ep.lc_names} and scenario dims "
                    f"{ep.scenario.names} differ from episode {first.id}'s "
                    f"{first.lc_names} and {first.scenario.names}"
                )
            yield ep, split[ep.id].segment(phase)

    return _gather(pairs(), wc, norm, target, phase)


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
