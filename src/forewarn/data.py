"""Episode serialization, normalization, splits, and window extraction.

File format: line-delimited JSON, one episode per line. Floats are written
with 17 significant digits, which round-trips IEEE doubles exactly, and the
writer emits keys in a fixed order, so identical inputs produce identical
bytes (dataset hashes are stable).

Splits are time-based per episode: the first 70% of steps train, the next 10%
validate, the rest test (floors, remainder to test). Window extraction is
rolling-origin: a sample's lookback may reach backward across a split
boundary, its targets may not leave the segment. Normalization statistics are
fit on training segments only.
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
    ValidationError,
    WindowConfig,
    WindowSample,
)

__all__ = [
    "DatasetError",
    "NormStats",
    "EpisodeSplit",
    "SplitSpec",
    "STD_EPSILON",
    "write_episodes",
    "read_episodes",
    "dataset_hash",
    "fit_norm",
    "split_episode",
    "build_split",
    "make_windows",
    "windows_for_phase",
]

logger = logging.getLogger(__name__)

STD_EPSILON = 1e-9


class DatasetError(ValueError):
    """A dataset file or split request is malformed."""


# --------------------------------------------------------------- serialization


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise DatasetError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _fmt_arr(xs) -> str:
    return "[" + ",".join(_fmt(x) for x in xs) + "]"


def _episode_line(ep: Episode) -> str:
    dims = ep.scenario.dims
    parts = [
        '{"id":', json.dumps(ep.id),
        ',"scenario":{"names":', json.dumps(list(ep.scenario.names)),
        ',"values":', _fmt_arr(ep.scenario.values),
        ',"lo":', _fmt_arr([d.lo for d in dims]),
        ',"hi":', _fmt_arr([d.hi for d in dims]),
        ',"kind":', json.dumps([d.kind for d in dims]),
        '},"dt":', _fmt(ep.dt_seconds),
        ',"roles":', json.dumps(
            {"lc": list(ep.lc_names), "state": list(ep.state_names),
             "metric": list(ep.metric_names)}
        ),
        ',"columns":{',
    ]
    cols = []
    for names, arr in (
        (ep.lc_names, ep.lc_outputs),
        (ep.state_names, ep.raw_state),
        (ep.metric_names, ep.safety_metric),
    ):
        for j, name in enumerate(names):
            cols.append(json.dumps(name) + ":" + _fmt_arr(arr[:, j]))
    parts.append(",".join(cols))
    parts.append("}}")
    return "".join(parts)


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
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"line {lineno}: malformed episode record: {exc}") from exc


def read_episode_lines(lines) -> Iterator[Episode]:
    """Parse line-delimited episode records lazily, one per string of `lines`.

    A record is parsed only when the caller asks for it, so a stream's earlier
    episodes are usable before a later malformed line raises DatasetError.
    """
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            raise DatasetError(f"line {lineno}: empty record")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"line {lineno}: invalid JSON: {exc}") from exc
        yield _parse_record(obj, lineno)


def read_episodes(path) -> list[Episode]:
    """Parse a line-delimited episode file; errors carry the 1-based line number."""
    with open(path, "r", encoding="ascii") as f:
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

    def apply(self, x, channel: str):
        mean, std = self._get(channel)
        return (np.asarray(x, dtype=np.float64) - mean) / std

    def invert(self, z, channel: str):
        mean, std = self._get(channel)
        return np.asarray(z, dtype=np.float64) * std + mean

    def _get(self, channel: str) -> tuple[float, float]:
        try:
            return self.channels[channel]
        except KeyError:
            raise DatasetError(f"no normalization stats for channel {channel!r}") from None


def fit_norm(episodes: Sequence[Episode], split: "SplitSpec") -> NormStats:
    """Mean/std per learned-component and metric channel over train segments.

    Population std (ddof=0). Channels with std below STD_EPSILON are clamped
    and logged: a constant channel normalizes to zeros instead of dividing by
    zero.
    """
    if not episodes:
        raise DatasetError("no episodes to fit normalization on")
    pools: dict[str, list[np.ndarray]] = {}
    for ep in episodes:
        seg = split.by_episode[ep.id].train
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


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float]
    by_episode: dict[str, EpisodeSplit]


def split_episode(
    episode: Episode, fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
) -> EpisodeSplit:
    """Time-based split: floor(f_train*T), floor(f_val*T), remainder to test."""
    f_train, f_val, f_test = fractions
    if min(fractions) <= 0 or abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise DatasetError(f"fractions must be positive and sum to 1, got {fractions}")
    t = episode.length
    if t < 10:
        raise DatasetError(f"episode {episode.id!r} too short to split: T={t} < 10")
    n_train = int(f_train * t)
    n_val = int(f_val * t)
    if n_train < 1 or n_val < 1 or t - n_train - n_val < 1:
        raise DatasetError(f"episode {episode.id!r}: degenerate split for T={t}")
    return EpisodeSplit(
        train=(0, n_train),
        val=(n_train, n_train + n_val),
        test=(n_train + n_val, t),
    )


def build_split(
    episodes: Sequence[Episode], fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
) -> SplitSpec:
    return SplitSpec(fractions, {ep.id: split_episode(ep, fractions) for ep in episodes})


# --------------------------------------------------------------- windows


def make_windows(
    episode: Episode,
    segment: tuple[int, int],
    wc: WindowConfig,
    norm: NormStats,
    target: str | None = None,
    stride: int = 1,
) -> list[WindowSample]:
    """Rolling-origin samples whose h targets lie inside the segment.

    The k-step lookback ends at the origin and may reach backward past the
    segment start (earlier observations are legitimately in the past), but
    never before the episode start. Returns [] when the segment is too short.
    """
    if stride < 1:
        raise DatasetError(f"stride must be >= 1, got {stride}")
    s0, s1 = segment
    if not (0 <= s0 <= s1 <= episode.length):
        raise DatasetError(f"segment {segment} out of bounds for T={episode.length}")
    if target is None:
        target = episode.metric_names[0]
    k, h = wc.k, wc.h
    metric = episode.metric(target)
    mean, std = norm._get(target)
    metric_n = (metric - mean) / std
    cov_n = np.column_stack(
        [norm.apply(episode.lc_outputs[:, j], name) for j, name in enumerate(episode.lc_names)]
    )
    first = max(s0 - 1, k - 1)
    last = s1 - 1 - h
    samples = []
    for t in range(first, last + 1, stride):
        samples.append(
            WindowSample(
                scenario=episode.scenario,
                past_target=metric_n[t - k + 1 : t + 1],
                past_covariates=cov_n[t - k + 1 : t + 1],
                future_target=metric_n[t + 1 : t + 1 + h],
                denorm=(mean, std),
                episode_id=episode.id,
                origin_t=t,
            )
        )
    return samples


def windows_for_phase(
    episodes: Sequence[Episode],
    split: SplitSpec,
    wc: WindowConfig,
    norm: NormStats,
    phase: str,
    target: str | None = None,
    stride: int = 1,
) -> list[WindowSample]:
    """Pool windows of one phase across episodes; warn when an episode yields none."""
    out = []
    for ep in episodes:
        seg = split.by_episode[ep.id].segment(phase)
        samples = make_windows(ep, seg, wc, norm, target=target, stride=stride)
        if not samples:
            logger.warning(
                "episode %s: %s segment %s too short for windows (k=%d, h=%d); excluded",
                ep.id, phase, seg, wc.k, wc.h,
            )
        out.extend(samples)
    return out
