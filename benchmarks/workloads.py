"""The three benchmark workloads, driven through forewarn's public functions.

Every workload simulates a dataset, writes it as JSONL and reads it back,
then splits and normalizes it: that is its set-up, along with a short fit and
checkpoint round trip per family for ``evaluate`` and ``monitor``. The timed
part is a *round*, repeated until the run's time is spent:

* ``train``: window all phases at (h=3, cm=3), then ``fit`` each family for
  a fixed number of epochs. Backward, Adam and clipping dominate.
* ``evaluate``: window all phases at (h=12, cm=3), ``evaluate_model`` each
  family, then F3 table, CV tree and rules on the ``ar_rnn`` result, as
  ``forewarn analyze`` does. Forward-only batch inference; no backward.
* ``monitor``: for each family in turn, feed several episodes tick by tick,
  interleaved, each through its own ``SafetyMonitor.push``. A closed loop with
  one client: every push waits for the previous decision.

Library calls go through module attributes (``training.fit``, not a bound
name) so the tracer's wrappers see them. Each operation is counted, and it
fails when it raises or when its output fails a check; a round's outputs are
hashed, and every round of a run must hash the same.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from forewarn import cart, data, evaluation, forecasters, monitor, simulate, training
from forewarn.core import QuantileGrid, WindowConfig

FAMILIES = forecasters.NEURAL_FAMILIES
PHASES = ("train", "val", "test")
N_PATHS = 100  # Monte-Carlo paths for ar_rnn, the CLI default
DECISION_Q = 0.995  # the monitor's and analyze's default quantile
CART_DEPTHS = (1, 2, 3, 4, 5)  # forewarn analyze defaults
CART_LEAVES = (2, 5, 10)
CART_FOLDS = 10
BATCH_SIZE = 128
# ar_rnn decodes N_PATHS Monte-Carlo paths per window, about 4 ms a window at
# h=12 on the reference machine, so on evaluate it takes every fourth test
# window; all 1160 would make one call 4.5 s and leave too few rounds a run
AR_RNN_TEST_STRIDE = 4


@dataclass(frozen=True)
class Sizes:
    """How much work one set-up and one round do.

    ``per_family`` is, per family: epochs of each fit (``train``),
    ``evaluate_model`` calls on the test set (``evaluate``), or episodes
    streamed at once (``monitor``). The families differ by up to 200x in cost
    per window, so the cheap ones do more work per round, enough for their
    timed calls to repeat.
    """

    scenarios: int
    fit_episodes: int  # episodes whose train/val windows each fit uses
    setup_epochs: int  # epochs of the set-up fits (evaluate, monitor)
    setup_reps: int
    per_family: dict[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    h: int
    cm: int
    full: Sizes
    toy: Sizes
    # reference kernel: (array rows, calls) pairs shaped like the workload's
    # numpy calls, and the kernel's time on the machine the bounds were fixed
    # on (2-core Xeon, numpy 2.4.6, OpenBLAS, one thread, in its faster state)
    kernel: tuple[tuple[int, int], ...]
    kernel_ref_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train", 3, 3,
            full=Sizes(40, 8, 0, 15, {"seq2seq": 8, "convseq2seq": 3, "ar_rnn": 2, "attn_seq2seq": 1}),
            toy=Sizes(4, 2, 0, 1, {f: 1 for f in FAMILIES}),
            kernel=((128, 300),), kernel_ref_s=0.023,
        ),
        Workload(
            "evaluate", 12, 3,
            full=Sizes(
                40, 4, 1, 7, {"seq2seq": 24, "convseq2seq": 8, "ar_rnn": 1, "attn_seq2seq": 1}
            ),
            toy=Sizes(10, 2, 1, 1, {f: 1 for f in FAMILIES}),
            kernel=((128, 150), (2048, 12)), kernel_ref_s=0.042,
        ),
        Workload(
            "monitor", 3, 3,
            full=Sizes(40, 8, 1, 9, {"seq2seq": 8, "convseq2seq": 4, "ar_rnn": 2, "attn_seq2seq": 1}),
            toy=Sizes(4, 2, 1, 1, {f: 2 for f in FAMILIES}),
            kernel=((1, 1500), (128, 300)), kernel_ref_s=0.032,
        ),
    )
}


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Ops:
    """Counts operations and records each failure with its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @contextmanager
    def op(self, what: str):
        """One operation: it fails if its body raises, a failed check included."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the run goes on, and the failure is reported
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{what}: {exc!r}")


def _spread(items: list, n: int) -> list:
    """n items spread evenly over the list (n <= len(items))."""
    return [items[i * len(items) // n] for i in range(n)]


def _hash_arrays(digest, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        digest.update(str((a.dtype.str, a.shape)).encode())
        digest.update(a.tobytes())


def _hash_params(digest, params: dict[str, np.ndarray]) -> None:
    for name in sorted(params):
        digest.update(name.encode())
        _hash_arrays(digest, params[name])


def _train_cfg(epochs: int, seed: int) -> training.TrainConfig:
    # patience = epochs: early stopping cannot fire, so every fit runs all epochs
    return training.TrainConfig(epochs=epochs, batch_size=BATCH_SIZE, patience=epochs, seed=seed)


def _fit(spec, train_w, val_w, epochs: int, st: "State"):
    model = training.fit(
        spec, train_w, val_w, _train_cfg(epochs, st.seed),
        grid=QuantileGrid(), norm=st.norm, target=st.target, lc_names=st.lc_names,
    )
    log = model.training_log
    check(all(map(math.isfinite, log["train_loss"] + log["val_loss"])), "non-finite training loss")
    check(log["stopped_epoch"] == epochs, f"stopped after {log['stopped_epoch']} of {epochs} epochs")
    check(all(np.isfinite(p).all() for p in model.params.values()), "non-finite parameters")
    return model


@dataclass
class State:
    """What a set-up leaves for the rounds."""

    workload: Workload
    sizes: Sizes
    seed: int
    episodes: list
    split: object
    norm: object
    target: str
    lc_names: tuple
    models: dict
    fit_ids: frozenset

    @property
    def wc(self) -> WindowConfig:
        return WindowConfig(h=self.workload.h, cm=self.workload.cm)


def set_up(wl: Workload, sizes: Sizes, seed: int, workdir: Path, ops: Ops, digest) -> State:
    """Dataset steps, plus set-up fits and checkpoint round trips (evaluate, monitor)."""
    episodes = simulate.generate_dataset(simulate.SimConfig(n_scenarios=sizes.scenarios, seed=seed))
    path = workdir / "dataset.jsonl"
    data.write_episodes(path, episodes)
    episodes = data.read_episodes(path)
    split = data.build_split(episodes)
    st = State(
        workload=wl, sizes=sizes, seed=seed, episodes=episodes, split=split,
        norm=data.fit_norm(episodes, split), target=episodes[0].metric_names[0],
        lc_names=episodes[0].lc_names, models={},
        fit_ids=frozenset(ep.id for ep in episodes[: sizes.fit_episodes]),
    )
    if wl.name == "train":
        return st
    fit_eps = episodes[: sizes.fit_episodes]
    train_w, val_w = (
        data.windows_for_phase(fit_eps, split, st.wc, st.norm, ph, target=st.target)
        for ph in ("train", "val")
    )
    for fam in FAMILIES:
        with ops.op(f"set-up fit and checkpoint {fam}"):
            model = _fit(forecasters.ForecasterSpec(fam), train_w, val_w, sizes.setup_epochs, st)
            ckpt = workdir / f"{fam}.ckpt"
            forecasters.save_checkpoint(model, ckpt)
            loaded = forecasters.load_checkpoint(ckpt)
            check(
                sorted(loaded.params) == sorted(model.params)
                and all(np.array_equal(loaded.params[n], p) for n, p in model.params.items()),
                "checkpoint round trip changed the parameters",
            )
            _hash_params(digest, loaded.params)
            st.models[fam] = loaded
    return st


# ----------------------------------------------------------------- rounds


def _window_all(st: State, ops: Ops, samples: dict) -> dict:
    """Time windows_for_phase over train, val and test; the windows, or {} on failure."""
    with ops.op("window all phases"):
        t0 = time.perf_counter()
        phases = {
            ph: data.windows_for_phase(st.episodes, st.split, st.wc, st.norm, ph, target=st.target)
            for ph in PHASES
        }
        dt = time.perf_counter() - t0
        check(all(phases.values()), "a phase has no windows")
        samples["windows_per_s"] = (sum(map(len, phases.values())), dt)
        return phases
    return {}


def round_train(st: State, ops: Ops, digest, samples: dict, detail: dict) -> None:
    phases = _window_all(st, ops, samples)
    if not phases:
        return
    train_w = [w for w in phases["train"] if w.episode_id in st.fit_ids]
    val_w = [w for w in phases["val"] if w.episode_id in st.fit_ids]
    for fam in FAMILIES:
        epochs = st.sizes.per_family[fam]
        with ops.op(f"fit {fam}"):
            t0 = time.perf_counter()
            model = _fit(forecasters.ForecasterSpec(fam), train_w, val_w, epochs, st)
            dt = time.perf_counter() - t0
            samples[f"model_windows_per_s.{fam}"] = (len(train_w) * epochs, dt)
            _hash_params(digest, model.params)
            _hash_arrays(digest, np.array(model.training_log["train_loss"]))


def round_evaluate(st: State, ops: Ops, digest, samples: dict, detail: dict) -> None:
    phases = _window_all(st, ops, samples)
    if not phases:
        return
    results = {}
    for fam in FAMILIES:
        windows = phases["test"][:: AR_RNN_TEST_STRIDE if fam == "ar_rnn" else 1]
        n = len(windows)
        times = []
        for _ in range(st.sizes.per_family[fam]):
            with ops.op(f"evaluate_model {fam}"):
                t0 = time.perf_counter()
                ev = evaluation.evaluate_model(
                    st.models[fam], windows, mc_seed=st.seed, n_paths=N_PATHS
                )
                times.append(time.perf_counter() - t0)
                for q, row in ev.per_q.items():
                    check(row["tp"] + row["fp"] + row["fn"] + row["tn"] == n,
                          f"confusion counts at q={q} do not sum to {n}")
                    # a forecast that is non-finite makes q-risk non-finite
                    check(math.isfinite(row["q_risk"]), f"non-finite q_risk at q={q}")
                # forecasts sorted along the quantile axis make decisions monotone in q
                check(np.all(np.diff(ev.decisions, axis=1) >= 0), "decisions not monotone in q")
                _hash_arrays(digest, ev.decisions, ev.truths,
                             np.array([ev.per_q[q]["q_risk"] for q in ev.quantiles]))
                results[fam] = ev
        if times:
            samples[f"model_windows_per_s.{fam}"] = (n * len(times), sum(times))
    if "ar_rnn" not in results:
        return
    with ops.op("analyze ar_rnn"):
        t0 = time.perf_counter()
        features, f3, names = cart.scenario_f3_table(results["ar_rnn"], DECISION_Q, st.episodes)
        cv = cart.cross_validate(
            features, f3, max_depths=CART_DEPTHS, min_leaves=CART_LEAVES, k=CART_FOLDS, seed=st.seed
        )
        rules = cart.extract_rules(cv.tree)
        detail["analyze_s"] = time.perf_counter() - t0
        check(math.isfinite(cv.cv_mse), "non-finite CV error")
        check(sum(r.count for r in rules) == features.shape[0], "rules do not cover every row")
        digest.update("\n".join(r.text(names) for r in rules).encode())


def round_monitor(st: State, ops: Ops, digest, samples: dict, detail: dict) -> None:
    decisions_total = 0
    loop_total = 0.0
    for fam in FAMILIES:
        cfg = monitor.MonitorConfig(
            model=st.models[fam], decision_quantile=DECISION_Q, hysteresis=1,
            seed=st.seed, n_paths=N_PATHS,
        )
        episodes = _spread(st.episodes, st.sizes.per_family[fam])
        streams = [monitor.SafetyMonitor(cfg, ep.scenario) for ep in episodes]
        lc = [ep.lc_outputs for ep in episodes]
        ys = [ep.metric(st.target) for ep in episodes]
        length = min(ep.length for ep in episodes)
        forecasts: list[list] = [[] for _ in streams]
        decisions: list[list] = [[] for _ in streams]
        errors: dict[int, Exception] = {}
        latencies = detail.setdefault(f"push_s.{fam}", [])
        live = list(range(len(streams)))
        t_loop = time.perf_counter()
        for t in range(length):
            for i in live:
                mon = streams[i]
                t0 = time.perf_counter()
                try:
                    mon.push(lc[i][t], float(ys[i][t]))
                except Exception as exc:  # counted against the stream below
                    errors[i] = exc
                    continue
                dt = time.perf_counter() - t0
                if mon.last_decision is not None:
                    latencies.append(dt)
                    forecasts[i].append(mon.last_forecast.values)
                    decisions[i].append(mon.last_decision)
            if errors:
                live = [i for i in live if i not in errors]
        loop = time.perf_counter() - t_loop
        n_dec = sum(map(len, decisions))
        samples[f"model_windows_per_s.{fam}"] = (n_dec, loop)
        decisions_total += n_dec
        loop_total += loop
        expected = length - st.models[fam].wc.k
        for i in range(len(streams)):
            with ops.op(f"monitor {fam} stream {i}"):
                if i in errors:
                    raise errors[i]
                check(len(decisions[i]) == expected,
                      f"{len(decisions[i])} decisions, expected T-k = {expected}")
                values = np.stack(forecasts[i])
                check(np.isfinite(values).all(), "non-finite forecast")
                check(np.all(np.diff(values, axis=2) >= 0), "forecast not sorted along quantiles")
                _hash_arrays(digest, values, np.array(decisions[i]))
    samples["windows_per_s"] = (decisions_total, loop_total)


ROUNDS = {"train": round_train, "evaluate": round_evaluate, "monitor": round_monitor}


# ----------------------------------------------------------------- machine speed


def reference_kernel(shapes: tuple[tuple[int, int], ...]) -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    It uses no forewarn code, so it measures the machine, not the commit.
    The shared machine this benchmark was built on drifts between speed
    states about 1.5x apart that last from seconds to minutes; a run's
    timings are put at reference speed with the kernel's times in that run.
    Each workload gives the array rows its numpy calls mostly see (one row
    for a monitor push, a training batch, thousands of windows for batch
    inference), because the drift slows small and large calls differently.
    """
    rng = np.random.default_rng(0)
    arrays = [(rng.random((rows, 80)), rng.random((80, 80)), calls) for rows, calls in shapes]
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for a, w, calls in arrays:
        for _ in range(calls):
            (np.tanh(a @ w) * 0.5 + a).sum()
    return time.perf_counter() - t0


# ----------------------------------------------------------------- a run


@dataclass
class RunResult:
    setup_s: list[float]
    rounds: list[dict]  # per round: wall, samples, detail, traced, digest
    ops: Ops
    setup_digest: str
    setup_kernel_s: list[float]  # reference kernel time after each set-up
    round_kernel_s: list[float]  # reference kernel time after each round
    kernel_ref_s: float

    @property
    def slowness(self) -> tuple[float, float]:
        """Machine speed during the set-ups and during the rounds.

        Each is a kernel time over the reference time: the median after the
        set-ups, as ``setup_s`` is a median set-up, and the mean after the
        rounds, as the round metrics are totals over the rounds.
        """
        return (median(self.setup_kernel_s) / self.kernel_ref_s,
                sum(self.round_kernel_s) / len(self.round_kernel_s) / self.kernel_ref_s)


def run(workload: str, seed: int, seconds: float, toy: bool, root: Path, tracer=None) -> RunResult:
    """Set up ``setup_reps`` times, then run rounds until ``seconds`` are spent.

    The ``seconds`` count from the start of the first set-up, so a run's
    length does not grow with its set-up time; the run still makes at least
    one round (two with a tracer).

    The reference kernel runs after every set-up and round. With a tracer,
    rounds alternate untraced and traced, so the same run gives the tracing
    overhead; set-ups are traced.
    """
    wl = WORKLOADS[workload]
    sizes = wl.toy if toy else wl.full
    ops = Ops()
    setup_times, setup_digests = [], []
    setup_kernel_s, round_kernel_s = [], []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="forewarn-bench-", dir=root) as tmp:
        for _ in range(sizes.setup_reps):
            digest = hashlib.sha256()
            args = (wl, sizes, seed, Path(tmp), ops, digest)
            if tracer is not None:
                tracer.begin_unit("setup")
                tracer.install()
            try:
                t0 = time.perf_counter()
                st = set_up(*args) if tracer is None else tracer.span("bench.setup_self_s", set_up, *args)
                setup_times.append(time.perf_counter() - t0)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setup_kernel_s.append(reference_kernel(wl.kernel))
            setup_digests.append(digest.hexdigest())
    if len(set(setup_digests)) > 1:
        ops.attempted += 1
        ops.failures.append("set-up repetitions produced different models")
    rounds: list[dict] = []
    min_rounds = 2 if tracer is not None else 1
    while len(rounds) < min_rounds or (
        time.perf_counter() - start + max(r["wall"] for r in rounds) <= seconds
    ):
        traced = tracer is not None and len(rounds) % 2 == 1
        rec = {"samples": {}, "detail": {}, "traced": traced}
        rdigest = hashlib.sha256()
        args = (st, ops, rdigest, rec["samples"], rec["detail"])
        if traced:
            tracer.begin_unit("round")
            tracer.install()
            try:
                t0 = time.perf_counter()
                tracer.span("bench.round_self_s", ROUNDS[workload], *args)
                rec["wall"] = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            t0 = time.perf_counter()
            ROUNDS[workload](*args)
            rec["wall"] = time.perf_counter() - t0
        round_kernel_s.append(reference_kernel(wl.kernel))
        rec["samples"]["round_s"] = (1, rec["wall"])
        rec["digest"] = rdigest.hexdigest()
        if rounds and rec["digest"] != rounds[0]["digest"]:
            ops.attempted += 1
            ops.failures.append(f"round {len(rounds)}: outputs differ from round 0")
        rounds.append(rec)
    return RunResult(setup_times, rounds, ops, setup_digests[0],
                     setup_kernel_s, round_kernel_s, wl.kernel_ref_s)


def at_reference(name: str, value: float, slowness: float) -> float:
    """A timing as it would read at reference machine speed: times shrink, rates grow."""
    return value * slowness if name.endswith("_per_s") or "_per_s." in name else value / slowness


def summarize(res: RunResult, rescale: bool = True) -> tuple[dict, dict]:
    """End-to-end metrics and detail figures, each as {name: (value, unit, n)}.

    A round records each rate as (work, seconds); the metric is the run's
    total work over the total seconds, and ``round_s`` is the mean round.
    Speed states of a shared machine last seconds, so a median over ten
    rounds flips between them where a total averages over them. ``setup_s``
    is the median set-up; the push latencies are percentiles over pushes.
    With ``rescale`` all are put at reference speed (see ``slowness``).
    """
    setup_slowness, slowness = res.slowness if rescale else (1.0, 1.0)
    metrics: dict = {}
    untraced = [r for r in res.rounds if not r["traced"]]
    for name in sorted({k for r in untraced for k in r["samples"]}):
        pairs = [r["samples"][name] for r in untraced if name in r["samples"]]
        work = sum(w for w, _ in pairs)
        secs = sum(t for _, t in pairs)
        value, unit = (secs / work, "s") if name == "round_s" else (work / secs, "windows/s")
        metrics[name] = (at_reference(name, value, slowness), unit, len(pairs))
    metrics["setup_s"] = (median(res.setup_s) / setup_slowness, "s", len(res.setup_s))
    detail: dict = {}
    for key in sorted({k for r in untraced for k in r["detail"]}):
        vals = [v for r in untraced for v in np.atleast_1d(r["detail"].get(key, []))]
        if key.startswith("push_s."):
            fam = key.split(".", 1)[1]
            ms = np.asarray(vals) * 1e3 / slowness
            detail[f"push_ms_p50.{fam}"] = (float(np.percentile(ms, 50)), "ms", len(ms))
            detail[f"push_ms_p99.{fam}"] = (float(np.percentile(ms, 99)), "ms", len(ms))
        else:
            detail[key] = (median(vals) / slowness, "s", len(vals))
    return metrics, detail
