"""Spans and counters around forewarn's public functions, for the traced run.

The tracer patches each wrapped name on the namespace where its caller looks
it up (``training.forward_quantiles``, ``monitor.predict_quantiles``, ...),
plus a few class attributes (``Tensor.__init__``, ``Tensor.backward``,
``WindowSample.__post_init__``, ``SafetyMonitor.push``). ``uninstall``
restores every original, so an untraced round runs the library untouched.

A span is ``[name, parent, start, end, unit]``; spans stay in memory and are
turned into per-layer self times when the run ends. A *unit* is one set-up
repetition or one timed round, so layer figures can be given per set-up or
per round. A span's name is the per-layer metric it feeds: self time by
default, total duration for the names in ``INCLUSIVE``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from statistics import median

from forewarn import cart, core, data, evaluation, forecasters, monitor, simulate, training
from forewarn.autodiff import Tensor

# metrics measured as the whole duration of the call, children included
INCLUSIVE = ("monitor.predict_s.", "training.step_s.", "training.val_s.")


class Tracer:
    """Single-threaded span recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.units: list[str] = []
        self.counts: list[dict[str, float]] = []
        self._stack: list[int] = []
        self._family: str | None = None  # family of the enclosing fit/evaluate/push
        self._call: str | None = None  # family whose per-call tensor count is open
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def begin_unit(self, kind: str) -> None:
        """Start a set-up repetition ('setup') or a timed round ('round')."""
        self.units.append(kind)
        self.counts.append(defaultdict(float))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[-1][key] += amount

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, parent, time.perf_counter(), 0.0, len(self.units) - 1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _in_family(self, family: str, call: bool, name: str, fn, *args, **kwargs):
        saved = self._family, self._call
        self._family = family
        if call:
            self._call = family
            self.count(f"calls.{family}")
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            self._family, self._call = saved

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tr = self

        def timed(name):
            return lambda orig: lambda *a, **k: tr.span(name, orig, *a, **k)

        for mod, attr, name in (
            (simulate, "generate_dataset", "simulate.generate_dataset_s"),
            (data, "write_episodes", "data.write_episodes_s"),
            (data, "read_episodes", "data.read_episodes_s"),
            (forecasters, "save_checkpoint", "forecasters.save_checkpoint_s"),
            (forecasters, "load_checkpoint", "forecasters.load_checkpoint_s"),
            (forecasters, "sample_paths", "forecasters.sample_paths_s"),
            (forecasters, "stack_windows", "forecasters.stack_windows_s"),
            (training, "stack_windows", "forecasters.stack_windows_s"),
            (training, "adam_step", "training.adam_step_s"),
            (training, "clip_global_norm", "training.clip_global_norm_s"),
            (cart, "scenario_f3_table", "cart.scenario_f3_table_s"),
            (cart, "cross_validate", "cart.cross_validate_s"),
            (cart, "extract_rules", "cart.extract_rules_s"),
        ):
            self._patch(mod, attr, timed(name))

        def windows_for_phase(orig):
            def wrapper(*a, **k):
                out = tr.span("data.windows_for_phase_s", orig, *a, **k)
                tr.count("data.windows", len(out))
                return out
            return wrapper

        self._patch(data, "windows_for_phase", windows_for_phase)

        def forward(orig):
            return lambda spec, *a, **k: tr.span(
                f"forecasters.forward_s.{spec.family}", orig, spec, *a, **k
            )

        for mod in (training, forecasters):
            self._patch(mod, "forward_quantiles", forward)
        self._patch(training, "forward_gaussian", forward)

        def loss_and_grads(orig):
            def wrapper(spec, *a, **k):
                if not k.get("compute_grads", True):
                    return tr.span(f"training.val_s.{spec.family}", orig, spec, *a, **k)
                tr.count("training.steps")
                return tr._in_family(
                    spec.family, True, f"training.step_s.{spec.family}", orig, spec, *a, **k
                )
            return wrapper

        self._patch(training, "loss_and_grads", loss_and_grads)

        def fit(orig):
            return lambda spec, *a, **k: tr._in_family(
                spec.family, False, f"training.fit_self_s.{spec.family}", orig, spec, *a, **k
            )

        self._patch(training, "fit", fit)

        def by_model(prefix, call=False, in_family=True):
            def make(orig):
                def wrapper(model, *a, **k):
                    fam = model.spec.family
                    if in_family:
                        return tr._in_family(fam, call, prefix + fam, orig, model, *a, **k)
                    return tr.span(prefix + fam, orig, model, *a, **k)
                return wrapper
            return make

        self._patch(
            evaluation, "evaluate_model", by_model("evaluation.evaluate_model_self_s.", call=True)
        )
        for mod in (evaluation, forecasters):
            self._patch(
                mod, "predict_quantiles_batch",
                by_model("forecasters.predict_quantiles_batch_self_s.", in_family=False),
            )
        self._patch(monitor, "predict_quantiles", by_model("monitor.predict_s.", in_family=False))

        def push(orig):
            def wrapper(mon, *a, **k):
                fam = mon.cfg.model.spec.family
                alarm = tr._in_family(fam, True, f"monitor.push_self_s.{fam}", orig, mon, *a, **k)
                if mon.last_decision is None:
                    tr.count("monitor.warmup_pushes")
                else:
                    tr.count("monitor.decisions")
                    tr.count("monitor.alarms", alarm is not None)
                return alarm
            return wrapper

        self._patch(monitor.SafetyMonitor, "push", push)

        def backward(orig):
            return lambda t: tr.span(f"autodiff.backward_s.{tr._family}", orig, t)

        self._patch(Tensor, "backward", backward)

        def tensor_init(orig):
            def wrapper(t, *a, **k):
                orig(t, *a, **k)
                if tr._call is not None:
                    tr.count(f"tensors.{tr._call}")
                    tr.count(f"tensor_bytes.{tr._call}", t.data.nbytes)
            return wrapper

        self._patch(Tensor, "__init__", tensor_init)

        def post_init(orig):
            def wrapper(sample):
                tr.count("core.window_samples")
                orig(sample)
            return wrapper

        self._patch(core.WindowSample, "__post_init__", post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> tuple[list[dict[str, float]], list[float], bool, float]:
        """Per-unit layer times, per-unit self-time sums, nesting, smallest self time.

        A layer time is the self time of its spans (duration minus the time
        covered by child spans), or their whole duration for the names in
        INCLUSIVE. The self-time sum of a unit equals the time its root spans
        cover when spans nest.
        """
        child = [0.0] * len(self.spans)
        nest_ok = True
        for name, parent, start, end, unit in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                child[parent] += end - start
                nest_ok &= p[2] <= start <= end <= p[3] and p[4] == unit
        per_unit: list[dict[str, float]] = [defaultdict(float) for _ in self.units]
        self_sum = [0.0] * len(self.units)
        min_self = float("inf")
        for i, (name, _, start, end, unit) in enumerate(self.spans):
            own = end - start - child[i]
            min_self = min(min_self, own)
            self_sum[unit] += own
            per_unit[unit][name] += (end - start) if name.startswith(INCLUSIVE) else own
        return per_unit, self_sum, nest_ok, (min_self if self.spans else 0.0)

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, parent, start, end, unit."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, parent, start, end, unit) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": parent if parent >= 0 else None,
                    "start": start, "end": end, "unit": self.units[unit] + f"#{unit}",
                }) + "\n")


# ----------------------------------------------------------------- per-layer metrics

FAMILIES = forecasters.NEURAL_FAMILIES
SETUP_LAYERS = (
    "simulate.generate_dataset_s",
    "data.write_episodes_s",
    "data.read_episodes_s",
    "forecasters.save_checkpoint_s",
    "forecasters.load_checkpoint_s",
)
ROUND_LAYERS = (
    "data.windows_for_phase_s",
    "forecasters.stack_windows_s",
    *(f"forecasters.forward_s.{f}" for f in FAMILIES),
    "forecasters.sample_paths_s",
    *(f"forecasters.predict_quantiles_batch_self_s.{f}" for f in FAMILIES),
    *(f"autodiff.backward_s.{f}" for f in FAMILIES),
    *(f"training.step_s.{f}" for f in FAMILIES),
    *(f"training.val_s.{f}" for f in FAMILIES),
    "training.adam_step_s",
    "training.clip_global_norm_s",
    *(f"evaluation.evaluate_model_self_s.{f}" for f in FAMILIES),
    "cart.scenario_f3_table_s",
    "cart.cross_validate_s",
    "cart.extract_rules_s",
    *(f"monitor.push_self_s.{f}" for f in FAMILIES),
    *(f"monitor.predict_s.{f}" for f in FAMILIES),
)
ROUND_COUNTS = (
    "data.windows",
    "core.window_samples",
    "training.steps",
    "monitor.warmup_pushes",
    "monitor.decisions",
    "monitor.alarms",
)


def layer_metrics(tracer: Tracer, setup_slowness: float, slowness: float, rounds: list[dict]):
    """Per-layer metrics as {name: (value, unit, n)} plus the trace report.

    ``rounds`` are the run's round records (``wall``, ``traced``). Every time
    is divided by the run's machine speed against the reference kernel during
    the set-ups or the rounds (see workloads.RunResult.slowness). Set-up
    layers are the median per set-up, all others the median per traced
    round; a layer that never ran in a round reads 0.
    Counts are per round, and ``tensors_per_call`` / ``tensor_mib`` per step,
    ``evaluate_model`` call or push. Tensor bytes are computed from array
    sizes, not measured.
    """
    per_unit, self_sum, nest_ok, min_self = tracer.self_times()
    traced = [r for r in rounds if r["traced"]]
    setup = [i for i, kind in enumerate(tracer.units) if kind == "setup"]
    ru = [i for i, kind in enumerate(tracer.units) if kind == "round"]  # traced rounds
    out: dict = {}

    def med(idx, get):
        return median(get(i) for i in idx)

    def layer_time(name, i):
        return per_unit[i].get(name, 0.0) / (setup_slowness if i in setup else slowness)

    for name in SETUP_LAYERS:
        out[name] = (med(setup, lambda i: layer_time(name, i)), "s", len(setup))
    for name in ROUND_LAYERS:
        out[name] = (med(ru, lambda i: layer_time(name, i)), "s", len(ru))
    for name in ROUND_COUNTS:
        out[name] = (med(ru, lambda i: tracer.counts[i].get(name, 0.0)), "count", len(ru))
    for f in FAMILIES:
        def per_call(key, i):
            calls = tracer.counts[i].get(f"calls.{f}", 0.0)
            return tracer.counts[i].get(key, 0.0) / calls if calls else 0.0

        out[f"autodiff.tensors_per_call.{f}"] = (
            med(ru, lambda i: per_call(f"tensors.{f}", i)), "count", len(ru)
        )
        out[f"autodiff.tensor_mib.{f}"] = (
            med(ru, lambda i: per_call(f"tensor_bytes.{f}", i) / 2**20),
            "MiB_computed", len(ru),
        )

    def wall(is_traced):
        return median(r["wall"] for r in rounds if r["traced"] == is_traced) / slowness

    overhead = wall(True) - wall(False)
    out["trace.overhead_s"] = (overhead, "s", len(traced))
    self_total = sum(self_sum[i] for i in ru)
    wall_total = sum(r["wall"] for r in traced)
    # the self time of each round's root span is the time no layer wrapper covers
    unattributed = sum(per_unit[i].get("bench.round_self_s", 0.0) for i in ru) / wall_total
    out["trace.unattributed_share"] = (unattributed, "share", len(traced))
    report = {
        "traced_round_s": wall(True),
        "untraced_round_s": wall(False),
        "overhead_s": overhead,
        "self_time_sum_s": self_total,
        "traced_wall_sum_s": wall_total,
        "unattributed_share": unattributed,
        # self times account for the traced wall time to within the overhead;
        # this holds by construction, as the root span covers the whole round
        "self_times_ok": abs(self_total - wall_total)
        <= max(abs(overhead) * slowness * len(traced), 1e-3),
        "spans": len(tracer.spans),
        "spans_nest": nest_ok,
        "min_self_s": min_self,
        "setup_layers_s": {
            k: med(setup, lambda i: layer_time(k, i))
            for k in sorted({k for i in setup for k in per_unit[i]})
        },
        "round_layers_s": {
            k: med(ru, lambda i: layer_time(k, i))
            for k in sorted({k for i in ru for k in per_unit[i]})
        },
    }
    return out, report
