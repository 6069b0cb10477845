"""Diff two benchmark result files, one row per (metric, workload).

    python3 benchmarks/compare.py base.jsonl change.jsonl

Each file holds the records that ``run.py --out FILE`` appends, one per run.
Runs of a workload are paired in file order (the i-th base run with the i-th
change run), so alternate the two sides when you make them. Each row shows
the median and quartiles of each side, the change in median, the pairs the
change won, and a verdict:

* ``better``: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the base's quartile distance.
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json; for a metric with no bound, the base wins
  at least 9 in 10 pairs by more than the base's quartile distance.
* ``unresolved``: neither, and the run-to-run spread (quartile distance over
  median) of either side is wider than the bound, or the metric has no bound.
* ``same``: neither, and both spreads are within the bound (or every run of
  both sides reads the same).

The exit code is 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict[tuple[str, str], dict]:
    """{(workload, metric): {"unit": ..., "values": [...]}} in file order."""
    out: dict = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                metrics = {**rec["metrics"], **rec.get("detail", {})}
                for name, m in metrics.items():
                    row = out.setdefault((rec["workload"], name), {"unit": m["unit"], "values": []})
                    row["values"].append(float(m["value"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                sys.exit(f"error: {path}:{lineno}: not a benchmark record ({exc})")
    return out


def bench_spec() -> dict[str, dict]:
    """Direction and bound per metric name from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        out[m["name"]] = {"better": m["better"], "bound": m.get("bound")}
    return out


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def verdict(base: list[float], new: list[float], higher: bool, bound: float | None) -> dict:
    sign = 1.0 if higher else -1.0
    b1, bm, b3 = _stats(base)
    n1, nm, n3 = _stats(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    losses = sum(sign * (n - b) < 0 for b, n in pairs)
    delta = sign * (nm - bm)  # > 0 means the change reads better
    beyond_spread = abs(nm - bm) > (b3 - b1)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if pairs and wins >= 0.9 * len(pairs) and delta > 0 and beyond_spread:
        v = "better"
    elif bound is not None and -delta > bound * abs(bm):
        v = "worse"
    elif bound is None and pairs and losses >= 0.9 * len(pairs) and delta < 0 and beyond_spread:
        v = "worse"
    elif len(set(base + new)) == 1 or (bound is not None and spread <= bound):
        v = "same"
    else:
        v = "unresolved"
    return {
        "base": (b1, bm, b3), "new": (n1, nm, n3), "pairs": len(pairs), "wins": wins,
        "change": (nm - bm) / abs(bm) if bm else 0.0, "verdict": v,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="result file of the parent commit")
    p.add_argument("new", help="result file of the change")
    args = p.parse_args(argv)
    spec = bench_spec()
    base, new = load(args.base), load(args.new)
    rows = []
    for key in sorted(set(base) & set(new), key=lambda k: (k[1], k[0])):
        workload, name = key
        unit = base[key]["unit"]
        m = spec.get(name, {})
        higher = m.get("better", "higher" if unit.endswith("/s") else "lower") == "higher"
        rows.append((name, workload, unit, verdict(base[key]["values"], new[key]["values"],
                                                   higher, m.get("bound"))))
    fmt = "{:<48} {:<9} {:>32} {:>32} {:>8} {:>6}  {}"
    print(fmt.format("metric", "workload", "base q1/median/q3", "change q1/median/q3",
                     "change", "wins", "verdict"))
    for name, workload, unit, r in rows:
        q = lambda t: "/".join(f"{x:.4g}" for x in t)  # noqa: E731
        print(fmt.format(name, workload, q(r["base"]), q(r["new"]), f"{r['change']:+.1%}",
                         f"{r['wins']}/{r['pairs']}", r["verdict"]))
    only = sorted(set(base) ^ set(new))
    for workload, name in only:
        side = "base" if (workload, name) in base else "change"
        print(f"{name} on {workload}: only in the {side} file")
    return 1 if any(r["verdict"] == "worse" for *_, r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
