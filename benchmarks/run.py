"""Run one forewarn benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the repository root; the benchmark imports forewarn from ``src/``
and exits with an error, printing no result, when it is not there. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run instead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it are the readable report.
``--out FILE`` appends the full record (environment, sample counts, output
digest, trace report) as one JSON line, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread keeps runs steady on a small shared machine; it also keeps
# every workload at no more than nproc threads.
BLAS_THREADS = 1
# glibc moves its mmap threshold up to the largest mapped block freed so far
# (up to 32 MiB), so whether the tens-of-MiB arrays of batch inference are
# mapped and faulted in afresh on every call depended on the process's
# allocation history: in evaluate, one seed ran convseq2seq at 11k-14k
# windows/s in each of six runs, and most others at 16k-23k. Fixed
# thresholds give every run the same policy.
PINNED_ENV = {
    **{var: str(BLAS_THREADS) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS")},
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}


def _bootstrap() -> None:
    """Check for src/, pin the environment above, and put src/ first on the path.

    The C library reads the malloc settings only at start-up, so the process
    replaces itself once with the pinned environment.
    """
    src = ROOT / "src"
    if not (src / "forewarn" / "__init__.py").is_file():
        sys.exit(f"error: forewarn sources not found under {src}; run from a full checkout")
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.path.insert(0, str(src))


def _blas_threads() -> int | None:
    import ctypes

    import numpy as np

    for lib in sorted(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "forewarn").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "seed": seed,
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "evaluate", "monitor"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="time to spend in timed rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record as one JSON line to this file")
    p.add_argument("--spans", help="traced run: write every span as JSON lines to this file")
    p.add_argument("--toy", action="store_true", help="toy sizes and one round, for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    seconds = 0.0 if args.toy else args.seconds
    res = workloads.run(args.workload, args.seed, seconds, args.toy, ROOT, tracer)
    trace_report = None
    detail: dict = {}
    raw: dict = {}
    if tracer is not None:
        metrics, trace_report = tracing.layer_metrics(tracer, *res.slowness, res.rounds)
        res.ops.attempted += 1
        if not (
            trace_report["spans_nest"]
            and trace_report["min_self_s"] >= -1e-9
            and trace_report["self_times_ok"]
        ):
            res.ops.failures.append("trace report: spans do not nest or self times do not add up")
        if args.spans:
            tracer.dump(args.spans)
    else:
        metrics, detail = workloads.summarize(res)
        raw, _ = workloads.summarize(res, rescale=False)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        metrics["peak_rss_mib"] = (peak_mib, "MiB", 1)
    digest = hashlib.sha256(
        (res.setup_digest + res.rounds[0]["digest"]).encode()
    ).hexdigest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "env": environment(args.seed),
        "correct": not res.ops.failures,
        "attempted": res.ops.attempted,
        "failed": len(res.ops.failures),
        "failures": res.ops.failures,
        "output_digest": digest,
        "rounds": {"untraced": sum(not r["traced"] for r in res.rounds),
                   "traced": sum(r["traced"] for r in res.rounds)},
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in sorted(metrics.items())},
        "detail": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in sorted(detail.items())},
        "raw_metrics": {k: v for k, (v, _, _) in sorted(raw.items())},
        "slowness": dict(zip(("setup", "rounds"), res.slowness)),
        "kernel_s": {"setup": res.setup_kernel_s, "rounds": res.round_kernel_s},
        "trace_report": trace_report,
    }
    _print_report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()
        },
    }))
    return 0


def _print_report(rec: dict) -> None:
    env = rec["env"]
    print(f"forewarn benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']:g} trace={rec['trace']}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"({env['blas_threads']} BLAS thread), nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['git_commit']}, source sha256 {env['source_sha256'][:16]}")
    print(f"rounds: {rec['rounds']['untraced']} untraced, {rec['rounds']['traced']} traced")
    for section in ("metrics", "detail"):
        if rec[section]:
            print("end-to-end metrics:" if section == "metrics" and not rec["trace"] else
                  "per-layer metrics:" if section == "metrics" else "detail (no bound):")
        for name, m in rec[section].items():
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']:<13} n={m['n']}")
    if rec["trace_report"]:
        tr = rec["trace_report"]
        print(f"trace: {tr['spans']} spans, nest={tr['spans_nest']}, min self {tr['min_self_s']:.3g} s, "
              f"traced round {tr['traced_round_s']:.4f} s vs untraced {tr['untraced_round_s']:.4f} s "
              f"(overhead {tr['overhead_s']:.4f} s), self times sum {tr['self_time_sum_s']:.4f} s "
              f"of {tr['traced_wall_sum_s']:.4f} s traced wall, ok={tr['self_times_ok']}, "
              f"{tr['unattributed_share']:.1%} of it outside every layer span")
    print(f"operations: attempted {rec['attempted']}, failed {rec['failed']}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")
    print(f"output digest: {rec['output_digest']}")


if __name__ == "__main__":
    sys.exit(main())
