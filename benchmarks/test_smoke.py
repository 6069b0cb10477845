"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

Runs every workload untraced and traced through the real command line, and
checks the result line format, the sample counts, span nesting, repeatable
output digests, the compare tool, and the refusal to run without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    cmd = [
        sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--toy",
        "--out", str(tmp_path / f"{workload}.jsonl"), "--spans", str(tmp_path / "spans.jsonl"),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """{(workload, trace): (last stdout line as JSON, --out record, spans)}."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            tmp = tmp_path_factory.mktemp(f"{workload}{trace}")
            proc = _run(tmp, workload, trace)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((tmp / f"{workload}.jsonl").read_text().splitlines()[-1])
            spans = [json.loads(line) for line in (tmp / "spans.jsonl").read_text().splitlines()] \
                if trace else []
            out[workload, trace] = (last, record, spans)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_format(runs, workload, trace):
    last, record, _ = runs[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    for name, m in record["metrics"].items():
        assert m["n"] >= 1, name
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_environment_is_recorded(runs):
    env = runs["train", 0][1]["env"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "cpu",
                "git_commit", "source_sha256", "seed"):
        assert key in env
    assert env["blas_threads"] is None or 1 <= env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_with_nonnegative_self_times(runs, workload):
    _, record, spans = runs[workload, 1]
    assert spans and record["trace_report"]["spans_nest"]
    child = {s["id"]: 0.0 for s in spans}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
            assert p["unit"] == s["unit"]
            child[p["id"]] += s["end"] - s["start"]
    for s in spans:
        assert s["end"] - s["start"] - child[s["id"]] >= -1e-9, s["name"]


@pytest.mark.parametrize("workload", ["evaluate", "monitor"])
def test_no_backward_in_inference_workloads(runs, workload):
    metrics = runs[workload, 1][0]["metrics"]
    for name, m in metrics.items():
        if name.startswith("autodiff.backward_s."):
            assert m["value"] == 0.0, name


def test_backward_runs_in_train(runs):
    metrics = runs["train", 1][0]["metrics"]
    assert all(metrics[f"autodiff.backward_s.{f}"]["value"] > 0
               for f in ("seq2seq", "convseq2seq", "ar_rnn", "attn_seq2seq"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_digest_repeats_and_tracing_changes_no_output(runs, workload):
    assert runs[workload, 0][1]["output_digest"] == runs[workload, 1][1]["output_digest"]


def test_compare_reads_result_files(runs, tmp_path):
    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    for path in (base, new):
        path.write_text(json.dumps(runs["monitor", 0][1]) + "\n")
    proc = subprocess.run(
        [sys.executable, "benchmarks/compare.py", str(base), str(new)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "model_windows_per_s.seq2seq" in proc.stdout and "same" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
