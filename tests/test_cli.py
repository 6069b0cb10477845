"""End-to-end checks of the command-line pipeline on a tiny dataset."""

import argparse
import io
import json

import numpy as np
import pytest

from forewarn.cli import DEFAULTS, build_parser, main
from forewarn.core import ValidationError
from forewarn.data import dataset_hash
from forewarn.forecasters import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny simulated dataset plus one persistence checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    assert main([
        "simulate", "--scenarios", "8", "--episode-len", "40",
        "--seed", "3", "--out", str(root / "data"),
    ]) == 0
    assert main([
        "train", "--family", "persistence", "--h", "3", "--cm", "2",
        "--data", str(root / "data"), "--out", str(root / "models"),
    ]) == 0
    return root


def _ckpt(workdir):
    return str(workdir / "models" / "persistence_h3_cm2.ckpt")


# ----------------------------------------------------------------- simulate


def test_simulate_outputs(workdir):
    data = workdir / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["episodes"] == 8
    assert manifest["sha256"] == dataset_hash(data / "dataset.jsonl")
    run_cfg = json.loads((data / "run_config.json").read_text())
    assert run_cfg["command"] == "simulate"
    assert run_cfg["scenarios"] == 8
    assert run_cfg["seed"] == 3


def test_simulate_is_byte_deterministic(workdir, tmp_path):
    assert main([
        "simulate", "--scenarios", "8", "--episode-len", "40",
        "--seed", "3", "--out", str(tmp_path / "again"),
    ]) == 0
    first = (workdir / "data" / "dataset.jsonl").read_bytes()
    second = (tmp_path / "again" / "dataset.jsonl").read_bytes()
    assert first == second


def test_config_file_merge_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenarios": 5, "seed": 9, "episode_len": 30}')
    out = tmp_path / "out"
    assert main([
        "simulate", "--config", str(cfg), "--scenarios", "6", "--out", str(out),
    ]) == 0
    effective = json.loads((out / "run_config.json").read_text())
    assert effective["scenarios"] == 6  # flag beats file
    assert effective["seed"] == 9  # file beats default
    assert effective["episode_len"] == 30
    lines = (out / "dataset.jsonl").read_text().count("\n")
    assert lines == 6


# ----------------------------------------------------------------- settings


@pytest.mark.parametrize("cmd", sorted(DEFAULTS))
def test_flags_are_the_settings_table(cmd):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(DEFAULTS)
    flags = {
        opt[2:].replace("-", "_")
        for action in sub.choices[cmd]._actions
        for opt in action.option_strings
        if opt != "--help" and opt.startswith("--")
    }
    assert flags == {"config", *DEFAULTS[cmd]}


@pytest.mark.parametrize("cmd, key, value", [
    ("simulate", "scenarios", "abc"),
    ("simulate", "scenarios", [1]),
    ("simulate", "scenarios", 1.7),
    ("simulate", "seed", True),
    ("simulate", "dt", "fast"),
    ("train", "quantiles", "0.5,abc"),
    ("train", "params", "[1]"),
    ("train", "allow_custom", 1),
])
def test_mistyped_config_value_exits_2_naming_the_key(tmp_path, capsys, cmd, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code = main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_values_are_recorded_as_they_ran(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenarios": 3.0, "episode_len": "30", "dt": 2}')
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    effective = json.loads((out / "run_config.json").read_text())
    assert [effective[k] for k in ("scenarios", "episode_len", "dt")] == [3, 30, 2.0]
    assert isinstance(effective["scenarios"], int) and isinstance(effective["dt"], float)
    assert (out / "dataset.jsonl").read_text().count("\n") == 3


def test_run_config_replays_to_identical_dataset(workdir, tmp_path, capsys):
    run_config = workdir / "data" / "run_config.json"
    out = tmp_path / "replay"
    assert main(["simulate", "--config", str(run_config), "--out", str(out)]) == 0
    assert (out / "dataset.jsonl").read_bytes() == (workdir / "data" / "dataset.jsonl").read_bytes()
    replayed = json.loads((out / "run_config.json").read_text())
    assert replayed == {**json.loads(run_config.read_text()), "out": str(out)}
    # a run_config.json written by another subcommand is refused
    assert main(["train", "--config", str(run_config), "--out", str(tmp_path / "m")]) == 2
    assert "'simulate'" in capsys.readouterr().err


# ----------------------------------------------------------------- exit codes


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_data_exits_1_with_path(tmp_path, capsys):
    code = main([
        "train", "--family", "persistence",
        "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    assert "absent" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    code = main([
        "simulate", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path / "d"),
    ])
    assert code == 1
    assert "no.json" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenarios": 5, "not_a_setting": 1}')
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "not_a_setting" in capsys.readouterr().err


def test_missing_required_value_exits_2(workdir, capsys):
    code = main(["train", "--data", str(workdir / "data"), "--out", "x"])
    assert code == 2
    assert "--family" in capsys.readouterr().err


# ----------------------------------------------------------------- train


def test_train_checkpoint_roundtrips(workdir):
    model = load_checkpoint(_ckpt(workdir))
    assert model.spec.family == "persistence"
    assert model.wc.h == 3 and model.wc.cm == 2
    log = json.loads((workdir / "models" / "train_log.json").read_text())
    assert log["checkpoint"] == "persistence_h3_cm2.ckpt"
    assert log["windows"]["train"] > 0 and log["windows"]["val"] > 0


def test_train_neural_smoke(workdir, tmp_path):
    assert main([
        "train", "--family", "seq2seq", "--h", "3", "--cm", "2",
        "--epochs", "1", "--params", '{"decoder_layers": 1, "neurons": 20}',
        "--quantiles", "0.5,0.995",
        "--data", str(workdir / "data"), "--out", str(tmp_path),
    ]) == 0
    model = load_checkpoint(str(tmp_path / "seq2seq_h3_cm2.ckpt"))
    assert model.parameter_count > 0
    assert model.grid.qs == (0.5, 0.995)
    assert model.training_log["stopped_epoch"] == 1


# ----------------------------------------------------------------- evaluate


def _evaluate_args(workdir, out, extra=()):
    return [
        "evaluate", "--model", _ckpt(workdir), "--data", str(workdir / "data"),
        "--reps", "2", "--quantiles", "0.5,0.995", "--out", str(out), *extra,
    ]


def test_evaluate_prints_table_and_writes_summary(workdir, tmp_path, capsys):
    assert main(_evaluate_args(workdir, tmp_path / "e1")) == 0
    out = capsys.readouterr().out
    assert "family=persistence" in out
    assert "q_risk" in out
    summary = json.loads((tmp_path / "e1" / "eval_summary.json").read_text())
    assert summary["repetitions"] == 2
    assert set(summary["metrics"]) == {"0.5", "0.995"}
    assert "q_risk" in summary["metrics"]["0.995"]
    assert summary["plots"]["fn_vs_quantile"]["x"] == [0.5, 0.995]


def test_evaluate_summary_bytes_deterministic(workdir, tmp_path):
    assert main(_evaluate_args(workdir, tmp_path / "a")) == 0
    assert main(_evaluate_args(workdir, tmp_path / "b")) == 0
    a = (tmp_path / "a" / "eval_summary.json").read_bytes()
    b = (tmp_path / "b" / "eval_summary.json").read_bytes()
    assert a == b


# ----------------------------------------------------------------- tune / sweep


def test_tune_writes_ranked_rows(workdir, tmp_path):
    assert main([
        "tune", "--family", "persistence", "--h", "3", "--cm", "2", "--reps", "2",
        "--data", str(workdir / "data"), "--out", str(tmp_path),
    ]) == 0
    result = json.loads((tmp_path / "tune.json").read_text())
    assert result["family"] == "persistence"
    assert len(result["rows"]) == 2  # one config, two repetitions
    assert result["best_train"]["batch_size"] == 128


def test_sweep_reports_and_skips(workdir, tmp_path, capsys):
    assert main([
        "sweep", "--families", "persistence", "--h-values", "3",
        "--cm-values", "1,9", "--data", str(workdir / "data"), "--out", str(tmp_path),
    ]) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert [r["total_window"] for r in rows] == [6, 30]
    by_cm = {r["cm"]: r for r in rows}
    assert not by_cm[1]["skipped"]
    assert "qrisk_sum_mean" in by_cm[1]
    assert by_cm[9]["skipped"]  # k=27 leaves no train windows in 28-step segments
    assert "skipped" in capsys.readouterr().out


# ----------------------------------------------------------------- bench


def test_bench_prints_report(workdir, capsys):
    assert main([
        "bench", "--model", _ckpt(workdir), "--data", str(workdir / "data"),
        "--iters", "3", "--warmup", "1",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "persistence"
    assert report["iters"] == 3
    assert report["median_ms"] <= report["p99_ms"]
    assert report["peak_alloc_bytes"] > 0


# ----------------------------------------------------------------- monitor


def test_monitor_streams_one_line_per_decision(workdir, capsys, monkeypatch):
    text = "".join(
        (workdir / "data" / "dataset.jsonl").read_text().splitlines(keepends=True)[:2]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["monitor", "--model", _ckpt(workdir)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    # h=3, cm=2 -> k=6; every length-40 episode yields 40 - 6 decisions
    assert len(lines) == 2 * 34
    assert lines[0]["t"] == 6
    for line in lines:
        assert set(line) == {"t", "q", "max_forecast", "decision", "ttv"}
        assert line["q"] == 0.995
        assert line["decision"] in (-1, 1)
        if line["decision"] == 1:
            assert 1 <= line["ttv"] <= 3
            assert line["max_forecast"] >= 0.0
        else:
            assert line["ttv"] is None
            assert line["max_forecast"] < 0.0


def test_monitor_rejects_channel_mismatch(workdir, capsys, monkeypatch):
    record = json.loads(
        (workdir / "data" / "dataset.jsonl").read_text().splitlines()[0]
    )
    renamed = {f"x_{k}": v for k, v in record["columns"].items()}
    record["columns"] = renamed
    record["roles"] = {
        key: [f"x_{n}" for n in names] for key, names in record["roles"].items()
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record) + "\n"))
    code = main(["monitor", "--model", _ckpt(workdir)])
    assert code == 1
    assert "do not match" in capsys.readouterr().err


def test_monitor_decides_each_line_before_reading_the_next(workdir, capsys, monkeypatch):
    first = (workdir / "data" / "dataset.jsonl").read_text().splitlines(keepends=True)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(first + "{bad\n"))
    assert main(["monitor", "--model", _ckpt(workdir)]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 34  # line 1's decisions, then the error
    assert "line 2" in captured.err


@pytest.fixture(scope="module")
def seq2seq_ckpt(workdir):
    out = workdir / "seq2seq"
    assert main([
        "train", "--family", "seq2seq", "--h", "3", "--cm", "2", "--epochs", "1",
        "--params", '{"decoder_layers": 1, "neurons": 20}',
        "--data", str(workdir / "data"), "--out", str(out),
    ]) == 0
    return out / "seq2seq_h3_cm2.ckpt"


def _edit_header(edit):
    def write(model, path):
        save_checkpoint(model, path)
        magic, header, tensors = path.read_bytes().split(b"\n", 2)
        path.write_bytes(magic + b"\n" + edit(header) + b"\n" + tensors)
    return write


def _edit_model(edit):
    def write(model, path):
        edit(model)
        save_checkpoint(model, path)
    return write


MALFORMED_CHECKPOINTS = {
    "truncated_header": _edit_header(lambda h: h[: len(h) // 2]),
    "header_without_tensors": _edit_header(
        lambda h: json.dumps({k: v for k, v in json.loads(h).items() if k != "tensors"}).encode()
    ),
    "missing_tensor": _edit_model(lambda m: m.params.pop("head.b")),
    "wrong_shape": _edit_model(lambda m: m.params.update({"head.W": m.params["head.W"][:, 1:]})),
    "norm_without_channel": _edit_model(lambda m: m.norm.channels.pop(m.lc_names[0])),
    "norm_without_target": _edit_model(lambda m: m.norm.channels.pop(m.target)),
}


@pytest.mark.parametrize("write", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_is_rejected_at_load(seq2seq_ckpt, tmp_path, capsys, write):
    bad = tmp_path / "bad.ckpt"
    write(load_checkpoint(seq2seq_ckpt), bad)
    with pytest.raises(ValidationError):
        load_checkpoint(bad)
    capsys.readouterr()
    assert main(["monitor", "--model", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# ----------------------------------------------------------------- analyze


def test_analyze_prints_rules_and_writes_json(workdir, tmp_path, capsys):
    assert main([
        "analyze", "--model", _ckpt(workdir), "--data", str(workdir / "data"),
        "--folds", "3", "--depths", "1,2", "--leaves", "2", "--out", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "scenario rules" in out
    result = json.loads((tmp_path / "analysis.json").read_text())
    assert result["episodes"] == 8
    assert result["feature_names"][0] == "time_of_day"
    assert len(result["rules"]) >= 1
    probe = np.array([0.5, 0.5, 0.0, 0.0])
    hits = [
        r for r in result["rules"]
        if all(
            (iv["gt"] is None or probe[result["feature_names"].index(iv["feature"])] > iv["gt"])
            and (iv["le"] is None or probe[result["feature_names"].index(iv["feature"])] <= iv["le"])
            for iv in r["intervals"]
        )
    ]
    assert len(hits) == 1  # rules partition the scenario box
