"""End-to-end checks of the command-line pipeline on a tiny dataset."""

import argparse
import dataclasses
import io
import json

import numpy as np
import pytest

from forewarn import cli, core
from forewarn.cli import DEFAULTS, build_parser, main
from forewarn.core import ValidationError, WindowConfig, first_violation_index, violation_sign
from forewarn.data import dataset_hash, phase_windows, read_episodes, write_episodes
from forewarn.evaluation import evaluate, evaluate_model, grid_tune
from forewarn.forecasters import (
    ForecasterSpec, load_checkpoint, predict_quantiles_batch, save_checkpoint,
)
from forewarn.monitor import MonitorConfig, decisions
from forewarn.training import TrainConfig, fit


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


@pytest.mark.parametrize("cmd", ["train", "tune", "evaluate", "sweep", "bench", "analyze"])
def test_empty_dataset_exits_1_with_named_error(workdir, tmp_path, capsys, cmd):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = ["--out", str(tmp_path / "out")]
    extra = {
        "train": ["--family", "persistence", *out],
        "tune": ["--family", "persistence", *out],
        "sweep": ["--families", "persistence", *out],
    }.get(cmd, ["--model", _ckpt(workdir)])
    code = main([cmd, "--data", str(empty), *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "no episodes" in err


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
    assert all(r["parameter_count"] == r["parameter_bytes"] == 0 for r in rows)  # persistence
    assert "skipped" in capsys.readouterr().out


def test_sweep_rows_give_coverage_next_to_f_beta(workdir, tmp_path):
    assert main([
        "sweep", "--families", "persistence", "--h-values", "3", "--cm-values", "1",
        "--quantiles", "0.5,0.9,0.995", "--data", str(workdir / "data"), "--out", str(tmp_path),
    ]) == 0
    (row,) = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    levels = ["0.5", "0.9", "0.995"]
    assert list(row["f_beta_mean"]) == list(row["coverage_mean"]) == levels
    assert list(row["joint_coverage_mean"]) == levels
    coverage = [row["coverage_mean"][q] for q in levels]
    joint = [row["joint_coverage_mean"][q] for q in levels]
    # forecasts are sorted across levels, so a higher level covers at least as much,
    # and a window covered at every lead covers each of its cells
    assert coverage == sorted(coverage) and joint == sorted(joint)
    assert all(0.0 <= j <= c <= 1.0 for j, c in zip(joint, coverage))


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
        assert set(line) == {"t", "q", "max_forecast", "decision", "ttv", "alarm"}
        assert line["alarm"] == (line["decision"] == 1)  # hysteresis 1
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


def _reverse_scenario_dims(line: str) -> str:
    """The episode line with its scenario dims (names, values and ranges) in reverse order."""
    record = json.loads(line)
    record["scenario"] = {key: value[::-1] for key, value in record["scenario"].items()}
    return json.dumps(record) + "\n"


def test_monitor_rejects_reordered_scenario_dims(workdir, capsys, monkeypatch):
    lines = (workdir / "data" / "dataset.jsonl").read_text().splitlines()
    monkeypatch.setattr("sys.stdin", io.StringIO(_reverse_scenario_dims(lines[0])))
    assert main(["monitor", "--model", _ckpt(workdir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario dims" in captured.err and "do not match" in captured.err


@pytest.mark.parametrize("cmd", ["bench", "analyze"])
def test_test_window_commands_reject_reordered_scenario_dims(workdir, tmp_path, capsys, cmd):
    lines = (workdir / "data" / "dataset.jsonl").read_text().splitlines()
    (tmp_path / "dataset.jsonl").write_text("".join(map(_reverse_scenario_dims, lines)))
    args = _small_run(workdir, cmd)
    args[args.index("--data") + 1] = str(tmp_path)
    assert main([cmd, *args]) == 1
    assert "scenario dims" in capsys.readouterr().err


def test_monitor_decides_each_line_before_reading_the_next(workdir, capsys, monkeypatch):
    first = (workdir / "data" / "dataset.jsonl").read_text().splitlines(keepends=True)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(first + "{bad\n"))
    assert main(["monitor", "--model", _ckpt(workdir)]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 34  # line 1's decisions, then the error
    assert "line 2" in captured.err


def test_monitor_prints_the_records_of_the_decision_stream(workdir, capsys, monkeypatch):
    data = workdir / "data" / "dataset.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO(data.read_text()))
    assert main(["monitor", "--model", _ckpt(workdir), "--hysteresis", "3"]) == 0
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    cfg = MonitorConfig(load_checkpoint(_ckpt(workdir)), hysteresis=3)
    stream = [step for ep in read_episodes(data) for step in decisions(ep, cfg)]
    expected = []
    for t, decision, alarm, forecast in stream:
        column = forecast.column(0.995)
        expected.append({
            "t": t,
            "q": 0.995,
            "max_forecast": float(column.max()),
            "decision": decision,
            "ttv": first_violation_index(column) if decision == 1 else None,
            "alarm": alarm is not None,
        })
    assert printed == expected
    # a positive decision still short of the hysteresis prints its ttv, and alarm false
    assert any(decision == 1 and alarm is None for _, decision, alarm, _ in stream)


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


def _flip_payload_byte(model, path):
    # the lowest mantissa byte of the first tensor: the weights stay finite
    save_checkpoint(model, path)
    magic, header, tensors = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + header + b"\n" + bytes([tensors[0] ^ 1]) + tensors[1:])


def _edit_header_entries(edit):
    """Edit the parsed header after save, leaving its recorded sha256 as it was."""
    def change(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header).encode()
    return _edit_header(change)


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
    "target_std_negative": _edit_model(lambda m: m.norm.channels.update({m.target: (0.0, -1.0)})),
    "target_std_zero": _edit_model(lambda m: m.norm.channels.update({m.target: (0.0, 0.0)})),
    "target_mean_nan": _edit_model(lambda m: m.norm.channels.update({m.target: (np.nan, 1.0)})),
    "channel_std_negative": _edit_model(
        lambda m: m.norm.channels.update({m.lc_names[0]: (0.0, -1.0)})
    ),
    "tensor_nan": _edit_model(lambda m: m.params["head.b"].__setitem__(0, np.nan)),
    "payload_byte_flipped": _flip_payload_byte,
    "norm_mean_edited": _edit_header_entries(
        lambda h: h["norm"][h["target"]].__setitem__(0, h["norm"][h["target"]][0] + 1.0)
    ),
    "scenario_dims_reordered": _edit_header_entries(lambda h: h["scenario_dims"].reverse()),
    "scenario_dims_not_names": _edit_model(lambda m: setattr(m, "scenario_dims", [1, 2, 3])),
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


def test_analyze_reports_coverage_at_its_quantile(workdir, tmp_path, capsys, monkeypatch):
    scored, evaluate_model = [], cli.evaluate_model

    def recording(*args, **kw):
        scored.append(evaluate_model(*args, **kw))
        return scored[-1]

    monkeypatch.setattr(cli, "evaluate_model", recording)
    assert main([
        "analyze", "--model", _ckpt(workdir), "--data", str(workdir / "data"),
        "--folds", "3", "--depths", "1", "--leaves", "2", "--q", "0.95", "--out", str(tmp_path),
    ]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    result = json.loads((tmp_path / "analysis.json").read_text())
    (ev,) = scored
    want = ev.per_q[0.95]
    assert result["q"] == 0.95
    assert result["coverage"] == want["coverage"]
    assert result["joint_coverage"] == want["joint_coverage"]
    assert 0.0 <= want["joint_coverage"] <= want["coverage"] <= 1.0
    assert header.startswith("scenario rules for F3 at q=0.95 over 8 episodes")
    assert header.endswith(
        f"(coverage={want['coverage']:.4f} joint_coverage={want['joint_coverage']:.4f})"
    )


# ----------------------------------------------------------------- outputs


def _small_run(workdir, cmd):
    """Flags, without --out, of a small run of `cmd` on the module's dataset."""
    data = ["--data", str(workdir / "data")]
    return {
        "simulate": ["--scenarios", "3", "--episode-len", "30"],
        "train": ["--family", "persistence", "--h", "3", "--cm", "2", *data],
        "tune": ["--family", "persistence", "--h", "3", "--cm", "2", "--reps", "1", *data],
        "evaluate": ["--model", _ckpt(workdir), "--reps", "2", *data],
        "sweep": ["--families", "persistence", "--h-values", "3", "--cm-values", "1", *data],
        "bench": ["--model", _ckpt(workdir), "--iters", "2", "--warmup", "0", *data],
        "analyze": [
            "--model", _ckpt(workdir), "--folds", "3", "--depths", "1", "--leaves", "2", *data,
        ],
    }[cmd]


RESULT_FILES = {
    "simulate": "manifest.json",
    "train": "train_log.json",
    "tune": "tune.json",
    "evaluate": "eval_summary.json",
    "sweep": "sweep.json",
    "bench": "bench.json",
    "analyze": "analysis.json",
}


@pytest.mark.parametrize("cmd", RESULT_FILES)
def test_run_config_names_the_command_and_replays_the_result(workdir, tmp_path, capsys, cmd):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([cmd, *_small_run(workdir, cmd), "--out", str(first)]) == 0
    assert json.loads((first / "run_config.json").read_text())["command"] == cmd
    assert main([cmd, "--config", str(first / "run_config.json"), "--out", str(again)]) == 0
    result = (first / RESULT_FILES[cmd]).read_bytes()
    replayed = (again / RESULT_FILES[cmd]).read_bytes()
    if cmd == "bench":  # timings differ from run to run
        assert json.loads(replayed).keys() == json.loads(result).keys()
    else:
        assert replayed == result


def test_no_package_path_builds_a_window_sample(workdir, tmp_path, capsys, monkeypatch):
    # the package passes windows as WindowBatch columns; a WindowSample handle
    # is only made by indexing or iterating a batch, which no package path does
    def boom(*args, **kwargs):
        raise AssertionError("a WindowSample was built")

    monkeypatch.setattr(core.WindowSample, "__post_init__", boom)
    episodes = read_episodes(workdir / "data" / "dataset.jsonl")
    target = episodes[0].metric_names[0]
    norm, phases = phase_windows(episodes, WindowConfig(h=3, cm=2), target)
    kw = {"norm": norm, "target": target, "lc_names": episodes[0].lc_names}
    spec = ForecasterSpec("seq2seq", {"decoder_layers": 1, "neurons": 20})
    cfg = TrainConfig(epochs=1)
    model = fit(spec, phases["train"], phases["val"], cfg, **kw)
    evaluate_model(model, phases["test"])
    evaluate(spec, cfg, phases["train"], phases["val"], phases["test"], repetitions=1, **kw)
    grid_tune("seq2seq", {"neurons": [20]}, phases["train"], phases["val"], cfg, 1, **kw)
    for cmd in ("train", "evaluate", "analyze", "bench"):
        assert main([cmd, *_small_run(workdir, cmd), "--out", str(tmp_path / cmd)]) == 0


@pytest.mark.parametrize("cmd", ["evaluate", "bench", "analyze"])
def test_without_out_nothing_is_written(workdir, tmp_path, capsys, monkeypatch, cmd):
    monkeypatch.chdir(tmp_path)
    before = sorted(workdir.rglob("*"))
    assert main([cmd, *_small_run(workdir, cmd)]) == 0
    assert list(tmp_path.iterdir()) == []
    assert sorted(workdir.rglob("*")) == before


# ----------------------------------------------------------------- bad values


@pytest.fixture(scope="module")
def ar_rnn_ckpt(workdir):
    out = workdir / "ar_rnn"
    assert main([
        "train", "--family", "ar_rnn", "--h", "3", "--cm", "2", "--epochs", "1",
        "--params", '{"nodes": 40}', "--data", str(workdir / "data"), "--out", str(out),
    ]) == 0
    return str(out / "ar_rnn_h3_cm2.ckpt")


@pytest.mark.parametrize("case", [
    "simulate", "train", "tune", "evaluate", "sweep", "analyze", "analyze_ar_rnn", "monitor_ar_rnn",
])
def test_negative_seed_exits_1_with_named_error(
    workdir, ar_rnn_ckpt, tmp_path, capsys, monkeypatch, case
):
    data = ["--data", str(workdir / "data")]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "simulate": ["simulate", "--scenarios", "2", "--episode-len", "20", *out],
        "train": ["train", "--family", "seq2seq", "--epochs", "1", *data, *out],
        "tune": ["tune", "--family", "persistence", *data, *out],
        "evaluate": ["evaluate", "--model", _ckpt(workdir), *data, *out],
        "sweep": ["sweep", "--families", "persistence", *data, *out],
        "analyze": ["analyze", "--model", _ckpt(workdir), "--folds", "3", *data, *out],
        "analyze_ar_rnn": ["analyze", "--model", ar_rnn_ckpt, "--folds", "3", *data, *out],
        "monitor_ar_rnn": ["monitor", "--model", ar_rnn_ckpt],
    }[case]
    first = (workdir / "data" / "dataset.jsonl").read_text().splitlines(keepends=True)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(first))  # read by monitor only
    capsys.readouterr()
    assert main([*argv, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", [20, [], "20"], ids=["number", "empty", "string"])
def test_tune_axis_values_must_be_a_non_empty_list(workdir, tmp_path, capsys, values):
    code = main([
        "tune", "--family", "seq2seq", "--axes", json.dumps({"neurons": values}),
        "--data", str(workdir / "data"), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: tuning axis 'neurons'") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, key", [
    (["tune", "--family", "seq2seq", "--axes", '{"lr": ["x"]}'], "lr"),
    (["tune", "--family", "seq2seq", "--axes", '{"batch_size": [1.5]}'], "batch_size"),
    (["tune", "--family", "seq2seq", "--axes", '{"batch_size": [true]}'], "batch_size"),
    (["tune", "--family", "seq2seq", "--axes", '{"neurons": [20.0]}'], "neurons"),
    (["tune", "--family", "attn_seq2seq", "--axes", '{"heads": [4.0]}'], "heads"),
    (["train", "--family", "seq2seq", "--params", '{"neurons": 20.0}'], "neurons"),
    (["train", "--family", "seq2seq", "--allow-custom", "--params", '{"neurons": -1}'], "neurons"),
    (["train", "--family", "seq2seq", "--allow-custom", "--params", '{"neurons": 0}'], "neurons"),
    (
        ["train", "--family", "seq2seq", "--allow-custom", "--params", '{"decoder_layers": -2}'],
        "decoder_layers",
    ),
    (["train", "--family", "ar_rnn", "--allow-custom", "--params", '{"cell": "foo"}'], "cell"),
], ids=[
    "lr_str", "batch_size_float", "batch_size_bool", "neurons_float", "heads_float",
    "params_neurons_float", "custom_neurons_negative", "custom_neurons_zero",
    "custom_decoder_layers_negative", "custom_cell_unknown",
])
def test_mistyped_or_out_of_range_hyperparameter_exits_1_naming_it(
    workdir, tmp_path, capsys, argv, key
):
    code = main([
        *argv, "--epochs", "1", "--data", str(workdir / "data"), "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _with_ids(workdir, tmp_path, ids):
    """The module's dataset with its episode ids replaced by `ids`, in order."""
    lines = (workdir / "data" / "dataset.jsonl").read_text().splitlines()
    records = [{**json.loads(line), "id": eid} for line, eid in zip(lines, ids)]
    path = tmp_path / "ids.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize("ids, message", [
    ([[0]] + [f"ep{i}" for i in range(1, 8)], "episode id must be a non-empty string"),
    (list(range(1, 9)), "episode id must be a non-empty string"),
    (["same"] * 8, "duplicate episode id 'same'"),
], ids=["list", "int", "duplicate"])
@pytest.mark.parametrize("cmd", ["evaluate", "bench", "analyze"])
def test_bad_episode_ids_exit_1_with_named_error(workdir, tmp_path, capsys, ids, message, cmd):
    data = str(_with_ids(workdir, tmp_path, ids))
    code = main([cmd, *_small_run(workdir, cmd)[:-2], "--data", data])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and message in err and "Traceback" not in err


# ----------------------------------------------------------------- checkpoint inputs


@pytest.mark.parametrize("family", ["seq2seq", "ar_rnn"])
def test_analyze_scores_the_windows_the_monitor_forecasts(workdir, tmp_path, monkeypatch, family):
    """On another dataset, analyze scores the forecasts the monitor makes at the same seed.

    analyze normalizes with the checkpoint's stats, as the monitor does, and
    seeds each ar_rnn window's draws from its origin, as the monitor does.
    """
    assert main([
        "simulate", "--scenarios", "8", "--episode-len", "40", "--seed", "4",
        "--noise-base", "0.9", "--out", str(tmp_path / "other"),
    ]) == 0
    assert main([
        "train", "--family", family, "--h", "3", "--cm", "2", "--epochs", "1",
        "--data", str(workdir / "data"), "--out", str(tmp_path / "models"),
    ]) == 0
    ckpt = str(tmp_path / "models" / f"{family}_h3_cm2.ckpt")
    scored, evaluate_model = [], cli.evaluate_model

    def recording(model, test, **kw):
        scored.append(test)
        return evaluate_model(model, test, **kw)

    monkeypatch.setattr(cli, "evaluate_model", recording)
    assert main([
        "analyze", "--model", ckpt, "--data", str(tmp_path / "other"),
        "--folds", "3", "--depths", "1", "--leaves", "2",
    ]) == 0
    (test,) = scored
    model = load_checkpoint(ckpt)
    cfg = MonitorConfig(model)  # the seed analyze uses by default, too
    preds = predict_quantiles_batch(model, test, mc_seed=cfg.seed, n_paths=cfg.n_paths)
    monitored = {
        (ep.id, t): forecast.values
        for ep in read_episodes(tmp_path / "other" / "dataset.jsonl")
        for t, _, _, forecast in decisions(ep, cfg)
    }
    want = np.array([monitored[str(e), int(t)] for e, t in zip(test.episode_ids, test.origin_t)])
    np.testing.assert_allclose(preds, want, rtol=0, atol=1e-9)
    j = model.grid.index(cfg.decision_quantile)
    assert np.array_equal(violation_sign(preds[:, :, j], axis=1), violation_sign(want[:, :, j], axis=1))


def test_train_refuses_an_episode_with_its_channels_in_another_order(workdir, tmp_path, capsys):
    episodes = read_episodes(workdir / "data" / "dataset.jsonl")
    ep = episodes[1]
    episodes[1] = dataclasses.replace(
        ep, lc_outputs=ep.lc_outputs[:, ::-1], lc_names=ep.lc_names[::-1]
    )
    write_episodes(tmp_path / "mixed.jsonl", episodes)
    code = main([
        "train", "--family", "persistence", "--data", str(tmp_path / "mixed.jsonl"),
        "--out", str(tmp_path / "models"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: episode {ep.id}: channels {ep.lc_names[::-1]} and ")
    assert "Traceback" not in err and not (tmp_path / "models").exists()


@pytest.mark.parametrize("cmd", ["bench", "analyze"])
def test_swapped_channels_exit_1_naming_them(workdir, tmp_path, capsys, cmd):
    episodes = [
        dataclasses.replace(ep, lc_outputs=ep.lc_outputs[:, ::-1], lc_names=ep.lc_names[::-1])
        for ep in read_episodes(workdir / "data" / "dataset.jsonl")
    ]
    write_episodes(tmp_path / "swapped.jsonl", episodes)
    code = main([cmd, *_small_run(workdir, cmd)[:-2], "--data", str(tmp_path / "swapped.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "channels" in err and "Traceback" not in err
