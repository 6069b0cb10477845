"""One executable for the whole pipeline: data, training, evaluation, monitoring.

Every setting in DEFAULTS is both a flag (--batch-size) and a key of the
optional --config JSON file (batch_size); explicit flags override file values,
which override built-in defaults. Each merged value is coerced once to the type
of its default. Runs that produce files write the merged settings next to them
(run_config.json), which --config accepts back, so any result can be
reproduced from its output directory alone, and identical seeds give
byte-identical summaries.

Exit codes: 0 on success, 1 with a structured message on stderr for runtime
failures (missing inputs, bad data or checkpoints, divergence), 2 for usage
errors, among them unknown or mistyped config values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, Field, fields
from pathlib import Path

import numpy as np

from .cart import cross_validate, extract_rules, scenario_f3_table
from .core import (
    DEFAULT_QUANTILES,
    QuantileGrid,
    ValidationError,
    WindowConfig,
    first_violation_index,
    violation_sign,
)
from .data import (
    DatasetError,
    build_split,
    dataset_hash,
    phase_windows,
    read_episode_lines,
    read_episodes,
    windows_for_phase,
    write_episodes,
)
from .evaluation import (
    TRAIN_AXES, EvalReport, bench, evaluate, evaluate_model, grid_tune, plot_data, sweep,
)
from .forecasters import (
    DEFAULT_N_PATHS, FAMILIES, ForecasterSpec, load_checkpoint, save_checkpoint,
)
from .monitor import MonitorConfig, decisions
from .simulate import SimConfig, SimulationError, generate_dataset
from .training import TrainConfig, TrainingDivergedError, fit

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """Bad invocation that argparse cannot catch (missing or malformed values)."""


# ----------------------------------------------------------------- settings


def _knobs(cls, rename: dict[str, str] | None = None) -> dict[str, Field]:
    """CLI key -> field, for each field of config dataclass `cls` that has a default."""
    rename = rename or {}
    return {rename.get(f.name, f.name): f for f in fields(cls) if f.default is not MISSING}


def _defaults(cls, rename: dict[str, str] | None = None) -> dict:
    return {key: f.default for key, f in _knobs(cls, rename).items()}


def _from_cfg(cls, cfg: dict, rename: dict[str, str] | None = None, **extra):
    """Build config dataclass `cls` from the merged settings."""
    return cls(**{f.name: cfg[key] for key, f in _knobs(cls, rename).items()}, **extra)


# SimConfig fields that keep their shorter historical CLI key
_SIM_KEYS = {"n_scenarios": "scenarios", "dt_seconds": "dt"}

# the settings of train and tune: which windows to fit, how, and to what grid
_FIT = {
    "data": None,
    "out": None,
    "family": None,
    "h": 3,
    "cm": 3,
    **_defaults(TrainConfig),
    "quantiles": list(DEFAULT_QUANTILES),
    "target": None,
}

DEFAULTS: dict[str, dict] = {
    "simulate": {"out": None, **_defaults(SimConfig, _SIM_KEYS)},
    "train": {**_FIT, "params": {}, "allow_custom": False},
    "tune": {**_FIT, "axes": {}, "reps": 5},
    "evaluate": {
        "model": None,
        "data": None,
        "out": None,
        **_defaults(TrainConfig),
        "reps": 5,
        "quantiles": None,
        "n_paths": DEFAULT_N_PATHS,
    },
    "sweep": {
        "data": None,
        "out": None,
        "families": list(FAMILIES),
        "h_values": [3, 12],
        "cm_values": [1, 3, 9],
        **_defaults(TrainConfig),
        "reps": 1,
        "quantiles": list(DEFAULT_QUANTILES),
        "target": None,
        "n_paths": DEFAULT_N_PATHS,
    },
    "bench": {
        "model": None,
        "data": None,
        "out": None,
        "iters": 500,
        "warmup": 50,
        "n_paths": DEFAULT_N_PATHS,
    },
    "monitor": {"model": None, **_defaults(MonitorConfig)},
    "analyze": {
        "model": None,
        "data": None,
        "out": None,
        "q": 0.995,
        "seed": 0,
        "n_paths": DEFAULT_N_PATHS,
        "depths": [1, 2, 3, 4, 5],
        "leaves": [2, 5, 10],
        "folds": 10,
    },
}

# one line of --help per setting name, whichever subcommands take it
HELP: dict[str, str] = {
    "out": "output directory",
    "data": "dataset file or directory",
    "model": "checkpoint path",
    "scenarios": "number of sampled scenarios (one episode each)",
    "episode_len": "steps per episode",
    "dt": "seconds per step",
    "speed_mps": "taxi speed, m/s",
    "k_c": "controller gain on estimated cross-track error",
    "k_h": "controller gain on estimated heading error",
    "u_max_deg_s": "heading-rate limit, deg/s",
    "noise_base": "estimator noise std floor",
    "noise_cloud_gain": "estimator noise std per unit of cloud cover",
    "noise_tod_gain": "estimator noise std per unit of time of day",
    "bias_gain": "estimator bias per unit of cloud cover above 0.5",
    "seed": "random seed",
    "family": "forecaster family",
    "families": "comma-separated family names",
    "h": "forecast horizon",
    "cm": "context multiplier (lookback = cm * h)",
    "h_values": "comma-separated horizons",
    "cm_values": "comma-separated context multipliers",
    "epochs": "maximum training epochs",
    "batch_size": "training batch size",
    "lr": "Adam learning rate",
    "clip_norm": "global gradient-norm clip",
    "patience": "epochs without validation gain before stopping",
    "quantiles": "comma-separated quantile levels (evaluate: the checkpoint's if unset)",
    "target": "safety metric to forecast (default: first in dataset)",
    "params": "JSON object of model hyperparameters",
    "allow_custom": "accept off-grid hyperparameters",
    "axes": 'JSON object of axis values, e.g. {"neurons": [20, 80]}',
    "reps": "training repetitions (per configuration for tune)",
    "n_paths": "Monte Carlo paths for sampling forecasters",
    "iters": "timed monitor decisions",
    "warmup": "untimed monitor decisions before timing",
    "decision_quantile": "grid level whose sign decides",
    "hysteresis": "consecutive positives needed to alarm",
    "q": "quantile level whose F3 is explained",
    "depths": "comma-separated max depths to cross-validate",
    "leaves": "comma-separated min leaf sizes to cross-validate",
    "folds": "cross-validation folds",
}

# the type of each setting: that of its default, or, where a subcommand has
# None there (evaluate's quantiles), of another subcommand's default; a setting
# whose default is always None is a string
_TYPED: dict[str, object] = {
    key: value for settings in DEFAULTS.values() for key, value in settings.items()
    if value is not None
}


# ----------------------------------------------------------------- plumbing


def _scalar(kind: type, value):
    """`value` as `kind` (str, bool, int or float), or ValueError.

    Numbers may come as strings, from flags and comma-separated lists; a bool
    is no number, and a float with a fractional part is no int.
    """
    if kind in (int, float) and isinstance(value, (int, float, str)) and not isinstance(value, bool):
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    if type(value) is not kind:
        raise ValueError
    return value


def _coerce(key: str, value):
    """One merged setting as the type of its default; UsageError names the key."""
    typed = _TYPED.get(key, "")
    if value is None:
        return None
    kind = type(typed).__name__
    try:
        if isinstance(typed, dict):
            parsed = json.loads(value) if isinstance(value, str) else value
            if isinstance(parsed, dict):
                return parsed
        elif isinstance(typed, list):
            kind = f"list of {type(typed[0]).__name__}"
            items = value
            if isinstance(value, str):
                items = [s.strip() for s in value.split(",") if s.strip()]
            if isinstance(items, list):
                return [_scalar(type(typed[0]), x) for x in items]
        else:
            return _scalar(type(typed), value)
    except (ValueError, OverflowError):  # also json.JSONDecodeError
        pass
    raise UsageError(f"setting {key!r} must be {kind}, got {value!r}")


def _read_config(path: Path, cmd: str) -> dict:
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        file_cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    # a run_config.json names the subcommand that wrote it
    command = file_cfg.pop("command", cmd)
    if command != cmd:
        raise UsageError(f"config file {path} is for {command!r}, not {cmd}")
    unknown = sorted(set(file_cfg) - set(DEFAULTS[cmd]))
    if unknown:
        raise UsageError(f"unknown config keys for {cmd}: {', '.join(unknown)}")
    return file_cfg


def _merged(cmd: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, each coerced to its setting's type."""
    flags = {k: v for k, v in vars(args).items() if k in DEFAULTS[cmd]}
    file_cfg = _read_config(Path(args.config), cmd) if args.config is not None else {}
    merged = {**DEFAULTS[cmd], **file_cfg, **flags}
    return {key: _coerce(key, value) for key, value in merged.items()}


def _require(cfg: dict, cmd: str, key: str):
    value = cfg.get(key)
    if value is None:
        raise UsageError(f"{cmd} needs --{key.replace('_', '-')} (flag or config file)")
    return value


def _jsonable(obj):
    """JSON-safe copy: tuples to lists, numpy scalars unboxed, non-finite to null."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _write_outputs(cfg: dict, cmd: str, files: dict) -> None:
    """Write each {file name: object} as JSON into --out, then run_config.json.

    Writes nothing when --out is unset.
    """
    if cfg["out"] is None:
        return
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, obj in {**files, "run_config.json": {"command": cmd, **cfg}}.items():
        (out / name).write_text(_json_text(obj), encoding="utf-8")


def _episodes(cfg: dict, cmd: str) -> list:
    """The episodes of the --data file (or dataset.jsonl in that directory)."""
    path = Path(_require(cfg, cmd, "data"))
    if path.is_dir():
        path = path / "dataset.jsonl"
    if not path.exists():
        raise FileNotFoundError(str(path))
    episodes = read_episodes(path)
    if not episodes:
        raise DatasetError(f"{path}: no episodes")
    return episodes


def _fit_inputs(cfg: dict, cmd: str) -> tuple[dict, dict]:
    """The --data phase windows, and the grid/norm/target/lc_names keywords of fit."""
    episodes = _episodes(cfg, cmd)
    wc = WindowConfig(h=cfg["h"], cm=cfg["cm"])
    grid = QuantileGrid(tuple(cfg["quantiles"]))
    target = cfg["target"] or episodes[0].metric_names[0]
    norm, phases = phase_windows(episodes, wc, target)
    return phases, {
        "grid": grid,
        "norm": norm,
        "target": target,
        "lc_names": episodes[0].lc_names,
    }


def _test_windows(cfg: dict, cmd: str):
    """The --model checkpoint, the --data episodes and their non-empty test windows.

    The windows are the model's inputs as the monitor reads them: episodes with
    the model's channels, cut with its window config, target and normalization.
    """
    model = load_checkpoint(_require(cfg, cmd, "model"))
    episodes = _episodes(cfg, cmd)
    model.check_channels(episodes[0])  # windows_for_phase holds the rest to its order
    test = windows_for_phase(
        episodes, build_split(episodes), model.wc, model.norm, "test", target=model.target
    )
    if not test:
        raise ValidationError("dataset yields no test windows for this model's window config")
    return model, episodes, test


def _report_json(report: EvalReport) -> dict:
    return {
        "family": report.family,
        "h": report.h,
        "cm": report.cm,
        "repetitions": report.repetitions,
        "quantiles": list(report.quantiles),
        "metrics": {
            f"{q:g}": {
                key: {"mean": s.mean, "half_ci": s.half_ci}
                for key, s in report.per_q[q].items()
            }
            for q in report.quantiles
        },
        "plots": plot_data(report),
    }


def _print_report(report: EvalReport) -> None:
    print(
        f"family={report.family} h={report.h} cm={report.cm} "
        f"repetitions={report.repetitions}"
    )
    print(
        f"{'q':>8}  {'q_risk':>21}  {'precision':>9}  {'recall':>7}"
        f"  {'f3':>7}  {'fn':>8}  {'fp':>8}"
    )
    for q in report.quantiles:
        m = report.per_q[q]
        print(
            f"{q:8.4f}  {m['q_risk'].mean:10.4f} +/- {m['q_risk'].half_ci:7.4f}"
            f"  {m['precision'].mean:9.3f}  {m['recall'].mean:7.3f}"
            f"  {m['f_beta'].mean:7.3f}  {m['fn'].mean:8.1f}  {m['fp'].mean:8.1f}"
        )


# ----------------------------------------------------------------- commands


def _cmd_simulate(cfg: dict) -> int:
    out = Path(_require(cfg, "simulate", "out"))
    sim_cfg = _from_cfg(SimConfig, cfg, _SIM_KEYS)
    episodes = generate_dataset(sim_cfg)
    out.mkdir(parents=True, exist_ok=True)
    data_file = out / "dataset.jsonl"
    write_episodes(data_file, episodes)
    violations = sum(violation_sign(ep.safety_metric) == 1 for ep in episodes)
    manifest = {
        "file": data_file.name,
        "episodes": len(episodes),
        "episode_len": sim_cfg.episode_len,
        "dt_seconds": sim_cfg.dt_seconds,
        "seed": sim_cfg.seed,
        "sha256": dataset_hash(data_file),
        "violation_episodes": violations,
    }
    _write_outputs(cfg, "simulate", {"manifest.json": manifest})
    print(
        f"wrote {len(episodes)} episodes to {data_file} "
        f"({violations} with violations, sha256 {manifest['sha256'][:12]})"
    )
    return 0


def _cmd_train(cfg: dict) -> int:
    out = Path(_require(cfg, "train", "out"))
    family = _require(cfg, "train", "family")
    phases, fit_kw = _fit_inputs(cfg, "train")
    spec = ForecasterSpec(family, cfg["params"], cfg["allow_custom"])
    model = fit(spec, phases["train"], phases["val"], _from_cfg(TrainConfig, cfg), **fit_kw)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / f"{family}_h{model.wc.h}_cm{model.wc.cm}.ckpt"
    save_checkpoint(model, ckpt)
    _write_outputs(cfg, "train", {"train_log.json": {
        "family": family,
        "h": model.wc.h,
        "cm": model.wc.cm,
        "target": model.target,
        "checkpoint": ckpt.name,
        "parameter_count": model.parameter_count,
        "windows": {"train": len(phases["train"]), "val": len(phases["val"])},
        "training_log": model.training_log,
    }})
    log = model.training_log
    if "best_epoch" in log:
        print(
            f"trained {family}: best epoch {log['best_epoch']} "
            f"val loss {log['best_val_loss']:.6f} -> {ckpt}"
        )
    else:
        print(f"trained {family} (no learned parameters) -> {ckpt}")
    return 0


def _cmd_tune(cfg: dict) -> int:
    _require(cfg, "tune", "out")
    family = _require(cfg, "tune", "family")
    phases, fit_kw = _fit_inputs(cfg, "tune")
    result = grid_tune(
        family, cfg["axes"], phases["train"], phases["val"], _from_cfg(TrainConfig, cfg),
        repetitions=cfg["reps"], **fit_kw,
    )
    rows = [
        {**row, "per_q": {f"{q:g}": v for q, v in row["per_q"].items()}} for row in result.rows
    ]
    best_train = {key: getattr(result.best_cfg, key) for key in TRAIN_AXES}
    _write_outputs(cfg, "tune", {"tune.json": {
        "family": family,
        "best_params": result.best_spec.params,
        "best_train": best_train,
        "rows": rows,
    }})
    print(f"tuned {family} over {len(result.rows)} runs")
    print(f"best params: {result.best_spec.params}")
    print(f"best training knobs: {best_train}")
    return 0


def _cmd_evaluate(cfg: dict) -> int:
    model = load_checkpoint(_require(cfg, "evaluate", "model"))
    episodes = _episodes(cfg, "evaluate")
    grid = QuantileGrid(tuple(cfg["quantiles"])) if cfg["quantiles"] else model.grid
    norm, phases = phase_windows(episodes, model.wc, model.target)
    report = evaluate(
        model.spec, _from_cfg(TrainConfig, cfg),
        phases["train"], phases["val"], phases["test"],
        repetitions=cfg["reps"], grid=grid, norm=norm, target=model.target,
        lc_names=episodes[0].lc_names, n_paths=cfg["n_paths"],
    )
    _print_report(report)
    _write_outputs(cfg, "evaluate", {"eval_summary.json": _report_json(report)})
    return 0


def _cmd_sweep(cfg: dict) -> int:
    _require(cfg, "sweep", "out")
    rows = sweep(
        _episodes(cfg, "sweep"), cfg["families"], _from_cfg(TrainConfig, cfg),
        h_values=cfg["h_values"], cm_values=cfg["cm_values"],
        repetitions=cfg["reps"], grid=QuantileGrid(tuple(cfg["quantiles"])),
        target=cfg["target"], n_paths=cfg["n_paths"],
    )
    print(f"{'family':>14} {'h':>3} {'cm':>3} {'total':>6}  result")
    json_rows = []
    for row in rows:
        keep = {k: row[k] for k in (
            "family", "h", "cm", "lookback", "total_window", "parameter_count",
            "parameter_bytes", "skipped",
        )}
        line = (
            f"{row['family']:>14} {row['h']:>3} {row['cm']:>3} {row['total_window']:>6}  "
        )
        if row["skipped"]:
            keep["skipped_reason"] = row["skipped_reason"]
            print(line + f"skipped: {row['skipped_reason']}")
        else:
            keep["qrisk_sum_mean"] = row["qrisk_sum_mean"]
            report = row["report"]
            for key in ("f_beta", "coverage", "joint_coverage"):
                keep[f"{key}_mean"] = {
                    f"{q:g}": report.per_q[q][key].mean for q in report.quantiles
                }
            print(line + f"q_risk_sum={row['qrisk_sum_mean']:.4f}")
        json_rows.append(keep)
    _write_outputs(cfg, "sweep", {"sweep.json": {"rows": json_rows}})
    return 0


def _cmd_bench(cfg: dict) -> int:
    model, episodes, test = _test_windows(cfg, "bench")
    episode = next(ep for ep in episodes if ep.id == test.episode_ids[0])
    mon_cfg = MonitorConfig(model, n_paths=cfg["n_paths"])
    report = bench(mon_cfg, episode, warmup=cfg["warmup"], iters=cfg["iters"]).to_dict()
    print(_json_text(report), end="")
    _write_outputs(cfg, "bench", {"bench.json": report})
    return 0


def _cmd_monitor(cfg: dict) -> int:
    """Stream episodes from stdin; one JSON line per decision to stdout."""
    model = load_checkpoint(_require(cfg, "monitor", "model"))
    mon_cfg = _from_cfg(MonitorConfig, cfg, model=model)
    # one line at a time: a line's decisions go out before the next is parsed
    for ep in read_episode_lines(sys.stdin):
        for t, decision, alarm, forecast in decisions(ep, mon_cfg):
            column = forecast.column(mon_cfg.decision_quantile)
            # flush per line: downstream consumers act on decisions as they
            # happen, and a closed pipe must surface here, not at shutdown
            print(json.dumps({
                "t": t,
                "q": mon_cfg.decision_quantile,
                "max_forecast": float(column.max()),
                "decision": decision,
                "ttv": first_violation_index(column) if decision == 1 else None,
                "alarm": alarm is not None,
            }), flush=True)
    return 0


def _cmd_analyze(cfg: dict) -> int:
    model, episodes, test = _test_windows(cfg, "analyze")
    ev = evaluate_model(model, test, mc_seed=cfg["seed"], n_paths=cfg["n_paths"])
    q = cfg["q"]
    features, f3, names = scenario_f3_table(ev, q, episodes)  # checks q is in the grid
    coverage, joint = ev.per_q[q]["coverage"], ev.per_q[q]["joint_coverage"]
    cv = cross_validate(
        features, f3, max_depths=cfg["depths"], min_leaves=cfg["leaves"],
        k=cfg["folds"], seed=cfg["seed"],
    )
    rules = extract_rules(cv.tree)
    print(
        f"scenario rules for F3 at q={q:g} over {features.shape[0]} episodes "
        f"(coverage={coverage:.4f} joint_coverage={joint:.4f})"
    )
    print(
        f"selected max_depth={cv.max_depth} min_samples_leaf={cv.min_samples_leaf} "
        f"cv_mse={cv.cv_mse:.6f} r2={cv.r2:.4f}"
    )
    for rule in rules:
        print("  " + rule.text(names))
    _write_outputs(cfg, "analyze", {"analysis.json": {
        "q": q,
        "coverage": coverage,
        "joint_coverage": joint,
        "episodes": int(features.shape[0]),
        "feature_names": list(names),
        "max_depth": cv.max_depth,
        "min_samples_leaf": cv.min_samples_leaf,
        "cv_mse": cv.cv_mse,
        "r2": cv.r2,
        "rules": [
            {
                "text": rule.text(names),
                "value": rule.value,
                "count": rule.count,
                # unbounded sides (+-inf) are written as null
                "intervals": [
                    {"feature": names[j], "gt": lo, "le": hi}
                    for j, lo, hi in rule.intervals
                ],
            }
            for rule in rules
        ],
    }})
    return 0


# ----------------------------------------------------------------- parser


_COMMANDS = {
    "simulate": ("generate a scenario-swept episode dataset", _cmd_simulate),
    "train": ("train one forecaster and write a checkpoint", _cmd_train),
    "tune": ("grid-search hyperparameters against validation q-risk", _cmd_tune),
    "evaluate": ("retrain a checkpoint's config and report test metrics", _cmd_evaluate),
    "sweep": ("evaluate families across the window-size grid", _cmd_sweep),
    "bench": ("measure per-decision latency and memory of the monitor", _cmd_bench),
    "monitor": ("stream episodes from stdin, print one line per decision", _cmd_monitor),
    "analyze": ("distill per-scenario F3 into interval rules", _cmd_analyze),
}


def build_parser() -> argparse.ArgumentParser:
    """One flag per DEFAULTS key; a flag the user does not pass stays unset."""
    parser = argparse.ArgumentParser(
        prog="forewarn",
        description="quantile forecasting of safety metrics with a runtime violation monitor",
    )
    sub = parser.add_subparsers(dest="cmd", metavar="command", required=True)
    for cmd, (help_text, func) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text, description=help_text)
        p.add_argument("--config", help="JSON file of settings; explicit flags win")
        p.set_defaults(func=func)
        for key, default in DEFAULTS[cmd].items():
            typed = _TYPED.get(key, "")
            kwargs: dict = {"default": argparse.SUPPRESS, "help": HELP[key]}
            if default is not None:
                kwargs["help"] += f" (default: {json.dumps(default)})"
            if isinstance(typed, bool):
                kwargs["action"] = "store_true"
            elif isinstance(typed, (int, float)):
                kwargs["type"] = type(typed)
            if key == "family":
                kwargs["choices"] = FAMILIES
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_merged(args.cmd, args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = getattr(exc, "filename", None) or str(exc)
        print(f"error: missing input file: {missing}", file=sys.stderr)
        return 1
    except (ValidationError, DatasetError, SimulationError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream consumer (head, jq) closed the pipe; leave quietly, and
        # point stdout at devnull so the shutdown flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
