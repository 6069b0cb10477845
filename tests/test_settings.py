"""Every count and rate setting is checked by core.check_setting, with one rule.

An int setting takes any integral number but a bool, a float setting any real
number but a bool; the type is checked before the range, and a failure is a
ValidationError naming the setting.
"""

import inspect

import numpy as np
import pytest

from _synth import FIT_KW, make_episode, make_model, make_noise_windows
from forewarn import cli
from forewarn.cart import cross_validate, fit_cart
from forewarn.core import ValidationError, WindowConfig, WindowSample, check_setting
from forewarn.evaluation import bench, evaluate, grid_tune, sweep
from forewarn.forecasters import (
    ForecasterSpec, load_checkpoint, predict_quantiles, save_checkpoint, stack_windows,
)
from forewarn.monitor import MonitorConfig
from forewarn.simulate import DEFAULT_DIMS, SimConfig, lhs_sample
from forewarn.training import TrainConfig

WC = WindowConfig(h=2, cm=2)
ROWS = np.random.default_rng(0).random((20, 2))


def _predict(**kw):
    batch = stack_windows(make_noise_windows(np.random.default_rng(1), WC))
    return predict_quantiles(make_model("ar_rnn", wc=WC), batch, **{"mc_seed": 0, **kw})


def _bench(warmup, iters):
    model, episode = make_model(wc=WC), make_episode(np.random.default_rng(1))
    return bench(MonitorConfig(model), episode, warmup=warmup, iters=iters)


def _cross_validate(k, seed):
    return cross_validate(ROWS, ROWS[:, 0], max_depths=(1, 2, 3, 4, 5), min_leaves=(2, 5, 10),
                          k=k, seed=seed)


def _spec(family, key):
    return lambda v: ForecasterSpec(family, {key: v}, allow_custom=True)


# id -> (call with the value, the key its error names, kind, a value below the bound)
SITES = {
    "WindowConfig.h": (lambda v: WindowConfig(h=v, cm=1), "h", int, 0),
    "WindowConfig.cm": (lambda v: WindowConfig(h=1, cm=v), "cm", int, 0),
    **{
        f"SimConfig.{key}": (lambda v, key=key: SimConfig(**{key: v}), key, kind, below)
        for key, kind, below in (
            ("n_scenarios", int, 0), ("episode_len", int, 0), ("seed", int, -1),
            ("dt_seconds", float, 0.0), ("u_max_deg_s", float, 0.0),
            ("noise_base", float, -0.1), ("noise_cloud_gain", float, -0.1),
            ("noise_tod_gain", float, -0.1),
        )
    },
    "lhs_sample.n": (lambda v: lhs_sample(v, DEFAULT_DIMS, 0), "n", int, 0),
    "lhs_sample.seed": (lambda v: lhs_sample(3, DEFAULT_DIMS, v), "seed", int, -1),
    "WindowSample.index": (
        lambda v: WindowSample(make_noise_windows(np.random.default_rng(1), WC), v), "window index",
        int, -1,
    ),
    **{
        f"MonitorConfig.{key}": (
            lambda v, key=key: MonitorConfig(make_model(), **{key: v}), key, int, below
        )
        for key, below in (("hysteresis", -1), ("seed", -1), ("n_paths", 0))
    },
    **{
        f"TrainConfig.{key}": (lambda v, key=key: TrainConfig(**{key: v}), key, kind, below)
        for key, kind, below in (
            ("epochs", int, 0), ("batch_size", int, 0), ("patience", int, -1),
            ("seed", int, -1), ("lr", float, 0.0), ("clip_norm", float, 0.0),
        )
    },
    **{
        f"ForecasterSpec.{family}.{key}": (_spec(family, key), key, kind, below)
        for family, key, kind, below in (
            ("seq2seq", "neurons", int, 0), ("seq2seq", "decoder_layers", int, -1),
            ("convseq2seq", "channels", int, 0), ("ar_rnn", "nodes", int, 0),
            ("ar_rnn", "dropout", float, -0.1), ("attn_seq2seq", "state", int, 0),
            ("attn_seq2seq", "heads", int, 0),
        )
    },
    "predict_quantiles.mc_seed": (lambda v: _predict(mc_seed=v), "mc_seed", int, -1),
    "predict_quantiles.n_paths": (lambda v: _predict(n_paths=v), "n_paths", int, 0),
    "evaluate.repetitions": (
        lambda v: evaluate(ForecasterSpec("persistence"), TrainConfig(), [], [], [], v, **FIT_KW),
        "repetitions", int, 0,
    ),
    "grid_tune.repetitions": (
        lambda v: grid_tune("persistence", {}, [], [], TrainConfig(), v, **FIT_KW),
        "repetitions", int, 0,
    ),
    "bench.warmup": (lambda v: _bench(warmup=v, iters=500), "warmup", int, -1),
    "bench.iters": (lambda v: _bench(warmup=50, iters=v), "iters", int, 0),
    "fit_cart.max_depth": (
        lambda v: fit_cart(ROWS, ROWS[:, 0], max_depth=v), "max_depth", int, -1,
    ),
    "fit_cart.min_samples_leaf": (
        lambda v: fit_cart(ROWS, ROWS[:, 0], min_samples_leaf=v), "min_samples_leaf", int, 0,
    ),
    "cross_validate.k": (lambda v: _cross_validate(k=v, seed=0), "k", int, 1),
    "cross_validate.seed": (lambda v: _cross_validate(k=10, seed=v), "seed", int, -1),
}


@pytest.mark.parametrize("bad", ["bool", "mistyped", "below"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_setting_rejects_a_bool_a_wrong_type_and_a_value_below_its_bound(site, bad):
    call, key, kind, below = SITES[site]
    value = {"bool": True, "mistyped": 2.5 if kind is int else "2.5", "below": below}[bad]
    with pytest.raises(ValidationError) as info:
        call(value)
    assert f"{key} must be " in str(info.value) and f"got {value!r}" in str(info.value)


def test_check_setting_returns_builtin_ints_and_floats_unchanged():
    value = check_setting("n", np.int64(3), low=1)
    assert value == 3 and type(value) is int
    assert type(check_setting("lr", 1, float, above=True)) is int
    with pytest.raises(ValidationError, match=r"dropout must be a finite number >= 0 and < 1"):
        check_setting("dropout", 1, float, 0, 1)
    with pytest.raises(ValidationError, match="lr must be a finite number > 0, got inf"):
        check_setting("lr", float("inf"), float, above=True)


def test_numpy_int_sizes_are_stored_as_ints_and_the_checkpoint_saves(tmp_path):
    wc = WindowConfig(h=np.int64(2), cm=np.int64(2))
    model = make_model("seq2seq", wc=wc, neurons=np.int64(20), decoder_layers=np.int64(1))
    assert type(wc.h) is int and type(model.spec.params["neurons"]) is int
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded.spec == model.spec and loaded.wc == wc
    assert all(np.array_equal(loaded.params[n], p) for n, p in model.params.items())


# (subcommand, its DEFAULTS key, the library function, the parameter it sets):
# the CLI always passes these, so DEFAULTS holds their one default
CLI_SETTINGS = [
    ("evaluate", "reps", evaluate, "repetitions"),
    ("sweep", "h_values", sweep, "h_values"),
    ("sweep", "cm_values", sweep, "cm_values"),
    ("sweep", "reps", sweep, "repetitions"),
    ("tune", "reps", grid_tune, "repetitions"),
    ("bench", "warmup", bench, "warmup"),
    ("bench", "iters", bench, "iters"),
    ("analyze", "depths", cross_validate, "max_depths"),
    ("analyze", "leaves", cross_validate, "min_leaves"),
    ("analyze", "folds", cross_validate, "k"),
    ("analyze", "seed", cross_validate, "seed"),
]


@pytest.mark.parametrize(
    "cmd, key, fn, name", CLI_SETTINGS, ids=[f"{c}.{k}" for c, k, _, _ in CLI_SETTINGS]
)
def test_a_cli_setting_has_no_second_default_in_the_library(cmd, key, fn, name):
    assert key in cli.DEFAULTS[cmd]
    assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty
