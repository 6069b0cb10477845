"""Forecaster specs, forward passes, prediction, and checkpoints."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from _synth import FIT_KW, identity_norm, make_episode, make_noise_windows, unit_dims
from forewarn import forecasters
from forewarn.autodiff import Tensor, pinball_mean
from forewarn.core import (
    QuantileGrid, ValidationError, WindowConfig, as_batch, derived_seed, violation_sign,
)
from forewarn.data import make_windows
from forewarn.forecasters import (
    FAMILIES,
    NEURAL_FAMILIES,
    ForecasterSpec,
    TrainedForecaster,
    forward_gaussian,
    forward_quantiles,
    init_params,
    load_checkpoint,
    predict_quantiles_batch,
    sample_paths,
    save_checkpoint,
    stack_windows,
)
from forewarn.training import loss_and_grads

WC = WindowConfig(h=2, cm=2)
QS = QuantileGrid((0.1, 0.5, 0.9))

TINY_HYPERS = {
    "persistence": {},
    "seq2seq": {"decoder_layers": 1, "neurons": 20},
    "convseq2seq": {"decoder_layers": 1, "neurons": 20, "channels": 20},
    "ar_rnn": {"cell": "gru", "nodes": 40, "dropout": 0.1},
    "attn_seq2seq": {"state": 40, "heads": 4, "dropout": 0.1},
}


def tiny_model(
    family, wc=WC, n_cov=2, n_static=3, qs=QS, seed=0, zero=False, scale=(0.0, 1.0), **hyper
):
    spec = ForecasterSpec(family, {**TINY_HYPERS[family], **hyper})
    params = init_params(spec, wc, len(qs), n_cov, n_static, seed)
    if zero:
        params = {k: np.zeros_like(v) for k, v in params.items()}
    return TrainedForecaster(
        spec=spec,
        wc=wc,
        grid=qs,
        target="m",
        lc_names=tuple(f"c{i}" for i in range(n_cov)),
        scenario_dims=tuple(d.name for d in unit_dims(n_static)),
        norm=identity_norm(n_cov, scale=scale),
        params=params,
        training_log={"seed": seed},
    )


def batch_of(rng, n, wc=WC, **kw):
    return make_noise_windows(rng, wc, n, **kw)


# ------------------------------------------------------------------ specs


def test_spec_rejects_unknown_family():
    with pytest.raises(ValidationError, match="unknown family"):
        ForecasterSpec("transformer")


def test_spec_rejects_unknown_hyperparameter():
    with pytest.raises(ValidationError, match="unknown hyperparameter"):
        ForecasterSpec("seq2seq", {"layers": 2})


def test_spec_rejects_off_grid_value_without_allow_custom():
    with pytest.raises(ValidationError, match="not in grid"):
        ForecasterSpec("seq2seq", {"neurons": 33})
    spec = ForecasterSpec("seq2seq", {"neurons": 33}, allow_custom=True)
    assert spec.params["neurons"] == 33


@pytest.mark.parametrize("cell", ["foo", 1])
def test_a_choice_stays_in_its_grid_even_with_allow_custom(cell):
    with pytest.raises(ValidationError, match=f"cell={cell!r} not in grid") as info:
        ForecasterSpec("ar_rnn", {"cell": cell}, allow_custom=True)
    assert "allow_custom" not in str(info.value)


def test_spec_merges_defaults():
    spec = ForecasterSpec("seq2seq")
    assert spec.params == {"decoder_layers": 2, "neurons": 80}
    spec = ForecasterSpec("ar_rnn", {"cell": "lstm"})
    assert spec.params == {"cell": "lstm", "nodes": 40, "dropout": 0.1}


# ------------------------------------------------------------------ init


def test_init_params_deterministic_per_seed():
    for family in NEURAL_FAMILIES:
        spec = ForecasterSpec(family, TINY_HYPERS[family])
        a = init_params(spec, WC, len(QS), 2, 3, seed=7)
        b = init_params(spec, WC, len(QS), 2, 3, seed=7)
        c = init_params(spec, WC, len(QS), 2, 3, seed=8)
        assert sorted(a) == sorted(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_params_shapes():
    k, h, n_cov, n_static = WC.k, WC.h, 2, 3
    p = init_params(ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"]), WC, len(QS), n_cov, n_static, 0)
    assert p["enc.W"].shape == (n_static + k + k * n_cov, 20)
    assert p["head.W"].shape == (20, h * len(QS))
    p = init_params(ForecasterSpec("ar_rnn", TINY_HYPERS["ar_rnn"]), WC, len(QS), n_cov, n_static, 0)
    assert p["cell.W_rz"].shape == (1 + n_static, 80)
    assert p["head.W_mu"].shape == (40, 1)
    p = init_params(ForecasterSpec("attn_seq2seq", TINY_HYPERS["attn_seq2seq"]), WC, len(QS), n_cov, n_static, 0)
    assert p["pos.E"].shape == (h, 40)
    assert p["enc.W_rz"].shape == (1 + n_cov, 80)
    assert init_params(ForecasterSpec("persistence"), WC, len(QS), n_cov, n_static, 0) == {}


def test_attn_state_must_divide_by_heads():
    spec = ForecasterSpec("attn_seq2seq", {"state": 40, "heads": 3}, allow_custom=True)
    with pytest.raises(ValidationError, match="divisible"):
        init_params(spec, WC, len(QS), 2, 3, seed=0)


# ------------------------------------------------------------------ forwards


def test_zero_params_forecast_the_denorm_mean():
    rng = np.random.default_rng(0)
    samples = batch_of(rng, 4)
    for family in ("seq2seq", "convseq2seq", "attn_seq2seq"):
        model = tiny_model(family, zero=True, scale=(3.0, 2.0))
        preds = predict_quantiles_batch(model, samples)
        assert preds.shape == (4, WC.h, len(QS))
        assert np.all(preds == 3.0), family


def test_ar_rnn_zero_params_head_values():
    rng = np.random.default_rng(1)
    model = tiny_model("ar_rnn", zero=True)
    batch = stack_windows(batch_of(rng, 3))
    p = {k: Tensor(v) for k, v in model.params.items()}
    mu, sigma = forward_gaussian(model.spec, p, batch, WC.h)
    assert mu.shape == (3, WC.h) and sigma.shape == (3, WC.h)
    assert np.all(mu.data == 0.0)
    assert np.allclose(sigma.data, math.log(2.0) + 1e-6, rtol=0, atol=1e-15)


def test_lstm_cell_shapes():
    rng = np.random.default_rng(2)
    model = tiny_model("ar_rnn", cell="lstm")
    batch = stack_windows(batch_of(rng, 3))
    p = {k: Tensor(v) for k, v in model.params.items()}
    mu, sigma = forward_gaussian(model.spec, p, batch, WC.h)
    assert mu.shape == (3, WC.h)
    assert np.all(sigma.data > 0)
    paths = sample_paths(model.spec, model.params, batch, WC.h, n_paths=5, mc_seed=0)
    assert paths.shape == (3, 5, WC.h)
    assert np.all(np.isfinite(paths))


@pytest.mark.parametrize("family", ["seq2seq", "convseq2seq", "attn_seq2seq"])
def test_array_forward_equals_tape_forward(family):
    rng = np.random.default_rng(13)
    model = tiny_model(family)
    batch = stack_windows(batch_of(rng, 4))
    p = {k: Tensor(v) for k, v in model.params.items()}
    tape = forward_quantiles(model.spec, p, batch, WC.h, len(QS))
    plain = forward_quantiles(model.spec, model.params, batch, WC.h, len(QS))
    assert isinstance(plain, np.ndarray)
    assert np.array_equal(plain, tape.data)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_array_gaussian_forward_equals_tape_forward(cell):
    rng = np.random.default_rng(14)
    model = tiny_model("ar_rnn", cell=cell)
    batch = stack_windows(batch_of(rng, 4))
    p = {k: Tensor(v) for k, v in model.params.items()}
    tape = forward_gaussian(model.spec, p, batch, WC.h)
    plain = forward_gaussian(model.spec, model.params, batch, WC.h)
    for got, want in zip(plain, tape):
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want.data)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_sample_paths_first_lead_is_the_gaussian_head_draw(cell):
    rng = np.random.default_rng(15)
    model = tiny_model("ar_rnn", cell=cell)
    batch = stack_windows(make_noise_windows(rng, WC, 3, origin_t=(3, 8, 3)))
    mu, sigma = forward_gaussian(model.spec, model.params, batch, WC.h)
    for n_paths in (1, 7):
        paths = sample_paths(model.spec, model.params, batch, WC.h, n_paths, mc_seed=4)
        # each window draws (h, n_paths) normals, lead by lead, from its own origin's generator
        z = np.array([
            np.random.default_rng(derived_seed(4, t)).standard_normal((WC.h, n_paths))[0]
            for t in (3, 8, 3)
        ])
        want = mu[:, :1] + sigma[:, :1] * z
        if n_paths == 1:
            assert np.array_equal(paths[:, :, 0], want)
        else:  # BLAS may round the head's product over 21 rows apart from over 3
            assert np.allclose(paths[:, :, 0], want, rtol=0, atol=1e-12)


def test_persistence_repeats_last_value_on_original_scale():
    rng = np.random.default_rng(3)
    sample = make_noise_windows(rng, WC)
    model = tiny_model("persistence", n_cov=2, n_static=3, scale=(1.5, 0.5))
    fc = predict_quantiles_batch(model, sample)[0]
    want = sample.past_target[0, -1] * 0.5 + 1.5
    assert fc.shape == (WC.h, len(QS))
    assert np.allclose(fc, want, rtol=0, atol=1e-15)


def test_ar_rnn_prediction_requires_mc_seed():
    rng = np.random.default_rng(4)
    model = tiny_model("ar_rnn")
    with pytest.raises(ValidationError, match="mc_seed"):
        predict_quantiles_batch(model, make_noise_windows(rng, WC))[0]
    with pytest.raises(ValidationError, match="n_paths"):
        predict_quantiles_batch(model, make_noise_windows(rng, WC), mc_seed=0, n_paths=0)[0]


def test_mc_quantiles_of_forced_standard_normal_head():
    # all-zero parameters except b_sigma = ln(e-1): softplus gives sigma = 1,
    # mu = 0, and the state feedback is dead, so every step is an iid N(0,1)
    # draw and the empirical quantiles must approach the normal ones
    rng = np.random.default_rng(5)
    grid = QuantileGrid((0.025, 0.5, 0.975))
    model = tiny_model("ar_rnn", qs=grid, zero=True)
    model.params["head.b_sigma"] = np.array([math.log(math.e - 1.0)])
    sample = make_noise_windows(rng, WC)
    preds = predict_quantiles_batch(model, sample, mc_seed=11, n_paths=100_000)
    assert np.all(np.abs(preds[0, :, 1]) < 0.05)
    assert np.all(np.abs(preds[0, :, 2] - 1.959964) < 0.1)
    assert np.all(np.abs(preds[0, :, 0] + 1.959964) < 0.1)


def test_mc_seed_controls_sampling():
    rng = np.random.default_rng(6)
    model = tiny_model("ar_rnn")
    samples = batch_of(rng, 2)
    a = predict_quantiles_batch(model, samples, mc_seed=1, n_paths=50)
    b = predict_quantiles_batch(model, samples, mc_seed=1, n_paths=50)
    c = predict_quantiles_batch(model, samples, mc_seed=2, n_paths=50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_ar_rnn_forecast_of_a_window_is_the_same_in_any_batch_order_or_chunk(monkeypatch):
    ep = make_episode(np.random.default_rng(16), t_len=30)
    windows = make_windows(ep, (0, ep.length), WC, identity_norm(), target="m")
    model = tiny_model("ar_rnn")
    whole = predict_quantiles_batch(model, windows, mc_seed=3, n_paths=20)
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 20)  # one window's rows per chunk
    apart = predict_quantiles_batch(model, windows[::-1], mc_seed=3, n_paths=20)[::-1]
    # BLAS may round a product over 20 rows apart from one over the whole batch
    np.testing.assert_allclose(apart, whole, rtol=0, atol=1e-12)
    assert np.array_equal(violation_sign(apart, axis=1), violation_sign(whole, axis=1))


def _ragged_windows(seed=17, per_chunk=3):
    """35 windows: with per_chunk windows a chunk, the last chunk is short."""
    ep = make_episode(np.random.default_rng(seed), t_len=40)
    windows = make_windows(ep, (0, ep.length), WC, identity_norm(), target="m")
    assert len(windows) % per_chunk
    return windows


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_ar_rnn_forecasts_are_bit_identical_for_any_worker_count(cell, monkeypatch):
    windows = _ragged_windows()
    model = tiny_model("ar_rnn", cell=cell)
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 60)  # 3 windows of 20 paths a chunk
    got = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches, more chances for chunks to collide
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(forecasters, "_WORKERS", workers)
            got[workers] = predict_quantiles_batch(model, windows, mc_seed=3, n_paths=20)
            paths = sample_paths(model.spec, model.params, windows.columns(), WC.h, 20, 3)
            # chunk boundaries stay put: each chunk's rows are that chunk decoded alone
            for i in range(0, len(windows), 3):
                chunk = windows[i : i + 3].columns()
                alone = sample_paths(model.spec, model.params, chunk, WC.h, 20, 3)
                assert np.array_equal(paths[i : i + 3], alone)
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(got[1], got[2]) and np.array_equal(got[1], got[3])


def test_each_ar_rnn_prediction_is_one_sample_paths_call(monkeypatch):
    # benchmarks/tracing.py times ar_rnn's decoding by wrapping this name, from
    # one thread: the chunks' workers must not call it
    decode, calls = forecasters.sample_paths, []

    def counting(spec, params, batch, *args):
        calls.append(len(batch["origin_t"]))
        return decode(spec, params, batch, *args)

    monkeypatch.setattr(forecasters, "sample_paths", counting)
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 20)  # one window a chunk
    monkeypatch.setattr(forecasters, "_WORKERS", 2)
    windows = _ragged_windows()
    predict_quantiles_batch(tiny_model("ar_rnn"), windows, mc_seed=3, n_paths=20)
    assert calls == [len(windows)]


@pytest.mark.parametrize("cell", ["gru", "lstm"])
def test_ar_rnn_warms_up_and_draws_once_and_only_decodes_in_chunks(cell, monkeypatch):
    windows = _ragged_windows()
    model = tiny_model("ar_rnn", cell=cell)
    calls = {"warmup": [], "draw": [], "decode": []}  # (thread, rows or seed) per call

    def counting(kind, fn, rows):
        def wrapper(*args):
            calls[kind].append((threading.get_ident(), rows(*args)))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(forecasters, "_ar_warmup", counting(
        "warmup", forecasters._ar_warmup, lambda spec, p, static, past: len(past)
    ))
    monkeypatch.setattr(np.random, "default_rng", counting(
        "draw", np.random.default_rng, lambda seed: seed
    ))
    monkeypatch.setattr(forecasters, "_decode_chunk", counting(
        "decode", forecasters._decode_chunk, lambda spec, p, chunk, out: len(out)
    ))
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 60)  # 3 windows of 20 paths a chunk
    monkeypatch.setattr(forecasters, "_WORKERS", 2)
    sample_paths(model.spec, model.params, windows.columns(), WC.h, 20, mc_seed=3)
    caller = threading.get_ident()
    assert calls["warmup"] == [(caller, len(windows))]
    assert calls["draw"] == [(caller, derived_seed(3, t)) for t in windows.origin_t.tolist()]
    assert sorted(rows for _, rows in calls["decode"]) == [2] + [3] * (len(windows) // 3)
    assert all(thread != caller for thread, _ in calls["decode"])


@pytest.mark.parametrize("n_paths, mc_seed, match", [
    (0, 3, "n_paths must be an int >= 1, got 0"),
    (-5, 3, "n_paths must be an int >= 1, got -5"),
    (20, None, "ar_rnn prediction mc_seed must be an int >= 0, got None"),
], ids=["no_paths", "negative_paths", "no_seed"])
def test_sample_paths_checks_its_own_settings(n_paths, mc_seed, match):
    model = tiny_model("ar_rnn")
    batch = _ragged_windows().columns()
    with pytest.raises(ValidationError, match=match):
        sample_paths(model.spec, model.params, batch, WC.h, n_paths, mc_seed)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_callers_errstate_holds_in_every_chunk(workers, monkeypatch):
    # sigma = softplus(1e308) = 1e308, so mu + sigma * z overflows for |z| > 1.8
    model = tiny_model("ar_rnn")
    model.params["head.b_sigma"] = np.array([1e308])
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 60)
    monkeypatch.setattr(forecasters, "_WORKERS", workers)
    batch = _ragged_windows().columns()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        sample_paths(model.spec, model.params, batch, WC.h, 20, mc_seed=3)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("blas_threads", [None, 1, 2])
def test_the_pool_takes_the_cpus_blas_leaves_free(blas_threads):
    # _WORKERS is set at import, so each setting gets its own interpreter
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    if blas_threads is not None:
        env.update(dict.fromkeys(blas_vars, str(blas_threads)))
    env["PYTHONPATH"] = str(Path(forecasters.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "from forewarn import forecasters; print(forecasters._WORKERS)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    cpus = len(os.sched_getaffinity(0))
    # unset, BLAS runs a thread per CPU itself
    assert int(proc.stdout) == (1 if blas_threads is None else max(1, cpus // blas_threads))


def test_attn_seq2seq_forecasts_are_bit_identical_for_any_worker_count(monkeypatch):
    windows = _ragged_windows(per_chunk=4)
    model = tiny_model("attn_seq2seq")
    monkeypatch.setattr(forecasters, "_ATTN_CHUNK_ROWS", 4)  # 35 windows: 9 chunks of 4, 8 + 3
    batch = windows.columns()
    got = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches, more chances for chunks to collide
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(forecasters, "_WORKERS", workers)
            got[workers] = predict_quantiles_batch(model, windows)
            chunked = forward_quantiles(
                model.spec, model.params, batch, WC.h, len(QS), on_cores=True
            )
            # chunk boundaries stay put: each chunk's rows are that chunk predicted alone
            for i in range(0, len(windows), 4):
                chunk = windows[i : i + 4].columns()
                alone = forward_quantiles(model.spec, model.params, chunk, WC.h, len(QS))
                assert np.array_equal(chunked[i : i + 4], alone)
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(got[1], got[2]) and np.array_equal(got[1], got[3])
    with pytest.raises(ValidationError, match="only prediction"):
        forward_quantiles(
            model.spec, model.params, batch, WC.h, len(QS),
            rng=np.random.default_rng(0), on_cores=True,
        )


def test_each_attn_seq2seq_prediction_is_one_forward_quantiles_call(monkeypatch):
    # benchmarks/tracing.py times the forward by wrapping this name, from one
    # thread: the chunks' workers must not call it
    forward, calls = forecasters.forward_quantiles, []

    def counting(spec, params, batch, *args, **kwargs):
        calls.append(len(batch["origin_t"]))
        return forward(spec, params, batch, *args, **kwargs)

    monkeypatch.setattr(forecasters, "forward_quantiles", counting)
    monkeypatch.setattr(forecasters, "_ATTN_CHUNK_ROWS", 1)  # one window a chunk
    monkeypatch.setattr(forecasters, "_WORKERS", 2)
    windows = _ragged_windows()
    predict_quantiles_batch(tiny_model("attn_seq2seq"), windows)
    assert calls == [len(windows)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["persistence", "seq2seq"])
def test_a_forecast_that_overflows_denormalized_is_only_a_named_error(family):
    # the normalized forecast is about 1e308 and the std 2: only the named
    # error may come out, no numpy RuntimeWarning before it
    model = tiny_model(family, scale=(0.0, 2.0))
    sample = make_noise_windows(np.random.default_rng(18), WC)
    if family == "seq2seq":
        model.params["head.b"][:] = 1e308
    else:
        sample = dataclasses.replace(sample, past_target=np.full((1, WC.k), 1e308))
    with pytest.raises(ValidationError, match="non-finite"):
        predict_quantiles_batch(model, sample)


def test_dropout_runs_only_with_an_rng():
    rng = np.random.default_rng(7)
    model = tiny_model("attn_seq2seq", dropout=0.3)
    batch = stack_windows(batch_of(rng, 3))
    p = {k: Tensor(v) for k, v in model.params.items()}
    eval_a = forward_quantiles(model.spec, p, batch, WC.h, len(QS))
    eval_b = forward_quantiles(model.spec, p, batch, WC.h, len(QS))
    assert np.array_equal(eval_a.data, eval_b.data)
    tr_a = forward_quantiles(model.spec, p, batch, WC.h, len(QS), rng=np.random.default_rng(0))
    tr_b = forward_quantiles(model.spec, p, batch, WC.h, len(QS), rng=np.random.default_rng(1))
    assert not np.array_equal(tr_a.data, tr_b.data)


def test_batch_prediction_matches_single_calls():
    rng = np.random.default_rng(8)
    samples = batch_of(rng, 3)
    for family in ("persistence", "seq2seq", "convseq2seq", "attn_seq2seq"):
        model = tiny_model(family, scale=(0.7, 1.3))
        batched = predict_quantiles_batch(model, samples)
        for i in range(len(samples)):
            single = predict_quantiles_batch(model, samples[i : i + 1])[0]
            assert np.allclose(batched[i], single, rtol=0, atol=1e-12), family


def test_forecast_rows_are_non_crossing():
    rng = np.random.default_rng(9)
    for family in ("seq2seq", "convseq2seq", "attn_seq2seq", "ar_rnn"):
        model = tiny_model(family)
        preds = predict_quantiles_batch(model, batch_of(rng, 5), mc_seed=3, n_paths=40)
        assert np.all(np.diff(preds, axis=2) >= 0), family


# two kernel-3 causal layers with dilations 1 and 2: the last output step sees
# the last 1 + 2*1 + 2*2 lookback steps, positions k-7 .. k-1
RECEPTIVE_FIELD = 7


def test_conv_receptive_field_is_causal_and_bounded():
    # with k=9 the two earliest positions must not influence the forecast,
    # while the oldest position inside the field and the newest must
    wc = WindowConfig(h=3, cm=3)
    rng = np.random.default_rng(10)
    model = tiny_model("convseq2seq", wc=wc, qs=QS)
    base = make_noise_windows(rng, wc)

    def perturbed(idx):
        past = base.past_target.copy()
        past[0, idx] += 10.0
        return dataclasses.replace(base, past_target=past)

    ref = predict_quantiles_batch(model, base)
    assert np.array_equal(predict_quantiles_batch(model, perturbed(0)), ref)
    assert np.array_equal(predict_quantiles_batch(model, perturbed(1)), ref)
    assert not np.array_equal(
        predict_quantiles_batch(model, perturbed(wc.k - RECEPTIVE_FIELD)), ref
    )
    assert not np.array_equal(predict_quantiles_batch(model, perturbed(wc.k - 1)), ref)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    h=st.integers(1, 4),
    cm=st.integers(1, 8),
    fill=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=1, cm=1, fill=[1e300], seed=0)
@example(h=1, cm=7, fill=[-3.0], seed=1)
@example(h=1, cm=8, fill=[1e300, -1e300], seed=2)
def test_convseq2seq_reads_only_its_receptive_field_property(h, cm, fill, seed):
    wc = WindowConfig(h=h, cm=cm)
    model = tiny_model("convseq2seq", wc=wc, seed=seed)
    spec, params = model.spec, model.params
    tensors = {name: Tensor(v) for name, v in params.items()}
    batch = stack_windows(batch_of(np.random.default_rng(seed), 3, wc=wc))
    # the lookback steps older than the field, overwritten with arbitrary finite values
    old = max(wc.k - RECEPTIVE_FIELD, 0)
    junk = dict(batch, past_target=batch["past_target"].copy(), past_cov=batch["past_cov"].copy())
    values = np.resize(np.array(fill), (3, old, 1 + batch["past_cov"].shape[2]))
    junk["past_target"][:, :old] = values[..., 0]
    junk["past_cov"][:, :old] = values[..., 1:]

    plain = forward_quantiles(spec, params, batch, h, len(QS))
    assert np.array_equal(forward_quantiles(spec, params, junk, h, len(QS)), plain)
    tape = forward_quantiles(spec, tensors, batch, h, len(QS)).data
    assert np.array_equal(forward_quantiles(spec, tensors, junk, h, len(QS)).data, tape)
    loss, grads = loss_and_grads(spec, params, batch, QS)
    junk_loss, junk_grads = loss_and_grads(spec, params, junk, QS)
    assert junk_loss == loss
    assert sorted(junk_grads) == sorted(grads) == sorted(params)
    for name, g in grads.items():
        assert np.array_equal(junk_grads[name], g), name

    # the full-length stack: the same bits while the crop is the whole lookback
    want = _oracles.convseq2seq_forward(spec, params, batch, h, len(QS))
    if wc.k <= RECEPTIVE_FIELD:
        assert np.array_equal(plain, want)
    else:
        np.testing.assert_allclose(plain, want, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    h=st.integers(1, 4),
    cm=st.integers(1, 8),
    bsz=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(h=1, cm=1, bsz=1, seed=0)  # k = 1: the full-length stack's products have one row
@example(h=2, cm=1, bsz=2, seed=1)  # k = 2: one tap of conv1, over two conv0 rows
@example(h=1, cm=4, bsz=3, seed=2)  # k = 4: conv0 at k-5 would be relu(b), not padding
@example(h=1, cm=7, bsz=1, seed=3)  # k = 7: the field is the whole lookback
@example(h=4, cm=8, bsz=1, seed=4)  # k = 32
def test_convseq2seq_is_the_full_length_stack_to_the_bit_property(h, cm, bsz, seed):
    # the forward runs the causal layers only at the steps the decoder reads;
    # forecast, loss and gradients are still the full-length stack's, bit for
    # bit, on the tape and off it, at any lookback and for any batch size
    wc = WindowConfig(h=h, cm=cm)
    spec = ForecasterSpec("convseq2seq", TINY_HYPERS["convseq2seq"])
    rng = np.random.default_rng(seed)
    # random biases too: relu(b) in place of conv1's zero padding would show
    params = {
        name: v + rng.normal(0.0, 0.5, v.shape)
        for name, v in init_params(spec, wc, len(QS), 2, 3, seed).items()
    }
    batch = stack_windows(batch_of(rng, bsz, wc=wc))
    tensors = {name: Tensor(v) for name, v in params.items()}

    want = _oracles.convseq2seq_forward(spec, params, batch, h, len(QS))
    assert np.array_equal(forward_quantiles(spec, params, batch, h, len(QS)), want)
    assert np.array_equal(forward_quantiles(spec, tensors, batch, h, len(QS)).data, want)

    pred = _oracles.convseq2seq_forward(spec, tensors, batch, h, len(QS))
    want_loss = pinball_mean(pred, batch["future_target"], np.array(QS.qs))
    want_loss.backward()
    loss, grads = loss_and_grads(spec, params, batch, QS)
    assert loss == want_loss.item()
    assert sorted(grads) == sorted(params)
    for name, g in grads.items():
        assert np.array_equal(g, tensors[name].grad), name


def test_no_windows_are_refused_by_check_windows():
    empty = batch_of(np.random.default_rng(13), 3)[:0]
    with pytest.raises(ValidationError, match="^val windows: empty window batch$"):
        tiny_model("seq2seq").check_windows(empty, "val windows: ")
    odd = make_noise_windows(np.random.default_rng(13), n=2, wc=WindowConfig(h=4, cm=1))[:0]
    with pytest.raises(ValidationError, match="^empty window batch$"):
        tiny_model("seq2seq").check_windows(odd)


# windows cut unlike a WC model's, by what differs, and the refusal they earn
ODD_WINDOWS = {
    "lookback": ({"wc": WindowConfig(h=2, cm=3)}, "windows have lookback 6, model expects 4"),
    "horizon": ({"wc": WindowConfig(h=4, cm=1)}, "windows have horizon 4, model expects 2"),
    "channels": ({"n_cov": 5}, "windows have covariate channels 5, model expects 2"),
    "scenario-dims": (
        {"n_static": 2}, "scenario dims ('s0', 's1') do not match model ('s0', 's1', 's2')"
    ),
}


@pytest.mark.parametrize("call", [*NEURAL_FAMILIES, "predict_quantiles_batch"])
@pytest.mark.parametrize("what", list(ODD_WINDOWS))
def test_windows_cut_unlike_the_model_are_refused_by_name(what, call):
    # fit checks its val windows against the model its train windows build,
    # before an epoch is scored on them; prediction checks its windows likewise
    from forewarn.training import TrainConfig, fit

    odd, refusal = ODD_WINDOWS[what]
    rng = np.random.default_rng(11)
    windows = make_noise_windows(rng, n=2, **{"wc": WC, **odd})
    if call == "predict_quantiles_batch":
        with pytest.raises(ValidationError, match=f"^{re.escape(refusal)}$"):
            predict_quantiles_batch(tiny_model("seq2seq"), windows)
    else:
        spec = ForecasterSpec(call, TINY_HYPERS[call])
        with pytest.raises(ValidationError, match=f"^val windows: {re.escape(refusal)}$"):
            fit(spec, batch_of(rng, 4), windows, TrainConfig(epochs=1), grid=QS, **FIT_KW)


@pytest.mark.parametrize(
    "odd", [odd for odd, _ in ODD_WINDOWS.values()], ids=list(ODD_WINDOWS)
)
def test_windows_of_different_shapes_cannot_share_a_batch(odd):
    from forewarn.training import TrainConfig, fit

    rng = np.random.default_rng(12)
    batch, other = batch_of(rng, 3), make_noise_windows(rng, **{"wc": WC, **odd})
    mixed = [*batch, *other]
    with pytest.raises(ValidationError, match="windows index different batches"):
        fit(ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"]), mixed, batch_of(rng, 2),
            TrainConfig(epochs=1), **FIT_KW)
    # a batch's columns agree on N and k, so it cannot hold such a window either
    with pytest.raises(ValidationError, match="disagree"):
        dataclasses.replace(batch, past_cov=np.zeros((3, WC.k + 1, 2)))
    assert np.array_equal(as_batch(list(batch[::-1])).past_cov, batch.past_cov[::-1])


# ------------------------------------------------------------------ checkpoints


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    for family in FAMILIES:
        model = tiny_model(family, seed=21)
        path = tmp_path / f"{family}.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == model.spec
        assert loaded.wc == model.wc
        assert loaded.grid == model.grid
        assert loaded.target == model.target
        assert loaded.lc_names == model.lc_names
        assert loaded.scenario_dims == model.scenario_dims
        assert loaded.norm.channels == model.norm.channels
        assert loaded.training_log == model.training_log
        assert sorted(loaded.params) == sorted(model.params)
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
        if family != "persistence":
            samples = batch_of(rng, 2)
            a = predict_quantiles_batch(model, samples, mc_seed=5)
            b = predict_quantiles_batch(loaded, samples, mc_seed=5)
            assert np.array_equal(a, b)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    model = tiny_model("attn_seq2seq", seed=33)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_corruption_is_detected(tmp_path):
    model = tiny_model("seq2seq", seed=44)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"NOPE9\n" + blob[6:])
    with pytest.raises(ValidationError, match="magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "short.ckpt"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ValidationError, match="truncated"):
        load_checkpoint(truncated)

    trailing = tmp_path / "long.ckpt"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(ValidationError, match="trailing"):
        load_checkpoint(trailing)


def test_parameter_count_and_bytes():
    model = tiny_model("seq2seq")
    count = sum(v.size for v in model.params.values())
    assert model.parameter_count == count
    assert model.parameter_bytes == 8 * count
    assert tiny_model("persistence").parameter_count == 0
