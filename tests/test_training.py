"""Losses, optimizer steps, the fit loop, and grid tuning."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import gaussian_nll, gru_step, pinball_loss
from _synth import FIT_KW, make_learnable_windows, make_noise_windows, window_batch
from forewarn import forecasters, training
from forewarn.autodiff import Tensor
from forewarn.core import QuantileGrid, ValidationError, WindowBatch, WindowConfig
from forewarn.data import NormStats
from forewarn.evaluation import TuneResult, grid_tune
from forewarn.forecasters import ForecasterSpec, init_params, stack_windows
from forewarn.training import (
    TrainConfig,
    TrainingDivergedError,
    _eval_loss,
    adam_step,
    clip_global_norm,
    fit,
    init_adam_state,
    loss_and_grads,
)

WC = WindowConfig(h=2, cm=2)
QS = QuantileGrid((0.2, 0.5, 0.8))

TINY_HYPERS = {
    "seq2seq": {"decoder_layers": 1, "neurons": 20},
    "convseq2seq": {"decoder_layers": 1, "neurons": 20, "channels": 20},
    "ar_rnn": {"cell": "gru", "nodes": 40, "dropout": 0.1},
    "attn_seq2seq": {"state": 40, "heads": 4, "dropout": 0.1},
}


def tiny_batch(rng, n=3, wc=WC):
    return stack_windows(make_noise_windows(rng, wc, n))


# ------------------------------------------------------------------ config


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(epochs=0)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValidationError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(patience=-1)


# ------------------------------------------------------------------ losses


def test_pinball_hand_values():
    assert abs(pinball_loss(1.0, 0.0, 0.9) - 0.9) < 1e-15
    assert abs(pinball_loss(0.0, 1.0, 0.9) - 0.1) < 1e-15
    assert abs(pinball_loss(0.0, 1.0, 0.1) - 0.9) < 1e-15
    assert pinball_loss(5.0, 5.0, 0.3) == 0.0
    assert abs(pinball_loss(2.0, -1.0, 0.25) - 0.75) < 1e-15
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            pinball_loss(1.0, 0.0, bad)


def test_gaussian_nll_hand_values():
    # -log pdf of N(0,1) at 0 is 0.5*log(2*pi)
    assert abs(gaussian_nll(0.0, 0.0, 1.0) - 0.9189385332046727) < 1e-15
    assert abs((gaussian_nll(1.0, 0.0, 1.0) - gaussian_nll(0.0, 0.0, 1.0)) - 0.5) < 1e-15
    assert abs(gaussian_nll(3.0, 1.0, 2.0) - (0.9189385332046727 + math.log(2.0) + 0.5)) < 1e-12
    with pytest.raises(ValidationError):
        gaussian_nll(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        gaussian_nll(0.0, 0.0, -1.0)
    # tiny-but-positive sigma is floored at 1e-6 instead of overflowing
    assert abs(gaussian_nll(0.0, 0.0, 1e-12) - (0.9189385332046727 + math.log(1e-6))) < 1e-10


def test_batch_pinball_matches_pointwise():
    rng = np.random.default_rng(0)
    spec = ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"])
    params = init_params(spec, WC, len(QS), 2, 3, seed=0)
    params = {k: np.zeros_like(v) for k, v in params.items()}
    batch = tiny_batch(rng, n=4)
    loss, grads = loss_and_grads(spec, params, batch, QS, train=False, compute_grads=False)
    assert grads == {}
    y = batch["future_target"]
    want = np.mean(
        [pinball_loss(y[i, t], 0.0, q) for i in range(4) for t in range(WC.h) for q in QS.qs]
    )
    assert abs(loss - want) < 1e-12


def test_batch_nll_matches_pointwise():
    rng = np.random.default_rng(1)
    spec = ForecasterSpec("ar_rnn", TINY_HYPERS["ar_rnn"])
    params = init_params(spec, WC, len(QS), 2, 3, seed=0)
    params = {k: np.zeros_like(v) for k, v in params.items()}
    batch = tiny_batch(rng, n=4)
    loss, _ = loss_and_grads(spec, params, batch, QS, train=False, compute_grads=False)
    sigma = math.log(2.0) + 1e-6
    y = batch["future_target"]
    want = np.mean([gaussian_nll(y[i, t], 0.0, sigma) for i in range(4) for t in range(WC.h)])
    assert abs(loss - want) < 1e-12


# ------------------------------------------------------------------ optimizer


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    assert clip_global_norm(grads, 1.0) == 5.0
    assert np.allclose(grads["a"], [0.6]) and np.allclose(grads["b"], [0.8])

    grads = {"g": np.array([10.0])}
    assert clip_global_norm(grads, 1.0) == 10.0
    assert np.allclose(grads["g"], [1.0])

    grads = {"g": np.array([0.5])}
    assert clip_global_norm(grads, 1.0) == 0.5
    assert grads["g"][0] == 0.5  # under the cap: untouched


def test_adam_first_step_hand_value():
    # bias correction makes the first step -lr * g/(|g|+eps) exactly
    params = {"w": np.array([0.0])}
    state = init_adam_state(params)
    adam_step(params, {"w": np.array([1.0])}, state, lr=1e-3)
    assert state["t"] == 1
    assert abs(params["w"][0] - (-1e-3 / (1.0 + 1e-8))) < 1e-18


def test_adam_matches_reference_iteration():
    rng = np.random.default_rng(2)
    w = rng.standard_normal(4)
    params = {"w": w.copy()}
    state = init_adam_state(params)
    ref_w = w.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    lr, b1, b2, eps = 2e-3, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = rng.standard_normal(4)
        adam_step(params, {"w": g.copy()}, state, lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref_w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.allclose(params["w"], ref_w, rtol=1e-14, atol=0)


# ------------------------------------------------------------------ gradients


def _gradcheck(spec, params, batch, grid, rng, coords_per_tensor=3, step=1e-4):
    loss, grads = loss_and_grads(spec, params, batch, grid, train=False)
    assert sorted(grads) == sorted(params)

    def f():
        return loss_and_grads(spec, params, batch, grid, train=False, compute_grads=False)[0]

    worst = 0.0
    worst_where = ""
    for name in sorted(params):
        arr = params[name]
        assert grads[name].shape == arr.shape
        assert np.all(np.isfinite(grads[name]))
        n_coords = min(coords_per_tensor, arr.size)
        for flat in rng.choice(arr.size, size=n_coords, replace=False):
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + step
            hi = f()
            arr[idx] = orig - step
            lo = f()
            arr[idx] = orig
            fd = (hi - lo) / (2.0 * step)
            ad = grads[name][idx]
            rel = abs(ad - fd) / max(1e-6, abs(ad), abs(fd))
            if rel > worst:
                worst, worst_where = rel, f"{name}{tuple(int(i) for i in idx)}"
    assert worst < 1e-3, f"gradient mismatch at {worst_where}: rel={worst:.3e}"


@pytest.mark.parametrize("family", sorted(TINY_HYPERS))
def test_gradients_match_central_differences(family):
    for seed in range(5):
        hyper = dict(TINY_HYPERS[family])
        if family == "ar_rnn":
            hyper["cell"] = "gru" if seed % 2 == 0 else "lstm"
        spec = ForecasterSpec(family, hyper)
        rng = np.random.default_rng((90, seed))
        params = init_params(spec, WC, len(QS), 2, 3, seed=seed)
        batch = tiny_batch(rng, n=3)
        _gradcheck(spec, params, batch, QS, rng)


@pytest.mark.parametrize("family", sorted(TINY_HYPERS) + ["ar_rnn/lstm"])
def test_validation_loss_on_arrays_equals_tape_loss(family, monkeypatch):
    family, _, cell = family.partition("/")
    hyper = dict(TINY_HYPERS[family], **({"cell": cell} if cell else {}))
    spec = ForecasterSpec(family, hyper)
    params = init_params(spec, WC, len(QS), 2, 3, seed=4)
    batch = tiny_batch(np.random.default_rng(11), n=9)
    tape_loss, _ = loss_and_grads(spec, params, batch, QS, train=False)
    made = []
    original_init = Tensor.__init__
    monkeypatch.setattr(
        Tensor, "__init__", lambda t, *a, **k: made.append(1) or original_init(t, *a, **k)
    )
    array_loss, grads = loss_and_grads(spec, params, batch, QS, train=False, compute_grads=False)
    assert grads == {} and made == []  # validation builds no tape
    assert array_loss == tape_loss  # the same bits
    assert _eval_loss(spec, params, batch, QS) == tape_loss * 9 / 9
    assert made == []


def _reachable(loss: Tensor) -> int:
    """Tensors on the tape behind loss, itself included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize(
    "family, count", [("seq2seq", 14), ("convseq2seq", 42), ("ar_rnn", 45), ("attn_seq2seq", 71)]
)
def test_a_fused_op_is_one_tape_node(family, count, monkeypatch):
    # a GRU step, a dense layer and a loss are one node each; composed of one
    # node per op, these were 34, 59, 276 and 263, and 34, 59, 64 and 89 with
    # only the GRU step fused
    wc = WindowConfig(h=3, cm=3)
    spec = ForecasterSpec(family)
    params = init_params(spec, wc, len(QS), 2, 3, seed=0)
    batch = tiny_batch(np.random.default_rng(5), n=4, wc=wc)
    counts = []
    monkeypatch.setattr(Tensor, "backward", lambda loss: counts.append(_reachable(loss)))
    loss_and_grads(spec, params, batch, QS, rng=np.random.default_rng(6))
    assert counts == [count]


# ------------------------------------------------------------------ fit


def make_split_windows(seed=0, n_train=60, n_val=20, wc=WC, noise=0.05):
    rng = np.random.default_rng(seed)
    return (
        make_learnable_windows(rng, n_train, wc, noise=noise),
        make_learnable_windows(rng, n_val, wc, noise=noise),
    )


def test_fit_is_deterministic_to_the_byte():
    train, val = make_split_windows()
    spec = ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"])
    cfg = TrainConfig(epochs=3, batch_size=16, seed=5)
    a = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    b = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        assert a.params[name].tobytes() == b.params[name].tobytes()
    assert a.training_log == b.training_log


def test_training_starts_no_thread(monkeypatch):
    # only batch prediction runs on the pool: validation stays one call, so
    # fit's memory peak does not grow by a malloc arena per thread
    def boom(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(forecasters, "ThreadPoolExecutor", boom)
    monkeypatch.setattr(forecasters, "_WORKERS", 2)
    monkeypatch.setattr(forecasters, "_ATTN_CHUNK_ROWS", 4)  # 20 val windows: 5 chunks
    monkeypatch.setattr(forecasters, "_CHUNK_ROWS", 1)  # one window a chunk
    train, val = make_split_windows(seed=5)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=3)
    for family in ("attn_seq2seq", "ar_rnn"):
        model = fit(ForecasterSpec(family, TINY_HYPERS[family]), train, val, cfg, grid=QS, **FIT_KW)
        with pytest.raises(AssertionError, match="thread pool"):  # prediction would start one
            forecasters.predict_quantiles_batch(model, val, mc_seed=0, n_paths=10)


@pytest.mark.parametrize("family", ["ar_rnn", "attn_seq2seq"])
def test_fit_with_the_fused_gru_matches_the_composed_oracle(family, monkeypatch):
    train, val = make_split_windows(seed=3)
    spec = ForecasterSpec(family, TINY_HYPERS[family])  # ar_rnn's cell is the gru
    cfg = TrainConfig(epochs=2, batch_size=16, seed=1)
    fused = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    monkeypatch.setattr(forecasters, "_gru_step", gru_step)
    composed = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    for name, want in composed.params.items():
        np.testing.assert_allclose(fused.params[name], want, rtol=1e-9, atol=0.0)
    for key in ("train_loss", "val_loss"):
        np.testing.assert_allclose(
            fused.training_log[key], composed.training_log[key], rtol=1e-9, atol=0.0
        )


@pytest.mark.parametrize("family", sorted(TINY_HYPERS))
def test_fit_with_the_fused_dense_and_losses_matches_the_composed_oracles(family, monkeypatch):
    train, val = make_split_windows(seed=4)
    spec = ForecasterSpec(family, TINY_HYPERS[family])
    cfg = TrainConfig(epochs=2, batch_size=16, seed=2)
    fused = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    monkeypatch.setattr(forecasters, "dense", _oracles.dense)
    monkeypatch.setattr(training, "pinball_mean", _oracles.pinball_mean)
    monkeypatch.setattr(training, "gaussian_nll_mean", _oracles.gaussian_nll_mean)
    composed = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    assert sorted(fused.params) == sorted(composed.params)
    for name, want in composed.params.items():
        assert fused.params[name].tobytes() == want.tobytes(), name
    assert fused.training_log == composed.training_log


def _per_parameter_adam_epochs(spec, train, cfg):
    """fit's training steps with one Adam state per parameter: the params after each epoch."""
    arrays = stack_windows(train)
    params = init_params(spec, WC, len(QS), 2, 3, seed=np.random.SeedSequence((cfg.seed, 1)))
    adam = init_adam_state(params)
    shuffle_rng = np.random.default_rng((cfg.seed, 2))
    dropout_rng = np.random.default_rng((cfg.seed, 3))
    n = arrays["future_target"].shape[0]
    epochs = []
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        for i in range(0, n, cfg.batch_size):
            sub = {k: v[perm[i : i + cfg.batch_size]] for k, v in arrays.items()}
            _, grads = loss_and_grads(spec, params, sub, QS, train=True, rng=dropout_rng)
            clip_global_norm(grads, cfg.clip_norm)
            adam_step(params, grads, adam, cfg.lr)
        epochs.append({k: v.copy() for k, v in params.items()})
    return epochs


@pytest.mark.parametrize("family, lr", [("seq2seq", 0.1), ("ar_rnn", 0.03)])
def test_flat_adam_in_fit_matches_per_parameter_adam(family, lr):
    train, val = make_split_windows(seed=6)
    spec = ForecasterSpec(family, TINY_HYPERS[family])
    cfg = TrainConfig(epochs=6, batch_size=16, lr=lr, clip_norm=0.5, patience=6, seed=3)
    model = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    log = model.training_log
    assert log["best_epoch"] < log["stopped_epoch"]  # so the best params are a saved copy
    want = _per_parameter_adam_epochs(spec, train, cfg)[log["best_epoch"] - 1]
    assert sorted(model.params) == sorted(want)
    for name, p in model.params.items():
        assert p.tobytes() == want[name].tobytes(), name
        assert p.base is None  # its own array, not a view into fit's flat buffer


@pytest.mark.parametrize("family", ["seq2seq", "ar_rnn"])
def test_fit_logs_gradient_norms_per_epoch(family):
    train, val = make_split_windows(seed=8)
    cfg = TrainConfig(epochs=4, batch_size=16, clip_norm=0.5, patience=1, seed=2)
    log = fit(
        ForecasterSpec(family, TINY_HYPERS[family]), train, val, cfg, grid=QS, **FIT_KW
    ).training_log
    for key in ("grad_norm_median", "grad_norm_max", "clip_fraction"):
        assert len(log[key]) == log["stopped_epoch"], key
    assert all(0.0 <= f <= 1.0 for f in log["clip_fraction"])
    assert all(hi >= med > 0.0 for hi, med in zip(log["grad_norm_max"], log["grad_norm_median"]))
    assert all((hi > cfg.clip_norm) == (f > 0.0)
               for hi, f in zip(log["grad_norm_max"], log["clip_fraction"]))


N_SELECT = 24


@st.composite
def _selections(draw):
    """A slice, an int array with repeats, or a boolean mask over N_SELECT windows."""
    kind = draw(st.sampled_from(["slice", "ints", "mask"]))
    if kind == "slice":
        ends = st.none() | st.integers(-N_SELECT - 2, N_SELECT + 2)
        step = draw(st.integers(1, 4)) * draw(st.sampled_from([1, -1]))
        return slice(draw(ends), draw(ends), step)
    if kind == "ints":
        return np.array(draw(st.lists(st.integers(0, N_SELECT - 1), min_size=1, max_size=40)))
    return np.array(draw(st.lists(st.booleans(), min_size=N_SELECT, max_size=N_SELECT)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(sel=_selections())
def test_selection_equals_the_rows_it_names_and_fits_as_its_handles(sel):
    train, val = make_split_windows(seed=8, n_train=N_SELECT, n_val=6)
    rows = np.arange(N_SELECT)[sel]
    assume(rows.size)
    got = train[sel]
    assert isinstance(got, WindowBatch) and got.scenarios is train.scenarios
    for name in (*WindowBatch.COLUMNS, "episode_ids", "origin_t"):
        column = getattr(got, name)
        assert len(column) == rows.size
        for j, i in enumerate(rows):
            assert np.array_equal(column[j], getattr(train, name)[i]), name
    spec = ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"])
    cfg = TrainConfig(epochs=1, batch_size=8, seed=4)
    want = fit(spec, got, val, cfg, grid=QS, **FIT_KW)
    for windows in (list(got), [train[i] for i in rows]):
        model = fit(spec, windows, val, cfg, grid=QS, **FIT_KW)
        assert model.training_log == want.training_log
        for name, p in want.params.items():
            assert model.params[name].tobytes() == p.tobytes(), name


def test_fit_restores_best_epoch_parameters():
    train, val = make_split_windows(seed=3)
    spec = ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"])
    cfg = TrainConfig(epochs=8, batch_size=16, lr=5e-3, seed=1)
    model = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    log = model.training_log
    assert log["best_val_loss"] == min(log["val_loss"])
    assert log["val_loss"][log["best_epoch"] - 1] == log["best_val_loss"]
    recomputed, _ = loss_and_grads(
        model.spec, model.params, stack_windows(val), QS, train=False, compute_grads=False
    )
    assert abs(recomputed - log["best_val_loss"]) < 1e-12


def test_fit_learns_a_learnable_task():
    train, val = make_split_windows(seed=4, n_train=200, n_val=60)
    spec = ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"])
    cfg = TrainConfig(epochs=25, batch_size=32, lr=1e-2, patience=25, seed=2)
    model = fit(spec, train, val, cfg, grid=QS, **FIT_KW)
    log = model.training_log
    assert log["best_val_loss"] < 0.6 * log["val_loss"][0]


def test_fit_early_stopping_invariants():
    train, val = make_split_windows(seed=5)
    spec = ForecasterSpec("seq2seq", TINY_HYPERS["seq2seq"])
    cfg = TrainConfig(epochs=40, batch_size=16, lr=1e-2, patience=3, seed=3)
    log = fit(spec, train, val, cfg, grid=QS, **FIT_KW).training_log
    stopped = log["stopped_epoch"]
    assert stopped <= cfg.epochs
    assert len(log["val_loss"]) == stopped and len(log["train_loss"]) == stopped
    assert 1 <= log["best_epoch"] <= stopped
    if stopped < cfg.epochs:
        assert stopped - log["best_epoch"] >= cfg.patience


def test_fit_persistence_is_a_no_op():
    train, val = make_split_windows(seed=6, n_train=8, n_val=4)
    model = fit(ForecasterSpec("persistence"), train, val, TrainConfig(epochs=1), grid=QS, **FIT_KW)
    assert model.params == {}
    assert "persistence" in model.training_log["note"]


def test_fit_rejects_empty_or_malformed_windows():
    train, val = make_split_windows(seed=7, n_train=4, n_val=2)
    with pytest.raises(ValidationError, match="non-empty"):
        fit(ForecasterSpec("persistence"), [], val, TrainConfig(), **FIT_KW)
    rng = np.random.default_rng(0)
    bad = window_batch(
        train.static[:1], rng.standard_normal((1, 3)), rng.standard_normal((1, 3, 2)),
        rng.standard_normal((1, 2)), origin_t=2,
    )  # k=3 is not a multiple of h=2
    with pytest.raises(ValidationError, match="do not fit"):
        fit(ForecasterSpec("persistence"), bad, val, TrainConfig(), **FIT_KW)


@pytest.mark.parametrize("family", ["persistence", "seq2seq", "ar_rnn"])
def test_fit_rejects_lc_names_of_another_width(family):
    # the windows carry 2 covariate channels; a model named for 1 could not
    # forecast them, nor load from its own checkpoint
    train, val = make_split_windows(seed=7, n_train=4, n_val=2)
    spec = ForecasterSpec(family, TINY_HYPERS.get(family, {}))
    with pytest.raises(ValidationError, match="1 covariate channels, the windows have 2"):
        fit(spec, train, val, TrainConfig(epochs=1), grid=QS, **{**FIT_KW, "lc_names": ("speed",)})


@pytest.mark.parametrize("family", ["persistence", "seq2seq"])
def test_fit_refuses_a_norm_without_stats_for_every_channel(family):
    # such a model would save a checkpoint that neither loads nor monitors
    train, val = make_split_windows(seed=7, n_train=4, n_val=2)
    spec = ForecasterSpec(family, TINY_HYPERS.get(family, {}))
    target_only = {**FIT_KW, "norm": NormStats({"m": (0.0, 1.0)})}
    with pytest.raises(ValidationError, match=r"no stats for channels \['c0', 'c1'\]"):
        fit(spec, train, val, TrainConfig(epochs=1), grid=QS, **target_only)


def test_training_divergence_raises_and_names_the_epoch():
    train, val = make_split_windows(seed=8, n_train=24, n_val=8)
    spec = ForecasterSpec("seq2seq", {"decoder_layers": 4, "neurons": 20})
    cfg = TrainConfig(epochs=10, batch_size=16, lr=1e3, seed=4)
    with pytest.raises(TrainingDivergedError, match=r"epoch \d+"):
        fit(spec, train, val, cfg, grid=QS, **FIT_KW)


# ------------------------------------------------------------------ tuning


def test_grid_tune_rows_and_divergence_ranking():
    train, val = make_split_windows(seed=9, n_train=20, n_val=10)
    base = TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=0)
    result = grid_tune(
        "seq2seq",
        {"neurons": (20,), "lr": (1e-2, 1e3)},
        train,
        val,
        base,
        repetitions=2,
        grid=QS,
        **FIT_KW,
    )
    assert isinstance(result, TuneResult)
    assert len(result.rows) == 2 * 2  # two configs x two repetitions
    assert result.best_cfg.lr == 1e-2
    assert result.best_spec.params["neurons"] == 20
    diverged = [r for r in result.rows if r["lr"] == 1e3]
    assert diverged and all(r["diverged"] and r["val_qrisk_sum"] == math.inf for r in diverged)
    stable = [r for r in result.rows if r["lr"] == 1e-2]
    assert all(not r["diverged"] and math.isfinite(r["val_qrisk_sum"]) for r in stable)
    assert all(len(r["per_q"]) == len(QS) for r in stable)


def test_grid_tune_rejects_unknown_axes():
    train, val = make_split_windows(seed=10, n_train=8, n_val=4)
    with pytest.raises(ValidationError, match="unknown tuning axes"):
        grid_tune("seq2seq", {"bogus": (1,)}, train, val, TrainConfig(), grid=QS, **FIT_KW)


def test_grid_tune_persistence_has_single_config():
    train, val = make_split_windows(seed=11, n_train=8, n_val=4)
    result = grid_tune(
        "persistence", {}, train, val, TrainConfig(epochs=1, seed=0), repetitions=3, grid=QS,
        **FIT_KW,
    )
    assert len(result.rows) == 3
    assert result.best_spec.family == "persistence"
    assert all(math.isfinite(r["val_qrisk_sum"]) and r["val_qrisk_sum"] > 0 for r in result.rows)


def test_grid_tune_seeds_vary_per_rep():
    train, val = make_split_windows(seed=12, n_train=8, n_val=4)
    result = grid_tune(
        "persistence", {}, train, val, TrainConfig(epochs=1, seed=0), repetitions=3, grid=QS,
        **FIT_KW,
    )
    seeds = [r["seed"] for r in result.rows]
    assert len(set(seeds)) == 3
