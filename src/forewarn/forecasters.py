"""The forecaster families and their prediction/serialization contracts.

Five families share one interface (train on a WindowBatch, whose columns
stack_windows hands to the forward passes, or on a list of WindowSample
handles into one batch, which core.as_batch gathers first; emit original-scale
quantile forecasts):

* ``persistence``   last observed value, copied to every (lead, quantile) cell
* ``seq2seq``       MLP encoder over [static; flattened lookback] -> MLP
                    decoder with h*|Q| quantile heads
* ``convseq2seq``   stack of 1-D causal convolutions over the 7-step
                    receptive field of its last output, the newest lookback
                    steps (static tiled in as channels) -> MLP decoder heads
* ``ar_rnn``        autoregressive recurrent cell (GRU or LSTM) consuming
                    (previous target, static) per step with a Gaussian head;
                    quantiles are empirical order statistics over Monte-Carlo
                    sample paths, so prediction requires an explicit mc_seed
* ``attn_seq2seq``  recurrent encoder over the lookback, static-conditioned
                    per-position queries, multi-head attention, position-wise
                    quantile heads

Each family's forward pass is written once over the autodiff module functions.
Training hands it Tensor parameters and gets a tape to differentiate;
prediction hands it the plain parameter arrays and gets plain arrays back, the
same bits without the tape. The input batch stays plain arrays on both paths:
slicing, reshaping and joining inputs records nothing, and an input joins the
tape only as the constant operand of an op with a parameter. Forecast rows are
projected to non-crossing by sorting each lead time's quantiles ascending (on
the original scale). predict_quantiles, the one predictor, then refuses a
forecast holding a non-finite value (denormalizing can overflow), which would
otherwise score as "no violation".

A GRU step, in ar_rnn and in the attn_seq2seq encoder, is one autodiff op
(gru_cell) with a hand-written backward, so it records one tape node. So is a
dense layer (autodiff.dense): the seq2seq encoder, every MLP decoder layer and
quantile head, attn_seq2seq's static embedding and decoder, and ar_rnn's mu and
sigma heads. The causal convolutions stay composed: their three overlapping
taps would make the bits of an input gradient depend on the order they are
summed in. They run only on the lookback steps the decoder's input reads (the
last step's receptive field), so a longer lookback costs them nothing; the
forecast is the full-length stack's, up to the rounding of GEMMs with fewer
rows. The LSTM cell stays composed of elementwise ops too: only the
non-default ar_rnn cell runs it.

ar_rnn's Monte-Carlo draws for a window come from its own generator,
default_rng(derived_seed(mc_seed, origin_t)), so a window's draws do not depend
on the batch around it: predicting a whole phase at once gives each window the
forecast a monitor with seed mc_seed makes at that origin, up to BLAS rounding.
The GEMMs of a batch of another size round differently, so the two agree to
about 1e-15, not to the bit: predicted one at a time, each of the evaluate
benchmark's 290 test windows at h=12 differed from its batched forecast, by at
most 3.6e-15.

Two batch forwards run in chunks of rows on a thread per CPU that BLAS leaves
free (numpy releases the GIL in its BLAS and ufunc loops): sample_paths'
decode, in chunks of _CHUNK_ROWS Monte-Carlo rows, and a predicting
attn_seq2seq forward's chunks of at most _ATTN_CHUNK_ROWS windows.
sample_paths warms the cell up over the lookback and draws every window's
normals once, over the whole batch, on the calling thread: each chunk's own
warm-up was many GRU steps on arrays too small for numpy to release the GIL,
and cost more than the threads gained. So a chunk's paths are the ones that
chunk gives decoded alone up to the rounding of the warm-up's GEMMs over the
batch's row count. With numpy 2.4's bundled OpenBLAS that is to the bit for
the default 40-node cell, except a chunk of one window (n_paths >=
_CHUNK_ROWS, or a trailing chunk of one), and within 1.3e-15 for a 100-node
GRU, whose products over fewer than about 128 rows round apart. Chunk
boundaries do not depend on the thread count, so the forecasts are the same
to the bit for any number of threads, and there is no knob for it. On the
evaluate benchmark (a 2-core Xeon, BLAS on one thread) the attention forward's
1160 windows ran 1.7x as fast in 10 chunks of 116, which give the one-call
forward's bits, and the round's memory peak fell from 252 to 189 MiB. One
window, a monitor push, is one chunk and runs on the calling thread; so does
training, whose tape-free validation stays one call, since a thread's malloc
arena would raise fit's memory peak. seq2seq and convseq2seq predict a batch
in one call: in 2 chunks on 2 threads, seq2seq ran 15% and convseq2seq 5.5%
slower, and convseq2seq's head, whose GEMM rounds by its row count, moved 244
of 1160 forecasts by up to 4.4e-16.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor, concat, dense, gru_cell, relu, sigmoid, softmax, softplus, tanh
from .core import (
    Episode,
    QuantileGrid,
    Scenario,
    ValidationError,
    WindowBatch,
    WindowConfig,
    WindowSample,
    as_batch,
    check_setting,
    derived_seed,
)
from .data import NormStats

__all__ = [
    "FAMILIES",
    "NEURAL_FAMILIES",
    "SAMPLING_FAMILIES",
    "DEFAULT_N_PATHS",
    "ForecasterSpec",
    "TrainedForecaster",
    "init_params",
    "stack_windows",
    "future_target_original",
    "forward_quantiles",
    "forward_gaussian",
    "sample_paths",
    "predict_quantiles",
    "predict_quantiles_batch",
    "save_checkpoint",
    "load_checkpoint",
]

FAMILIES = ("persistence", "seq2seq", "convseq2seq", "ar_rnn", "attn_seq2seq")
NEURAL_FAMILIES = FAMILIES[1:]
SAMPLING_FAMILIES = ("ar_rnn",)  # forecast by Monte-Carlo decoding, so they need an mc_seed
# Monte-Carlo sample paths per window, wherever a caller names none
DEFAULT_N_PATHS = 100

SIGMA_FLOOR = 1e-6
# ar_rnn Monte-Carlo rows (windows x paths) decoded at once, the unit of
# parallel work in sample_paths; the warm-up and the draws run before, over the
# whole batch. Draws are per window, so this sets only speed and BLAS rounding:
# on a 2-core Xeon, 1000 rows decoded 290 h=12 windows at 100 paths in 0.55 s
# on one thread, against 0.84 s at 200 000 rows. The forecast is the same for
# any number of workers; there is no knob for it.
_CHUNK_ROWS = 1000
# most windows in one chunk of a predicting attn_seq2seq forward, the unit of
# parallel work there: n windows are cut into ceil(n / _ATTN_CHUNK_ROWS) chunks
# of ceil(n / chunks) windows (1160 windows: 10 of 116). Small chunks keep the
# memory peak down: 2 chunks of 580 ran as fast as 10 of 116 on 2 threads, at a
# 37% higher peak. The forecast is the same for any number of workers; there
# is no knob for it.
_ATTN_CHUNK_ROWS = 128


def _pool_size() -> int:
    """Threads for the chunks of a batch prediction: the usable CPUs over BLAS's threads.

    BLAS's thread count is the first positive integer in OPENBLAS_NUM_THREADS,
    OMP_NUM_THREADS and MKL_NUM_THREADS. With none set, BLAS already runs on
    every CPU, so the chunks run inline rather than oversubscribe the cores.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


# threads _on_cores runs the chunks of a batch prediction on
_WORKERS = _pool_size()
# convseq2seq's kernel-3 causal layers conv0, conv1, ..., their dilations in
# order; the last output step reads the last 1 + 2 * sum(dilations) inputs
_CONV_DILATIONS = (1, 2)
_CONV_FIELD = 1 + 2 * sum(_CONV_DILATIONS)

# model hyperparameter grids; training knobs (batch, lr, clip) live in TrainConfig
GRIDS: dict[str, dict[str, tuple]] = {
    "persistence": {},
    "seq2seq": {
        "decoder_layers": (1, 2, 4),
        "neurons": (20, 80),
    },
    "convseq2seq": {
        "decoder_layers": (1, 2, 4),
        "neurons": (20, 80),
        "channels": (20, 40),
    },
    "ar_rnn": {
        "cell": ("gru", "lstm"),
        "nodes": (40, 100),
        "dropout": (0.1, 0.2, 0.3),
    },
    "attn_seq2seq": {
        "state": (40, 80, 160),
        "heads": (1, 4),
        "dropout": (0.1, 0.2, 0.3),
    },
}

# [low, high) of the numeric hyperparameters that may be 0; every other one counts
_RANGES = {"decoder_layers": (0, math.inf), "dropout": (0.0, 1.0)}

DEFAULT_HYPERS: dict[str, dict] = {
    "persistence": {},
    "seq2seq": {"decoder_layers": 2, "neurons": 80},
    "convseq2seq": {"decoder_layers": 2, "neurons": 20, "channels": 20},
    "ar_rnn": {"cell": "gru", "nodes": 40, "dropout": 0.1},
    "attn_seq2seq": {"state": 80, "heads": 4, "dropout": 0.1},
}


@dataclass(frozen=True)
class ForecasterSpec:
    """A family name plus model hyperparameters, checked against the grid.

    Pass allow_custom=True to use numbers outside the tuning grid; unknown
    keys, values of another type than the grid's, out-of-range numbers and
    strings outside the grid always fail. Ints are stored as builtin ints.
    """

    family: str
    params: dict = field(default_factory=dict)
    allow_custom: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        grid = GRIDS[self.family]
        merged = dict(DEFAULT_HYPERS[self.family])
        for key, value in self.params.items():
            if key not in grid:
                raise ValidationError(
                    f"{self.family}: unknown hyperparameter {key!r} (grid has {sorted(grid)})"
                )
            kind = type(grid[key][0])
            if kind is str:  # a choice, such as the cell type: custom values have no code
                if value not in grid[key]:
                    raise ValidationError(
                        f"{self.family}: {key}={value!r} not in grid {grid[key]}"
                    )
            else:
                low, high = _RANGES.get(key, (1, math.inf))
                value = check_setting(f"{self.family}: {key}", value, kind, low, high)
            if not self.allow_custom and value not in grid[key]:
                raise ValidationError(
                    f"{self.family}: {key}={value!r} not in grid {grid[key]} "
                    "(pass allow_custom=True to override)"
                )
            merged[key] = value
        object.__setattr__(self, "params", merged)

    def get(self, key: str):
        return self.params[key]


@dataclass
class TrainedForecaster:
    """Immutable-by-convention bundle of everything prediction needs.

    `norm` must cover the target and every learned-component channel, so a
    model that trains is a model the monitor can run. `scenario_dims` names
    the scenario dims in the order of the static input the model reads.
    """

    spec: ForecasterSpec
    wc: WindowConfig
    grid: QuantileGrid
    target: str
    lc_names: tuple[str, ...]
    scenario_dims: tuple[str, ...]
    norm: NormStats
    params: dict[str, np.ndarray]
    training_log: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [c for c in (self.target, *self.lc_names) if c not in self.norm.channels]
        if missing:
            raise ValidationError(f"norm has no stats for channels {missing}")
        dims = self.scenario_dims
        if not (isinstance(dims, (list, tuple)) and dims and all(
            isinstance(n, str) and n for n in dims
        )):
            raise ValidationError(f"scenario dims must be a list of names, got {dims!r}")
        self.scenario_dims = tuple(dims)

    @property
    def n_static(self) -> int:
        return len(self.scenario_dims)

    @property
    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    @property
    def parameter_bytes(self) -> int:
        return int(sum(p.nbytes for p in self.params.values()))

    def check_channels(self, episode: Episode) -> None:
        """ValidationError unless the episode's channels and scenario dims are the model's.

        Same names in the same order: the model reads its inputs by position.
        """
        if episode.lc_names != self.lc_names:
            raise ValidationError(
                f"episode {episode.id}: channels {episode.lc_names} do not match model "
                f"{self.lc_names}"
            )
        self.check_scenario(episode.scenario, f"episode {episode.id}: ")

    def check_scenario(self, scenario: Scenario, where: str = "") -> None:
        """ValidationError unless the scenario names the model's dims in its order."""
        if scenario.names != self.scenario_dims:
            raise ValidationError(
                f"{where}scenario dims {scenario.names} do not match model {self.scenario_dims}"
            )


# ----------------------------------------------------------------- helpers


def stack_windows(windows: WindowBatch | Sequence[WindowSample]) -> dict[str, np.ndarray]:
    """The columns of as_batch(windows): the forward arrays, and origin_t for ar_rnn's draws."""
    return as_batch(windows).columns()


def future_target_original(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """(N, h) future targets of stacked windows on the original scale."""
    return arrays["future_target"] * arrays["denorm"][:, 1:] + arrays["denorm"][:, :1]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape if shape is not None else (fan_in, fan_out))


def _dropout(x: Tensor, p: float, train: bool, rng: np.random.Generator | None) -> Tensor:
    if not train or p <= 0.0:
        return x
    if rng is None:
        raise ValidationError("dropout in train mode needs an rng")
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * mask


def _gru_step(p: dict, pre: str, x, state):
    return gru_cell(
        x, state, p[pre + "W_rz"], p[pre + "U_rz"], p[pre + "b_rz"],
        p[pre + "W_n"], p[pre + "U_n"], p[pre + "b_n"],
    )


def _gru_params(p: dict, rng: np.random.Generator, pre: str, d_in: int, n: int) -> None:
    """The parameters _gru_step reads, glorot weights and zero biases, into p."""
    p[pre + "W_rz"] = _glorot(rng, d_in, 2 * n)
    p[pre + "U_rz"] = _glorot(rng, n, 2 * n)
    p[pre + "b_rz"] = np.zeros(2 * n)
    p[pre + "W_n"] = _glorot(rng, d_in, n)
    p[pre + "U_n"] = _glorot(rng, n, n)
    p[pre + "b_n"] = np.zeros(n)


def _lstm_step(p: dict, pre: str, x, state):
    h, c = state
    n = h.shape[1]
    gates = x @ p[pre + "W"] + h @ p[pre + "U"] + p[pre + "b"]
    i = sigmoid(gates[:, :n])
    f = sigmoid(gates[:, n : 2 * n])
    g = tanh(gates[:, 2 * n : 3 * n])
    o = sigmoid(gates[:, 3 * n :])
    c2 = f * c + i * g
    return o * tanh(c2), c2


# ----------------------------------------------------------------- init


def init_params(
    spec: ForecasterSpec,
    wc: WindowConfig,
    n_quantiles: int,
    n_cov: int,
    n_static: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Deterministic parameter tensors for one family (glorot weights, zero biases)."""
    rng = np.random.default_rng(seed)
    k, h = wc.k, wc.h
    p: dict[str, np.ndarray] = {}
    fam = spec.family
    if fam == "persistence":
        return p
    if fam == "seq2seq":
        n = spec.get("neurons")
        d_in = n_static + k + k * n_cov
        p["enc.W"] = _glorot(rng, d_in, n)
        p["enc.b"] = np.zeros(n)
        _mlp_params(p, rng, n, n, spec.get("decoder_layers"), h * n_quantiles)
        return p
    if fam == "convseq2seq":
        ch = spec.get("channels")
        n = spec.get("neurons")
        cin = 1 + n_cov + n_static
        for i in range(len(_CONV_DILATIONS)):
            for tap in range(3):
                p[f"conv{i}.W{tap}"] = _glorot(rng, cin * 3, ch, shape=(cin, ch))
            p[f"conv{i}.b"] = np.zeros(ch)
            cin = ch
        _mlp_params(p, rng, ch, n, spec.get("decoder_layers"), h * n_quantiles)
        return p
    if fam == "ar_rnn":
        n = spec.get("nodes")
        d_in = 1 + n_static
        if spec.get("cell") == "lstm":
            p["cell.W"] = _glorot(rng, d_in, 4 * n)
            p["cell.U"] = _glorot(rng, n, 4 * n)
            p["cell.b"] = np.zeros(4 * n)
        else:
            _gru_params(p, rng, "cell.", d_in, n)
        p["head.W_mu"] = _glorot(rng, n, 1)
        p["head.b_mu"] = np.zeros(1)
        p["head.W_sigma"] = _glorot(rng, n, 1)
        p["head.b_sigma"] = np.zeros(1)
        return p
    # attn_seq2seq
    d = spec.get("state")
    heads = spec.get("heads")
    if d % heads != 0:
        raise ValidationError(f"attn_seq2seq: state {d} not divisible by heads {heads}")
    _gru_params(p, rng, "enc.", 1 + n_cov, d)
    p["static.W"] = _glorot(rng, n_static, d)
    p["static.b"] = np.zeros(d)
    p["pos.E"] = _glorot(rng, h + d, h + d, shape=(h, d))
    p["attn.Wk"] = _glorot(rng, d, d)
    p["attn.Wv"] = _glorot(rng, d, d)
    p["attn.Wo"] = _glorot(rng, d, d)
    p["dec.W1"] = _glorot(rng, 2 * d, d)
    p["dec.b1"] = np.zeros(d)
    p["dec.W2"] = _glorot(rng, d, n_quantiles)
    p["dec.b2"] = np.zeros(n_quantiles)
    return p


# ----------------------------------------------------------------- forwards


def _mlp_params(
    p: dict, rng: np.random.Generator, d_in: int, n: int, layers: int, d_out: int
) -> None:
    """The parameters _mlp_decoder reads, glorot weights and zero biases, into p."""
    for i in range(layers):
        p[f"dec{i}.W"] = _glorot(rng, d_in, n)
        p[f"dec{i}.b"] = np.zeros(n)
        d_in = n
    p["head.W"] = _glorot(rng, d_in, d_out)
    p["head.b"] = np.zeros(d_out)


def _mlp_decoder(p: dict, x, layers: int):
    for i in range(layers):
        x = dense(x, p[f"dec{i}.W"], p[f"dec{i}.b"], relu=True)
    return dense(x, p["head.W"], p["head.b"])


def _causal_conv(p: dict, pre: str, x, dilation: int):
    """Kernel-3 causal 1-D convolution along axis 1 of (B, k, C_in).

    It computes every one of the k output steps, zero-padding before the first
    input step; the caller crops x to the steps its outputs need.
    """
    bsz, k, c_in = x.shape
    xp = concat([np.zeros((bsz, 2 * dilation, c_in)), x], axis=1)
    out = None
    for tap in range(3):
        start = tap * dilation
        piece = xp[:, start : start + k, :] @ p[f"{pre}.W{2 - tap}"]
        out = piece if out is None else out + piece
    return out + p[f"{pre}.b"]


def forward_quantiles(
    spec: ForecasterSpec,
    p: dict,
    batch: dict[str, np.ndarray],
    h: int,
    n_quantiles: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
    *,
    on_cores: bool = False,
):
    """Normalized-scale quantile head outputs, shape (B, h, |Q|).

    A Tensor on the tape when the params are Tensors, a plain ndarray when
    they are arrays. Valid for the three direct quantile families; ar_rnn has
    a Gaussian head (see forward_gaussian / sample_paths).

    on_cores, for predict_quantiles alone (plain arrays, train False), runs
    attn_seq2seq's forward in chunks of at most _ATTN_CHUNK_ROWS windows, on up
    to _WORKERS threads; the other families ignore it.
    """
    fam = spec.family
    static, past, cov = batch["static"], batch["past_target"], batch["past_cov"]
    bsz, k, n_cov = cov.shape
    if fam == "attn_seq2seq" and on_cores and bsz > _ATTN_CHUNK_ROWS:
        if train:
            raise ValidationError("only prediction runs the forward on several cores")
        out = np.empty((bsz, h, n_quantiles))
        per_chunk = math.ceil(bsz / math.ceil(bsz / _ATTN_CHUNK_ROWS))

        def run_chunk(sub: dict, dest: np.ndarray) -> None:
            dest[...] = _attn_forward(spec, p, sub, h, False, None)

        _on_cores(run_chunk, batch, per_chunk, out)
        return out
    if fam == "seq2seq":
        x = concat([static, past, cov.reshape(bsz, k * n_cov)], axis=1)
        enc = dense(x, p["enc.W"], p["enc.b"], relu=True)
        out = _mlp_decoder(p, enc, spec.get("decoder_layers"))
        return out.reshape(bsz, h, n_quantiles)
    if fam == "convseq2seq":
        # the decoder reads only the last step, which sees only the last
        # _CONV_FIELD inputs: the stack runs on those, and its zero padding
        # never reaches the last step
        w = min(k, _CONV_FIELD)
        tiled = np.repeat(static[:, None, :], w, axis=1)
        x = concat([past[:, k - w :, None], cov[:, k - w :], tiled], axis=2)
        for i, dilation in enumerate(_CONV_DILATIONS):
            x = relu(_causal_conv(p, f"conv{i}", x, dilation))
        out = _mlp_decoder(p, x[:, -1, :], spec.get("decoder_layers"))
        return out.reshape(bsz, h, n_quantiles)
    if fam == "attn_seq2seq":
        return _attn_forward(spec, p, batch, h, train, rng)
    raise ValidationError(f"{fam} has no direct quantile head")


def _attn_forward(spec, p, batch, h, train, rng):
    d = spec.get("state")
    heads = spec.get("heads")
    drop = spec.get("dropout")
    dh = d // heads
    static, past, cov = batch["static"], batch["past_target"], batch["past_cov"]
    bsz, k, n_cov = cov.shape
    state = np.zeros((bsz, d))
    enc_states = []
    for t in range(k):
        x_t = concat([past[:, t].reshape(bsz, 1), cov[:, t, :]], axis=1)
        state = _gru_step(p, "enc.", x_t, state)
        enc_states.append(state.reshape(bsz, 1, d))
    enc = concat(enc_states, axis=1)  # (B, k, d)
    static_emb = dense(static, p["static.W"], p["static.b"], relu=True)
    queries = static_emb.reshape(bsz, 1, d) + p["pos.E"].reshape(1, h, d)
    keys = enc @ p["attn.Wk"]
    values = enc @ p["attn.Wv"]

    def split(t: Tensor, n: int) -> Tensor:  # (B, n, d) -> (B, heads, n, dh)
        return t.reshape(bsz, n, heads, dh).transpose((0, 2, 1, 3))

    q4, k4, v4 = split(queries, h), split(keys, k), split(values, k)
    scores = (q4 @ k4.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    attn = softmax(scores, axis=-1)
    attn = _dropout(attn, drop, train, rng)
    ctx = (attn @ v4).transpose((0, 2, 1, 3)).reshape(bsz, h, d) @ p["attn.Wo"]
    static_tiled = np.zeros((bsz, h, d)) + static_emb.reshape(bsz, 1, d)
    dec_in = concat([ctx, static_tiled], axis=2)
    hid = dense(dec_in, p["dec.W1"], p["dec.b1"], relu=True)
    hid = _dropout(hid, drop, train, rng)
    return dense(hid, p["dec.W2"], p["dec.b2"])  # (B, h, |Q|)


def _ar_head(spec, p, state, train: bool, rng):
    """(mu, sigma) of the Gaussian head, each (B, 1), from the cell's output."""
    out = state[0] if isinstance(state, tuple) else state  # lstm state is (h, c)
    out = _dropout(out, spec.get("dropout"), train, rng)
    mu = dense(out, p["head.W_mu"], p["head.b_mu"])
    sigma = softplus(dense(out, p["head.W_sigma"], p["head.b_sigma"])) + SIGMA_FLOOR
    return mu, sigma


def _ar_consume(spec, p, y_prev, static, state):
    """One cell step on (previous target, static); state is h, or (h, c) for lstm."""
    x = concat([y_prev, static], axis=1)
    step = _lstm_step if spec.get("cell") == "lstm" else _gru_step
    return step(p, "cell.", x, state)


def _ar_warmup(spec, p, static, past):
    """The cell state after consuming the whole lookback, from zeros."""
    bsz, k = past.shape
    zeros = np.zeros((bsz, spec.get("nodes")))
    state = (zeros, zeros) if spec.get("cell") == "lstm" else zeros
    for t in range(k):
        state = _ar_consume(spec, p, past[:, t].reshape(bsz, 1), static, state)
    return state


def forward_gaussian(
    spec: ForecasterSpec,
    p: dict,
    batch: dict[str, np.ndarray],
    h: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Teacher-forced ar_rnn pass: (mu, sigma) of shape (B, h).

    Tensors on the tape when the params are Tensors, plain ndarrays when they
    are arrays.
    """
    if spec.family != "ar_rnn":
        raise ValidationError("forward_gaussian is only for ar_rnn")
    static, past, future = batch["static"], batch["past_target"], batch["future_target"]
    bsz = past.shape[0]
    state = _ar_warmup(spec, p, static, past)
    leads = []
    for j in range(h):
        if j > 0:
            state = _ar_consume(spec, p, future[:, j - 1].reshape(bsz, 1), static, state)
        leads.append(_ar_head(spec, p, state, train, rng))
    mus, sigmas = zip(*leads)
    return concat(mus, axis=1), concat(sigmas, axis=1)


def sample_paths(
    spec: ForecasterSpec,
    params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    h: int,
    n_paths: int,
    mc_seed: int,
) -> np.ndarray:
    """Monte-Carlo decoding of ar_rnn: (B, n_paths, h) normalized samples.

    The warm-up over the lookback is forward_gaussian's, and each lead's
    (mu, sigma) comes from the same head, on the plain parameter arrays (no
    tape). Window i draws its (h, n_paths) standard normals from
    default_rng(derived_seed(mc_seed, batch["origin_t"][i])), lead by lead;
    path p's lead j is mu + sigma * z[j, p], and that draw is fed back as the
    next input, where forward_gaussian feeds the true target. n_paths must be
    an int >= 1 and mc_seed an int >= 0, or it raises ValidationError.

    The warm-up and the draws run once over the whole batch, on the calling
    thread. Only the decode runs in chunks, of max(1, _CHUNK_ROWS // n_paths)
    windows, by _on_cores, so the result is the same for any worker count (see
    the module docstring).
    """
    mc_seed = check_setting(f"{spec.family} prediction mc_seed", mc_seed)
    n_paths = check_setting("n_paths", n_paths, low=1)
    state = _ar_warmup(spec, params, batch["static"], batch["past_target"])
    # an lstm's (h, c) state goes to the chunks as two columns, cut by row like static
    warm = dict(zip(("h", "c"), state)) if isinstance(state, tuple) else {"h": state}
    out = np.empty((len(batch["origin_t"]), n_paths, h))
    for i, t in enumerate(batch["origin_t"].tolist()):
        out[i] = np.random.default_rng(derived_seed(mc_seed, t)).standard_normal((h, n_paths)).T
    _on_cores(
        lambda sub, dest: _decode_chunk(spec, params, sub, dest),
        {"static": batch["static"], **warm}, max(1, _CHUNK_ROWS // n_paths), out,
    )
    return out


def _on_cores(run_chunk, batch: dict[str, np.ndarray], per_chunk: int, out: np.ndarray) -> None:
    """run_chunk(rows of batch, the same rows of out) for each chunk of per_chunk rows.

    Chunks are cut at range(0, len(out), per_chunk), whatever the thread
    count, and run on up to _WORKERS threads (numpy releases the GIL in its
    BLAS and ufunc loops), each in a copy of the caller's context, so the
    caller's np.errstate (a context variable since numpy 2) holds in it. One
    chunk or one worker runs inline, with no pool. Chunks write disjoint rows
    of out, so it is the same for any worker count.
    """
    tasks = [
        ({k_: v[i : i + per_chunk] for k_, v in batch.items()}, out[i : i + per_chunk])
        for i in range(0, len(out), per_chunk)
    ]
    workers = min(_WORKERS, len(tasks))
    if workers <= 1:
        for sub, dest in tasks:
            run_chunk(sub, dest)
        return
    with ThreadPoolExecutor(workers) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, run_chunk, sub, dest)
            for sub, dest in tasks
        ]
        for f in futures:
            f.result()


def _decode_chunk(spec, params, chunk: dict[str, np.ndarray], out: np.ndarray) -> None:
    """sample_paths' decoding of one chunk of windows, from their warm state.

    chunk holds the windows' static rows and warm cell state (h, and c for an
    lstm); out, their (b, n_paths, h) rows, holds the standard normals on entry
    and the sample paths on return.
    """
    _, n_paths, h = out.shape

    def tile(a: np.ndarray) -> np.ndarray:  # replicate each window's rows across paths
        return np.repeat(a, n_paths, axis=0)

    state = (tile(chunk["h"]), tile(chunk["c"])) if "c" in chunk else tile(chunk["h"])
    static = tile(chunk["static"])
    out = out.reshape(-1, h)  # a view, rows ordered (window, path) like state and static
    for j in range(h):
        if j > 0:
            state = _ar_consume(spec, params, out[:, j - 1 : j], static, state)
        mu, sigma = _ar_head(spec, params, state, False, None)
        out[:, j : j + 1] = mu + sigma * out[:, j : j + 1]


# ----------------------------------------------------------------- prediction


def _check_fits(model: TrainedForecaster, arrays: dict[str, np.ndarray]) -> None:
    for what, n, n_model in (
        ("lookback", arrays["past_target"].shape[1], model.wc.k),
        ("horizon", arrays["future_target"].shape[1], model.wc.h),
        ("covariate channels", arrays["past_cov"].shape[2], len(model.lc_names)),
        ("scenario dims", arrays["static"].shape[1], model.n_static),
    ):
        if n != n_model:
            raise ValidationError(f"windows have {what} {n}, model expects {n_model}")


def _path_quantiles(paths: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Linearly interpolated quantiles over axis 1: (B, n_paths, h) -> (B, h, |Q|).

    Matches np.quantile's default linear method bit for bit, including its
    lerp fix-up for weights >= 0.5, without the per-call axis plumbing that
    costs real time on the monitor's hot path.
    """
    srt = np.sort(paths, axis=1)
    last = srt.shape[1] - 1
    pos = qs * last
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, last)
    w = (pos - lo)[None, :, None]
    a = srt[:, lo, :]
    b = srt[:, hi, :]
    diff = b - a
    out = a + diff * w
    np.subtract(b, diff * (1.0 - w), out=out, where=w >= 0.5)
    return out.transpose(0, 2, 1)


def predict_quantiles_batch(
    model: TrainedForecaster,
    windows: WindowBatch | Sequence[WindowSample],
    mc_seed: int | None = None,
    n_paths: int = DEFAULT_N_PATHS,
) -> np.ndarray:
    """predict_quantiles on windows checked against the model: (N, h, |Q|).

    Each scenario must name the model's dims in its order, as in the monitor.
    """
    batch = as_batch(windows)
    for episode_id, scenario in batch.scenarios.items():
        model.check_scenario(scenario, f"episode {episode_id}: ")
    arrays = stack_windows(batch)
    _check_fits(model, arrays)
    return predict_quantiles(model, arrays, mc_seed=mc_seed, n_paths=n_paths)


def predict_quantiles(
    model: TrainedForecaster,
    batch: dict[str, np.ndarray],
    mc_seed: int | None = None,
    n_paths: int = DEFAULT_N_PATHS,
) -> np.ndarray:
    """Original-scale forecasts of stack_windows-shaped arrays already fit to the model.

    The one predictor, behind predict_quantiles_batch and SafetyMonitor.push. It
    reads static, past_target, past_cov and denorm, and origin_t for the
    sampling families; future_target it never reads. Its caller vouches for
    what _check_fits and WindowBatch check: shapes that match the model, finite
    normalized inputs, finite denorm with std > 0, origin_t ints >= 0. It
    checks its own output, once: a non-finite forecast raises ValidationError.
    A window's forecast is the same in any batch or chunk up to BLAS rounding,
    about 1e-15 (see the module docstring).
    """
    h, qs = model.wc.h, np.array(model.grid.qs)
    fam = model.spec.family
    if fam == "persistence":
        last = batch["past_target"][:, -1]
        normalized = np.repeat(last[:, None, None], h, axis=1)
        normalized = np.repeat(normalized, len(qs), axis=2)
    elif fam in SAMPLING_FAMILIES:
        paths = sample_paths(model.spec, model.params, batch, h, n_paths, mc_seed)
        normalized = _path_quantiles(paths, qs)
    else:
        normalized = forward_quantiles(
            model.spec, model.params, batch, h, len(qs), on_cores=True
        )
    mean = batch["denorm"][:, 0][:, None, None]
    std = batch["denorm"][:, 1][:, None, None]
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        original = normalized * std + mean
    original.sort(axis=2)  # in place: np.sort would copy first
    if not np.isfinite(original).all():
        raise ValidationError(f"{fam} forecast contains non-finite values")
    return original


# ----------------------------------------------------------------- checkpoints

_MAGIC = b"FWFC3\n"
_DIGEST = "payload_sha256"


def _digest(header: dict, payload: Sequence[bytes]) -> str:
    """sha256 over the header's JSON, less its digest entry, then the tensor bytes."""
    digest = hashlib.sha256(
        json.dumps({k_: v for k_, v in header.items() if k_ != _DIGEST}).encode("utf-8")
    )
    for buf in payload:
        digest.update(buf)
    return digest.hexdigest()


def save_checkpoint(model: TrainedForecaster, path) -> None:
    """Byte-deterministic binary checkpoint; round-trips bit-exactly.

    The header's last entry is the sha256 of the rest of the header and the
    tensor payload that follows it.
    """
    names = sorted(model.params)
    payload = [np.ascontiguousarray(model.params[n_], dtype="<f8").tobytes() for n_ in names]
    header = {
        "family": model.spec.family,
        "hyper": {k_: model.spec.params[k_] for k_ in sorted(model.spec.params)},
        "allow_custom": model.spec.allow_custom,
        "h": model.wc.h,
        "cm": model.wc.cm,
        "quantiles": list(model.grid.qs),
        "target": model.target,
        "lc_names": list(model.lc_names),
        "scenario_dims": list(model.scenario_dims),
        "norm": {k_: list(v) for k_, v in sorted(model.norm.channels.items())},
        "training_log": model.training_log,
        "tensors": [{"name": n_, "shape": list(model.params[n_].shape)} for n_ in names],
    }
    header[_DIGEST] = _digest(header, payload)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        f.writelines(payload)


def load_checkpoint(path) -> TrainedForecaster:
    """Read a checkpoint; ValidationError unless it describes a usable model.

    The header must parse and hold every key save_checkpoint writes, its
    tensor list must be exactly the names and shapes init_params gives the
    stored family and sizes, the rest of the header and the tensor payload must
    have the sha256 the header records, every tensor value must be finite, and
    norm must cover the target and every learned-component channel.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _MAGIC:
            raise ValidationError(f"not a forecaster checkpoint: bad magic {magic!r}")
        try:
            header = json.loads(f.readline().decode("utf-8"))
            model = TrainedForecaster(
                spec=ForecasterSpec(header["family"], header["hyper"], header["allow_custom"]),
                wc=WindowConfig(h=header["h"], cm=header["cm"]),
                grid=QuantileGrid(tuple(header["quantiles"])),
                target=header["target"],
                lc_names=tuple(header["lc_names"]),
                scenario_dims=header["scenario_dims"],
                norm=NormStats(
                    {k_: (float(v[0]), float(v[1])) for k_, v in header["norm"].items()}
                ),
                params={},
                training_log=header["training_log"],
            )
            stored = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
            digest = header[_DIGEST]
            named = dict(stored)
            expected = init_params(
                model.spec, model.wc, len(model.grid), len(model.lc_names), model.n_static, seed=0
            )
        except ValidationError:
            raise
        except KeyError as exc:
            raise ValidationError(f"checkpoint header has no {exc} entry") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            # ValueError covers JSON and UTF-8 decoding errors
            raise ValidationError(f"malformed checkpoint header: {exc}") from None
        shapes = {n_: p_.shape for n_, p_ in expected.items()}
        if named != shapes or len(stored) != len(named):
            differing = [n_ for n_ in {**named, **shapes} if named.get(n_) != shapes.get(n_)]
            raise ValidationError(
                f"checkpoint tensors do not fit a {model.spec.family} model of the stored "
                f"sizes (differing: {differing}, listed {len(stored)}, expected {len(shapes)})"
            )
        bufs = []
        for n_, _ in stored:
            bufs.append(f.read(expected[n_].nbytes))
            if len(bufs[-1]) != expected[n_].nbytes:
                raise ValidationError(f"checkpoint truncated at tensor {n_!r}")
        if f.read(1):
            raise ValidationError("trailing bytes after checkpoint tensors")
    if _digest(header, bufs) != digest:
        raise ValidationError("checkpoint header and tensors do not match their sha256")
    for (n_, shape), buf in zip(stored, bufs):
        tensor = np.frombuffer(buf, dtype="<f8").reshape(shape)
        if not np.isfinite(tensor).all():
            raise ValidationError(f"checkpoint tensor {n_!r} has non-finite values")
        model.params[n_] = tensor.copy()
    return model
