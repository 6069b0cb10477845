"""The forecaster families and their prediction/serialization contracts.

Five families share one interface (train on WindowSamples, emit original-scale
quantile forecasts):

* ``persistence``   last observed value, copied to every (lead, quantile) cell
* ``seq2seq``       MLP encoder over [static; flattened lookback] -> MLP
                    decoder with h*|Q| quantile heads
* ``convseq2seq``   stack of 1-D causal convolutions over the lookback
                    (static tiled in as channels) -> MLP decoder heads
* ``ar_rnn``        autoregressive recurrent cell (GRU or LSTM) consuming
                    (previous target, static) per step with a Gaussian head;
                    quantiles are empirical order statistics over Monte-Carlo
                    sample paths, so prediction requires an explicit mc_seed
* ``attn_seq2seq``  recurrent encoder over the lookback, static-conditioned
                    per-position queries, multi-head attention, position-wise
                    quantile heads

All forward passes run on the autodiff Tensor type, so training and inference
share one code path. Forecast rows are projected to non-crossing by sorting
each lead time's quantiles ascending (on the original scale).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor, concat
from .core import (
    QuantileForecast,
    QuantileGrid,
    ValidationError,
    WindowConfig,
    WindowSample,
)
from .data import NormStats

__all__ = [
    "FAMILIES",
    "NEURAL_FAMILIES",
    "ForecasterSpec",
    "TrainedForecaster",
    "init_params",
    "stack_windows",
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

SIGMA_FLOOR = 1e-6

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

    Pass allow_custom=True to use values outside the tuning grid (unknown
    keys are always rejected).
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
    """Immutable-by-convention bundle of everything prediction needs."""

    spec: ForecasterSpec
    wc: WindowConfig
    grid: QuantileGrid
    target: str
    lc_names: tuple[str, ...]
    n_static: int
    norm: NormStats
    params: dict[str, np.ndarray]
    training_log: dict = field(default_factory=dict)

    @property
    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    @property
    def parameter_bytes(self) -> int:
        return int(sum(p.nbytes for p in self.params.values()))


# ----------------------------------------------------------------- helpers


def stack_windows(samples: Sequence[WindowSample]) -> dict[str, np.ndarray]:
    """Stack WindowSamples into batch arrays for the forward passes."""
    if not samples:
        raise ValidationError("empty window batch")
    return {
        "static": np.stack([s.scenario.unit_values() for s in samples]),
        "past_target": np.stack([s.past_target for s in samples]),
        "past_cov": np.stack([s.past_covariates for s in samples]),
        "future_target": np.stack([s.future_target for s in samples]),
        "denorm": np.array([s.denorm for s in samples]),
    }


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


def _split_cols(t: Tensor, n: int) -> tuple[Tensor, Tensor]:
    return t[:, :n], t[:, n:]


def _gru_step(p: dict, pre: str, x: Tensor, state: Tensor, n: int) -> Tensor:
    rz = (x @ p[pre + "W_rz"] + state @ p[pre + "U_rz"] + p[pre + "b_rz"]).sigmoid()
    r, z = _split_cols(rz, n)
    cand = (x @ p[pre + "W_n"] + r * (state @ p[pre + "U_n"]) + p[pre + "b_n"]).tanh()
    return (1.0 - z) * cand + z * state


def _lstm_step(p: dict, pre: str, x: Tensor, state, n: int):
    h, c = state
    gates = x @ p[pre + "W"] + h @ p[pre + "U"] + p[pre + "b"]
    i = gates[:, :n].sigmoid()
    f = gates[:, n : 2 * n].sigmoid()
    g = gates[:, 2 * n : 3 * n].tanh()
    o = gates[:, 3 * n :].sigmoid()
    c2 = f * c + i * g
    return o * c2.tanh(), c2


def _zeros(bsz: int, n: int) -> Tensor:
    return Tensor(np.zeros((bsz, n)))


# Plain-array twins of the cells above, for the inference-only sampling
# path.  They must stay arithmetically identical, op for op, so sampled
# paths match the tape version bit for bit; only the graph bookkeeping
# is dropped.


def _np_sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _np_gru_step(p: dict, x: np.ndarray, state: np.ndarray, n: int) -> np.ndarray:
    rz = _np_sigmoid(x @ p["cell.W_rz"] + state @ p["cell.U_rz"] + p["cell.b_rz"])
    r, z = rz[:, :n], rz[:, n:]
    cand = np.tanh(x @ p["cell.W_n"] + r * (state @ p["cell.U_n"]) + p["cell.b_n"])
    return (1.0 - z) * cand + z * state


def _np_lstm_step(p: dict, x: np.ndarray, state, n: int):
    h, c = state
    gates = x @ p["cell.W"] + h @ p["cell.U"] + p["cell.b"]
    i = _np_sigmoid(gates[:, :n])
    f = _np_sigmoid(gates[:, n : 2 * n])
    g = np.tanh(gates[:, 2 * n : 3 * n])
    o = _np_sigmoid(gates[:, 3 * n :])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


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
        for i in range(spec.get("decoder_layers")):
            p[f"dec{i}.W"] = _glorot(rng, n, n)
            p[f"dec{i}.b"] = np.zeros(n)
        p["head.W"] = _glorot(rng, n, h * n_quantiles)
        p["head.b"] = np.zeros(h * n_quantiles)
        return p
    if fam == "convseq2seq":
        ch = spec.get("channels")
        n = spec.get("neurons")
        c_in = 1 + n_cov + n_static
        for layer, cin in (("conv0", c_in), ("conv1", ch)):
            for tap in range(3):
                p[f"{layer}.W{tap}"] = _glorot(rng, cin * 3, ch, shape=(cin, ch))
            p[f"{layer}.b"] = np.zeros(ch)
        width = ch
        for i in range(spec.get("decoder_layers")):
            p[f"dec{i}.W"] = _glorot(rng, width, n)
            p[f"dec{i}.b"] = np.zeros(n)
            width = n
        p["head.W"] = _glorot(rng, width, h * n_quantiles)
        p["head.b"] = np.zeros(h * n_quantiles)
        return p
    if fam == "ar_rnn":
        n = spec.get("nodes")
        d_in = 1 + n_static
        if spec.get("cell") == "gru":
            p["cell.W_rz"] = _glorot(rng, d_in, 2 * n, shape=(d_in, 2 * n))
            p["cell.U_rz"] = _glorot(rng, n, 2 * n, shape=(n, 2 * n))
            p["cell.b_rz"] = np.zeros(2 * n)
            p["cell.W_n"] = _glorot(rng, d_in, n)
            p["cell.U_n"] = _glorot(rng, n, n)
            p["cell.b_n"] = np.zeros(n)
        else:
            p["cell.W"] = _glorot(rng, d_in, 4 * n, shape=(d_in, 4 * n))
            p["cell.U"] = _glorot(rng, n, 4 * n, shape=(n, 4 * n))
            p["cell.b"] = np.zeros(4 * n)
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
    d_in = 1 + n_cov
    p["enc.W_rz"] = _glorot(rng, d_in, 2 * d, shape=(d_in, 2 * d))
    p["enc.U_rz"] = _glorot(rng, d, 2 * d, shape=(d, 2 * d))
    p["enc.b_rz"] = np.zeros(2 * d)
    p["enc.W_n"] = _glorot(rng, d_in, d)
    p["enc.U_n"] = _glorot(rng, d, d)
    p["enc.b_n"] = np.zeros(d)
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


def _mlp_decoder(p: dict, x: Tensor, layers: int) -> Tensor:
    for i in range(layers):
        x = (x @ p[f"dec{i}.W"] + p[f"dec{i}.b"]).relu()
    return x @ p["head.W"] + p["head.b"]


def _causal_conv(p: dict, pre: str, x: Tensor, dilation: int) -> Tensor:
    """Kernel-3 causal 1-D convolution along axis 1 of (B, k, C_in)."""
    bsz, k, c_in = x.shape
    pad = Tensor(np.zeros((bsz, 2 * dilation, c_in)))
    xp = concat([pad, x], axis=1)
    out = None
    for tap in range(3):
        start = tap * dilation
        piece = xp[:, start : start + k, :] @ p[f"{pre}.W{2 - tap}"]
        out = piece if out is None else out + piece
    return out + p[f"{pre}.b"]


def forward_quantiles(
    spec: ForecasterSpec,
    p: dict[str, Tensor],
    batch: dict[str, np.ndarray],
    h: int,
    n_quantiles: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Normalized-scale quantile head outputs, shape (B, h, |Q|).

    Valid for the three direct quantile families; ar_rnn has a Gaussian head
    (see forward_gaussian / sample_paths).
    """
    fam = spec.family
    bsz = batch["past_target"].shape[0]
    static = Tensor(batch["static"])
    past = Tensor(batch["past_target"])
    cov = Tensor(batch["past_cov"])
    if fam == "seq2seq":
        k, n_cov = batch["past_cov"].shape[1:]
        x = concat([static, past, cov.reshape(bsz, k * n_cov)], axis=1)
        enc = (x @ p["enc.W"] + p["enc.b"]).relu()
        out = _mlp_decoder(p, enc, spec.get("decoder_layers"))
        return out.reshape(bsz, h, n_quantiles)
    if fam == "convseq2seq":
        k = batch["past_cov"].shape[1]
        tiled = Tensor(np.broadcast_to(batch["static"][:, None, :], (bsz, k, batch["static"].shape[1])).copy())
        seq = concat([past.reshape(bsz, k, 1), cov, tiled], axis=2)
        c0 = _causal_conv(p, "conv0", seq, dilation=1).relu()
        c1 = _causal_conv(p, "conv1", c0, dilation=2).relu()
        feat = c1[:, k - 1, :]
        out = _mlp_decoder(p, feat, spec.get("decoder_layers"))
        return out.reshape(bsz, h, n_quantiles)
    if fam == "attn_seq2seq":
        return _attn_forward(spec, p, batch, h, n_quantiles, train, rng)
    raise ValidationError(f"{fam} has no direct quantile head")


def _attn_forward(spec, p, batch, h, n_quantiles, train, rng):
    d = spec.get("state")
    heads = spec.get("heads")
    drop = spec.get("dropout")
    dh = d // heads
    bsz, k, n_cov = batch["past_cov"].shape
    past = Tensor(batch["past_target"])
    cov = Tensor(batch["past_cov"])
    state = _zeros(bsz, d)
    enc_states = []
    for t in range(k):
        x_t = concat([past[:, t].reshape(bsz, 1), cov[:, t, :]], axis=1)
        state = _gru_step(p, "enc.", x_t, state, d)
        enc_states.append(state.reshape(bsz, 1, d))
    enc = concat(enc_states, axis=1)  # (B, k, d)
    static_emb = (Tensor(batch["static"]) @ p["static.W"] + p["static.b"]).relu()
    queries = static_emb.reshape(bsz, 1, d) + p["pos.E"].reshape(1, h, d)
    keys = enc @ p["attn.Wk"]
    values = enc @ p["attn.Wv"]

    def split(t: Tensor, n: int) -> Tensor:  # (B, n, d) -> (B, heads, n, dh)
        return t.reshape(bsz, n, heads, dh).transpose((0, 2, 1, 3))

    q4, k4, v4 = split(queries, h), split(keys, k), split(values, k)
    scores = (q4 @ k4.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    attn = scores.softmax(axis=-1)
    attn = _dropout(attn, drop, train, rng)
    ctx = (attn @ v4).transpose((0, 2, 1, 3)).reshape(bsz, h, d) @ p["attn.Wo"]
    static_tiled = Tensor(np.zeros((bsz, h, d))) + static_emb.reshape(bsz, 1, d)
    dec_in = concat([ctx, static_tiled], axis=2)
    hid = (dec_in @ p["dec.W1"] + p["dec.b1"]).relu()
    hid = _dropout(hid, drop, train, rng)
    return hid @ p["dec.W2"] + p["dec.b2"]  # (B, h, |Q|)


def _ar_head(spec, p, state: Tensor, train: bool, rng) -> tuple[Tensor, Tensor]:
    out = _dropout(state, spec.get("dropout"), train, rng)
    mu = out @ p["head.W_mu"] + p["head.b_mu"]
    sigma = (out @ p["head.W_sigma"] + p["head.b_sigma"]).softplus() + SIGMA_FLOOR
    return mu, sigma


def _ar_consume(spec, p, y_prev: Tensor, static: Tensor, state, n: int):
    x = concat([y_prev, static], axis=1)
    if spec.get("cell") == "gru":
        return _gru_step(p, "cell.", x, state, n)
    return _lstm_step(p, "cell.", x, state, n)


def forward_gaussian(
    spec: ForecasterSpec,
    p: dict[str, Tensor],
    batch: dict[str, np.ndarray],
    h: int,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Teacher-forced ar_rnn pass: (mu, sigma) Tensors of shape (B, h)."""
    if spec.family != "ar_rnn":
        raise ValidationError("forward_gaussian is only for ar_rnn")
    n = spec.get("nodes")
    bsz, k = batch["past_target"].shape
    static = Tensor(batch["static"])
    past = Tensor(batch["past_target"])
    future = Tensor(batch["future_target"])
    state = (_zeros(bsz, n), _zeros(bsz, n)) if spec.get("cell") == "lstm" else _zeros(bsz, n)
    for t in range(k):
        state = _ar_consume(spec, p, past[:, t].reshape(bsz, 1), static, state, n)
    mus, sigmas = [], []
    for j in range(h):
        s_out = state[0] if isinstance(state, tuple) else state
        mu_j, sigma_j = _ar_head(spec, p, s_out, train, rng)
        mus.append(mu_j)
        sigmas.append(sigma_j)
        if j < h - 1:
            state = _ar_consume(spec, p, future[:, j].reshape(bsz, 1), static, state, n)
    return concat(mus, axis=1), concat(sigmas, axis=1)


def sample_paths(
    spec: ForecasterSpec,
    params: dict[str, np.ndarray],
    batch: dict[str, np.ndarray],
    h: int,
    n_paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo decoding of ar_rnn: (B, n_paths, h) normalized samples.

    The warm-up over the lookback is deterministic; decoding feeds each
    path's own sample back as the next input.  Runs on plain arrays: no
    gradients are needed here, and per-op tape bookkeeping would dominate
    the latency of the small batches the monitor sends.
    """
    n = spec.get("nodes")
    p = {k_: (v.data if isinstance(v, Tensor) else v) for k_, v in params.items()}
    bsz, k = batch["past_target"].shape
    static = batch["static"]
    past = batch["past_target"]
    lstm = spec.get("cell") == "lstm"
    step = _np_lstm_step if lstm else _np_gru_step

    state = (np.zeros((bsz, n)), np.zeros((bsz, n))) if lstm else np.zeros((bsz, n))
    for t in range(k):
        x = np.concatenate([past[:, t : t + 1], static], axis=1)
        state = step(p, x, state, n)
    # replicate the warmed state across paths: rows ordered (sample, path)
    def tile(a: np.ndarray) -> np.ndarray:
        return np.repeat(a, n_paths, axis=0)

    state = (tile(state[0]), tile(state[1])) if lstm else tile(state)
    static_t = tile(static)
    rows = bsz * n_paths
    out = np.empty((rows, h))
    y_prev = None
    for j in range(h):
        if j > 0:
            x = np.concatenate([y_prev, static_t], axis=1)
            state = step(p, x, state, n)
        s_out = state[0] if lstm else state
        mu = s_out @ p["head.W_mu"] + p["head.b_mu"]
        raw = s_out @ p["head.W_sigma"] + p["head.b_sigma"]
        sigma = np.logaddexp(0.0, raw) + SIGMA_FLOOR
        z = rng.standard_normal((rows, 1))
        y = mu + sigma * z
        out[:, j] = y[:, 0]
        y_prev = y
    return out.reshape(bsz, n_paths, h)


# ----------------------------------------------------------------- prediction


def _check_sample(model: TrainedForecaster, sample: WindowSample) -> None:
    if sample.k != model.wc.k:
        raise ValidationError(f"sample lookback {sample.k} != model lookback {model.wc.k}")
    if sample.h != model.wc.h:
        raise ValidationError(f"sample horizon {sample.h} != model horizon {model.wc.h}")
    if sample.past_covariates.shape[1] != len(model.lc_names):
        raise ValidationError(
            f"sample has {sample.past_covariates.shape[1]} covariate channels, "
            f"model expects {len(model.lc_names)}"
        )
    if len(sample.scenario.dims) != model.n_static:
        raise ValidationError(
            f"sample has {len(sample.scenario.dims)} scenario dims, model expects {model.n_static}"
        )


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
    samples: Sequence[WindowSample],
    mc_seed: int | None = None,
    n_paths: int = 100,
    chunk_rows: int = 200_000,
) -> np.ndarray:
    """Original-scale forecasts for many samples at once: (N, h, |Q|), rows sorted."""
    for s in samples:
        _check_sample(model, s)
    batch = stack_windows(samples)
    h, qs = model.wc.h, np.array(model.grid.qs)
    n = len(samples)
    fam = model.spec.family
    if fam == "persistence":
        last = batch["past_target"][:, -1]
        normalized = np.repeat(last[:, None, None], h, axis=1)
        normalized = np.repeat(normalized, len(qs), axis=2)
    elif fam == "ar_rnn":
        if mc_seed is None:
            raise ValidationError("ar_rnn prediction requires an explicit mc_seed")
        if n_paths < 1:
            raise ValidationError("n_paths must be >= 1")
        rng = np.random.default_rng(mc_seed)
        per_chunk = max(1, chunk_rows // max(1, n_paths))
        pieces = []
        for i in range(0, n, per_chunk):
            sub = {k_: v[i : i + per_chunk] for k_, v in batch.items()}
            paths = sample_paths(model.spec, model.params, sub, h, n_paths, rng)
            pieces.append(_path_quantiles(paths, qs))  # (b, h, |Q|)
        normalized = np.concatenate(pieces, axis=0)
    else:
        p = {k_: Tensor(v) for k_, v in model.params.items()}
        out = forward_quantiles(model.spec, p, batch, h, len(qs), train=False)
        normalized = out.data
    mean = batch["denorm"][:, 0][:, None, None]
    std = batch["denorm"][:, 1][:, None, None]
    original = normalized * std + mean
    return np.sort(original, axis=2)


def predict_quantiles(
    model: TrainedForecaster,
    sample: WindowSample,
    mc_seed: int | None = None,
    n_paths: int = 100,
) -> QuantileForecast:
    """Forecast one sample; see predict_quantiles_batch for the heavy path."""
    values = predict_quantiles_batch(model, [sample], mc_seed=mc_seed, n_paths=n_paths)[0]
    return QuantileForecast(values, model.grid, origin_t=sample.origin_t)


# ----------------------------------------------------------------- checkpoints

_MAGIC = b"FWFC1\n"


def save_checkpoint(model: TrainedForecaster, path) -> None:
    """Byte-deterministic binary checkpoint; round-trips bit-exactly."""
    names = sorted(model.params)
    header = {
        "family": model.spec.family,
        "hyper": {k_: model.spec.params[k_] for k_ in sorted(model.spec.params)},
        "allow_custom": model.spec.allow_custom,
        "h": model.wc.h,
        "cm": model.wc.cm,
        "quantiles": list(model.grid.qs),
        "target": model.target,
        "lc_names": list(model.lc_names),
        "n_static": model.n_static,
        "norm": {k_: list(v) for k_, v in sorted(model.norm.channels.items())},
        "training_log": model.training_log,
        "tensors": [{"name": n_, "shape": list(model.params[n_].shape)} for n_ in names],
    }
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(json.dumps(header).encode("utf-8"))
        f.write(b"\n")
        for n_ in names:
            f.write(np.ascontiguousarray(model.params[n_], dtype="<f8").tobytes())


def load_checkpoint(path) -> TrainedForecaster:
    """Read a checkpoint; ValidationError unless it describes a usable model.

    The header must parse and hold every key save_checkpoint writes, its
    tensor list must be exactly the names and shapes init_params gives the
    stored family and sizes, and norm must cover the target and every
    learned-component channel.
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
                n_static=header["n_static"],
                norm=NormStats(
                    {k_: (float(v[0]), float(v[1])) for k_, v in header["norm"].items()}
                ),
                params={},
                training_log=header["training_log"],
            )
            stored = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
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
        for n_, _ in stored:
            want = expected[n_]  # float64, like the stored tensor
            buf = f.read(want.nbytes)
            if len(buf) != want.nbytes:
                raise ValidationError(f"checkpoint truncated at tensor {n_!r}")
            model.params[n_] = np.frombuffer(buf, dtype="<f8").reshape(want.shape).copy()
        if f.read(1):
            raise ValidationError("trailing bytes after checkpoint tensors")
    missing = [c for c in (model.target, *model.lc_names) if c not in model.norm.channels]
    if missing:
        raise ValidationError(f"checkpoint norm has no stats for channels {missing}")
    return model
