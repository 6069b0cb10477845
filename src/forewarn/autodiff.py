"""Reverse-mode automatic differentiation over numpy arrays.

A minimal tape: each Tensor remembers its parents and a closure that pushes
the output gradient back to them. backward() walks the tape in reverse
topological order (iteratively; recurrent nets build long chains). Everything
is float64. Broadcasting in elementwise ops and batched matmul is supported;
gradients are summed back to the parent's shape. A matmul operand has at
least two dimensions: the backward of a 1-D one fails.

backward() leaves .grad set only on the leaves (the nodes with no parents:
parameters and wrapped constants) reachable from its output, each in its own
buffer: no two leaves' .grad share memory, so a caller may scale one in place
(training clips leaf gradients that way). A buffer is made by the first
gradient that reaches the node (adopted when that array is new, copied when
it is a view or another node's), and later ones add into it. backward()
releases the tape as it walks it: once an inner node's backward has run, the
node drops its .grad, its parents and its closure, which holds the arrays its
forward saved. So a step's peak is about its tape, not the tape plus the
inner gradients (an attn_seq2seq step at h=12, B=64 under tracemalloc: 25 MiB
against 50, on a 23 MiB tape). The arithmetic and its order do not change, so
neither do the bits. A released graph is spent: a second backward() through
it raises ValueError.

Most ops serve the forecaster families' forwards and losses. Five serve only
the composed reference implementations in the tests (tests/_oracles.py), which
the fused ops are checked against: log, square, negation, reflected
subtraction (an array or scalar minus a Tensor) and Tensor.mean; the module
function mean serves the fused losses on plain arrays too. Gradients are
verified against central finite differences in the test suite.

Four ops are fused: each records one tape node with a hand-written backward
in place of the nodes its composed ops would record.
* gru_cell, a whole GRU step, in place of twenty-odd nodes, so a recurrent
  pass costs one node per step;
* dense, relu(x @ W + b) or x @ W + b, in place of three or two;
* pinball_mean, the mean pinball loss of a quantile block, in place of ten;
* gaussian_nll_mean, the mean Gaussian negative log-likelihood, in place of ten.
Each one's forward is the composed expression's arithmetic, so it gives the
same bits, and its backward repeats the composed tape's arithmetic too. A
backward writes a gradient only into its Tensor operands: a constant input,
initial state or target gets none.

Each elementwise op is defined once, in the op table after the class: a
unary op as f plus its derivative (_elementwise), a binary one as f plus one
gradient per operand (_binary). The table's functions are the Tensor methods
and operators themselves (Tensor.tanh is tanh, Tensor.__mul__ is the multiply
op), so there is one place to change an op.

The module functions (sigmoid, tanh, relu, softplus, exp, log, square, mean,
softmax, concat and the fused ops) take a Tensor or a plain ndarray: a Tensor
records the op on the tape, an ndarray gets the same numpy expression and no
tape, so a forward pass or a loss written once runs on either and gives the
same bits. An ndarray or scalar operand of an arithmetic operator is wrapped as a constant leaf, on
either side of the Tensor.

The relu is np.fmax then += 0.0, which gives np.where(x > 0, x, 0.0)'s bits
at about a tenth of its cost, and dense on plain arrays adds its bias and
applies that relu in place on its GEMM's output.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor", "concat", "dense", "exp", "gaussian_nll_mean", "gru_cell", "log", "mean",
    "pinball_mean", "relu", "sigmoid", "softmax", "softplus", "square", "tanh",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))  # numerically stable logistic


def _relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # np.where(x > 0, x, 0.0) bit for bit, for every float64, at about a tenth
    # of its cost: fmax maps NaN to 0, and += 0.0 turns a -0.0 into +0.0
    out = np.fmax(x, 0.0, out=out)
    out += 0.0
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic(idx) -> bool:
    """True for an index of ints, slices, Ellipsis and None only (no fancy indexing)."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(
        isinstance(i, (slice, int, np.integer, type(Ellipsis), type(None)))
        and not isinstance(i, (bool, np.bool_))
        for i in parts
    )


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_bw")
    __array_ufunc__ = None  # ndarray <op> Tensor calls the Tensor's reflected op

    def __init__(self, data, parents: tuple = ()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._bw = None  # an op sets its backward here after construction

    # ------------------------------------------------------------- plumbing

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def backward(self) -> None:
        """Set .grad of every reachable leaf to d(self)/d(leaf), in its own buffer.

        Each inner node is released once its backward has run (see the module
        docstring); a node an earlier backward() released raises ValueError.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:
                raise ValueError(
                    "backward() reached a node an earlier backward() released: "
                    "build the graph again"
                )
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        while order:  # popped, so the list holds no node it has passed
            node = order.pop()
            if node._parents:  # a leaf keeps its gradient
                node._bw(node.grad)
                # spent: its gradient, its parents and the closure with its saved arrays go
                node.grad = node._parents = node._bw = None

    def _acc(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g into .grad. The first g becomes the buffer when fresh (a new
        array nothing else holds), else a copy of it does."""
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    # ------------------------------------------------------------- matmul and indexing

    def __matmul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            a, b = self.data, other.data
            ga = g @ b.swapaxes(-1, -2)
            if b.ndim == 2 and a.ndim > 2:
                # a weight shared across leading dims: one 2-D GEMM over all rows
                gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = a.swapaxes(-1, -2) @ g
            self._acc(_unbroadcast(ga, a.shape), fresh=True)
            other._acc(_unbroadcast(gb, b.shape), fresh=True)

        out._bw = bw
        return out

    def __rmatmul__(self, other):
        return self._wrap(other).__matmul__(self)

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], (self,))

        def bw(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if _is_basic(idx):
                self.grad[idx] += g  # a basic index selects each element at most once
            else:
                np.add.at(self.grad, idx, g)  # fancy indices may repeat

        out._bw = bw
        return out

    # ------------------------------------------------------------- shape ops

    def reshape(self, *shape: int):
        out = Tensor(self.data.reshape(shape), (self,))
        out._bw = lambda g: self._acc(g.reshape(self.data.shape))
        return out

    def transpose(self, axes: tuple[int, ...]):
        inverse = tuple(np.argsort(axes))
        out = Tensor(self.data.transpose(axes), (self,))
        out._bw = lambda g: self._acc(g.transpose(inverse))
        return out

    def sum(self, axis=None, keepdims: bool = False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(g):
            if axis is not None and not keepdims:
                ax = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, ax)
            self._acc(np.broadcast_to(g, self.data.shape))

        out._bw = bw
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))


# ----------------------------------------------------------------- the op table


def _elementwise(f, df):
    """A unary op: f on an ndarray; on a Tensor, f on its data and g -> df(g, x, y) back."""

    def op(x):
        if not isinstance(x, Tensor):
            return f(x)
        y = f(x.data)
        out = Tensor(y, (x,))
        out._bw = lambda g: x._acc(df(g, x.data, y), fresh=True)
        return out

    return op


def _binary(f, da, db):
    """A Tensor op on two operands (one may be an ndarray or scalar, wrapped).

    da and db map (g, a, b) to each operand's gradient before unbroadcasting;
    None is the identity, whose g is copied, where a computed one is adopted.
    """

    def op(a, b):
        a, b = Tensor._wrap(a), Tensor._wrap(b)
        out = Tensor(f(a.data, b.data), (a, b))

        def bw(g):
            for t, d in ((a, da), (b, db)):
                grad = g if d is None else d(g, a.data, b.data)
                t._acc(_unbroadcast(grad, t.data.shape), fresh=d is not None)

        out._bw = bw
        return out

    return op


tanh = _elementwise(np.tanh, lambda g, x, y: g * (1.0 - y * y))
sigmoid = _elementwise(_sigmoid, lambda g, x, y: g * y * (1.0 - y))
relu = _elementwise(_relu, lambda g, x, y: g * (x > 0))
softplus = _elementwise(lambda x: np.logaddexp(0.0, x), lambda g, x, y: g * _sigmoid(x))
exp = _elementwise(np.exp, lambda g, x, y: g * y)
log = _elementwise(np.log, lambda g, x, y: g / x)
square = _elementwise(lambda x: x * x, lambda g, x, y: 2.0 * g * x)
_neg = _elementwise(np.negative, lambda g, x, y: -g)
_add = _binary(np.add, None, None)
_sub = _binary(np.subtract, None, lambda g, a, b: -g)
_mul = _binary(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
_div = _binary(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / b**2)

Tensor.tanh, Tensor.sigmoid, Tensor.relu, Tensor.softplus = tanh, sigmoid, relu, softplus
Tensor.exp, Tensor.log, Tensor.square, Tensor.__neg__ = exp, log, square, _neg
Tensor.__add__ = Tensor.__radd__ = _add  # reflected too, the Tensor is the first parent
Tensor.__mul__ = Tensor.__rmul__ = _mul
Tensor.__sub__, Tensor.__truediv__ = _sub, _div
Tensor.__rsub__ = lambda self, other: _sub(other, self)
Tensor.__rtruediv__ = lambda self, other: _div(other, self)


def mean(x):
    """Mean of all elements; an ndarray gets Tensor.mean's sum * (1/n), not ndarray.mean."""
    return x.mean() if isinstance(x, Tensor) else x.sum() * (1.0 / float(x.size))


def softmax(x, axis: int = -1):
    """Softmax along one axis; the max shift is a constant (no gradient)."""
    data = x.data if isinstance(x, Tensor) else x
    e = exp(x - data.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


Tensor.softmax = softmax


def concat(tensors: Sequence, axis: int = 0):
    """Join along one axis: a Tensor if any operand is one, else an ndarray."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [Tensor._wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(a, b)
            t._acc(g[tuple(idx)])

    out._bw = bw
    return out


# ----------------------------------------------------------------- fused recurrent cell


def _gru_forward(x, s, W_rz, U_rz, b_rz, W_n, U_n, b_n):
    """The GRU step on arrays, plus what its backward reads: (out, rz, s @ U_n, cand).

    Each sum and product is the composed expression's, in its order, but done in
    place on the step's own new arrays: fewer temporaries, the same bits.
    """
    n = U_n.shape[0]
    rz = x @ W_rz
    rz += s @ U_rz
    rz += b_rz
    rz *= 0.5  # _sigmoid, in place
    np.tanh(rz, out=rz)
    rz += 1.0
    rz *= 0.5
    z = rz[:, n:]
    hn = s @ U_n
    cand = x @ W_n
    cand += rz[:, :n] * hn
    cand += b_n
    np.tanh(cand, out=cand)
    out = 1.0 - z
    out *= cand
    out += z * s
    return out, rz, hn, cand


def gru_cell(x, state, W_rz, U_rz, b_rz, W_n, U_n, b_n):
    """One GRU step, (B, d_in) input and (B, n) state to the (B, n) new state.

    rz = sigmoid(x @ W_rz + state @ U_rz + b_rz) splits into the reset gate r
    and the update gate z; cand = tanh(x @ W_n + r * (state @ U_n) + b_n); the
    new state is (1 - z) * cand + z * state. That is the composed expression's
    arithmetic, op for op, so the result has its bits.

    The six weights are all Tensors or all plain arrays, so one check on W_rz
    picks the path. On plain arrays (prediction) it returns an ndarray and
    records nothing. With Tensor weights (training) it records one tape node,
    whose backward gives a gradient to the Tensor operands only: x and state
    may each be a Tensor or a constant, and a constant gets none.
    """
    if not isinstance(W_rz, Tensor):
        return _gru_forward(x, state, W_rz, U_rz, b_rz, W_n, U_n, b_n)[0]
    operands = (x, state, W_rz, U_rz, b_rz, W_n, U_n, b_n)
    arrays = [t.data if isinstance(t, Tensor) else t for t in operands]
    y, rz, hn, cand = _gru_forward(*arrays)
    x, s, W_rz, U_rz, _, W_n, U_n, _ = arrays
    out = Tensor(y, tuple(t for t in operands if isinstance(t, Tensor)))

    def bw(g):
        n = hn.shape[1]
        r, z = rz[:, :n], rz[:, n:]
        # gradients at the pre-activations of the candidate's tanh and the gates' sigmoid
        d_n = g * (1.0 - z) * (1.0 - cand * cand)
        d_rz = np.concatenate([d_n * hn, g * (s - cand)], axis=1) * rz * (1.0 - rz)
        d_hn = d_n * r
        grads = (  # one per operand, in order, computed only for a Tensor
            lambda: d_rz @ W_rz.T + d_n @ W_n.T,
            lambda: g * z + d_rz @ U_rz.T + d_hn @ U_n.T,
            lambda: x.T @ d_rz,
            lambda: s.T @ d_rz,
            lambda: d_rz.sum(axis=0),
            lambda: x.T @ d_n,
            lambda: s.T @ d_hn,
            lambda: d_n.sum(axis=0),
        )
        for t, grad in zip(operands, grads):
            if isinstance(t, Tensor):
                t._acc(grad(), fresh=True)

    out._bw = bw
    return out


# ----------------------------------------------------------------- fused dense layer and losses


def dense(x, W, b, relu: bool = False):
    """A dense layer over the last axis of x: relu(x @ W + b), or x @ W + b.

    x is (..., d_in), W (d_in, d_out) and b (d_out,). W and b are both Tensors
    or both plain arrays, so one check on W picks the path. On plain arrays it
    returns the expression's ndarray and records nothing. With Tensor weights
    it records one tape node. Its backward masks g with pre > 0 (relu), sums
    the bias gradient over the leading axes, takes the weight gradient as one
    2-D GEMM over all rows, as __matmul__ does, and gives x a gradient only
    when x is a Tensor: a lifted input batch is a constant.
    """
    if not isinstance(W, Tensor):
        # the bias and the relu go in place on the GEMM's own new output: the
        # bits of x @ W + b and _relu, with no temporary, so a layer costs
        # about its GEMM
        out = x @ W
        out += b
        return _relu(out, out=out) if relu else out
    a = x.data if isinstance(x, Tensor) else x
    pre = a @ W.data + b.data
    out = Tensor(_relu(pre) if relu else pre, (x, W, b) if isinstance(x, Tensor) else (W, b))

    def bw(g):
        if relu:
            g = g * (pre > 0)
        b._acc(g.sum(axis=tuple(range(g.ndim - 1))), fresh=True)
        W._acc(a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]), fresh=True)
        if isinstance(x, Tensor):
            x._acc(g @ W.data.T, fresh=True)

    out._bw = bw
    return out


def _pinball(pred: np.ndarray, y: np.ndarray, q: np.ndarray):
    diff = y[:, :, None] - pred
    return diff, mean(_relu(diff) * q + _relu(-diff) * (1.0 - q))


def pinball_mean(pred, y: np.ndarray, qs: np.ndarray):
    """Mean pinball loss of a (B, h, |Q|) prediction block against (B, h) targets.

    qs holds the |Q| levels. pred is a Tensor (one tape node, a gradient for
    pred only) or an ndarray (a 0-d value, no tape).
    """
    q = qs.reshape(1, 1, -1)
    if not isinstance(pred, Tensor):
        return _pinball(pred, y, q)[1]
    diff, loss = _pinball(pred.data, y, q)
    out = Tensor(loss, (pred,))

    def bw(g):
        c = g * (1.0 / float(diff.size))  # mean's backward
        up = (c * q) * (diff > 0)  # through relu(diff) * q
        down = -((c * (1.0 - q)) * (diff < 0))  # through relu(-diff) * (1 - q)
        pred._acc(-(up + down), fresh=True)

    out._bw = bw
    return out


def _nll(mu: np.ndarray, sigma: np.ndarray, y: np.ndarray):
    err = y - mu
    sq_err = err * err
    den = (sigma * sigma) * 2.0
    return err, sq_err, den, mean(np.log(sigma) + sq_err / den + _HALF_LOG_2PI)


def gaussian_nll_mean(mu, sigma, y: np.ndarray):
    """Mean Gaussian negative log-likelihood of (B, h) heads mu, sigma at targets y.

    mu and sigma are both Tensors (one tape node, a gradient for each) or both
    ndarrays (a 0-d value, no tape); one check on mu picks the path.
    """
    if not isinstance(mu, Tensor):
        return _nll(mu, sigma, y)[3]
    s = sigma.data
    err, sq_err, den, loss = _nll(mu.data, s, y)
    out = Tensor(loss, (mu, sigma))

    def bw(g):
        c = g * (1.0 / float(err.size))  # mean's backward
        g_sq_err = c / den  # sq_err / den
        g_den = -c * sq_err / den**2
        sigma._acc(c / s + 2.0 * (g_den * 2.0) * s, fresh=True)  # log(s) and (s * s) * 2.0
        mu._acc(-(2.0 * g_sq_err * err), fresh=True)  # (y - mu) ** 2

    out._bw = bw
    return out
