"""Reverse-mode automatic differentiation over numpy arrays.

A minimal tape: each Tensor remembers its parents and a closure that pushes
the output gradient back to them. backward() walks the tape in reverse
topological order (iteratively; recurrent nets build long chains). Everything
is float64. Broadcasting in elementwise ops and batched matmul (1-D operands
included, as numpy promotes them) is supported; gradients are summed back to
the parent's shape.

backward() sets .grad only on the nodes reachable from its output, and each
such node gets its own buffer: no two nodes' .grad share memory, so a caller
may scale one in place (training clips leaf gradients that way). A buffer is
made by the first gradient that reaches the node (adopted when that array is
new, copied when it is a view or another node's), and later ones add into it.

The op set is exactly what the forecaster families need. Gradients are
verified against central finite differences in the test suite.

The module functions (sigmoid, tanh, relu, softplus, exp, log, square, mean,
softmax, concat) take a Tensor or a plain ndarray: a Tensor records the op on
the tape, an ndarray gets the same numpy expression and no tape, so a forward
pass or a loss written once runs on either and gives the same bits. An ndarray
on the left of an arithmetic operator defers to the Tensor on its right.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "Tensor", "concat", "exp", "log", "mean", "relu", "sigmoid", "softmax", "softplus",
    "square", "tanh",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))  # numerically stable logistic


def _relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.0)


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

    def __init__(self, data, parents: tuple = (), bw=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._bw = bw

    # ------------------------------------------------------------- plumbing

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def backward(self) -> None:
        """Set .grad of every reachable node to d(self)/d(node), in its own buffer."""
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
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bw is not None:
                node._bw(node.grad)

    def _acc(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add g into .grad. The first g becomes the buffer when fresh (a new
        array nothing else holds), else a copy of it does."""
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(g):
            self._acc(_unbroadcast(g, self.data.shape))
            other._acc(_unbroadcast(g, other.data.shape))

        out._bw = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._bw = lambda g: self._acc(-g, fresh=True)
        return out

    def __sub__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data - other.data, (self, other))

        def bw(g):
            self._acc(_unbroadcast(g, self.data.shape))
            other._acc(_unbroadcast(-g, other.data.shape), fresh=True)

        out._bw = bw
        return out

    def __rsub__(self, other):
        return self._wrap(other).__sub__(self)

    def __mul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(g):
            self._acc(_unbroadcast(g * other.data, self.data.shape), fresh=True)
            other._acc(_unbroadcast(g * self.data, other.data.shape), fresh=True)

        out._bw = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data / other.data, (self, other))

        def bw(g):
            self._acc(_unbroadcast(g / other.data, self.data.shape), fresh=True)
            other._acc(_unbroadcast(-g * self.data / other.data**2, other.data.shape), fresh=True)

        out._bw = bw
        return out

    def __rtruediv__(self, other):
        return self._wrap(other).__truediv__(self)

    def __matmul__(self, other):
        other = self._wrap(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(g):
            # promote 1-D operands as numpy does: (d,) is (1, d) on the left
            # and (d, 1) on the right, and g regains the axis numpy dropped
            a, b = self.data, other.data
            if b.ndim == 1:
                b, g = b[:, None], g[..., None]
            if a.ndim == 1:
                a, g = a[None, :], g[..., None, :]
            ga = g @ b.swapaxes(-1, -2)
            if b.ndim == 2 and a.ndim > 2:
                # a weight shared across leading dims: one 2-D GEMM over all rows
                gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = a.swapaxes(-1, -2) @ g
            self._acc(_unbroadcast(ga, a.shape).reshape(self.data.shape), fresh=True)
            other._acc(_unbroadcast(gb, b.shape).reshape(other.data.shape), fresh=True)

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

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), (self,))
        out._bw = lambda g: self._acc(g.reshape(self.data.shape))
        return out

    def transpose(self, axes: Sequence[int]):
        axes = tuple(axes)
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

    # ------------------------------------------------------------- nonlinear

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, (self,))
        out._bw = lambda g: self._acc(g * (1.0 - y * y), fresh=True)
        return out

    def sigmoid(self):
        y = _sigmoid(self.data)
        out = Tensor(y, (self,))
        out._bw = lambda g: self._acc(g * y * (1.0 - y), fresh=True)
        return out

    def relu(self):
        out = Tensor(_relu(self.data), (self,))
        out._bw = lambda g: self._acc(g * (self.data > 0), fresh=True)
        return out

    def softplus(self):
        out = Tensor(np.logaddexp(0.0, self.data), (self,))
        out._bw = lambda g: self._acc(g * _sigmoid(self.data), fresh=True)
        return out

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, (self,))
        out._bw = lambda g: self._acc(g * y, fresh=True)
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))
        out._bw = lambda g: self._acc(g / self.data, fresh=True)
        return out

    def square(self):
        out = Tensor(self.data * self.data, (self,))
        out._bw = lambda g: self._acc(2.0 * g * self.data, fresh=True)
        return out

    def softmax(self, axis: int = -1):
        return softmax(self, axis)


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else _sigmoid(x)


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def relu(x):
    return x.relu() if isinstance(x, Tensor) else _relu(x)


def softplus(x):
    return x.softplus() if isinstance(x, Tensor) else np.logaddexp(0.0, x)


def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Tensor) else np.log(x)


def square(x):
    return x.square() if isinstance(x, Tensor) else x * x


def mean(x):
    """Mean of all elements; an ndarray gets Tensor.mean's sum * (1/n), not ndarray.mean."""
    return x.mean() if isinstance(x, Tensor) else x.sum() * (1.0 / float(x.size))


def softmax(x, axis: int = -1):
    """Softmax along one axis; the max shift is a constant (no gradient)."""
    data = x.data if isinstance(x, Tensor) else x
    e = exp(x - data.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


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
