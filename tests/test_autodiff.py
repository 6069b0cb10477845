import operator

import numpy as np
import pytest

from forewarn.autodiff import Tensor, concat


def fd_grad(f, x, step=1e-5):
    """Central-difference gradient of scalar f at array x (x is mutated in place)."""
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = f()
        flat[i] = old - step
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * step)
    return g


def check(build, arrays, tol=1e-6):
    """build(tensors) -> scalar Tensor; compare autodiff grads to central diffs."""
    tensors = [Tensor(a) for a in arrays]
    loss = build(*tensors)
    loss.backward()
    got = [t.grad.copy() for t in tensors]
    for arr, g in zip(arrays, got):
        want = fd_grad(lambda: build(*[Tensor(a) for a in arrays]).item(), arr)
        denom = np.maximum(np.maximum(np.abs(g), np.abs(want)), 1e-6)
        rel = np.abs(g - want) / denom
        assert rel.max() < tol, f"max rel err {rel.max():.3g}"


RNG = np.random.default_rng(0)


def test_add_mul_broadcast():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    c = RNG.normal(size=(3, 1))
    check(lambda x, y, z: ((x + y) * z).sum(), [a, b, c])


def test_sub_div():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 3)) + 3.0  # keep the divisor away from zero
    check(lambda x, y: (x / y - y).square().sum(), [a, b])


def test_matmul_2d():
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3, 5))
    check(lambda x, y: (x @ y).square().sum(), [a, b])


def test_matmul_batched_broadcast():
    a = RNG.normal(size=(2, 4, 3))
    b = RNG.normal(size=(3, 5))
    check(lambda x, y: (x @ y).tanh().sum(), [a, b])


def test_matmul_batched_both():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(2, 4, 2))
    check(lambda x, y: (x @ y).sum(), [a, b])


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.matmul]
)
def test_ndarray_on_the_left_defers_to_the_tensor(op):
    a = RNG.normal(size=(3, 3))
    b = RNG.normal(size=(3, 3)) + 3.0  # keep the divisor away from zero
    assert isinstance(op(a, Tensor(b)), Tensor)
    check(lambda y: op(a, y).square().sum(), [b])


def test_getitem_slice():
    a = RNG.normal(size=(5, 4))
    check(lambda x: x[1:4, ::2].square().sum(), [a])


def test_concat_axis1():
    a = RNG.normal(size=(3, 2))
    b = RNG.normal(size=(3, 4))
    check(lambda x, y: concat([x, y], axis=1).square().sum(), [a, b])


def test_reshape_transpose():
    a = RNG.normal(size=(4, 6))
    check(lambda x: x.reshape(2, 12).transpose((1, 0)).tanh().sum(), [a])


def test_nonlinearities():
    a = RNG.normal(size=(4, 3)) + np.sign(RNG.normal(size=(4, 3))) * 0.2  # off relu kink
    check(lambda x: x.tanh().sum(), [a])
    check(lambda x: x.sigmoid().sum(), [a])
    check(lambda x: x.relu().sum(), [a])
    check(lambda x: x.softplus().sum(), [a])
    check(lambda x: (x * 0.3).exp().sum(), [a])
    check(lambda x: (x.square() + 1.0).log().sum(), [a])


def test_softmax_rows():
    a = RNG.normal(size=(3, 5))
    w = RNG.normal(size=(3, 5))

    def build(x, y):
        return (x.softmax(axis=-1) * y).sum()

    check(build, [a, w])
    s = Tensor(a).softmax(axis=-1)
    assert np.allclose(s.data.sum(axis=-1), 1.0)


def test_sum_mean_axes():
    a = RNG.normal(size=(3, 4, 2))
    check(lambda x: x.sum(axis=1).square().sum(), [a])
    check(lambda x: x.mean(axis=(0, 2)).square().sum(), [a])
    check(lambda x: x.mean().square(), [a])


def test_softplus_extreme_inputs_stable():
    t = Tensor(np.array([-800.0, 0.0, 800.0]))
    y = t.softplus()
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == pytest.approx(0.0, abs=1e-12)
    assert y.data[2] == pytest.approx(800.0, rel=1e-12)
    assert y.data[1] == pytest.approx(np.log(2.0), rel=1e-12)


def test_long_chain_no_recursion_blowup():
    # a 300-step recurrence exceeds the default recursion limit if backward recurses
    h = Tensor(np.zeros((1, 4)))
    w = Tensor(RNG.normal(scale=0.3, size=(4, 4)))
    x = Tensor(RNG.normal(size=(1, 4)))
    for _ in range(300):
        h = (h @ w + x).tanh()
    loss = h.square().sum()
    loss.backward()
    assert np.all(np.isfinite(w.grad))
    assert np.abs(w.grad).max() > 0


def test_reused_node_accumulates():
    a = RNG.normal(size=(3, 3))
    check(lambda x: (x.tanh() * x.tanh() + x * 2.0).sum(), [a])


def test_grad_accumulation_matches_fanout():
    x = Tensor(np.array([2.0]))
    y = x * 3.0 + x * 5.0
    y.sum().backward()
    assert x.grad == pytest.approx([8.0])


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2))).backward()
