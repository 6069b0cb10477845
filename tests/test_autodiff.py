import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _oracles
from _oracles import dense_array, gru_step, relu_array
from forewarn.autodiff import (
    Tensor, _relu, concat, dense, exp, gaussian_nll_mean, gru_cell, log, pinball_mean, relu,
    sigmoid, softmax, softplus, square, tanh,
)

# few examples, fixed per test, and no example database written to disk
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
# central differences on random inputs reach about 1e-6 relative error where a
# gradient element is small; a wrong gradient is off by far more
PROPERTY_TOL = 1e-5


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


def test_a_one_dimensional_matmul_operand_or_a_tuple_shape_fails():
    rng = np.random.default_rng(1)
    for a, b in (((2, 3), (3,)), ((3,), (3, 2))):
        out = Tensor(rng.normal(size=a)) @ Tensor(rng.normal(size=b))
        with pytest.raises(ValueError):  # numpy's AxisError in backward
            out.sum().backward()
    with pytest.raises(TypeError):
        Tensor(np.zeros((2, 3))).reshape((3, 2))


def test_gradient_buffers_never_alias():
    rng = np.random.default_rng(2)
    a, b = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 2)))
    (a + b).sum().backward()
    assert a.grad is not b.grad
    before = b.grad.copy()
    a.grad *= 2.0
    assert np.array_equal(b.grad, before)

    # every pass-through op: add, sub, reshape, transpose, sum, concat, getitem
    x, y = Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3)))
    s = x + y
    d = s - y
    r = d.reshape(3, 2).transpose((1, 0))
    c = concat([r, s], axis=1)
    total = (c[:, 1:].sum(axis=0) + c.sum()).sum()
    total.backward()
    nodes = [x, y, s, d, r, c, total]
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            assert not np.shares_memory(u.grad, v.grad)


def test_backward_resets_grads_between_calls():
    x = Tensor(np.arange(3.0))
    loss = (x * 2.0).sum()
    loss.backward()
    loss.backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))


# ------------------------------------------------------------------ the op table

UNARY = {
    "tanh": tanh, "sigmoid": sigmoid, "relu": relu, "softplus": softplus, "exp": exp,
    "log": log, "square": square, "neg": operator.neg, "softmax": softmax,
}
BINARY = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "truediv": operator.truediv,
}


def _same_bits(got: Tensor, want: np.ndarray) -> bool:
    return got.data.shape == want.shape and got.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", UNARY)
def test_unary_op_table_matches_ndarray_and_differences(name):
    f = UNARY[name]
    rng = np.random.default_rng(11)  # its own stream: RNG's sequence stays as it was
    a = rng.normal(size=(3, 4))
    a = np.sign(a) * (np.abs(a) + 0.2)  # off the relu kink; log gets |a|
    if name == "log":
        a = np.abs(a)
    w = rng.normal(size=a.shape)
    assert _same_bits(f(Tensor(a)), f(a))
    check(lambda x: (f(x) * w).sum(), [a])


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("name", BINARY)
def test_binary_op_table_with_an_ndarray_on_either_side(name, side):
    op = BINARY[name]
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,)) + 3.0  # keep the divisor away from zero
    w = rng.normal(size=(3, 4))
    if side == "left":  # ndarray op Tensor, gradient to the Tensor on the right
        assert _same_bits(op(a, Tensor(b)), op(a, b))
        check(lambda y: (op(a, y) * w).sum(), [b])
    else:
        assert _same_bits(op(Tensor(a), b), op(a, b))
        check(lambda x: (op(x, b) * w).sum(), [a])


# ------------------------------------------------------------------ properties


def _arrays(seed, *shapes, away_from_zero=False):
    rng = np.random.default_rng(seed)
    out = [rng.normal(size=s) for s in shapes]
    if away_from_zero:  # the last array is a divisor
        out[-1] = np.asarray(np.sign(out[-1]) * (np.abs(out[-1]) + 0.5))  # 0-d stays an array
    return out


def _weighted_sum(out_shape, seed):
    """A loss that weights every output element differently, so no gradient is degenerate."""
    w = np.random.default_rng(seed + 1).normal(size=out_shape)
    return lambda t: (t * w).sum()


@PROPERTY
@given(
    shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
    op=st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
    seed=st.integers(0, 2**32 - 1),
)
def test_elementwise_gradients_property(shapes, op, seed):
    a, b = _arrays(seed, *shapes.input_shapes, away_from_zero=True)
    loss = _weighted_sum(shapes.result_shape, seed)
    check(lambda x, y: loss(op(x, y)), [a, b], tol=PROPERTY_TOL)


GRU_WEIGHTS = ("W_rz", "U_rz", "b_rz", "W_n", "U_n", "b_n")  # gru_cell's operand order


@PROPERTY
@given(
    batch=st.integers(1, 5),
    d_in=st.integers(1, 4),
    n=st.integers(1, 4),
    x_is_tensor=st.booleans(),
    state_is_tensor=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gru_cell_matches_the_composed_oracle_property(
    batch, d_in, n, x_is_tensor, state_is_tensor, seed
):
    rng = np.random.default_rng(seed)
    shapes = ((d_in, 2 * n), (n, 2 * n), (2 * n,), (d_in, n), (n, n), (n,))
    weights = [rng.normal(scale=0.5, size=s) for s in shapes]
    x, state = rng.normal(size=(batch, d_in)), rng.normal(size=(batch, n))
    loss = _weighted_sum((batch, n), seed)

    # forward on plain arrays: an ndarray with the oracle's bits
    fused = gru_cell(x, state, *weights)
    assert isinstance(fused, np.ndarray)
    assert fused.tobytes() == gru_step(dict(zip(GRU_WEIGHTS, weights)), "", x, state).tobytes()

    # on the tape: x and state are Tensors or constants, the weights Tensors
    def operands():
        return [
            Tensor(x) if x_is_tensor else x,
            Tensor(state) if state_is_tensor else state,
            *map(Tensor, weights),
        ]

    mine, ref = operands(), operands()
    out = gru_cell(*mine)
    want = gru_step(dict(zip(GRU_WEIGHTS, ref[2:])), "", ref[0], ref[1])
    assert _same_bits(out, want.data)
    loss(out).backward()
    loss(want).backward()
    for got, expected in zip(mine, ref):
        if isinstance(got, Tensor):
            scale = np.abs(expected.grad).max()
            assert np.abs(got.grad - expected.grad).max() <= 1e-12 * scale
        else:  # a constant operand stays an ndarray and gets no gradient
            assert not isinstance(expected, Tensor)

    # and against central differences, over the Tensor operands
    differentiable = [a for a, t in zip([x, state, *weights], mine) if isinstance(t, Tensor)]

    def build(*tensors):
        it = iter(tensors)
        args = [next(it) if isinstance(t, Tensor) else t for t in mine]
        return loss(gru_cell(*args))

    check(build, differentiable, tol=PROPERTY_TOL)


def _matches_the_oracle(fused, oracle, operands, is_tensor, loss):
    """fused against its composed oracle, on arrays and on the tape, and against differences.

    On arrays fused returns an ndarray with the oracle's bits. On the tape, with
    operand i a Tensor where is_tensor[i], its output has the oracle's bits and
    each Tensor operand the oracle tape's gradient, to the bit; a constant
    operand gets none. Last, the gradients match central differences.
    """
    got, want = fused(*operands), oracle(*operands)
    assert not isinstance(got, Tensor)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def lift(arrays):
        return [Tensor(a) if t else a for a, t in zip(arrays, is_tensor)]

    mine, ref = lift(operands), lift(operands)
    out, expected = fused(*mine), oracle(*ref)
    assert _same_bits(out, expected.data)
    loss(out).backward()
    loss(expected).backward()
    for got_t, want_t in zip(mine, ref):
        if isinstance(got_t, Tensor):
            assert np.array_equal(got_t.grad, want_t.grad)

    def build(*tensors):
        it = iter(tensors)
        return loss(fused(*[next(it) if t else a for a, t in zip(operands, is_tensor)]))

    check(build, [a for a, t in zip(operands, is_tensor) if t], tol=PROPERTY_TOL)


@PROPERTY
@given(
    lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    d_in=st.integers(1, 4),
    d_out=st.integers(1, 4),
    x_is_tensor=st.booleans(),
    use_relu=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_matches_the_composed_oracle_property(
    lead, d_in, d_out, x_is_tensor, use_relu, seed
):
    # x is (B, d_in) or (B, T, d_in), a Tensor or a constant input batch
    x, W, b = _arrays(seed, (*lead, d_in), (d_in, d_out), (d_out,))
    _matches_the_oracle(
        lambda *a: dense(*a, relu=use_relu),
        lambda *a: _oracles.dense(*a, relu=use_relu),
        [x, W, b], [x_is_tensor, True, True], _weighted_sum((*lead, d_out), seed),
    )


@PROPERTY
@given(
    batch=st.integers(1, 4),
    h=st.integers(1, 3),
    qs=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pinball_mean_matches_the_composed_oracle_property(batch, h, qs, seed):
    pred, y = _arrays(seed, (batch, h, len(qs)), (batch, h))
    qs = np.sort(qs)
    _matches_the_oracle(
        lambda p, t: pinball_mean(p, t, qs),
        lambda p, t: _oracles.pinball_mean(p, t, qs),
        [pred, y], [True, False], lambda t: t,
    )


# values a float64 ReLU can get wrong: signed zeros, infinities, NaN of either
# sign, the extreme subnormals and normals
_EDGE_FLOATS = (
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


@PROPERTY
@given(
    x=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True)),
    )
)
def test_relu_has_the_bits_of_the_where_form_property(x):
    want = _bits(relu_array(x))
    assert np.array_equal(_bits(_relu(x)), want)
    assert np.array_equal(_bits(relu(x)), want)
    assert np.array_equal(_bits(relu(Tensor(x)).data), want)
    out = x.copy()
    assert _relu(out, out=out) is out and np.array_equal(_bits(out), want)


@PROPERTY
@given(
    lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    d_in=st.integers(1, 4),
    d_out=st.integers(1, 4),
    use_relu=st.booleans(),
    data=st.data(),
)
def test_dense_on_arrays_has_the_bits_of_the_composed_expression_property(
    lead, d_in, d_out, use_relu, data
):
    # x is (B, d_in) or (B, T, d_in); signed zeros in x, W and b give pre-activations of -0.0
    elements = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-10.0, 10.0))
    x = data.draw(hnp.arrays(np.float64, (*lead, d_in), elements=elements))
    W = data.draw(hnp.arrays(np.float64, (d_in, d_out), elements=elements))
    b = data.draw(hnp.arrays(np.float64, (d_out,), elements=elements))
    want = dense_array(x, W, b, relu=use_relu)
    got = dense(x, W, b, relu=use_relu)
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))
    taped = dense(Tensor(x), Tensor(W), Tensor(b), relu=use_relu)
    assert np.array_equal(_bits(taped.data), _bits(want))


def test_fused_ops_at_a_kink_give_the_composed_subgradient():
    # relu's gradient at exactly 0 is 0: a dense row of zeros at zero bias (a
    # dead hidden row at init), and a pinball cell whose forecast hits its target
    rng = np.random.default_rng(13)
    x = rng.normal(size=(3, 4))
    x[1] = 0.0
    W, b = rng.normal(size=(4, 2)), np.zeros(2)
    pred, y = rng.normal(size=(3, 2, 2)), rng.normal(size=(3, 2))
    pred[0, 1, :] = y[0, 1]
    qs = np.array([0.2, 0.7])
    for fused, oracle, operands in (
        (lambda *a: dense(*a, relu=True), lambda *a: _oracles.dense(*a, relu=True), [x, W, b]),
        (lambda p: pinball_mean(p, y, qs), lambda p: _oracles.pinball_mean(p, y, qs), [pred]),
    ):
        mine, ref = [Tensor(a) for a in operands], [Tensor(a) for a in operands]
        fused(*mine).sum().backward()
        oracle(*ref).sum().backward()
        for got, want in zip(mine, ref):
            assert np.array_equal(got.grad, want.grad)


@PROPERTY
@given(batch=st.integers(1, 4), h=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_gaussian_nll_mean_matches_the_composed_oracle_property(batch, h, seed):
    mu, sigma, y = _arrays(seed, (batch, h), (batch, h), (batch, h))
    sigma = np.abs(sigma) + 0.5
    _matches_the_oracle(
        gaussian_nll_mean, _oracles.gaussian_nll_mean,
        [mu, sigma, y], [True, True, False], lambda t: t,
    )


@st.composite
def _matmul_shapes(draw):
    """Operand shapes for a @ b: batched or 2-D on either side."""
    m, d, n = (draw(st.integers(1, 3)) for _ in range(3))
    batch = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3))
    return batch.input_shapes[0] + (m, d), batch.input_shapes[1] + (d, n)


@PROPERTY
@given(shapes=_matmul_shapes(), seed=st.integers(0, 2**32 - 1))
def test_matmul_gradients_property(shapes, seed):
    a, b = _arrays(seed, *shapes)
    loss = _weighted_sum(np.matmul(a, b).shape, seed)
    check(lambda x, y: loss(x @ y), [a, b], tol=PROPERTY_TOL)


@st.composite
def _indexed(draw, fancy: bool):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    if fancy:  # integer arrays, repeats included
        idx = draw(hnp.integer_array_indices(shape, result_shape=hnp.array_shapes(max_dims=2)))
    else:
        idx = draw(hnp.basic_indices(shape, allow_newaxis=True))
    return shape, idx


@PROPERTY
@given(case=st.one_of(_indexed(False), _indexed(True)), seed=st.integers(0, 2**32 - 1))
def test_getitem_gradients_property(case, seed):
    shape, idx = case
    (a,) = _arrays(seed, shape)
    loss = _weighted_sum(a[idx].shape, seed)
    check(lambda x: loss(x[idx]), [a], tol=PROPERTY_TOL)
