"""Tensor engine: op semantics, broadcasting, and gradient correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtembed.autograd import (
    ParameterError,
    ShapeError,
    Tensor,
    add,
    bilinear_downsample_t,
    concat,
    constant,
    exp,
    gather_last,
    gelu,
    index_select_last,
    l2_normalize,
    layer_norm_core,
    log,
    log_softmax,
    masked_scatter,
    matmul,
    mean,
    mul,
    power,
    reshape,
    softmax,
    sum_,
    take_rows,
    transpose,
)
from vtembed.autograd import DegenerateInputError

from conftest import fd_check


def triple_loop_matmul(a, b):
    """Independent reference multiply, element by element."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        i2 = np.eye(2)
        assert np.array_equal(matmul(Tensor(i2), Tensor(i2)).data, i2)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        assert np.array_equal(matmul(a, b).data, [[2.0], [4.0]])

    def test_against_triple_loop_oracle(self, rng):
        a = rng.normal(0, 1, (5, 7))
        b = rng.normal(0, 1, (7, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.max(np.abs(got - triple_loop_matmul(a, b))) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradients(self, rng):
        a = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, (4, 2)), requires_grad=True)
        fd_check(lambda: sum_(mul(matmul(a, b), matmul(a, b))), [a, b])

    def test_batched_gradients(self, rng):
        a = Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, (4, 5)), requires_grad=True)
        fd_check(lambda: sum_(matmul(a, b)), [a, b])

    def test_vector_promotion(self, rng):
        v = rng.normal(0, 1, 4)
        m = rng.normal(0, 1, (4, 3))
        assert np.allclose(matmul(Tensor(v), Tensor(m)).data, v @ m)
        assert np.allclose(matmul(Tensor(m.T), Tensor(v)).data, m.T @ v)


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-12)

    def test_stability(self):
        out = softmax(Tensor([1000.0, 0.0])).data
        assert np.isfinite(out).all()
        assert out[0] > 0.999999

    def test_low_temperature_oracle(self):
        # exp((x - max)/tau) / sum at tau=0.03, x=[1,0]; frozen from an
        # extended-precision evaluation (mpmath mp.dps=50).
        out = softmax(Tensor([1.0, 0.0]), temperature=0.03).data
        expected_second = 3.338237795364995e-15
        assert abs(out[1] - expected_second) / expected_second < 1e-9
        assert abs(out[0] - (1.0 - expected_second)) < 1e-15

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            softmax(Tensor([1.0]), temperature=0.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_probability_vector(self, xs, tau):
        out = softmax(Tensor(xs), temperature=tau).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_gradients(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 5)), requires_grad=True)
        w = rng.normal(0, 1, (3, 5))
        fd_check(lambda: sum_(mul(softmax(x, temperature=0.5), w)), [x])


class TestL2Normalize:
    def test_already_unit(self):
        assert np.allclose(l2_normalize(Tensor([1.0, 0.0, 0.0])).data, [1, 0, 0])

    def test_345(self):
        assert np.allclose(l2_normalize(Tensor([3.0, 4.0])).data, [0.6, 0.8])

    def test_random_norm_one(self, rng):
        v = rng.normal(0, 1, 32)
        assert abs(np.linalg.norm(l2_normalize(Tensor(v)).data) - 1.0) <= 1e-9

    def test_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            l2_normalize(Tensor(np.zeros(4)))

    def test_gradients(self, rng):
        v = Tensor(rng.normal(0, 1, 6), requires_grad=True)
        w = rng.normal(0, 1, 6)
        fd_check(lambda: sum_(mul(l2_normalize(v), w)), [v])


def tanh(t):
    """tanh composed from library ops, 1 - 2 / (exp(2t) + 1): a chain of
    four ops under one gradient check."""
    return add(mul(power(add(exp(mul(t, 2.0)), 1.0), -1.0), -2.0), 1.0)


class TestElementwiseGradients:
    """Central finite differences (step 1e-5) within relative 1e-4."""

    @pytest.mark.parametrize("op,domain", [
        (tanh, (-2, 2)), (gelu, (-2, 2)), (exp, (-1, 1)),
        (log, (0.5, 3.0)), (lambda t: power(t, 3.0), (0.5, 2.0)),
    ])
    def test_unary(self, op, domain, rng):
        x = Tensor(rng.uniform(*domain, (4, 3)), requires_grad=True)
        fd_check(lambda: sum_(op(x)), [x])

    def test_add_mul_broadcast(self, rng):
        a = Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, (3,)), requires_grad=True)
        fd_check(lambda: sum_(mul(add(a, b), b)), [a, b])

    def test_log_softmax(self, rng):
        x = Tensor(rng.normal(0, 1, (2, 7)), requires_grad=True)
        w = rng.normal(0, 1, (2, 7))
        fd_check(lambda: sum_(mul(log_softmax(x), w)), [x])

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(0, 2, (3, 8)), requires_grad=True)
        w = rng.normal(0, 1, (3, 8))
        fd_check(lambda: sum_(mul(layer_norm_core(x), w)), [x], rel_tol=1e-3)

    def test_mean_keepdims(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True)
        fd_check(lambda: sum_(mul(mean(x, axis=1, keepdims=True), x)), [x])


def _gelu_formula(x):
    """The tanh-approximation GELU with numpy's generic power as the cube."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))


def _gelu_derivative(x):
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * c * (1.0 + 3 * 0.044715 * np.power(x, 2))


class TestGeluNumerics:
    """`gelu` cubes by multiplication; the forward stays within 1e-15 and
    the VJP within 1e-14 of the `np.power` formulas."""

    @pytest.mark.parametrize("draw", [
        lambda r: r.uniform(-8.0, 8.0, 20000),
        lambda r: r.normal(0.0, 1.0, (112, 22, 128)),
    ], ids=["uniform-8-8", "normal-112x22x128"])
    def test_matches_power_formula(self, draw, rng):
        x = draw(rng)
        t = Tensor(x, requires_grad=True)
        out = gelu(t)
        g = rng.normal(0.0, 1.0, x.shape)
        out.backward(g)
        assert np.abs(out.data - _gelu_formula(x)).max() <= 1e-15
        assert np.abs(t.grad - g * _gelu_derivative(x)).max() <= 1e-14


class TestStructuralOps:
    def test_reshape_transpose_roundtrip(self, rng):
        x = Tensor(rng.normal(0, 1, (2, 3, 4)), requires_grad=True)
        y = transpose(reshape(x, (6, 4)), (1, 0))
        assert y.shape == (4, 6)
        w = rng.normal(0, 1, (4, 6))
        fd_check(lambda: sum_(mul(transpose(reshape(x, (6, 4)), (1, 0)), w)), [x])

    def test_concat_gradient_split(self, rng):
        a = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        b = Tensor(rng.normal(0, 1, (4, 3)), requires_grad=True)
        out = sum_(mul(concat([a, b], axis=0), 2.0))
        out.backward()
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)

    def test_take_rows_duplicate_indices_accumulate(self):
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        out = sum_(take_rows(table, np.array([0, 0, 2])))
        out.backward()
        assert np.array_equal(table.grad, [[2, 2], [0, 0], [1, 1]])

    def test_index_select_last(self, rng):
        x = Tensor(rng.normal(0, 1, (3, 5, 2)), requires_grad=True)
        idx = np.array([4, 0, 2])
        out = index_select_last(x, idx)
        assert np.array_equal(out.data, x.data[np.arange(3), idx])
        fd_check(lambda: sum_(index_select_last(x, idx)), [x])

    def test_gather_last(self, rng):
        x = Tensor(rng.normal(0, 1, (4, 6)), requires_grad=True)
        idx = np.array([1, 5, 0, 3])
        assert np.array_equal(gather_last(x, idx).data, x.data[np.arange(4), idx])
        fd_check(lambda: sum_(gather_last(x, idx)), [x])

    def test_masked_scatter_values_and_grads(self, rng):
        base = Tensor(rng.normal(0, 1, (2, 3, 2)), requires_grad=True)
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 1] = mask[1, 2] = True
        vals = Tensor(rng.normal(0, 1, (2, 2)), requires_grad=True)
        out = masked_scatter(base, mask, vals)
        assert np.array_equal(out.data[0, 1], vals.data[0])
        assert np.array_equal(out.data[1, 2], vals.data[1])
        assert np.array_equal(out.data[0, 0], base.data[0, 0])
        fd_check(lambda: sum_(mul(masked_scatter(base, mask, vals), 1.5)),
                 [base, vals])

    def test_masked_scatter_count_mismatch(self):
        with pytest.raises(ShapeError):
            masked_scatter(Tensor(np.zeros((1, 2, 2))),
                           np.array([[True, True]]), Tensor(np.zeros((1, 2))))


class TestBackwardMachinery:
    def test_backward_needs_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ParameterError):
            add(t, 1.0).backward()

    def test_diamond_graph_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = add(mul(x, x), mul(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3 = 7
        y.backward()
        assert abs(x.grad - 7.0) <= 1e-12

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = add(y, 0.0)
        y.backward()
        assert x.grad == 1.0


# Every differentiable op as (fn of its tensor inputs, input shapes); a
# domain of (0.5, 2.0) keeps log and power away from zero.
_MASK = np.array([[False, True, False], [True, False, True]])
_ROUTED_OPS = {
    "add": (add, [(3, 4), (4,)]),
    "mul": (mul, [(3, 1), (3, 4)]),
    "matmul": (matmul, [(2, 3, 4), (4, 2)]),
    "concat": (lambda a, b: concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "masked_scatter": (lambda base, v: masked_scatter(base, _MASK, v), [(2, 3, 2), (3, 2)]),
    "power": (lambda x: power(x, 3.0), [(3, 4)]),
    "exp": (exp, [(3, 4)]),
    "log": (log, [(3, 4)]),
    "gelu": (gelu, [(3, 4)]),
    "reshape": (lambda x: reshape(x, (4, 3)), [(3, 4)]),
    "transpose": (lambda x: transpose(x, (1, 0)), [(3, 4)]),
    "sum_": (lambda x: sum_(x, axis=0), [(3, 4)]),
    "mean": (lambda x: mean(x, axis=1, keepdims=True), [(3, 4)]),
    "take_rows": (lambda x: take_rows(x, np.array([2, 0, 2])), [(3, 4)]),
    "index_select_last": (lambda x: index_select_last(x, np.array([1, 0])), [(2, 3, 4)]),
    "gather_last": (lambda x: gather_last(x, np.array([3, 0, 1])), [(3, 4)]),
    "softmax": (lambda x: softmax(x, temperature=0.5), [(3, 4)]),
    "log_softmax": (log_softmax, [(3, 4)]),
    "layer_norm_core": (layer_norm_core, [(3, 4)]),
    "l2_normalize": (l2_normalize, [(3, 4)]),
    "bilinear_downsample_t": (lambda x: bilinear_downsample_t(x, 4, 4, 2), [(16, 2)]),
}
_ROUTING_CASES = [(name, i) for name, (_, shapes) in _ROUTED_OPS.items()
                  for i in range(len(shapes))]


@pytest.mark.parametrize("name, const_at", _ROUTING_CASES,
                         ids=[f"{n}-const{i}" for n, i in _ROUTING_CASES])
def test_constant_input_gets_no_gradient(name, const_at, rng):
    """One input is a constant: its .grad stays None and every other input
    still gets a gradient that passes the finite-difference check."""
    fn, shapes = _ROUTED_OPS[name]
    inputs = [Tensor(rng.uniform(0.5, 2.0, s), requires_grad=i != const_at)
              for i, s in enumerate(shapes)]
    inputs[const_at] = constant(inputs[const_at].data)
    w = rng.normal(0, 1, fn(*inputs).shape)
    others = [t for i, t in enumerate(inputs) if i != const_at]
    fd_check(lambda: sum_(mul(fn(*inputs), w)), others, rel_tol=1e-3)
    if not others:
        assert not fn(*inputs).requires_grad
    assert inputs[const_at].grad is None


def _sum_to(g, shape):
    """Independent oracle: one sum over every axis numpy broadcast."""
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, d in enumerate(shape)
                                      if d == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


@st.composite
def _broadcast_operand(draw, full):
    """A shape that broadcasts to `full`: some leading dims dropped, some
    of the rest set to 1."""
    kept = full[draw(st.integers(0, len(full))):]
    return tuple(1 if draw(st.booleans()) else d for d in kept)


_DIMS = st.lists(st.integers(1, 3), min_size=0, max_size=3).map(tuple)


@given(st.data(), _DIMS.filter(len), st.sampled_from(["add", "mul"]))
@settings(max_examples=60, deadline=None)
def test_elementwise_broadcast_gradients_sum_to_input_shape(data, full, op):
    r = np.random.default_rng(len(full))
    sa = data.draw(_broadcast_operand(full))
    sb = data.draw(_broadcast_operand(full))
    a = Tensor(r.normal(0, 1, sa), requires_grad=True)
    b = Tensor(r.normal(0, 1, sb), requires_grad=True)
    out = (add if op == "add" else mul)(a, b)
    g = r.normal(0, 1, np.broadcast_shapes(sa, sb))
    out.backward(g)
    da, db = (g, g) if op == "add" else (g * b.data, g * a.data)
    assert a.grad.shape == sa and b.grad.shape == sb
    assert np.allclose(a.grad, _sum_to(da, sa), rtol=1e-12, atol=1e-12)
    assert np.allclose(b.grad, _sum_to(db, sb), rtol=1e-12, atol=1e-12)


@given(st.data(), _DIMS, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_batched_matmul_gradients_sum_to_input_shape(data, lead, m, k, n):
    r = np.random.default_rng(m * 9 + k * 3 + n)
    sa = data.draw(_broadcast_operand(lead)) + (m, k)
    sb = data.draw(_broadcast_operand(lead)) + (k, n)
    a = Tensor(r.normal(0, 1, sa), requires_grad=True)
    b = Tensor(r.normal(0, 1, sb), requires_grad=True)
    out = matmul(a, b)
    batch = np.broadcast_shapes(sa[:-2], sb[:-2])
    g = r.normal(0, 1, batch + (m, n))
    out.backward(g)
    full_a = np.broadcast_to(a.data, batch + (m, k))
    full_b = np.broadcast_to(b.data, batch + (k, n))
    assert np.allclose(a.grad, _sum_to(np.einsum("...mn,...kn->...mk", g, full_b), sa),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(b.grad, _sum_to(np.einsum("...mk,...mn->...kn", full_a, g), sb),
                       rtol=1e-12, atol=1e-12)
