"""Minimal reverse-mode autodiff over numpy float64 arrays.

Everything downstream (the toy transformer, all four losses, the visual
token compression operator) is built from the ops in this module. Scalars
and arrays are stored as float64 throughout; desk scale makes memory a
non-issue and it keeps the oracle tolerances tight.

Op contract: an op computes its output value and states one VJP per
input, a function from the output's gradient to that input's gradient,
and hands the value, its inputs and their VJPs to `_node`. `_node` alone
wires the backward pass: it skips inputs that need no gradient, sums
broadcast dimensions away and accumulates into each input's `.grad`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    pass


class ParameterError(ValueError):
    pass


class DegenerateInputError(ValueError):
    pass


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, undoing numpy broadcasting."""
    # sum away leading dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
    """Dense float64 tensor with an optional gradient buffer.

    Nodes form a DAG through `parents`; `backward()` runs reverse-mode
    accumulation in topological order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward: Optional[Callable] = None):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ParameterError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo, seen = [], set()

        def visit(node):
            stack = [(node, False)]
            while stack:
                n, processed = stack.pop()
                if processed:
                    topo.append(n)
                    continue
                if id(n) in seen:
                    continue
                seen.add(id(n))
                stack.append((n, True))
                for p in n._parents:
                    if p.requires_grad:
                        stack.append((p, False))

        visit(self)
        self._accum(_as_array(grad))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


def _same(g):
    return g


def _node(value, parents: tuple, vjps: tuple) -> Tensor:
    """The output node of one op: `value`, its input tensors `parents`, and
    one VJP per parent, where `vjp(g)` maps the output gradient to that
    parent's gradient (before any broadcast dimensions are summed away)."""

    def backward(g):
        for parent, vjp in zip(parents, vjps):
            if parent.requires_grad:
                gp = vjp(g)
                if gp.shape != parent.shape:
                    gp = _unbroadcast(gp, parent.shape)
                parent._accum(gp)

    return Tensor(value, False, parents, backward)


# ---- elementwise ops ----

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data + b.data, (a, b), (_same, _same))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _node(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    return _node(a.data ** p, (a,), (lambda g: g * p * a.data ** (p - 1.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    e = np.exp(a.data)
    return _node(e, (a,), (lambda g: g * e,))


def log(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.log(a.data), (a,), (lambda g: g / a.data,))


def gelu(a) -> Tensor:
    """tanh-approximation GELU."""
    a = as_tensor(a)
    c = np.sqrt(2.0 / np.pi)
    # the cube by multiplication: `** 3` goes through numpy's generic pow,
    # about 40x slower at these sizes
    x2 = a.data * a.data
    inner = c * (a.data + 0.044715 * (x2 * a.data))
    t = np.tanh(inner)

    def vjp(g):
        dinner = c * (1.0 + 3 * 0.044715 * x2)
        return g * (0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t ** 2) * dinner)
    return _node(0.5 * a.data * (1.0 + t), (a,), (vjp,))


# ---- shape ops ----

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    inv = np.argsort(axes)
    return _node(a.data.transpose(axes), (a,), (lambda g: g.transpose(inv),))


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    value = np.concatenate([t.data for t in tensors], axis=axis)
    lead = (slice(None),) * (axis % value.ndim)
    ends = np.cumsum([t.shape[axis] for t in tensors])
    return _node(value, tuple(tensors),
                 tuple([lambda g, part=lead + (slice(end - t.shape[axis], end),): g[part]
                        for t, end in zip(tensors, ends)]))


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    expand = axis is not None and not keepdims
    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,),
                 (lambda g: np.broadcast_to(np.expand_dims(g, axis) if expand else g,
                                            a.shape).copy(),))


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def take_rows(table: Tensor, indices) -> Tensor:
    """Row gather along axis 0 (embedding lookup)."""
    table = as_tensor(table)
    idx = np.asarray(indices)

    def vjp(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx.ravel(), g.reshape(-1, *table.shape[1:]))
        return acc
    return _node(table.data[idx], (table,), (vjp,))


def index_select_last(x: Tensor, idx) -> Tensor:
    """Pick x[..., i, :] per leading index: x [B,T,D], idx [B] -> [B,D]."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    b = np.arange(x.shape[0])

    def vjp(g):
        acc = np.zeros_like(x.data)
        acc[b, idx] = g
        return acc
    return _node(x.data[b, idx], (x,), (vjp,))


def gather_last(x: Tensor, idx) -> Tensor:
    """Gather along the last axis: x [..., n], idx [...] -> [...]."""
    x = as_tensor(x)
    idx = np.asarray(idx)

    def vjp(g):
        acc = np.zeros_like(x.data)
        np.put_along_axis(acc, idx[..., None], g[..., None], axis=-1)
        return acc
    return _node(np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0], (x,), (vjp,))


def masked_scatter(base: Tensor, mask: np.ndarray, values: Tensor) -> Tensor:
    """Replace rows of base [B,T,D] where mask [B,T] is True with values [K,D].

    Values are consumed in row-major (b, t) order of the True positions.
    """
    base, values = as_tensor(base), as_tensor(values)
    if int(mask.sum()) != values.shape[0]:
        raise ShapeError("masked_scatter: mask count does not match value rows")
    data = base.data.copy()
    data[mask] = values.data

    def vjp_base(g):
        gb = g.copy()
        gb[mask] = 0.0
        return gb
    return _node(data, (base, values), (vjp_base, lambda g: g[mask]))


# ---- linear algebra ----

def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    # promote 1-D operands so a single 2-D+ backward rule covers everything
    if a.ndim == 1:
        return reshape(matmul(reshape(a, (1, -1)), b), b.shape[:-2] + b.shape[-1:])
    if b.ndim == 1:
        return reshape(matmul(a, reshape(b, (-1, 1))), a.shape[:-1])
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul: inner dimensions differ ({a.shape} x {b.shape})")
    return _node(np.matmul(a.data, b.data), (a, b),
                 (lambda g: np.matmul(g, np.swapaxes(b.data, -1, -2)),
                  lambda g: np.matmul(np.swapaxes(a.data, -1, -2), g)))


def softmax(x, temperature: float = 1.0) -> Tensor:
    """Temperature-scaled softmax over the last axis, max-subtracted."""
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {temperature}")
    x = as_tensor(x)
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return _node(p, (x,), (lambda g: p * (g - (g * p).sum(axis=-1, keepdims=True)) / temperature,))


def log_softmax(x) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    value = z - lse
    p = np.exp(value)
    return _node(value, (x,), (lambda g: g - p * g.sum(axis=-1, keepdims=True),))


def layer_norm_core(x, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    x = as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    return _node(y, (x,), (lambda g: inv * (g - g.mean(axis=-1, keepdims=True)
                                            - y * (g * y).mean(axis=-1, keepdims=True)),))


def l2_normalize(v: Tensor) -> Tensor:
    """Scale a vector (or batch of row vectors) to unit Euclidean norm."""
    v = as_tensor(v)
    norm = np.linalg.norm(v.data, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateInputError("l2_normalize: zero vector")
    y = v.data / norm
    return _node(y, (v,), (lambda g: (g - y * (g * y).sum(axis=-1, keepdims=True)) / norm,))


# ---- bilinear spatial resampling ----

@dataclass(frozen=True)
class Grid2D:
    """H x W x C dense feature grid."""
    values: np.ndarray

    def __post_init__(self):
        v = _as_array(self.values)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ShapeError(f"Grid2D expects an HxWxC array, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@lru_cache(maxsize=64)
def downsample_matrix(h: int, w: int, s: int) -> np.ndarray:
    """(H/s * W/s) x (H*W) interpolation-weight matrix.

    Output site (i, j) samples the source at half-pixel-centered
    coordinates ((i + 0.5) * s - 0.5, (j + 0.5) * s - 0.5), clamped to the
    grid, with standard bilinear weights. The operator is linear in its
    input and carries no learned parameters.
    """
    if s < 1:
        raise ParameterError(f"downsample factor must be >= 1, got {s}")
    if h % s or w % s:
        raise ShapeError(
            f"grid {h}x{w} is not divisible by factor {s}; refusing to crop")
    hh, ww = h // s, w // s
    m = np.zeros((hh * ww, h * w))
    for i in range(hh):
        sy = min(max((i + 0.5) * s - 0.5, 0.0), h - 1)
        y0 = int(np.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(ww):
            sx = min(max((j + 0.5) * s - 0.5, 0.0), w - 1)
            x0 = int(np.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            row = i * ww + j
            m[row, y0 * w + x0] += (1 - fy) * (1 - fx)
            m[row, y0 * w + x1] += (1 - fy) * fx
            m[row, y1 * w + x0] += fy * (1 - fx)
            m[row, y1 * w + x1] += fy * fx
    return m


def bilinear_downsample(grid: Grid2D, s: int) -> Grid2D:
    """Reduce a Grid2D's spatial resolution by an integer factor s, through
    the same operator the model runs (`bilinear_downsample_t`)."""
    h, w, c = grid.values.shape
    out = bilinear_downsample_t(constant(grid.values.reshape(h * w, c)), h, w, s)
    return Grid2D(out.data.reshape(h // s, w // s, c))


def bilinear_downsample_t(x: Tensor, h: int, w: int, s: int) -> Tensor:
    """Differentiable downsample: x [(H*W), C] or [B, H*W, C] -> reduced rows.

    Gradients distribute to the <=4 source sites of each output through the
    transpose of the forward weight matrix (matmul backward does this).
    """
    m = constant(downsample_matrix(h, w, s))
    return matmul(m, x)
