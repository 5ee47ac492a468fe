"""Minimal reverse-mode autodiff over numpy float64 arrays.

Everything downstream (the toy transformer, all four losses, the visual
token compression operator) is built from the ops in this module. Scalars
and arrays are stored as float64 throughout; desk scale makes memory a
non-issue and it keeps the oracle tolerances tight.
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
    if grad.shape == shape:
        return grad
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

    # ---- arithmetic ----

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x, requires_grad=False)


# ---- elementwise ops ----

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, parents=(a, b))

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    out._backward = bw
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data, parents=(a, b))

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    out._backward = bw
    return out


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data ** p, parents=(a,))

    def bw(g):
        if a.requires_grad:
            a._accum(g * p * a.data ** (p - 1.0))

    out._backward = bw
    return out


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.exp(a.data), parents=(a,))

    def bw(g):
        if a.requires_grad:
            a._accum(g * out.data)

    out._backward = bw
    return out


def log(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.log(a.data), parents=(a,))

    def bw(g):
        if a.requires_grad:
            a._accum(g / a.data)

    out._backward = bw
    return out


def gelu(a) -> Tensor:
    """tanh-approximation GELU."""
    a = as_tensor(a)
    c = np.sqrt(2.0 / np.pi)
    inner = c * (a.data + 0.044715 * a.data ** 3)
    t = np.tanh(inner)
    out = Tensor(0.5 * a.data * (1.0 + t), parents=(a,))

    def bw(g):
        if a.requires_grad:
            dinner = c * (1.0 + 3 * 0.044715 * a.data ** 2)
            da = 0.5 * (1.0 + t) + 0.5 * a.data * (1.0 - t ** 2) * dinner
            a._accum(g * da)

    out._backward = bw
    return out


# ---- shape ops ----

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape), parents=(a,))

    def bw(g):
        if a.requires_grad:
            a._accum(g.reshape(a.shape))

    out._backward = bw
    return out


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.transpose(axes), parents=(a,))
    inv = np.argsort(axes)

    def bw(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    out._backward = bw
    return out


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 parents=tuple(tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        parts = np.split(g, splits, axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accum(part)

    out._backward = bw
    return out


def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), parents=(a,))

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.shape).copy())

    out._backward = bw
    return out


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def take_rows(table: Tensor, indices) -> Tensor:
    """Row gather along axis 0 (embedding lookup)."""
    table = as_tensor(table)
    idx = np.asarray(indices)
    out = Tensor(table.data[idx], parents=(table,))

    def bw(g):
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, idx.ravel(), g.reshape(-1, *table.shape[1:]))
            table._accum(acc)

    out._backward = bw
    return out


def index_select_last(x: Tensor, idx) -> Tensor:
    """Pick x[..., i, :] per leading index: x [B,T,D], idx [B] -> [B,D]."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    b = np.arange(x.shape[0])
    out = Tensor(x.data[b, idx], parents=(x,))

    def bw(g):
        if x.requires_grad:
            acc = np.zeros_like(x.data)
            acc[b, idx] = g
            x._accum(acc)

    out._backward = bw
    return out


def gather_last(x: Tensor, idx) -> Tensor:
    """Gather along the last axis: x [..., n], idx [...] -> [...]."""
    x = as_tensor(x)
    idx = np.asarray(idx)
    out_data = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]
    out = Tensor(out_data, parents=(x,))

    def bw(g):
        if x.requires_grad:
            acc = np.zeros_like(x.data)
            np.put_along_axis(acc, idx[..., None], g[..., None], axis=-1)
            x._accum(acc)

    out._backward = bw
    return out


def masked_scatter(base: Tensor, mask: np.ndarray, values: Tensor) -> Tensor:
    """Replace rows of base [B,T,D] where mask [B,T] is True with values [K,D].

    Values are consumed in row-major (b, t) order of the True positions.
    """
    base, values = as_tensor(base), as_tensor(values)
    if int(mask.sum()) != values.shape[0]:
        raise ShapeError("masked_scatter: mask count does not match value rows")
    data = base.data.copy()
    data[mask] = values.data
    out = Tensor(data, parents=(base, values))

    def bw(g):
        if base.requires_grad:
            gb = g.copy()
            gb[mask] = 0.0
            base._accum(gb)
        if values.requires_grad:
            values._accum(g[mask])

    out._backward = bw
    return out


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
    out = Tensor(np.matmul(a.data, b.data), parents=(a, b))

    def bw(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accum(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accum(_unbroadcast(gb, b.shape))

    out._backward = bw
    return out


def softmax(x, temperature: float = 1.0) -> Tensor:
    """Temperature-scaled softmax over the last axis, max-subtracted."""
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {temperature}")
    x = as_tensor(x)
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p, parents=(x,))

    def bw(g):
        if x.requires_grad:
            dot = (g * p).sum(axis=-1, keepdims=True)
            x._accum(p * (g - dot) / temperature)

    out._backward = bw
    return out


def log_softmax(x) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(z - lse, parents=(x,))
    p = np.exp(out.data)

    def bw(g):
        if x.requires_grad:
            x._accum(g - p * g.sum(axis=-1, keepdims=True))

    out._backward = bw
    return out


def layer_norm_core(x, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    x = as_tensor(x)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    out = Tensor(y, parents=(x,))

    def bw(g):
        if x.requires_grad:
            gx = inv * (g - g.mean(axis=-1, keepdims=True)
                        - y * (g * y).mean(axis=-1, keepdims=True))
            x._accum(gx)

    out._backward = bw
    return out


def l2_normalize(v: Tensor) -> Tensor:
    """Scale a vector (or batch of row vectors) to unit Euclidean norm."""
    v = as_tensor(v)
    norm = np.linalg.norm(v.data, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateInputError("l2_normalize: zero vector")
    y = v.data / norm
    out = Tensor(y, parents=(v,))

    def bw(g):
        if v.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            v._accum((g - y * dot) / norm)

    out._backward = bw
    return out


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
    """Reduce a Grid2D's spatial resolution by an integer factor s."""
    h, w, c = grid.values.shape
    m = downsample_matrix(h, w, s)
    flat = grid.values.reshape(h * w, c)
    out = (m @ flat).reshape(h // s, w // s, c)
    return Grid2D(out)


def bilinear_downsample_t(x: Tensor, h: int, w: int, s: int) -> Tensor:
    """Differentiable downsample: x [(H*W), C] or [B, H*W, C] -> reduced rows.

    Gradients distribute to the <=4 source sites of each output through the
    transpose of the forward weight matrix (matmul backward does this).
    """
    m = constant(downsample_matrix(h, w, s))
    return matmul(m, x)
