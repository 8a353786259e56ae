"""Dense tensors with reverse-mode automatic differentiation.

Numpy holds the flat data; this module owns the graph. Every operation
records its parents and a backward closure on the output tensor, and
`Tensor.backward` replays the closures in reverse topological order,
accumulating gradients additively where a tensor feeds several
consumers. Tensors produced by ops are treated as immutable; only the
optimizer writes parameter values between steps, in place, into the
optimizer's flat buffer that each parameter's `.data` views.

Precision is 64-bit by default, 32-bit selectable per run ("f32").
Elementwise broadcasting is deliberately limited to python-number
scalars; all tensor-tensor elementwise ops require exactly equal shapes
so every backward rule is unambiguous. The ops that take 2-D weights
(`linear`, `lora_linear`, `mlp_block`) apply them to any stack of row
vectors and sum the weight gradients over the leading axes.

Three fused ops cover the transformer block, each one tape node with a
hand-derived backward over intermediates it keeps from its forward:
`attention` (split heads, softmax(Q K^T / sqrt(d/H)) V, merge heads;
q is (B, Tq, d) and k, v are (B, Tk, d), so fewer rows may query than
supply keys and values), `lora_linear` (W x + gamma * B (A x)) and
`mlp_block` (LN, W1, GELU, W2, residual). Their forward evaluates the
same numpy expressions, in the same order, as the chain of primitive
ops they replace. Every backward skips the products whose operand does
not require grad.

Every op output is checked finite; a NaN/Inf raises NumericError at the
op that produced it, which for a fused op names the fused op.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, NumericError

DTYPES = {"f64": np.float64, "f32": np.float32}

_GELU_C0 = math.sqrt(2.0 / math.pi)
_GELU_C1 = 0.044715
_NORM_EPS = 1e-5

_TRACE: Optional[list] = None


def resolve_dtype(precision) -> np.dtype:
    """Map "f64"/"f32" (or a numpy float dtype) to the numpy dtype."""
    if isinstance(precision, str):
        try:
            return np.dtype(DTYPES[precision])
        except KeyError:
            raise ConfigError(f"unknown precision {precision!r}; expected one of {sorted(DTYPES)}")
    dt = np.dtype(precision)
    if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ConfigError(f"unsupported dtype {dt}")
    return dt


@contextmanager
def op_trace():
    """Record the (name, shape) sequence of ops executed in this block."""
    global _TRACE
    prev, _TRACE = _TRACE, []
    try:
        yield _TRACE
    finally:
        _TRACE = prev


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by {op}")


def _quiet(fn):
    """Silence numpy overflow/invalid warnings inside an op; the post-op
    finiteness check is the real contract and raises NumericError."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)

    return wrapper


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None, name: str | None = None):
        if dtype is not None:
            arr = np.asarray(data, dtype=resolve_dtype(dtype))
        else:
            arr = np.asarray(data)
            if arr.dtype not in (np.float64, np.float32):
                arr = arr.astype(np.float64)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # -- graph ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; visits each node exactly once."""
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar output, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for node in reversed(order):
                if node._backward_fn is not None and node.grad is not None:
                    node._backward_fn(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return self.scale(-1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def scale(self, gamma: float) -> "Tensor":
        return scale(gamma, self)

    @property
    def T(self) -> "Tensor":
        if self.data.ndim != 2:
            raise DimensionError(".T is defined for 2-D tensors only")
        return transpose(self, (1, 0))

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def sum(self) -> "Tensor":
        return tsum(self)

    def mean(self) -> "Tensor":
        return tmean(self)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            # a frozen parent is a leaf that takes no gradient: nothing to visit
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _from_op(name: str, data: np.ndarray, parents: tuple, backward: Callable) -> Tensor:
    _check_finite(data, name)
    if _TRACE is not None:
        _TRACE.append((name, data.shape))
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward
    else:
        # requires_grad=False: keep no graph references and never a grad buffer
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _as_scalar(x, dtype) -> float | None:
    """Python numbers act as the one permitted elementwise broadcast."""
    if isinstance(x, (int, float)):
        return dtype.type(x)
    return None


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} must match exactly")
    if a.data.dtype != b.data.dtype:
        raise ConfigError(f"{op}: mixed dtypes {a.data.dtype} and {b.data.dtype}")


# -- elementwise ----------------------------------------------------------


@_quiet
def add(a: Tensor, b) -> Tensor:
    s = _as_scalar(b, a.data.dtype)
    if s is not None:
        def bw(g, a=a):
            _accum(a, g)
        return _from_op("add", a.data + s, (a,), bw)
    _check_same_shape(a, b, "add")

    def bw(g, a=a, b=b):
        _accum(a, g)
        _accum(b, g)

    return _from_op("add", a.data + b.data, (a, b), bw)


@_quiet
def sub(a: Tensor, b) -> Tensor:
    s = _as_scalar(b, a.data.dtype)
    if s is not None:
        def bw(g, a=a):
            _accum(a, g)
        return _from_op("sub", a.data - s, (a,), bw)
    _check_same_shape(a, b, "sub")

    def bw(g, a=a, b=b):
        _accum(a, g)
        _accum(b, -g)

    return _from_op("sub", a.data - b.data, (a, b), bw)


@_quiet
def mul(a: Tensor, b) -> Tensor:
    s = _as_scalar(b, a.data.dtype)
    if s is not None:
        return scale(float(s), a)
    _check_same_shape(a, b, "mul")

    def bw(g, a=a, b=b):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _from_op("mul", a.data * b.data, (a, b), bw)


@_quiet
def scale(gamma: float, x: Tensor) -> Tensor:
    g0 = x.data.dtype.type(gamma)

    def bw(g, x=x, g0=g0):
        _accum(x, g * g0)

    return _from_op("scale", x.data * g0, (x,), bw)


def _gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of x and the tanh term its derivative needs.

    The cube is x*x*x: `x**3` goes through pow() and is ~70x slower.
    """
    dt = x.dtype
    t = x * x
    t *= x
    t *= dt.type(_GELU_C1)
    t += x
    t *= dt.type(_GELU_C0)
    np.tanh(t, out=t)
    # scaling by 0.5 is exact, so scaling last gives the bits of 0.5 x (1 + t)
    out = t + 1.0
    out *= x
    out *= dt.type(0.5)
    return out, t


def _gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu / dx = 0.5 ((1 + t) + x (1 - t^2) c0 (1 + 3 c1 x^2)).

    Two buffers; the 0.5 is applied last, which is exact.
    """
    dt = x.dtype
    du = x * x
    du *= 3.0 * dt.type(_GELU_C1)
    du += 1.0
    du *= dt.type(_GELU_C0)
    d = t * t
    np.subtract(1.0, d, out=d)
    d *= x
    d *= du
    np.add(t, 1.0, out=du)
    d += du
    d *= dt.type(0.5)
    return d


@_quiet
def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    out, t = _gelu_fwd(x.data)

    def bw(g, x=x, t=t):
        d = _gelu_grad(x.data, t)
        d *= g
        _accum(x, d)

    return _from_op("gelu", out, (x,), bw)


# -- matrix products ------------------------------------------------------


@_quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product on the last two axes.

    Either both operands are 2-D, or they carry identical leading
    (batch) axes; no batch broadcasting, so backward is the plain
    dA = dC @ B^T, dB = A^T @ dC per slice.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError("matmul operands must be at least 2-D")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree {a.shape} x {b.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(f"matmul: leading axes {a.shape[:-2]} and {b.shape[:-2]} must match")
    if a.data.dtype != b.data.dtype:
        raise ConfigError(f"matmul: mixed dtypes {a.data.dtype} and {b.data.dtype}")
    out = a.data @ b.data

    def bw(g, a=a, b=b):
        _accum(a, g @ np.swapaxes(b.data, -1, -2))
        _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _from_op("matmul", out, (a, b), bw)


def _check_linear(x: Tensor, w: Tensor, op: str) -> None:
    if w.data.ndim != 2:
        raise DimensionError(f"{op}: weight must be 2-D, got {w.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[1]:
        raise DimensionError(f"{op}: input width {x.shape} does not match weight {w.shape}")
    if x.data.dtype != w.data.dtype:
        raise ConfigError(f"{op}: mixed dtypes {x.data.dtype} and {w.data.dtype}")


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., n) -> (rows, n): the stack of row vectors a weight acts on."""
    return a.reshape(-1, a.shape[-1])


@_quiet
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ W^T (+ bias); x is (..., n), W is (m, n), bias (m,).

    The weight gradient sums over all leading axes of x.
    """
    _check_linear(x, w, "linear")
    out = x.data @ w.data.T
    if b is not None:
        if b.data.shape != (w.data.shape[0],):
            raise DimensionError(f"linear: bias shape {b.shape} does not match weight {w.shape}")
        out += b.data

    def bw(g, x=x, w=w, b=b):
        if x.requires_grad:
            _accum(x, g @ w.data)
        if w.requires_grad:
            _accum(w, _rows(g).T @ _rows(x.data))
        if b is not None and b.requires_grad:
            _accum(b, _rows(g).sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _from_op("linear", out, parents, bw)


@_quiet
def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, gamma: float) -> Tensor:
    """y = x @ W^T + gamma * (x @ A^T) @ B^T, one tape node.

    x is (..., n), W (m, n), A (r, n), B (m, r): a projection plus its
    low-rank side path (LoRA). The m x n delta B A is never formed.
    """
    _check_linear(x, w, "lora_linear")
    m, n = w.data.shape
    if a.data.ndim != 2 or a.data.shape[1] != n or b.data.shape != (m, a.data.shape[0]):
        raise DimensionError(f"lora_linear: factors {a.shape}, {b.shape} do not fit weight {w.shape}")
    if a.data.dtype != w.data.dtype or b.data.dtype != w.data.dtype:
        raise ConfigError(f"lora_linear: factor dtypes {a.data.dtype}, {b.data.dtype} differ from {w.data.dtype}")
    g0 = w.data.dtype.type(gamma)
    out = x.data @ w.data.T
    ax = x.data @ a.data.T
    low = ax @ b.data.T
    low *= g0
    out += low

    def bw(g, x=x, w=w, a=a, b=b, ax=ax, g0=g0):
        gs = g * g0
        if b.requires_grad:
            _accum(b, _rows(gs).T @ _rows(ax))
        if a.requires_grad or x.requires_grad:
            gax = gs @ b.data
            if a.requires_grad:
                _accum(a, _rows(gax).T @ _rows(x.data))
            if x.requires_grad:
                dx = g @ w.data
                dx += gax @ a.data
                _accum(x, dx)
        if w.requires_grad:
            _accum(w, _rows(g).T @ _rows(x.data))

    return _from_op("lora_linear", out, (x, w, a, b), bw)


@_quiet
def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention core, one tape node.

    q is (B, Tq, d); k and v are (B, Tk, d). Tq may be smaller than Tk:
    the last ViT block queries with the class token alone while every
    token supplies a key and a value. Each input is split into `heads`
    slices of width d/H; per head the output is softmax(Q K^T / sqrt(d/H)) V,
    and the heads are merged back to (B, Tq, d). Heads are strided views
    of the inputs and of the output buffer, so only K^T is copied; the
    softmax weights are kept for backward, which returns dq in q's shape
    and dk, dv in the shape of k and v.
    """
    if q.data.ndim != 3:
        raise DimensionError(f"attention expects (B,T,d) inputs, got {q.shape}")
    _check_same_shape(k, v, "attention")
    if k.data.ndim != 3 or (k.data.shape[0], k.data.shape[2]) != (q.data.shape[0], q.data.shape[2]):
        raise DimensionError(f"attention: keys {k.shape} do not fit queries {q.shape}")
    if q.data.dtype != k.data.dtype:
        raise ConfigError(f"attention: mixed dtypes {q.data.dtype} and {k.data.dtype}")
    d = q.data.shape[2]
    if heads < 1 or d % heads:
        raise DimensionError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    c = q.data.dtype.type(1.0 / math.sqrt(d / heads))

    def split(a):  # (B, T, d) -> (B, H, T, d/H) view
        return a.reshape(a.shape[0], a.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def merged_matmul(a, b, like):  # per-head a @ b, written straight into a buffer like `like`
        out = np.empty_like(like)
        np.matmul(a, b, out=split(out))
        return out

    q4, v4 = split(q.data), split(v.data)
    # a contiguous K^T keeps the scores bit-equal to the unfused matmul
    y = q4 @ np.ascontiguousarray(split(k.data).transpose(0, 1, 3, 2))
    y *= c
    _softmax_inplace(y)
    out = merged_matmul(y, v4, q.data)

    def bw(g, q=q, k=k, v=v, y=y):
        q4, k4, v4, g4 = split(q.data), split(k.data), split(v.data), split(g)
        if v.requires_grad:
            _accum(v, merged_matmul(y.transpose(0, 1, 3, 2), g4, v.data))
        if q.requires_grad or k.requires_grad:
            ds = _softmax_grad_inplace(g4 @ v4.transpose(0, 1, 3, 2), y)
            ds *= c
            if q.requires_grad:
                _accum(q, merged_matmul(ds, k4, q.data))
            if k.requires_grad:
                _accum(k, merged_matmul(ds.transpose(0, 1, 3, 2), q4, k.data))

    return _from_op("attention", out, (q, k, v), bw)


# -- shape ops ------------------------------------------------------------


@_quiet
def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def bw(g, x=x):
        _accum(x, g.reshape(x.data.shape))

    return _from_op("reshape", x.data.reshape(shape), (x,), bw)


@_quiet
def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g, x=x, inv=inv):
        _accum(x, g.transpose(inv))

    return _from_op("transpose", np.ascontiguousarray(x.data.transpose(axes)), (x,), bw)


@_quiet
def select(x: Tensor, axis: int, index: int | slice) -> Tensor:
    """Index along `axis` as numpy does: an int picks one slice and drops
    the axis (the class-token readout), a slice keeps it (the class-token
    row of the last block)."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = index
    sl = tuple(sl)

    def bw(g, x=x, sl=sl):
        full = np.zeros_like(x.data)
        full[sl] = g
        _accum(x, full)

    return _from_op("select", x.data[sl].copy(), (x,), bw)


@_quiet
def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise DimensionError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bw(g, parts=tuple(parts), sizes=tuple(sizes), axis=axis):
        off = 0
        for p, s in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(off, off + s)
            _accum(p, g[tuple(sl)])
            off += s

    return _from_op("concat", out, tuple(parts), bw)


@_quiet
def repeat0(x: Tensor, n: int) -> Tensor:
    """Tile x along a new leading axis; backward sums the axis away."""
    out = np.ascontiguousarray(np.broadcast_to(x.data[None], (n,) + x.data.shape))

    def bw(g, x=x):
        _accum(x, g.sum(axis=0))

    return _from_op("repeat0", out, (x,), bw)


# -- reductions and normalization ------------------------------------------


@_quiet
def tsum(x: Tensor) -> Tensor:
    def bw(g, x=x):
        _accum(x, np.full_like(x.data, g))

    return _from_op("sum", np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), bw)


@_quiet
def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def bw(g, x=x, n=n):
        _accum(x, np.full_like(x.data, g / n))

    return _from_op("mean", np.asarray(x.data.mean(), dtype=x.data.dtype), (x,), bw)


def _check_norm(x: Tensor, gain: Tensor, bias: Tensor, op: str) -> None:
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise DimensionError(f"{op}: empty normalized axis")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(f"{op}: gain/bias must have shape ({d},)")


def _row_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the last axis, kept; the same sum-then-divide as `a.mean`."""
    m = a.sum(axis=-1, keepdims=True)
    m /= a.shape[-1]
    return m


def _norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer norm of x; returns (out, xhat, 1/std) for the backward.

    The variance reuses the centred x; it is `x.var` without its second
    mean and subtraction, and gives the same bits.
    """
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + x.dtype.type(eps))
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _norm_bwd(g: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor, xhat, inv) -> np.ndarray | None:
    """Accumulates the gain/bias gradients; returns dx, or None if x is frozen."""
    if gain.requires_grad:
        _accum(gain, _rows(g * xhat).sum(axis=0))
    if bias.requires_grad:
        _accum(bias, _rows(g).sum(axis=0))
    if not x.requires_grad:
        return None
    dxhat = g * gain.data
    m1 = _row_mean(dxhat)
    m2 = _row_mean(dxhat * xhat)
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= inv
    return dxhat


@_quiet
def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = _NORM_EPS) -> Tensor:
    """Zero mean / unit variance over the last axis, then affine gain+bias."""
    if eps <= 0:
        raise ConfigError("layer_norm: eps must be > 0")
    _check_norm(x, gain, bias, "layer_norm")
    out, xhat, inv = _norm_fwd(x.data, gain.data, bias.data, eps)

    def bw(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
        dx = _norm_bwd(g, x, gain, bias, xhat, inv)
        if dx is not None:
            _accum(x, dx)

    return _from_op("layer_norm", out, (x, gain, bias), bw)


@_quiet
def mlp_block(x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor,
              w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm MLP sub-block with residual, one tape node:
    x + W2 gelu(W1 LN(x) + b1) + b2. x is (..., d), W1 (h, d), W2 (d, h).
    """
    _check_norm(x, ln_g, ln_b, "mlp_block")
    _check_linear(x, w1, "mlp_block")
    if w2.data.shape != w1.data.shape[::-1]:
        raise DimensionError(f"mlp_block: weights {w1.shape} and {w2.shape} do not chain back to width")
    if w2.data.dtype != x.data.dtype:
        raise ConfigError(f"mlp_block: mixed dtypes {x.data.dtype} and {w2.data.dtype}")
    if b1.data.shape != w1.data.shape[:1] or b2.data.shape != w2.data.shape[:1]:
        raise DimensionError(f"mlp_block: bias shapes {b1.shape}, {b2.shape} do not match weights")
    hn, xhat, inv = _norm_fwd(x.data, ln_g.data, ln_b.data, _NORM_EPS)
    a1 = hn @ w1.data.T
    a1 += b1.data
    hg, t = _gelu_fwd(a1)
    out = hg @ w2.data.T
    out += b2.data
    out += x.data

    def bw(g, x=x, ln_g=ln_g, ln_b=ln_b, w1=w1, b1=b1, w2=w2, b2=b2):
        if w2.requires_grad:
            _accum(w2, _rows(g).T @ _rows(hg))
        if b2.requires_grad:
            _accum(b2, _rows(g).sum(axis=0))
        if not any(p.requires_grad for p in (x, ln_g, ln_b, w1, b1)):
            return
        da1 = g @ w2.data
        da1 *= _gelu_grad(a1, t)
        if w1.requires_grad:
            _accum(w1, _rows(da1).T @ _rows(hn))
        if b1.requires_grad:
            _accum(b1, _rows(da1).sum(axis=0))
        if x.requires_grad or ln_g.requires_grad or ln_b.requires_grad:
            dx = _norm_bwd(da1 @ w1.data, x, ln_g, ln_b, xhat, inv)
            if dx is not None:
                dx += g
                _accum(x, dx)

    return _from_op("mlp_block", out, (x, ln_g, ln_b, w1, b1, w2, b2), bw)


def _softmax_inplace(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in a's own buffer."""
    a -= a.max(axis=-1, keepdims=True)
    np.exp(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def _softmax_grad_inplace(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient into the input of y = softmax(x), given g = dL/dy;
    computed in g's own buffer."""
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    return g


@_quiet
def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = _softmax_inplace(x.data.copy())

    def bw(g, x=x, y=y):
        _accum(x, _softmax_grad_inplace(g.copy(), y))

    return _from_op("softmax", y, (x,), bw)


@_quiet
def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    Backward is (softmax - onehot) / B. Labels are integer class indices
    in [0, c); anything outside raises LabelError.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"cross entropy needs (batch, classes) logits, got {logits.shape}")
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != logits.data.shape[0]:
        raise DimensionError(f"labels shape {lab.shape} does not match logits {logits.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise LabelError("labels must be integers")
    nb, nc = logits.data.shape
    if lab.min() < 0 or lab.max() >= nc:
        raise LabelError(f"label out of range [0, {nc})")
    zmax = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - zmax
    lse = np.log(np.exp(z).sum(axis=-1)) + zmax[:, 0]
    picked = logits.data[np.arange(nb), lab]
    loss = np.asarray((lse - picked).sum() / nb, dtype=logits.data.dtype)

    def bw(g, logits=logits, lab=lab, nb=nb):
        zz = logits.data - logits.data.max(axis=-1, keepdims=True)
        ee = np.exp(zz)
        sm = ee / ee.sum(axis=-1, keepdims=True)
        sm[np.arange(nb), lab] -= 1.0
        _accum(logits, sm * (g / nb))

    return _from_op("softmax_cross_entropy", loss, (logits,), bw)


# -- gradient checking ------------------------------------------------------


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    mode: str = "central",
    max_coords_per_param: int | None = None,
    rng=None,
    denom_floor: float = 1e-4,
) -> float:
    """Max relative error between autodiff and finite-difference gradients.

    `f` rebuilds and returns the scalar loss from the current parameter
    values. Run in 64-bit mode; 32-bit rounding would swamp the
    comparison. For large parameters, `max_coords_per_param` samples
    coordinates with `rng` instead of probing all of them.
    """
    if mode not in ("central", "forward"):
        raise ConfigError(f"unknown finite-difference mode {mode!r}")
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigError("grad_check requires 64-bit parameters")
        p.grad = None
    loss = f()
    if loss.data.size != 1:
        raise DimensionError("grad_check: f must be scalar-valued")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    f0 = loss.item() if mode == "forward" else None

    worst = 0.0
    for p, ag in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ag.reshape(-1)
        if max_coords_per_param is not None and flat.size > max_coords_per_param:
            if rng is None:
                raise ConfigError("sampled grad_check needs an rng")
            coords = rng.sample_without_replacement(flat.size, max_coords_per_param)
        else:
            coords = range(flat.size)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f().item()
            if mode == "central":
                flat[i] = orig - eps
                f_minus = f().item()
                fd = (f_plus - f_minus) / (2.0 * eps)
            else:
                fd = (f_plus - f0) / eps
            flat[i] = orig
            ad = float(aflat[i])
            rel = abs(ad - fd) / max(abs(ad), abs(fd), denom_floor)
            if rel > worst:
                worst = rel
    return worst
