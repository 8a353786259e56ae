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
(`linear`, `lora_linear`, `mlp_block`, `attention_block`, `embed`) apply
them to any stack of row vectors and sum the weight gradients over the
leading axes.

Five fused ops cover the model, each one tape node with a hand-derived
backward over intermediates it keeps from its forward:
`attention` (split heads, softmax(Q K^T / sqrt(d/H)) V, merge heads;
q is (B, Tq, d) and k, v are (B, Tk, d), so fewer rows may query than
supply keys and values), `lora_linear` (W x + gamma * B (A x)),
`mlp_block` (LN, W1, GELU, W2, residual), `attention_block` (LN, the
Q/K/V projections, the attention core, the output projection and the
residual, each projection plain or LoRA, on every token or with only
the class token querying) and `embed` (patch projection, class token,
positional embedding). One private helper implements each piece (the
projection, the attention core, the layer norm, GELU), and the small
fused ops and the large ones share it. A fused op's forward evaluates
the same numpy expressions, in the same order, as the chain of
primitive ops it replaces, and its backward accumulates in the order
the tape would, so results are bit-identical to the chain. Every
backward skips the products whose operand does not require grad.

Gradient buffers: a backward that passes its own upstream gradient, or
a view of it (`add`, `select`, `concat`, `reshape`, `repeat0`), has the
first contribution copied (`_accum`); one that passes a buffer it has
just made (a matmul or reduction result, a fresh dx) hands it over as
the tensor's gradient without a copy (`_give`).

Every op output is checked finite; a NaN/Inf raises NumericError at the
op that produced it. A fused op also checks the intermediates the chain
would have produced, and its error names the fused op.
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
    """Add g, which the caller does not own, to t's gradient; a first
    contribution is copied."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _give(t: Tensor, g: np.ndarray) -> None:
    """Add g, a buffer of t's dtype that the caller has just made and
    will not touch again, to t's gradient; a first contribution becomes
    the gradient itself."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
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
        _give(b, -g)

    return _from_op("sub", a.data - b.data, (a, b), bw)


@_quiet
def mul(a: Tensor, b) -> Tensor:
    s = _as_scalar(b, a.data.dtype)
    if s is not None:
        return scale(float(s), a)
    _check_same_shape(a, b, "mul")

    def bw(g, a=a, b=b):
        _give(a, g * b.data)
        _give(b, g * a.data)

    return _from_op("mul", a.data * b.data, (a, b), bw)


@_quiet
def scale(gamma: float, x: Tensor) -> Tensor:
    g0 = x.data.dtype.type(gamma)

    def bw(g, x=x, g0=g0):
        _give(x, g * g0)

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
        _give(x, d)

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
        _give(a, g @ np.swapaxes(b.data, -1, -2))
        _give(b, np.swapaxes(a.data, -1, -2) @ g)

    return _from_op("matmul", out, (a, b), bw)


def _check_linear(x: Tensor, w: Tensor, op: str) -> None:
    if w.data.ndim != 2:
        raise DimensionError(f"{op}: weight must be 2-D, got {w.shape}")
    if x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[1]:
        raise DimensionError(f"{op}: input width {x.shape} does not match weight {w.shape}")
    if x.data.dtype != w.data.dtype:
        raise ConfigError(f"{op}: mixed dtypes {x.data.dtype} and {w.data.dtype}")


def _check_lora(w: Tensor, lora, op: str) -> None:
    if lora is None:
        return
    a, b, _ = lora
    m, n = w.data.shape
    if a.data.ndim != 2 or a.data.shape[1] != n or b.data.shape != (m, a.data.shape[0]):
        raise DimensionError(f"{op}: factors {a.shape}, {b.shape} do not fit weight {w.shape}")
    if a.data.dtype != w.data.dtype or b.data.dtype != w.data.dtype:
        raise ConfigError(f"{op}: factor dtypes {a.data.dtype}, {b.data.dtype} differ from {w.data.dtype}")


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., n) -> (rows, n): the stack of row vectors a weight acts on."""
    return a.reshape(-1, a.shape[-1])


def _lora_live(lora) -> bool:
    return lora is not None and (lora[0].requires_grad or lora[1].requires_grad)


def _proj_fwd(x: np.ndarray, w: Tensor, lora) -> tuple[np.ndarray, np.ndarray | None]:
    """x @ W^T, plus gamma * (x @ A^T) @ B^T when `lora` is (A, B, gamma).

    Returns the product and x @ A^T (None without `lora`) for the backward.
    """
    out = x @ w.data.T
    if lora is None:
        return out, None
    a, b, gamma = lora
    ax = x @ a.data.T
    low = ax @ b.data.T
    low *= w.data.dtype.type(gamma)
    out += low
    return out, ax


def _proj_bwd(g: np.ndarray, x: np.ndarray, w: Tensor, lora, ax, need_dx: bool) -> np.ndarray | None:
    """Hands W (and A, B) their gradients; returns dx, or None unless `need_dx`."""
    dx = None
    if lora is not None:
        a, b, gamma = lora
        gs = g * w.data.dtype.type(gamma)
        if b.requires_grad:
            _give(b, _rows(gs).T @ _rows(ax))
        if a.requires_grad or need_dx:
            gax = gs @ b.data
            if a.requires_grad:
                _give(a, _rows(gax).T @ _rows(x))
            if need_dx:
                dx = g @ w.data
                dx += gax @ a.data
    elif need_dx:
        dx = g @ w.data
    if w.requires_grad:
        _give(w, _rows(g).T @ _rows(x))
    return dx


@_quiet
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ W^T (+ bias); x is (..., n), W is (m, n), bias (m,).

    The weight gradient sums over all leading axes of x.
    """
    _check_linear(x, w, "linear")
    if b is not None and b.data.shape != (w.data.shape[0],):
        raise DimensionError(f"linear: bias shape {b.shape} does not match weight {w.shape}")
    out, _ = _proj_fwd(x.data, w, None)
    if b is not None:
        out += b.data

    def bw(g, x=x, w=w, b=b):
        dx = _proj_bwd(g, x.data, w, None, None, x.requires_grad)
        if dx is not None:
            _give(x, dx)
        if b is not None and b.requires_grad:
            _give(b, _rows(g).sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _from_op("linear", out, parents, bw)


@_quiet
def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, gamma: float) -> Tensor:
    """y = x @ W^T + gamma * (x @ A^T) @ B^T, one tape node.

    x is (..., n), W (m, n), A (r, n), B (m, r): a projection plus its
    low-rank side path (LoRA). The m x n delta B A is never formed.
    """
    _check_linear(x, w, "lora_linear")
    lora = (a, b, gamma)
    _check_lora(w, lora, "lora_linear")
    out, ax = _proj_fwd(x.data, w, lora)

    def bw(g, x=x, w=w, lora=lora, ax=ax):
        dx = _proj_bwd(g, x.data, w, lora, ax, x.requires_grad)
        if dx is not None:
            _give(x, dx)

    return _from_op("lora_linear", out, (x, w, a, b), bw)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(B, T, d) -> (B, H, T, d/H) view."""
    return a.reshape(a.shape[0], a.shape[1], heads, a.shape[2] // heads).transpose(0, 2, 1, 3)


def _merged_matmul(a: np.ndarray, b: np.ndarray, like: np.ndarray, heads: int) -> np.ndarray:
    """Per-head a @ b, written straight into a new buffer shaped like `like`."""
    out = np.empty_like(like)
    np.matmul(a, b, out=_split_heads(out, heads))
    return out


def _attn_scale(q: np.ndarray, heads: int):
    return q.dtype.type(1.0 / math.sqrt(q.shape[2] / heads))


def _attn_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> tuple[np.ndarray, np.ndarray]:
    """The merged heads' softmax(Q K^T / sqrt(d/H)) V, and the softmax weights."""
    # a contiguous K^T keeps the scores bit-equal to the unfused matmul
    y = _split_heads(q, heads) @ np.ascontiguousarray(_split_heads(k, heads).transpose(0, 1, 3, 2))
    y *= _attn_scale(q, heads)
    _softmax_inplace(y)
    return _merged_matmul(y, _split_heads(v, heads), q, heads), y


def _attn_bwd(g, q, k, v, y, heads: int, need_q: bool, need_k: bool, need_v: bool):
    """(dq, dk, dv) of the attention core; None for each one not needed."""
    g4 = _split_heads(g, heads)
    dq = dk = dv = None
    if need_v:
        dv = _merged_matmul(y.transpose(0, 1, 3, 2), g4, v, heads)
    if need_q or need_k:
        ds = _softmax_grad_inplace(g4 @ _split_heads(v, heads).transpose(0, 1, 3, 2), y)
        ds *= _attn_scale(q, heads)
        if need_q:
            dq = _merged_matmul(ds, _split_heads(k, heads), q, heads)
        if need_k:
            dk = _merged_matmul(ds.transpose(0, 1, 3, 2), _split_heads(q, heads), k, heads)
    return dq, dk, dv


def _check_heads(d: int, heads: int, op: str) -> None:
    if heads < 1 or d % heads:
        raise DimensionError(f"{op}: width {d} does not split into {heads} heads")


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
    _check_heads(q.data.shape[2], heads, "attention")
    out, y = _attn_fwd(q.data, k.data, v.data, heads)

    def bw(g, q=q, k=k, v=v, y=y):
        dq, dk, dv = _attn_bwd(g, q.data, k.data, v.data, y, heads,
                               q.requires_grad, k.requires_grad, v.requires_grad)
        for t, d in ((v, dv), (q, dq), (k, dk)):
            if d is not None:
                _give(t, d)

    return _from_op("attention", out, (q, k, v), bw)


@_quiet
def attention_block(x: Tensor, ln_g: Tensor, ln_b: Tensor, weights: Sequence[Tensor], heads: int,
                    lora: Sequence | None = None, cls_only: bool = False) -> Tensor:
    """Pre-norm multi-head self-attention sub-block, one tape node:
    x + Wo attention(Wq h, Wk h, Wv h), with h = LN(x).

    x is (B, T, d); `weights` is (Wq, Wk, Wv, Wo), each (d, d). `lora`,
    when given, holds one entry per weight, None or LoRA factors
    (A, B, gamma), and an adapted projection is W h + gamma * B (A h).
    With `cls_only`, every token gives keys and values, but only the
    class token (row 0) queries and takes the residual: the result is
    (B, 1, d). The intermediates stay inside the op; the backward adds
    the three projections' input gradients in the tape's order,
    (q + k) + v, before the layer norm's backward.
    """
    name = "attention_block"
    if x.data.ndim != 3:
        raise DimensionError(f"{name} expects (B,T,d) tokens, got {x.shape}")
    _check_norm(x, ln_g, ln_b, name)
    lora = tuple(lora) if lora is not None else (None,) * 4
    if len(weights) != 4 or len(lora) != 4:
        raise DimensionError(f"{name}: needs the query, key, value and output weights")
    for w, factors in zip(weights, lora):
        _check_linear(x, w, name)
        if w.data.shape[0] != x.data.shape[2]:
            raise DimensionError(f"{name}: projection {w.shape} does not keep width {x.shape[2]}")
        _check_lora(w, factors, name)
    _check_heads(x.data.shape[2], heads, name)
    wq, wk, wv, wo = weights
    lq, lk, lv, lo = lora

    h, xhat, inv = _norm_fwd(x.data, ln_g.data, ln_b.data, _NORM_EPS)
    _check_finite(h, name)
    k, ax_k = _proj_fwd(h, wk, lk)
    _check_finite(k, name)
    v, ax_v = _proj_fwd(h, wv, lv)
    _check_finite(v, name)
    # the class-token rows as contiguous copies, as `select` takes them
    xq, hq = (x.data[:, :1].copy(), h[:, :1].copy()) if cls_only else (x.data, h)
    q, ax_q = _proj_fwd(hq, wq, lq)
    _check_finite(q, name)
    ctx, y = _attn_fwd(q, k, v, heads)
    _check_finite(ctx, name)
    out, ax_o = _proj_fwd(ctx, wo, lo)
    _check_finite(out, name)
    out += xq

    h_live = x.requires_grad or ln_g.requires_grad or ln_b.requires_grad
    q_live, k_live, v_live = (h_live or w.requires_grad or _lora_live(f)
                              for w, f in ((wq, lq), (wk, lk), (wv, lv)))

    def bw(g):
        dctx = _proj_bwd(g, ctx, wo, lo, ax_o, q_live or k_live or v_live)
        if dctx is None:
            return
        dq, dk, dv = _attn_bwd(dctx, q, k, v, y, heads, q_live, k_live, v_live)
        dhq, dhk, dhv = (None if d is None else _proj_bwd(d, hin, w, f, ax, h_live)
                         for d, hin, w, f, ax in ((dq, hq, wq, lq, ax_q), (dk, h, wk, lk, ax_k),
                                                  (dv, h, wv, lv, ax_v)))
        if not h_live:
            return
        # the tape's order: q's part (in select's zeros with cls_only), then k's, then v's
        dh = _row0_of_zeros(dhq, h) if cls_only else dhq
        dh += dhk
        dh += dhv
        dx = _norm_bwd(dh, x, ln_g, ln_b, xhat, inv)
        if dx is not None:
            dx += _row0_of_zeros(g, x.data) if cls_only else g
            _give(x, dx)

    parents = (x, ln_g, ln_b, *weights) + tuple(t for f in lora if f is not None for t in f[:2])
    return _from_op(name, out, parents, bw)


def _row0_of_zeros(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Zeros shaped like `like` with g in token row 0: `select`'s backward."""
    full = np.zeros_like(like)
    full[:, :1] = g
    return full


@_quiet
def embed(patches: Tensor, w: Tensor, b: Tensor, cls_token: Tensor, pos_embed: Tensor) -> Tensor:
    """Token embedding, one tape node: the class token followed by the
    projected patches, plus the positional embedding.

    patches is (B, P, n), W (d, n), b (d,), cls_token (1, d) and
    pos_embed (P + 1, d); the result is (B, P + 1, d), row 0 the class
    token. The gradients sum over the batch.
    """
    name = "embed"
    if patches.data.ndim != 3:
        raise DimensionError(f"{name} expects (B,P,n) patches, got {patches.shape}")
    _check_linear(patches, w, name)
    nb, npatch, _ = patches.data.shape
    d = w.data.shape[0]
    for t, shape in ((b, (d,)), (cls_token, (1, d)), (pos_embed, (npatch + 1, d))):
        if t.data.shape != shape:
            raise DimensionError(f"{name}: got {t.shape} where {shape} fits weight {w.shape}")
        if t.data.dtype != w.data.dtype:
            raise ConfigError(f"{name}: mixed dtypes {w.data.dtype} and {t.data.dtype}")
    tok, _ = _proj_fwd(patches.data, w, None)
    tok += b.data
    _check_finite(tok, name)
    out = np.empty((nb, npatch + 1, d), dtype=tok.dtype)
    out[:, :1] = cls_token.data
    out[:, 1:] = tok
    out += pos_embed.data

    def bw(g, patches=patches, w=w, b=b, cls_token=cls_token, pos_embed=pos_embed):
        if cls_token.requires_grad:
            _give(cls_token, g[:, :1].copy().sum(axis=0))
        if pos_embed.requires_grad:
            _give(pos_embed, g.sum(axis=0))
        if patches.requires_grad or w.requires_grad or b.requires_grad:
            gt = g[:, 1:].copy()
            dp = _proj_bwd(gt, patches.data, w, None, None, patches.requires_grad)
            if dp is not None:
                _give(patches, dp)
            if b.requires_grad:
                _give(b, _rows(gt).sum(axis=0))

    return _from_op(name, out, (patches, w, b, cls_token, pos_embed), bw)


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
        _give(x, np.full_like(x.data, g))

    return _from_op("sum", np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), bw)


@_quiet
def tmean(x: Tensor) -> Tensor:
    n = x.data.size

    def bw(g, x=x, n=n):
        _give(x, np.full_like(x.data, g / n))

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
        _give(gain, _rows(g * xhat).sum(axis=0))
    if bias.requires_grad:
        _give(bias, _rows(g).sum(axis=0))
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
            _give(x, dx)

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
            _give(w2, _rows(g).T @ _rows(hg))
        if b2.requires_grad:
            _give(b2, _rows(g).sum(axis=0))
        if not any(p.requires_grad for p in (x, ln_g, ln_b, w1, b1)):
            return
        da1 = g @ w2.data
        da1 *= _gelu_grad(a1, t)
        if w1.requires_grad:
            _give(w1, _rows(da1).T @ _rows(hn))
        if b1.requires_grad:
            _give(b1, _rows(da1).sum(axis=0))
        if x.requires_grad or ln_g.requires_grad or ln_b.requires_grad:
            dx = _norm_bwd(da1 @ w1.data, x, ln_g, ln_b, xhat, inv)
            if dx is not None:
                dx += g
                _give(x, dx)

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
        _give(x, _softmax_grad_inplace(g.copy(), y))

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
        _give(logits, sm * (g / nb))

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
