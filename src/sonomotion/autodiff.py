"""Dense float64 tensors with taped reverse-mode differentiation.

Everything is 64-bit and CPU-only by design: the models in this package are
desk-scale and the tight finite-difference tolerances in the test suite rely
on double precision. Operations record themselves on the innermost
:class:`Tape` open on their thread; replaying the tape backward visits each
recorded node exactly once in reverse execution (= reverse topological) order.

The six fused ops :func:`linear`, :func:`attention`, :func:`fk`,
:func:`gru`, :func:`rot6d` and :func:`mse_with_diff` are one node each with
a hand-written backward; a backward returns ``None`` for an input that needs
no gradient. Only ``div``, ``sqrt``, the two mse ops and ``rot6d`` check
their outputs; callers check whole blocks with :func:`check_finite` (raises
NumericError).
"""

from __future__ import annotations

import threading

import numpy as np
from scipy.special import expit, ndtr

from .errors import ContractError, NumericError, ShapeError

_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """N-d float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)   # note: would promote 0-d to 1-d
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return slice_(self, key)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values produced by {where}")


class _OpenTapes(threading.local):
    def __init__(self):
        self.stack: list[Tape] = []     # this thread's open tapes, innermost last


class Tape:
    """Ordered record of primitive ops for one reverse-mode pass.

    Use as a context manager around the forward computation; ``backward``
    then sets ``Tensor.grad`` on every gradient-requiring leaf the tape
    touched, that is an input no recorded op produced: d(loss)/d(leaf), or
    ``None`` for a leaf with no path to the loss, which the optimizer then
    leaves as it is. Intermediate outputs keep ``grad`` unset, so their
    gradients are freed as the sweep passes them.
    """

    _open = _OpenTapes()    # a tape records only the ops of the thread it is open on

    def __init__(self):
        # node = (output, inputs tuple, backward fn: grad_out -> per-input grads)
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        Tape._open.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._open.stack.pop()

    @classmethod
    def current(cls) -> "Tape | None":
        stack = cls._open.stack
        return stack[-1] if stack else None

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> None:
        self._nodes.append((out, inputs, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Store d(loss)/d(leaf), or None off the loss's path, in ``.grad``
        for every taped leaf tensor."""
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise ContractError("backward requires a scalar loss tensor")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        produced = {id(out) for out, _, _ in self._nodes}
        leaves: dict[int, Tensor] = {}
        for _, inputs, _ in self._nodes:
            for t in inputs:
                if t.requires_grad and id(t) not in produced:
                    leaves[id(t)] = t
        for out, inputs, backward_fn in reversed(self._nodes):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            for t, ig in zip(inputs, backward_fn(g)):
                if ig is None or not t.requires_grad:
                    continue
                if ig.shape != t.data.shape:
                    raise ShapeError(
                        f"gradient shape {ig.shape} != tensor shape {t.data.shape}"
                    )
                acc = grads.get(id(t))
                grads[id(t)] = ig if acc is None else acc + ig
        for tid, t in leaves.items():
            t.grad = grads.get(tid)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = Tape.current()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)

    def bwd(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(-a.data)

    def bwd(g):
        return (-g,)

    return _record(out, (a,), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = Tensor(a.data / b.data)
    check_finite(out.data, "'div'")

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = (_unbroadcast(-g * a.data / (b.data * b.data), b.shape)
              if b.requires_grad else None)
        return ga, gb

    return _record(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd(g):
        ga = (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
              if a.requires_grad else None)
        gb = (_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
              if b.requires_grad else None)
        return ga, gb

    return _record(out, (a, b), bwd)


# fewer per-item constant columns than this are not worth their own GEMM
_MIN_CONSTANT_COLUMNS = 32


def _constant_columns(x3: np.ndarray) -> np.ndarray | None:
    """Mask of the columns of (B, T, C) ``x3`` that hold one value on every
    frame of each item, or None when fewer than ``_MIN_CONSTANT_COLUMNS``
    do. When no column repeats, this costs one comparison of frame 0 with
    frame 1 of the first item."""
    same = x3[0, 0] == x3[0, 1]
    if np.count_nonzero(same) < _MIN_CONSTANT_COLUMNS:
        return None
    same &= np.all(x3[:, 1:] == x3[:, :1], axis=(0, 1))
    return same if np.count_nonzero(same) >= _MIN_CONSTANT_COLUMNS else None


def linear(x, w, b) -> Tensor:
    """x @ W + b over the flattened leading axes of x (..., in); one node.

    For a gradient-free x with a frame axis (..., T >= 2, in), the columns
    that are constant over the frames of each item (the tempogram of a clip)
    multiply their rows of W once per item, from frame 0, and the sum is
    broadcast over the frames; only the other columns multiply every
    frame."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.ndim != 2 or b.shape != w.shape[1:] or x.shape[-1:] != w.shape[:1]:
        raise ShapeError(f"linear shapes {x.shape} @ {w.shape} + {b.shape} do not fit")
    mask = None
    if not x.requires_grad and x.ndim >= 3 and x.shape[-2] >= 2 and x.size:
        x3 = x.data.reshape((-1,) + x.shape[-2:])
        mask = _constant_columns(x3)
    if mask is None:
        x2 = x.data.reshape(-1, w.shape[0])         # the rows that multiply W
        y = x2 @ w.data
        y += b.data
    else:
        first = np.where(mask, x3[:, 0], 0.0)        # (B, in), varying columns 0
        vary = ~mask
        x2 = x3[:, :, vary].reshape(x3.shape[0] * x3.shape[1], -1)
        y = (x2 @ w.data[vary]).reshape(x3.shape[:2] + w.shape[1:])
        y += (first @ w.data + b.data)[:, None]
    out = Tensor(y.reshape(x.shape[:-1] + w.shape[1:]))

    def bwd(g):
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = None
        if w.requires_grad and mask is None:
            gw = x2.T @ g2
        elif w.requires_grad:
            gw = first.T @ g2.reshape(first.shape[0], -1, w.shape[1]).sum(axis=1)
            gw[vary] = x2.T @ g2
        return gx, gw, (g2.sum(axis=0) if b.requires_grad else None)

    return _record(out, (x, w, b), bwd)


def concat(tensors, axis: int = -1) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    except ValueError as e:
        raise ShapeError(f"concat shapes incompatible: {[t.shape for t in ts]}") from e
    ax = axis if axis >= 0 else out.ndim + axis
    sizes = [t.shape[ax] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) if t.requires_grad else None
                     for t, p in zip(ts, np.split(g, splits, axis=ax)))

    return _record(out, tuple(ts), bwd)


def slice_(a, key) -> Tensor:
    """Basic (slice/int/ellipsis) indexing; advanced indexing is not taped."""
    a = _as_tensor(a)
    out = Tensor(a.data[key])

    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] += g
        return (full,)

    return _record(out, (a,), bwd)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from e

    def bwd(g):
        return (g.reshape(a.shape),)

    return _record(out, (a,), bwd)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.transpose(a.data, axes))
    inv = None if axes is None else np.argsort(axes)

    def bwd(g):
        return (np.ascontiguousarray(np.transpose(g, inv)),)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    axes = _axis_tuple(axis, a.ndim)

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(out, (a,), bwd)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    axes = _axis_tuple(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]

    def bwd(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _record(out, (a,), bwd)


def mse(a, b) -> Tensor:
    """Mean squared error over all elements; the workhorse loss reduction."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse operands differ in shape: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    out = Tensor(np.mean(diff * diff))
    check_finite(out.data, "'mse'")
    scale = 2.0 / a.size

    def bwd(g):
        gd = g * scale * diff
        return (gd if a.requires_grad else None), (-gd if b.requires_grad else None)

    return _record(out, (a, b), bwd)


def mse_with_diff(a, b) -> Tensor:
    """``mse(a, b)`` plus the mse of their forward differences along the
    frame (second-to-last) axis, as one node."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape or a.ndim < 2:
        raise ShapeError(f"mse_with_diff needs two equal (..., T, d) shapes, "
                         f"got {a.shape} and {b.shape}")
    diff = a.data - b.data
    step = diff[..., 1:, :] - diff[..., :-1, :]
    out = Tensor(np.mean(diff * diff) + np.mean(step * step))
    check_finite(out.data, "'mse_with_diff'")

    def bwd(g):
        gd = diff * (2.0 * g / diff.size)
        gs = step * (2.0 * g / step.size)
        gd[..., 1:, :] += gs
        gd[..., :-1, :] -= gs
        return (gd if a.requires_grad else None), (-gd if b.requires_grad else None)

    return _record(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# normalization and attention pieces


def layer_norm(a) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    a = _as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-8)
    y = centered * inv
    out = Tensor(y)

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return _record(out, (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _record(out, (a,), bwd)


def attention(q, k, v, heads: int) -> Tensor:
    """Per head softmax(q k^T / sqrt(d/heads)) v on (B, Tq, d) queries and
    (B, Tm, d) keys and values, heads merged back into (B, Tq, d); the
    backward pass reuses the stored exponentials."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    (b, tq, d), tm = q.shape, k.shape[1]
    if k.shape != (b, tm, d) or v.shape != k.shape or d % heads:
        raise ShapeError(f"attention shapes {q.shape}, {k.shape}, {v.shape} "
                         f"do not fit {heads} heads")
    scale = 1.0 / np.sqrt(d // heads)

    def split(z, t):
        return z.reshape(b, t, heads, -1).transpose(0, 2, 1, 3)   # (B, H, t, dh)

    def merge(z, t):
        return z.transpose(0, 2, 1, 3).reshape(b, t, d)

    qh, kh, vh = split(q.data * scale, tq), split(k.data, tm), split(v.data, tm)
    e = qh @ kh.transpose(0, 1, 3, 2)
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    inv = 1.0 / e.sum(axis=-1, keepdims=True)
    ctx = e @ vh
    ctx *= inv                      # normalizing the context, not e, saves a pass
    out = Tensor(merge(ctx, tq))

    def bwd(g):
        # with p = e * inv, d(scores) = p * (gc v^T - rowsum(gc * ctx)): the
        # row sums come from the small context, not from the scores
        gci = split(g, tq) * inv
        gs = gci @ vh.transpose(0, 1, 3, 2)
        gs -= np.sum(gci * ctx, axis=-1, keepdims=True)
        gs *= e
        return (merge(gs @ kh, tq) * scale if q.requires_grad else None,
                merge(gs.transpose(0, 1, 3, 2) @ qh, tm) if k.requires_grad else None,
                merge(e.transpose(0, 1, 3, 2) @ gci, tm) if v.requires_grad else None)

    return _record(out, (q, k, v), bwd)


def gru(x, wx, bx, wh, bh, reverse: bool = False) -> Tensor:
    """Gated recurrent unit (Cho et al. 2014) over (B, T, in) inputs from a
    zero state, frames taken last to first when ``reverse``; (B, T, h) states.

    Gates are ordered [z | r | n] in the (in, 3h) input weight ``wx``, the
    (h, 3h) recurrent weight ``wh`` and their biases:
    z = sigmoid(x wz + h uz), r = sigmoid(x wr + h ur),
    n = tanh(x wn + r (h un)), h' = (1 - z) n + z h, each product with its
    bias. All frames' input products are one GEMM; the backward pass is one
    reverse sweep (BPTT) over the stored gates.
    """
    x, wx, bx, wh, bh = (_as_tensor(a) for a in (x, wx, bx, wh, bh))
    hd = wh.shape[0]
    if (x.ndim != 3 or wx.shape != (x.shape[2], 3 * hd) or bx.shape != (3 * hd,)
            or wh.shape != (hd, 3 * hd) or bh.shape != (3 * hd,)):
        raise ShapeError(f"gru shapes x {x.shape}, wx {wx.shape}, bx {bx.shape}, "
                         f"wh {wh.shape}, bh {bh.shape} do not fit")
    b, t, d = x.shape
    x2 = x.data.reshape(b * t, d)
    px = x2 @ wx.data
    px += bx.data
    px = px.reshape(b, t, 3 * hd).transpose(1, 0, 2)     # step-major (T, B, 3h)
    if reverse:
        px = px[::-1]
    hs = np.zeros((t + 1, b, hd))       # hs[k] is the state entering step k
    ph = np.empty((t, b, 3 * hd))       # recurrent products hs[k] wh + bh
    zr, n = np.empty((t, b, 2 * hd)), np.empty((t, b, hd))
    z, r, hn = zr[..., :hd], zr[..., hd:], ph[..., 2 * hd:]
    for k in range(t):
        np.matmul(hs[k], wh.data, out=ph[k])
        ph[k] += bh.data
        np.add(px[k, :, :2 * hd], ph[k, :, :2 * hd], out=zr[k])
        expit(zr[k], out=zr[k])
        np.multiply(r[k], hn[k], out=n[k])
        n[k] += px[k, :, 2 * hd:]
        np.tanh(n[k], out=n[k])
        hs[k + 1] = (1.0 - z[k]) * n[k] + z[k] * hs[k]
    seq = hs[:0:-1] if reverse else hs[1:]
    out = Tensor(seq.transpose(1, 0, 2))

    def bwd(g):
        gs = g.transpose(1, 0, 2)
        if reverse:
            gs = gs[::-1]
        # the local derivatives of every frame at once
        dzr, dtanh, omz, hmn = zr * (1.0 - zr), 1.0 - n * n, 1.0 - z, hs[:t] - n
        # d(loss)/d(pre-activations): gph of the recurrent products and gn of
        # n's input product, which the input side takes in place of gph's n block
        gph, gn = np.empty((t, b, 3 * hd)), np.empty((t, b, hd))
        dh = np.zeros((b, hd))
        wht = wh.data.T
        for k in range(t - 1, -1, -1):
            dh += gs[k]
            np.multiply(dh, omz[k], out=gn[k])
            gn[k] *= dtanh[k]
            np.multiply(dh, hmn[k], out=gph[k, :, :hd])
            np.multiply(gn[k], hn[k], out=gph[k, :, hd:2 * hd])
            gph[k, :, :2 * hd] *= dzr[k]
            np.multiply(gn[k], r[k], out=gph[k, :, 2 * hd:])
            dh *= z[k]
            dh += gph[k] @ wht
        gph2 = gph.reshape(t * b, 3 * hd)
        gwh = hs[:t].reshape(t * b, hd).T @ gph2 if wh.requires_grad else None
        gbh = gph2.sum(axis=0) if bh.requires_grad else None
        gpx = np.concatenate([gph[..., :2 * hd], gn], axis=2)
        if reverse:
            gpx = gpx[::-1]
        gpx2 = gpx.transpose(1, 0, 2).reshape(b * t, 3 * hd)
        gx = (gpx2 @ wx.data.T).reshape(x.shape) if x.requires_grad else None
        gwx = x2.T @ gpx2 if wx.requires_grad else None
        gbx = gpx2.sum(axis=0) if bx.requires_grad else None
        return gx, gwx, gbx, gwh, gbh

    return _record(out, (x, wx, bx, wh, bh), bwd)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0))

    def bwd(g):
        return (g * mask,)

    return _record(out, (a,), bwd)


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, x times the standard normal CDF."""
    a = _as_tensor(a)
    x = a.data
    cdf = ndtr(x)
    out = Tensor(x * cdf)

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return (g * (cdf + x * pdf),)

    return _record(out, (a,), bwd)


def tanh_(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _record(out, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    y = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
                 np.exp(a.data) / (1.0 + np.exp(a.data)))
    out = Tensor(y)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _record(out, (a,), bwd)


def sqrt_(a) -> Tensor:
    a = _as_tensor(a)
    y = np.sqrt(a.data)
    out = Tensor(y)
    check_finite(out.data, "'sqrt'")

    def bwd(g):
        return (g * 0.5 / y,)

    return _record(out, (a,), bwd)


def cross(a, b) -> Tensor:
    """Cross product along the last axis (size 3)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[-1] != 3 or b.shape[-1] != 3:
        raise ShapeError("cross requires last axis of size 3")
    out = Tensor(np.cross(a.data, b.data))

    def bwd(g):
        ga = _unbroadcast(np.cross(b.data, g), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.cross(g, a.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), bwd)


def _cross_rows(p: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cross products of component-major (3, N) vectors into ``out``."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(p[j], q[k], out=out[i])
        out[i] -= p[k] * q[j]
    return out


def rot6d(r6) -> tuple[Tensor, int]:
    """Gram-Schmidt decode of (..., 6) blocks into (..., 3, 3) rotations with
    columns b1 = a1 / |a1|, b2 = u2 / |u2| for u2 = a2 - (b1 . a2) b1, and
    b3 = b1 x b2, each norm taken as sqrt(|.|^2 + 1e-12); also returns how
    many blocks had a near-zero |a1|^2 or |u2|^2 (< 1e-16)."""
    r6 = _as_tensor(r6)
    if r6.shape[-1] != 6:
        raise ShapeError(f"rot6d needs a trailing axis of 6, got {r6.shape}")
    batch = r6.shape[:-1]
    a = np.ascontiguousarray(r6.data.reshape(-1, 6).T)       # component-major
    a1, a2 = a[:3], a[3:]
    n1sq = np.einsum("in,in->n", a1, a1)
    s1 = np.sqrt(n1sq + 1e-12)
    cols = np.empty((3, 3, a.shape[1]))                      # (column, row, N)
    b1, b2, b3 = cols
    np.divide(a1, s1, out=b1)
    proj = np.einsum("in,in->n", b1, a2)
    u2 = a2 - proj * b1
    n2sq = np.einsum("in,in->n", u2, u2)
    s2 = np.sqrt(n2sq + 1e-12)
    np.divide(u2, s2, out=b2)
    _cross_rows(b1, b2, b3)
    bad = int(np.count_nonzero(n1sq < 1e-16) + np.count_nonzero(n2sq < 1e-16))
    out = Tensor(cols.transpose(2, 1, 0).reshape(batch + (3, 3)))
    check_finite(out.data, "'rot6d'")

    def bwd(g):
        g1, g2, g3 = np.ascontiguousarray(g.reshape(-1, 3, 3).transpose(2, 1, 0))
        tmp = np.empty_like(g1)
        gb1 = g1 + _cross_rows(b2, g3, tmp)
        gb2 = g2 + _cross_rows(g3, b1, tmp)
        gu2 = gb2 - np.einsum("in,in->n", b2, gb2) * b2
        gu2 /= s2
        gproj = np.einsum("in,in->n", gu2, b1)
        ga = np.empty_like(a)
        np.subtract(gu2, gproj * b1, out=ga[3:])
        gb1 -= proj * gu2 + gproj * a2
        np.subtract(gb1, np.einsum("in,in->n", b1, gb1) * b1, out=ga[:3])
        ga[:3] /= s1
        return (ga.T.reshape(r6.shape),)

    return _record(out, (r6,), bwd), bad


def embedding(table, indices) -> Tensor:
    """Row lookup into ``table`` (V, d) with integer ``indices``."""
    table = _as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding index out of range [0, {table.shape[0]}): "
            f"[{idx.min()}, {idx.max()}]"
        )
    out = Tensor(table.data[idx])

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), bwd)


def fk(parents, offsets, root, rot) -> Tensor:
    """(..., J, 3) joint positions from the (..., 3) root translation and
    (..., J, 3, 3) local rotations; ``parents`` (-1 for the root) lists parents
    before children. The backward pass is one reverse sweep over the tree."""
    root, rot = _as_tensor(root), _as_tensor(rot)
    j = len(parents)
    batch = rot.shape[:-3]
    if rot.shape[-3:] != (j, 3, 3) or root.shape != batch + (3,):
        raise ShapeError(f"fk shapes root {root.shape}, rot {rot.shape} do not fit")
    r = np.ascontiguousarray(np.moveaxis(rot.data, -3, 0))    # joint-major
    glob, pos = r.copy(), np.empty((j,) + batch + (3,))
    for c, p in enumerate(parents):
        if p < 0:
            pos[c] = root.data
        else:
            glob[c] = glob[p] @ r[c]
            pos[c] = pos[p] + glob[p] @ offsets[c]
    out = Tensor(np.moveaxis(pos, 0, -2))

    def bwd(g):
        gpos, gglob = np.moveaxis(g, -2, 0).copy(), np.zeros_like(glob)
        rt, globt = np.swapaxes(r, -1, -2), np.swapaxes(glob, -1, -2)
        for c in range(j - 1, -1, -1):
            p = parents[c]
            if p < 0:
                groot = gpos[c]
                continue
            gpos[p] += gpos[c]
            gglob[p] += gpos[c][..., None] * offsets[c] + gglob[c] @ rt[c]
            gglob[c] = globt[p] @ gglob[c]            # now d(loss)/d(rot[c])
        grot = np.ascontiguousarray(np.moveaxis(gglob, 0, -3))
        return (groot if root.requires_grad else None,
                grot if rot.requires_grad else None)

    return _record(out, (root, rot), bwd)
