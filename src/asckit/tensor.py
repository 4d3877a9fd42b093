"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Supports exactly the operations the classification networks need, on
[batch, frequency, time, channel] layouts. Each operation records its
inputs and a backward closure on the output tensor; `backward` walks the
implicit graph in reverse topological order and accumulates gradients
into every tensor that requires them. Under `no_grad` ops record nothing.

The window ops (`conv2d`, `max_pool`, `avg_pool`) share one core,
`_windows`, which pads the input and gives, for each kernel offset (u, v),
the strided view of that cell of every window. Pooling is a running max or
sum over those views, and every backward adds into the same views of a
zero gradient: one GEMM per offset for `conv2d`, the window gradient for
`avg_pool`, and for `max_pool` the gradient of each window given to its
first maximum in row-major offset order. Only the `conv2d` forward copies
the windows out, as the columns of one GEMM (im2col).

Every op stores its output, and every gradient, in its input's dtype
(float32 in training, float64 in the gradient test-suite); statistics
(means/variances) and full reductions accumulate in float64 and are cast
back to that dtype before they broadcast, without any full-size float64
temporary. After `backward` only leaves (tensors made directly, and
`Parameter`s) keep their `.grad`; an op's output drops its gradient once
its backward closure has consumed it.
"""

from __future__ import annotations

import contextlib
import struct

import numpy as np

from .container import Reader, atomic_write
from .errors import ConfigMismatch, IOFailure, ShapeMismatch


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, parents=(), op="leaf"):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = parents
        self._backward = None
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g):
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(np.broadcast_to(g, self.shape), dtype=self.dtype)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor({self.op}, shape={self.shape}, grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a unique name and an L2-inclusion flag."""

    __slots__ = ("name", "l2_included")

    def __init__(self, data, name, l2_included=True):
        super().__init__(data, requires_grad=True, op="param")
        self.name = name
        self.l2_included = l2_included


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within this block ops record no graph: every output they make has no
    parents, no backward closure and requires no grad."""
    global _grad_enabled
    before, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = before


def _result(data, parents, op):
    if not _grad_enabled:
        return Tensor(data, op=op)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=parents, op=op)


def backward(loss: Tensor) -> None:
    """Populate the grads of the leaves the scalar `loss` depends on.

    Gradients flow through every op output in reverse topological order;
    each output's `.grad` is set back to None once its backward closure has
    consumed it, so after the call only leaves and `Parameter`s hold one.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
    out = _result(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _bw(g):
            a.accumulate(g)
            b.accumulate(g)
        out._backward = _bw
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")
    out = _result(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def _bw(g):
            a.accumulate(g * b.data)
            b.accumulate(g * a.data)
        out._backward = _bw
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = _result(x.data * c, (x,), "scale")
    if out.requires_grad:
        out._backward = lambda g: x.accumulate(g * c)
    return out


def log(x: Tensor) -> Tensor:
    out = _result(np.log(x.data), (x,), "log")
    if out.requires_grad:
        out._backward = lambda g: x.accumulate(g / x.data)
    return out


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar, 64-bit accumulation."""
    total = x.data.sum(dtype=np.float64)
    out = _result(np.asarray(total, dtype=x.dtype), (x,), "sum")
    if out.requires_grad:
        out._backward = lambda g: x.accumulate(np.broadcast_to(g, x.shape).astype(x.dtype))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = _result(x.data.reshape(shape), (x,), "reshape")
    if out.requires_grad:
        out._backward = lambda g: x.accumulate(g.reshape(x.shape))
    return out


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                  "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate(g[tuple(idx)])
        out._backward = _bw
    return out


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0), (x,), "relu")
    if out.requires_grad:
        out._backward = lambda g: x.accumulate(g * (x.data > 0))
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = _result(y, (x,), "softmax")
    if out.requires_grad:
        def _bw(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            x.accumulate((g - dot) * y)
        out._backward = _bw
    return out


def _check_mode(op, mode):
    if mode not in ("train", "eval"):
        raise ConfigMismatch(f"{op}: mode must be 'train' or 'eval', got {mode!r}")


def dropout(x: Tensor, p: float, mode: str, rng=None) -> Tensor:
    _check_mode("dropout", mode)
    if not 0 <= p < 1:
        raise ShapeMismatch(f"dropout rate must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ShapeMismatch("train-mode dropout needs an RNG")
    keep = (rng.random(x.shape) >= p) / np.asarray(1.0 - p, dtype=x.dtype)
    keep = keep.astype(x.dtype)
    out = _result(x.data * keep, (x,), "dropout")
    if out.requires_grad:
        out._backward = lambda g: x.accumulate(g * keep)
    return out


# ---------------------------------------------------------------------------
# dense / convolution


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"dense: {x.shape} @ {w.shape}")
    y = x.data @ w.data
    if b is not None:
        if b.shape != (w.shape[1],):
            raise ShapeMismatch(f"dense bias: {b.shape}")
        y = y + b.data
    parents = (x, w) if b is None else (x, w, b)
    out = _result(y, parents, "dense")
    if out.requires_grad:
        def _bw(g):
            x.accumulate(g @ w.data.T)
            w.accumulate(x.data.T @ g)
            if b is not None:
                b.accumulate(g.sum(axis=0))
        out._backward = _bw
    return out


def _pair(v):
    return (v, v) if np.isscalar(v) else tuple(v)


def _pad_amounts(size, k, s, padding):
    if padding == "valid":
        if size < k:
            raise ShapeMismatch(f"kernel {k} exceeds input {size} without padding")
        return 0, 0, (size - k) // s + 1
    out = -(-size // s)  # ceil
    total = max((out - 1) * s + k - size, 0)
    return total // 2, total - total // 2, out


def _windows(x, kernel, stride, padding):
    """Sliding (frequency, time) windows of a [B, F, T, C] array, by kernel offset.

    Returns `xp`, the input zero-padded per `padding` ('same': symmetric,
    extra cell trailing, ceil(input/stride) windows; 'valid': none), the
    index of the unpadded input in `xp`, and one index per kernel offset
    (u, v), in row-major order: `xp[index]` is the [B, of, ot, C] strided
    view of the cell at offset (u, v) of every window. A window op reduces
    over these views; its backward adds into the same views of a zero array
    shaped like `xp`, then takes the unpadded part.
    """
    kf, kt = _pair(kernel)
    sf, st = _pair(stride)
    pf0, pf1, of = _pad_amounts(x.shape[1], kf, sf, padding)
    pt0, pt1, ot = _pad_amounts(x.shape[2], kt, st, padding)
    if pf0 or pf1 or pt0 or pt1:
        x = np.pad(x, ((0, 0), (pf0, pf1), (pt0, pt1), (0, 0)))
    inner = (slice(None), slice(pf0, x.shape[1] - pf1), slice(pt0, x.shape[2] - pt1))
    offsets = [(slice(None), slice(u, u + sf * of, sf), slice(v, v + st * ot, st))
               for u in range(kf) for v in range(kt)]
    return x, inner, offsets


def _window_reduce(ufunc, xp, offsets):
    """`ufunc` (np.add, np.maximum) over the offset views, in offset order."""
    out = xp[offsets[0]].copy()
    for o in offsets[1:]:
        ufunc(out, xp[o], out=out)
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1,
           padding: str = "same") -> Tensor:
    """Cross-correlation over (frequency, time) plus per-channel bias.

    'same' zero-pads symmetrically (extra cell trailing) so spatial dims
    become ceil(input/stride); 'valid' uses no padding. The forward pass is
    one GEMM over the [B*of*ot, kf*kt*cin] window columns; the backward
    pass does one GEMM per kernel offset for each of the two gradients.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeMismatch(f"conv2d: input {x.shape}, kernel {w.shape}")
    kf, kt, cin, cout = w.shape
    sf, st = _pair(stride)
    xp, inner, offsets = _windows(x.data, (kf, kt), (sf, st), padding)
    # im2col: one copy of the windows as rows, columns ordered (u, v, cin)
    view = np.lib.stride_tricks.sliding_window_view(xp, (kf, kt), axis=(1, 2))
    view = view[:, ::sf, ::st].transpose(0, 1, 2, 4, 5, 3)
    batch, of, ot = view.shape[:3]
    y = view.reshape(-1, kf * kt * cin) @ w.data.reshape(-1, cout)
    if b is not None:
        if b.shape != (cout,):
            raise ShapeMismatch(f"conv bias: {b.shape}")
        y = y + b.data
    out = _result(y.reshape(batch, of, ot, cout), (x, w) if b is None else (x, w, b),
                  "conv2d")
    if out.requires_grad:
        w3 = w.data.reshape(kf * kt, cin, cout)

        def _bw(g):
            g2 = g.reshape(-1, cout)
            if w.requires_grad:
                gw = np.empty_like(w3)
                for o, gw_o in zip(offsets, gw):
                    np.matmul(xp[o].reshape(-1, cin).T, g2, out=gw_o)
                w.accumulate(gw.reshape(w.shape))
            if b is not None and b.requires_grad:
                b.accumulate(g2.sum(axis=0, dtype=np.float64).astype(b.dtype))
            if x.requires_grad:
                gp = np.zeros_like(xp)
                for o, w_o in zip(offsets, w3):
                    gp[o] += (g2 @ w_o.T).reshape(batch, of, ot, cin)
                x.accumulate(gp[inner])
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# pooling


def max_pool(x: Tensor, kernel, stride=None) -> Tensor:
    """Window max over (frequency, time); kernel must fit the input.

    Each window's gradient goes to its first maximum in row-major order.
    """
    xp, _, offsets = _windows(x.data, kernel, kernel if stride is None else stride, "valid")
    y = _window_reduce(np.maximum, xp, offsets)
    out = _result(y, (x,), "max_pool")
    if out.requires_grad:
        def _bw(g):
            gx = np.zeros_like(xp)
            open_ = np.ones(y.shape, dtype=bool)  # windows whose max is not yet found
            for o in offsets:
                hit = xp[o] == y
                hit &= open_
                open_ ^= hit
                gx[o] += g * hit
            x.accumulate(gx)
        out._backward = _bw
    return out


def avg_pool(x: Tensor, kernel, stride=1, padding: str = "valid") -> Tensor:
    """Window mean over (frequency, time).

    'same' zero-pads and divides by the true window overlap (cells inside
    the unpadded input), so edges are unbiased.
    """
    xp, inner, offsets = _windows(x.data, kernel, stride, padding)
    ones, _, _ = _windows(np.ones((1,) + x.shape[1:3] + (1,), x.dtype), kernel, stride,
                          padding)
    counts = _window_reduce(np.add, ones, offsets)
    y = _window_reduce(np.add, xp, offsets)
    y /= counts
    out = _result(y, (x,), "avg_pool")
    if out.requires_grad:
        def _bw(g):
            gn = g / counts
            gp = np.zeros_like(xp)
            for o in offsets:
                gp[o] += gn
            x.accumulate(gp[inner])
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# normalization


def _standardize(x, axes, eps):
    """xhat = (x - mean) / sqrt(var + eps) over `axes`, in x's dtype.

    Returns the float64 mean and biased variance (keepdims), the inverse
    deviation in x's dtype, xhat, and a spare buffer of x's shape and dtype
    for the caller's output. The mean is a float64-accumulated sum; x is
    centred once by the mean cast to x's dtype, and the squares of that
    (formed in the spare buffer) accumulate in float64 less the square of the
    cast's error, so no float64 copy of x is made.
    """
    total = x.sum(axis=axes, keepdims=True, dtype=np.float64)
    n = x.size // total.size
    mu = total / n
    shift = mu.astype(x.dtype)
    xhat = x - shift
    spare = np.square(xhat)
    var = spare.sum(axis=axes, keepdims=True, dtype=np.float64) / n - np.square(mu - shift)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat *= inv
    return mu, var, inv, xhat, spare


def _standardize_grad(g, xhat, scale, axes):
    """Gradient through `scale * xhat` where xhat was standardized with the
    mean and variance over `axes` of the same input (Ioffe & Szegedy, 2015).

    Returns it with the float64 sums over `axes` (keepdims) of g and of
    g * xhat, which are also the shift and scale gradients. g * xhat is
    formed once, and the input gradient is built in its buffer; the means
    are cast to g's dtype before they broadcast.
    """
    g_sum = g.sum(axis=axes, keepdims=True, dtype=np.float64)
    n = g.size // g_sum.size
    gx = g * xhat
    gx_sum = gx.sum(axis=axes, keepdims=True, dtype=np.float64)
    dx = np.multiply(xhat, (gx_sum / n).astype(g.dtype), out=gx)
    np.subtract(g, dx, out=dx)
    dx -= (g_sum / n).astype(g.dtype)
    dx *= scale
    return dx, g_sum, gx_sum


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
               mode: str, eps: float = 1e-3, momentum: float = 0.99) -> Tensor:
    """Per-channel batch normalization over all non-channel axes.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode normalizes with the running buffers as one
    per-channel affine map, (x - mean) * (gamma / std) + beta.
    """
    _check_mode("batch_norm", mode)
    axes = tuple(range(x.data.ndim - 1))
    if mode == "eval":
        # the mean is subtracted in x's dtype; the error of casting it there
        # goes into the float64 per-channel bias
        inv = 1.0 / np.sqrt(running_var + eps)
        shift = running_mean.astype(x.dtype)
        cast_error = shift - running_mean
        scale = gamma.data * inv
        y = np.subtract(x.data, shift)
        y *= scale.astype(x.dtype)
        y += (beta.data + cast_error * scale).astype(x.dtype)
        out = _result(y, (x, gamma, beta), "batch_norm")
        if out.requires_grad:
            def _bw_eval(g):
                g_sum = g.sum(axis=axes, dtype=np.float64)
                gx_sum = (g * (x.data - shift)).sum(axis=axes, dtype=np.float64)
                gamma.accumulate(((gx_sum + g_sum * cast_error) * inv).astype(g.dtype))
                beta.accumulate(g_sum.astype(g.dtype))
                x.accumulate(g * scale.astype(g.dtype))
            out._backward = _bw_eval
        return out
    mu, var, inv, xhat, y = _standardize(x.data, axes, eps)
    running_mean *= momentum
    running_mean += (1.0 - momentum) * mu.reshape(-1)
    running_var *= momentum
    running_var += (1.0 - momentum) * var.reshape(-1)
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    out = _result(y, (x, gamma, beta), "batch_norm")
    if out.requires_grad:
        def _bw(g):
            dx, g_sum, gx_sum = _standardize_grad(g, xhat, gamma.data * inv, axes)
            gamma.accumulate(gx_sum.reshape(gamma.shape).astype(g.dtype))
            beta.accumulate(g_sum.reshape(beta.shape).astype(g.dtype))
            x.accumulate(dx)
        out._backward = _bw
    return out


def residual_norm(x: Tensor, lam: float = 0.4, eps: float = 1e-5) -> Tensor:
    """Identity shortcut plus frequency-wise instance normalization.

    Each (sample, frequency-bin) slice is standardized across (time,
    channel); the output is lam*x + standardized(x).
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"residual_norm expects B x F x T x C, got {x.shape}")
    axes = (2, 3)
    _, _, inv, xhat, y = _standardize(x.data, axes, eps)
    np.multiply(x.data, lam, out=y)
    y += xhat
    out = _result(y, (x,), "residual_norm")
    if out.requires_grad:
        def _bw(g):
            dx, _, _ = _standardize_grad(g, xhat, inv, axes)
            dx += lam * g
            x.accumulate(dx)
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# axis reductions and global pooling


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    out = _result(x.data.mean(axis=axis, dtype=np.float64).astype(x.dtype), (x,),
                  "reduce_mean")
    if out.requires_grad:
        def _bw(g):
            x.accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))
        out._backward = _bw
    return out


def reduce_max(x: Tensor, axis: int) -> Tensor:
    idx = x.data.argmax(axis=axis)
    out_data = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)
    out = _result(np.squeeze(out_data, axis=axis), (x,), "reduce_max")
    if out.requires_grad:
        def _bw(g):
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis=axis)
            x.accumulate(gx)
        out._backward = _bw
    return out


def global_pool(x: Tensor, kind: str) -> Tensor:
    """Fully reduce one named axis of a [B, F, T, C] tensor, flatten the rest."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"global_pool expects 4-D input, got {x.shape}")
    if kind == "avg_channel":
        red = reduce_mean(x, 3)
    elif kind == "max_time":
        red = reduce_max(x, 2)
    elif kind == "avg_freq":
        red = reduce_mean(x, 1)
    else:
        raise ShapeMismatch(f"unknown global_pool kind {kind!r}")
    return reshape(red, (x.shape[0], -1))


# ---------------------------------------------------------------------------
# weight serialization ("ASCW")

_WEIGHT_MAGIC = b"ASCW"
_WEIGHT_VERSION = 1


def save_weights(path, named_arrays: dict) -> None:
    """Write named float32 tensors: magic, version u16, count u32, then
    per entry a u16-length-prefixed name, rank u8, dims u32 each, payload."""
    with atomic_write(path) as fh:
        fh.write(_WEIGHT_MAGIC)
        fh.write(struct.pack("<HI", _WEIGHT_VERSION, len(named_arrays)))
        for name, arr in named_arrays.items():
            arr = np.asarray(arr, dtype="<f4")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise IOFailure(f"{path}: entry name over 65535 bytes: {name[:40]!r}...")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_weights(path) -> dict:
    """Named read-only float32 arrays from a file written by save_weights."""
    rd = Reader(path)
    _, count = rd.header(_WEIGHT_MAGIC, (_WEIGHT_VERSION,), "<I")
    named = {}
    for _ in range(count):
        start = rd.pos
        (name_len,) = rd.unpack("<H", "name length")
        name = rd.text(name_len, "name")
        (rank,) = rd.unpack("<B", "rank")
        dims = rd.unpack(f"<{rank}I", f"{name} dims")
        if name in named:
            rd.fail(f"duplicate entry {name!r}", start)
        named[name] = rd.floats(dims, f"{name} payload")
    return named
