"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Supports exactly the operations the classification networks need, on
[batch, frequency, time, channel] layouts. Each operation records its
inputs and a backward closure on the output tensor; `backward` walks the
implicit graph in reverse topological order and accumulates gradients
into every tensor that requires them.

Every op stores its output, and every gradient, in its input's dtype
(float32 in training, float64 in the gradient test-suite); statistics
(means/variances) and full reductions accumulate in float64 and are cast
back to that dtype before they broadcast.
"""

from __future__ import annotations

import struct

import numpy as np

from .container import Reader, atomic_write
from .errors import IOFailure, ShapeMismatch


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
            self.grad = np.zeros_like(self.data)
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


def _result(data, parents, op):
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=parents, op=op)


def backward(loss: Tensor) -> None:
    """Populate grads of everything the scalar `loss` depends on."""
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


def dropout(x: Tensor, p: float, mode: str, rng=None) -> Tensor:
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
    """Sliding (frequency, time) windows of a [B, F, T, C] array.

    Returns a [B, of, ot, kf, kt, C] view of the input zero-padded per
    `padding` ('same': symmetric, extra cell trailing, ceil(input/stride)
    windows; 'valid': none), and `fold`, the view's adjoint: it scatter-adds
    a gradient of the view's shape (or one broadcasting to it) back onto a
    [B, F, T, C] array.
    """
    kf, kt = _pair(kernel)
    sf, st = _pair(stride)
    pf0, pf1, of = _pad_amounts(x.shape[1], kf, sf, padding)
    pt0, pt1, ot = _pad_amounts(x.shape[2], kt, st, padding)
    if pf0 or pf1 or pt0 or pt1:
        x = np.pad(x, ((0, 0), (pf0, pf1), (pt0, pt1), (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(x, (kf, kt), axis=(1, 2))
    view = view[:, ::sf, ::st].transpose(0, 1, 2, 4, 5, 3)

    def fold(g):
        gp = np.zeros_like(x)
        for u in range(kf):
            for v in range(kt):
                gp[:, u : u + sf * of : sf, v : v + st * ot : st] += g[:, :, :, u, v]
        return gp[:, pf0 : x.shape[1] - pf1, pt0 : x.shape[2] - pt1]

    return view, fold


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, stride=1,
           padding: str = "same") -> Tensor:
    """Cross-correlation over (frequency, time) plus per-channel bias.

    'same' zero-pads symmetrically (extra cell trailing) so spatial dims
    become ceil(input/stride); 'valid' uses no padding.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeMismatch(f"conv2d: input {x.shape}, kernel {w.shape}")
    kf, kt, cin, cout = w.shape
    view, fold = _windows(x.data, (kf, kt), stride, padding)
    batch, of, ot = view.shape[:3]
    w2 = w.data.reshape(kf * kt * cin, cout)
    y = view.reshape(-1, kf * kt * cin) @ w2
    if b is not None:
        if b.shape != (cout,):
            raise ShapeMismatch(f"conv bias: {b.shape}")
        y = y + b.data
    out = _result(y.reshape(batch, of, ot, cout), (x, w) if b is None else (x, w, b),
                  "conv2d")
    if out.requires_grad:
        def _bw(g):
            g2 = g.reshape(-1, cout)
            if w.requires_grad:
                w.accumulate((view.reshape(-1, kf * kt * cin).T @ g2).reshape(w.shape))
            if b is not None and b.requires_grad:
                b.accumulate(g2.sum(axis=0, dtype=np.float64).astype(b.dtype))
            if x.requires_grad:
                x.accumulate(fold((g2 @ w2.T).reshape(view.shape)))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# pooling


def max_pool(x: Tensor, kernel, stride=None) -> Tensor:
    """Window max over (frequency, time); kernel must fit the input."""
    view, fold = _windows(x.data, kernel, kernel if stride is None else stride, "valid")
    b, of, ot, kf, kt, c = view.shape
    flat = view.reshape(b, of, ot, kf * kt, c)
    idx = flat.argmax(axis=3)[:, :, :, None]
    out = _result(np.take_along_axis(flat, idx, axis=3)[:, :, :, 0], (x,), "max_pool")
    if out.requires_grad:
        def _bw(g):
            hot = np.arange(kf * kt)[:, None] == idx
            x.accumulate(fold((hot * g[:, :, :, None]).reshape(view.shape)))
        out._backward = _bw
    return out


def avg_pool(x: Tensor, kernel, stride=1, padding: str = "valid") -> Tensor:
    """Window mean over (frequency, time).

    'same' zero-pads and divides by the true window overlap (cells inside
    the unpadded input), so edges are unbiased.
    """
    view, fold = _windows(x.data, kernel, stride, padding)
    ones, _ = _windows(np.ones((1,) + x.shape[1:3] + (1,), x.dtype), kernel, stride,
                       padding)
    counts = ones.sum(axis=(3, 4))
    out = _result(view.sum(axis=(3, 4)) / counts, (x,), "avg_pool")
    if out.requires_grad:
        def _bw(g):
            gn = (g / counts)[:, :, :, None, None]
            x.accumulate(fold(np.broadcast_to(gn, view.shape)))
        out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# normalization


def _standardize(x, mu, var, eps):
    """(x - mu) / sqrt(var + eps) and the inverse deviation, in x's dtype."""
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    return (x - mu.astype(x.dtype)) * inv, inv


def _standardize_grad(g, xhat, scale, axes):
    """Gradient through `scale * xhat` where xhat was standardized with the
    mean and variance over `axes` of the same input (Ioffe & Szegedy, 2015).

    The means accumulate in float64 and are cast to g's dtype before they
    broadcast, so no full-size float64 temporary is made.
    """
    g_mean = g.mean(axis=axes, keepdims=True, dtype=np.float64).astype(g.dtype)
    gx_mean = (g * xhat).mean(axis=axes, keepdims=True, dtype=np.float64).astype(g.dtype)
    return scale * (g - g_mean - xhat * gx_mean)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
               mode: str, eps: float = 1e-3, momentum: float = 0.99) -> Tensor:
    """Per-channel batch normalization over all non-channel axes.

    Train mode normalizes with batch statistics and updates the running
    buffers in place; eval mode normalizes with the running buffers.
    """
    axes = tuple(range(x.data.ndim - 1))
    if mode == "train":
        mu = x.data.mean(axis=axes, dtype=np.float64)
        var = x.data.var(axis=axes, dtype=np.float64)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mu
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        mu, var = running_mean, running_var
    xhat, inv = _standardize(x.data, mu, var, eps)
    out = _result(gamma.data * xhat + beta.data, (x, gamma, beta), "batch_norm")
    if out.requires_grad:
        def _bw(g):
            gamma.accumulate((g * xhat).sum(axis=axes, dtype=np.float64).astype(g.dtype))
            beta.accumulate(g.sum(axis=axes, dtype=np.float64).astype(g.dtype))
            if not x.requires_grad:
                return
            if mode == "train":
                x.accumulate(_standardize_grad(g, xhat, gamma.data * inv, axes))
            else:
                x.accumulate(g * gamma.data * inv)
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
    mu = x.data.mean(axis=axes, keepdims=True, dtype=np.float64)
    var = x.data.var(axis=axes, keepdims=True, dtype=np.float64)
    xhat, inv = _standardize(x.data, mu, var, eps)
    out = _result(lam * x.data + xhat, (x,), "residual_norm")
    if out.requires_grad:
        def _bw(g):
            x.accumulate(lam * g + _standardize_grad(g, xhat, inv, axes))
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
    (count,) = rd.header(_WEIGHT_MAGIC, _WEIGHT_VERSION, "<I")
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
