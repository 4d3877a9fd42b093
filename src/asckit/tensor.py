"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Supports exactly the operations the classification networks need, on
[batch, frequency, time, channel] layouts. Every op builds a backward
closure and returns its output through `_result`, which records the op's
inputs and that closure on the output only when grad is enabled and some
input requires grad; under `no_grad` ops record nothing. Whether grad is
enabled is kept per thread, so a `no_grad` block in one thread leaves grad
on in every other, and threads may run eval forwards at once. `backward` walks
the implicit graph in reverse topological order and accumulates gradients
into every tensor that requires them.

The window ops have the two geometries the networks use. `conv2d` and
`avg_pool` slide stride-1 'same' windows that reach (k - 1) // 2 cells
before their centre and k // 2 after along each axis, so the output has the
input's frequency and time size; `_span` gives, along one axis, the cells
whose neighbour d cells away lies inside it. `conv2d`'s forward copies the
windows of its zero-padded input, a `sliding_window_view` (`_windows`), out
as the columns of one GEMM (im2col). Its backward runs one GEMM per kernel
offset for each gradient: the kernel's reads that offset's view of the
windows, padded anew so no closure keeps a padded input, and the input's
adds the `_span`-clipped part of its GEMM into a zero array of the input's
shape, padding nothing. Nor does `avg_pool`, the inception-residual unit's
fixed pooled sum of three inputs over (k, 1), (k, k) and (1, k) windows:
`_box_sum` sums each window along one axis with one add of each
`_span`-shifted slice, and a window is divided by the cells it covers, the
product of its two 1-D counts. So the first two inputs share one frequency
pass, and the backward runs the same boxes, mirrored, over the gradient
divided by those counts. `max_pool` is the fixed 2 x 2 tile max of every
block: its four views are the cells of the non-overlapping tiles, and a
trailing odd row or column is dropped. Its forward is a running max over
the views; its backward writes each tile cell once, the tile's gradient at
its first maximum in row-major order and zero elsewhere.

The conv core, `_conv_forward` and `_conv_backward`, has no bias; `conv2d`
adds its own and sums its gradient. `conv_bn_relu` is the networks'
train-mode conv -> batch norm -> ReLU unit as one op; its conv has no bias,
which the batch mean would cancel exactly. It runs the core and train-mode
`batch_norm` code, so its output, gradients and running buffers are
bit-identical to the three-op chain with a zero bias, but its graph keeps
only the conv input, the standardized conv output and its own output.

Every op stores its output, and every gradient, in its input's dtype
(float32 in training, float64 in the gradient test-suite); statistics
(means/variances) and full reductions accumulate in float64 and are cast
back to that dtype before they broadcast, without any full-size float64
temporary. Batch norm's per-channel sums reduce (batch, frequency) first,
over contiguous time x channel rows, then time; its per-channel vectors
broadcast as [time, channel] rows (`_rows`), so numpy runs each op over the
last two axes merged. After `backward` only leaves (tensors made directly, and
`Parameter`s) keep their `.grad`; an op's output drops its gradient once
its backward closure has consumed it. A backward hands each input a
gradient of that input's shape and dtype through `Tensor.accumulate`, which
keeps a first gradient as is and adds later ones into it: the closure must
not write to that array or give it to another input afterwards. So `add`
gives one input a copy of its gradient and the other the gradient itself,
and `reshape` and `concat` hand over non-overlapping views of theirs. The
gradient `g` a closure is handed is its output's own, which `backward`
drops once the closure has run, so the closure may write into it, as
`relu`, `dropout`, `conv_bn_relu`, `avg_pool` and `residual_norm` do, or
hand it to an input.

The normalization settings are the module constants `BN_EPS`,
`BN_MOMENTUM`, `RN_LAMBDA` and `RN_EPS`; no caller sets them. Eval-mode
`batch_norm` is a per-channel affine map with constant coefficients from
gamma, beta and the running buffers, so its backward reaches only its input.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np

from .errors import ConfigMismatch, ShapeMismatch

# normalization settings of the paper's networks
BN_EPS = 1e-3  # batch norm variance offset
BN_MOMENTUM = 0.99  # batch norm running-statistics momentum
RN_LAMBDA = 0.4  # weight of the identity shortcut in residual norm
RN_EPS = 1e-5  # residual norm variance offset


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
        """Add the gradient `g`, of this tensor's shape and dtype, into `.grad`.
        A first gradient becomes `.grad` as is: so the caller must not write
        to `g`, or hand it to another tensor, afterwards."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor({self.op}, shape={self.shape}, grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a unique name."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True, op="param")
        self.name = name

    @property
    def l2_included(self) -> bool:
        """Weight decay applies to kernels and matrices, not to the biases and
        norm scales and shifts."""
        return self.data.ndim > 1


class _GradState(threading.local):
    enabled = True


_grad = _GradState()


@contextlib.contextmanager
def no_grad():
    """Within this block ops record no graph: every output they make has no
    parents, no backward closure and requires no grad. It holds for the
    calling thread only; ops that other threads run meanwhile still record."""
    before, _grad.enabled = _grad.enabled, False
    try:
        yield
    finally:
        _grad.enabled = before


def _result(data, parents, op, backward):
    """The output of `op`. It records `parents` and the closure `backward(g)`,
    which hands each parent its gradient, only when grad is enabled and some
    parent requires grad; otherwise it is a plain tensor with no parents."""
    if not (_grad.enabled and any(p.requires_grad for p in parents)):
        return Tensor(data, op=op)
    out = Tensor(data, requires_grad=True, parents=parents, op=op)
    out._backward = backward
    return out


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

    def _bw(g):
        a.accumulate(g.copy())
        b.accumulate(g)
    return _result(a.data + b.data, (a, b), "add", _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")

    def _bw(g):
        a.accumulate(g * b.data)
        b.accumulate(g * a.data)
    return _result(a.data * b.data, (a, b), "mul", _bw)


def scale(x: Tensor, c: float) -> Tensor:
    return _result(x.data * c, (x,), "scale", lambda g: x.accumulate(g * c))


def log(x: Tensor) -> Tensor:
    return _result(np.log(x.data), (x,), "log", lambda g: x.accumulate(g / x.data))


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar, 64-bit accumulation."""
    total = x.data.sum(dtype=np.float64)
    return _result(np.asarray(total, dtype=x.dtype), (x,), "sum",
                   lambda g: x.accumulate(np.broadcast_to(g, x.shape).astype(x.dtype)))


def reshape(x: Tensor, shape) -> Tensor:
    return _result(x.data.reshape(shape), (x,), "reshape",
                   lambda g: x.accumulate(g.reshape(x.shape)))


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    shapes = [t.shape for t in tensors]
    if not all(-len(s) <= axis < len(s) for s in shapes) or len(
            {tuple(np.delete(s, axis)) for s in shapes}) != 1:
        raise ShapeMismatch(f"concat: shapes {shapes} do not join along axis {axis}")
    offsets = np.cumsum([0] + [s[axis] for s in shapes])

    def _bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            t.accumulate(g[tuple(idx)])
    return _result(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                   "concat", _bw)


def relu(x: Tensor) -> Tensor:
    return _result(np.maximum(x.data, 0), (x,), "relu",
                   lambda g: x.accumulate(np.multiply(g, x.data > 0, out=g)))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    np.maximum(y, np.finfo(y.dtype).tiny, out=y)  # keeps log(y) and its gradient finite

    def _bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        x.accumulate((g - dot) * y)
    return _result(y, (x,), "softmax", _bw)


def check_mode(op, mode):
    """Raise ConfigMismatch unless `mode` is "train" or "eval"."""
    if mode not in ("train", "eval"):
        raise ConfigMismatch(f"{op}: mode must be 'train' or 'eval', got {mode!r}")


def dropout(x: Tensor, p: float, mode: str, rng=None) -> Tensor:
    check_mode("dropout", mode)
    if not 0 <= p < 1:
        raise ConfigMismatch(f"dropout rate must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ConfigMismatch(f"train-mode dropout at rate {p} needs an RNG, got None")
    keep = (rng.random(x.shape) >= p) / np.asarray(1.0 - p, dtype=x.dtype)
    keep = keep.astype(x.dtype, copy=False)  # copies only if the division promoted
    return _result(x.data * keep, (x,), "dropout",
                   lambda g: x.accumulate(np.multiply(g, keep, out=g)))


# ---------------------------------------------------------------------------
# dense / convolution


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"dense: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeMismatch(f"dense bias: {b.shape}")

    def _bw(g):
        x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)
        b.accumulate(g.sum(axis=0))
    return _result(x.data @ w.data + b.data, (x, w, b), "dense", _bw)


def _span(n, d):
    """The slices (to, frm) of an axis of n cells: the cells i whose i + d is
    inside the axis, and those i + d; both are empty when |d| >= n."""
    m = max(n - abs(d), 0)
    return slice(max(-d, 0), max(-d, 0) + m), slice(max(d, 0), max(d, 0) + m)


def _windows(x, kernel):
    """The [B, F, T, C, kf, kt] view of the conv's stride-1 'same' (frequency,
    time) windows of [B, F, T, C], for the (kf, kt) `kernel`; x is padded
    only if the kernel is larger than 1 x 1, since a pad copies it."""
    kf, kt = kernel
    if kf > 1 or kt > 1:
        x = np.pad(x, ((0, 0), ((kf - 1) // 2, kf // 2), ((kt - 1) // 2, kt // 2), (0, 0)))
    return np.lib.stride_tricks.sliding_window_view(x, kernel, axis=(1, 2))


def _conv_forward(x, w):
    """The bias-free stride-1 'same' conv of the arrays x and w: one GEMM
    over the [B*F*T, kf*kt*cin] window columns (im2col)."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeMismatch(f"conv2d: input {x.shape}, kernel {w.shape}")
    kf, kt, cin, cout = w.shape
    # im2col: one copy of the windows as rows, columns ordered (u, v, cin)
    view = _windows(x, (kf, kt)).transpose(0, 1, 2, 4, 5, 3)
    y = view.reshape(-1, kf * kt * cin) @ w.reshape(-1, cout)
    return y.reshape(x.shape[:3] + (cout,))


def _conv_backward(g, x: Tensor, w: Tensor):
    """Hand x and w their gradients from the output gradient g of
    `_conv_forward(x.data, w.data)`: one GEMM per kernel offset (u, v) for
    each. w's reads the windows' view at (u, v), padded anew from x.data.
    x's pads nothing: output cell (i, j) reads input cell (i + u - pf,
    j + v - pt), so the `_span`-clipped GEMM is added into those cells of a
    zero array that x then owns."""
    kf, kt, cin, cout = w.shape
    pf, pt = (kf - 1) // 2, (kt - 1) // 2
    g2 = g.reshape(-1, cout)
    if w.requires_grad:
        windows = _windows(x.data, (kf, kt))
        gw = np.empty_like(w.data)
        for u, v in np.ndindex(kf, kt):
            np.matmul(windows[..., u, v].reshape(-1, cin).T, g2, out=gw[u, v])
        w.accumulate(gw)
    if x.requires_grad:
        gx = np.zeros_like(x.data)
        for u, v in np.ndindex(kf, kt):
            (to_f, frm_f), (to_t, frm_t) = _span(x.shape[1], u - pf), _span(x.shape[2], v - pt)
            gx[:, frm_f, frm_t] += (g2 @ w.data[u, v].T).reshape(x.shape)[:, to_f, to_t]
        x.accumulate(gx)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 'same' cross-correlation of [B, F, T, cin] with a [kf, kt, cin,
    cout] kernel, plus a per-channel bias, giving [B, F, T, cout].

    The forward pass is one GEMM over the [B*F*T, kf*kt*cin] window columns;
    the backward pass does one GEMM per kernel offset for each of the input
    and kernel gradients, and a float64 sum for the bias gradient.
    """
    y = _conv_forward(x.data, w.data)
    if b.shape != y.shape[3:]:
        raise ShapeMismatch(f"conv bias: {b.shape}")
    y += b.data

    def _bw(g):
        if b.requires_grad:
            b.accumulate(g.reshape(-1, b.shape[0]).sum(axis=0, dtype=np.float64)
                         .astype(b.dtype))
        _conv_backward(g, x, w)
    return _result(y, (x, w, b), "conv2d", _bw)


# ---------------------------------------------------------------------------
# pooling


def max_pool(x: Tensor) -> Tensor:
    """Max over the non-overlapping 2 x 2 (frequency, time) tiles; a trailing
    odd row or column is dropped and gets zero gradient. Each tile's gradient
    goes to its first maximum in row-major order.
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"max_pool expects B x F x T x C, got {x.shape}")
    _, f, t, _ = x.shape
    if f < 2 or t < 2:
        raise ShapeMismatch(f"max_pool needs at least 2 x 2 (frequency, time), got {(f, t)}")
    tiles = [(slice(None), slice(u, f - f % 2, 2), slice(v, t - t % 2, 2))
             for u in (0, 1) for v in (0, 1)]
    y = x.data[tiles[0]].copy()
    for o in tiles[1:]:
        np.maximum(y, x.data[o], out=y)

    def _bw(g):
        # the tile views write every cell unless a trailing row or column is dropped
        gx = (np.empty_like if f % 2 == t % 2 == 0 else np.zeros_like)(x.data)
        open_ = np.ones(y.shape, dtype=bool)  # tiles whose max is not yet found
        for o in tiles:
            hit = x.data[o] == y
            hit &= open_
            open_ ^= hit
            np.multiply(g, hit, out=gx[o])  # the tile views are disjoint
        x.accumulate(gx)
    return _result(y, (x,), "max_pool", _bw)


def _box_sum(a, axis, before, after, out):
    """Sums of `a` over the windows [i - before, i + after] along `axis`, each
    clipped to the array, written into `out`, which must not be `a`: a copy,
    then one add of each shifted slice."""
    np.copyto(out, a)
    lead = (slice(None),) * axis
    for d in (*range(-before, 0), *range(1, after + 1)):
        to, frm = (lead + (s,) for s in _span(a.shape[axis], d))
        np.add(out[to], a[frm], out=out[to])
    return out


def avg_pool(xs, k) -> Tensor:
    """The sum of the stride-1 'same' window means of the three [B, F, T, C]
    inputs `xs`, of one shape and dtype, over (k, 1), (k, k) and (1, k)
    (frequency, time) cells in that order: the inception-residual unit's
    pooled branches. Each window is divided by the cells of the input it
    covers, the product of its 1-D counts cf and ct, so with boxF and boxT
    the window sums along one axis, y = boxF(x0 + boxT(x1) / ct) / cf +
    boxT(x2) / ct. The backward mirrors it; each input gets its own array.
    """
    xs = list(xs)
    if len(xs) != 3 or len(xs[0].shape) != 4 or any(
            (x.shape, x.dtype) != (xs[0].shape, xs[0].dtype) for x in xs):
        raise ShapeMismatch("avg_pool needs 3 B x F x T x C inputs of one shape and dtype, "
                            f"got {[(x.shape, x.dtype.name) for x in xs]}")
    if k < 1:
        raise ShapeMismatch(f"avg_pool kernel side {k}: must be at least 1")
    x0, x1, x2 = xs
    _, f, t, c = x0.shape
    reach, back = ((k - 1) // 2, k // 2), (k // 2, (k - 1) // 2)

    def box(a, axis, ends):
        return _box_sum(a, axis, *ends, np.empty_like(a))

    # the counts broadcast as [F, 1, 1] and as [T, C] rows, over which numpy
    # runs one inner loop (see `_rows`)
    cf = box(np.ones(f, x0.dtype), 0, reach)[:, None, None]
    ct = np.repeat(box(np.ones(t, x0.dtype), 0, reach), c).reshape(t, c)
    s = box(x1.data, 2, reach)
    s /= ct
    s += x0.data
    y = box(s, 1, reach)
    y /= cf
    s = _box_sum(x2.data, 2, *reach, s)
    s /= ct
    y += s

    def _bw(g):
        h = box(g / cf, 1, back)
        x1.accumulate(box(h / ct, 2, back))
        x0.accumulate(h)
        g /= ct  # g is this output's own gradient
        x2.accumulate(box(g, 2, back))
    return _result(y, (x0, x1, x2), "avg_pool", _bw)


# ---------------------------------------------------------------------------
# normalization


def _rows(v, t):
    """The per-channel vector v tiled to [t, C] rows. Against a contiguous [B,
    F, t, C] array numpy merges the last two axes, so an op runs one T * C
    inner loop per (b, f) where v itself would give it one of C per (b, f, t)."""
    return np.tile(v, (t, 1))


def _sums(a, axes):
    """float64 sums of `a` over `axes`, in a shape that broadcasts against a.

    Over every axis but the channel of [B, F, T, C] (batch norm), (B, F) are
    reduced first, so each inner loop adds a contiguous T * C row, then T;
    the C sums come back as `_rows`. Other axes (residual norm's (T, C),
    already contiguous) are reduced in one call, keepdims.
    """
    if axes != (0, 1, 2):
        return a.sum(axis=axes, keepdims=True, dtype=np.float64)
    b, f, t, c = a.shape
    rows = a.reshape(b * f, t * c).sum(axis=0, dtype=np.float64)
    return _rows(rows.reshape(t, c).sum(axis=0), t)


def _standardize(x, axes, eps):
    """xhat = (x - mean) / sqrt(var + eps) over `axes`, in x's dtype.

    Returns the float64 mean and biased variance and the inverse deviation in
    x's dtype, all shaped as `_sums` gives them, xhat, and a spare buffer of
    x's shape and dtype for the caller's output. The mean is a
    float64-accumulated sum; x is centred once by the mean cast to x's dtype,
    and the squares of that (formed in the spare buffer) accumulate in
    float64 less the square of the cast's error, so no float64 copy of x is
    made.
    """
    n = math.prod(x.shape[i] for i in axes)
    mu = _sums(x, axes) / n
    shift = mu.astype(x.dtype)
    xhat = x - shift
    spare = np.square(xhat)
    var = _sums(spare, axes) / n - np.square(mu - shift)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat *= inv
    return mu, var, inv, xhat, spare


def _standardize_grad(g, xhat, scale, axes):
    """Gradient through `scale * xhat` where xhat was standardized with the
    mean and variance over `axes` of the same input (Ioffe & Szegedy, 2015).

    Returns it with the float64 `_sums` over `axes` of g and of g * xhat,
    which are also the shift and scale gradients. g * xhat is formed once,
    and the input gradient is built in its buffer; the means are cast to g's
    dtype before they broadcast.
    """
    n = math.prod(g.shape[i] for i in axes)
    g_sum = _sums(g, axes)
    gx = g * xhat
    gx_sum = _sums(gx, axes)
    dx = np.multiply(xhat, (gx_sum / n).astype(g.dtype), out=gx)
    np.subtract(g, dx, out=dx)
    dx -= (g_sum / n).astype(g.dtype)
    dx *= scale
    return dx, g_sum, gx_sum


def _check_channels(op, shape, gamma, beta, running_mean, running_var):
    """Raise ShapeMismatch unless `shape` is [B, F, T, C] and gamma, beta and
    the running buffers each hold C values, before any buffer is written."""
    vectors = (gamma.shape, beta.shape, np.shape(running_mean), np.shape(running_var))
    if len(shape) != 4 or any(v != shape[3:] for v in vectors):
        raise ShapeMismatch(f"{op}: input {shape}, gamma, beta and running mean and "
                            f"variance {vectors}")


def _batch_norm_train(x, gamma: Tensor, beta: Tensor, running_mean, running_var):
    """Train-mode batch norm of the [B, F, T, C] array x over (B, F, T).

    Updates the running buffers in place with momentum BN_MOMENTUM and
    returns gamma * xhat + beta with the function that maps its gradient to
    x's, handing gamma and beta theirs on the way; that function keeps only
    xhat and the per-channel scales.
    """
    axes = (0, 1, 2)
    mu, var, inv, xhat, y = _standardize(x, axes, BN_EPS)
    running_mean *= BN_MOMENTUM
    running_mean += (1.0 - BN_MOMENTUM) * mu[0]
    running_var *= BN_MOMENTUM
    running_var += (1.0 - BN_MOMENTUM) * var[0]
    gamma_rows = _rows(gamma.data, x.shape[2])
    np.multiply(xhat, gamma_rows, out=y)
    y += _rows(beta.data, x.shape[2])

    def grad(g):
        dx, g_sum, gx_sum = _standardize_grad(g, xhat, gamma_rows * inv, axes)
        gamma.accumulate(gx_sum[0].astype(g.dtype))
        beta.accumulate(g_sum[0].astype(g.dtype))
        return dx
    return y, grad


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
               mode: str) -> Tensor:
    """Per-channel batch normalization of [B, F, T, C] over (B, F, T), with
    variance offset BN_EPS.

    Train mode normalizes with batch statistics and updates the running
    buffers in place with momentum BN_MOMENTUM. Eval mode normalizes with the
    running buffers as one per-channel affine map, (x - mean) * (gamma / std)
    + beta, whose coefficients are constants: only x gets a gradient.
    """
    check_mode("batch_norm", mode)
    _check_channels("batch_norm", x.shape, gamma, beta, running_mean, running_var)
    if mode == "eval":
        # the mean is subtracted in x's dtype; the error of casting it there
        # goes into the float64 per-channel bias
        t = x.shape[2]
        scale = gamma.data * (1.0 / np.sqrt(running_var + BN_EPS))
        shift = running_mean.astype(x.dtype)
        bias = (beta.data + (shift - running_mean) * scale).astype(x.dtype)
        scale = _rows(scale.astype(x.dtype), t)
        y = np.subtract(x.data, _rows(shift, t))
        y *= scale
        y += _rows(bias, t)
        return _result(y, (x,), "batch_norm", lambda g: x.accumulate(g * scale))
    y, grad = _batch_norm_train(x.data, gamma, beta, running_mean, running_var)
    return _result(y, (x, gamma, beta), "batch_norm", lambda g: x.accumulate(grad(g)))


def conv_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, running_mean,
                 running_var) -> Tensor:
    """relu(batch_norm(conv2d(x, w, 0), gamma, beta, running_mean,
    running_var, "train")) as one op, with the same arithmetic and so the
    same bits, buffer update included; its conv has no bias.

    Its graph keeps x, BN's xhat and the output, where the chain keeps the
    conv output, xhat, the BN output and the ReLU output: the ReLU is taken
    in place, and its backward needs only the output's sign.
    """
    y = _conv_forward(x.data, w.data)
    _check_channels("conv_bn_relu", y.shape, gamma, beta, running_mean, running_var)
    y, bn_grad = _batch_norm_train(y, gamma, beta, running_mean, running_var)
    np.maximum(y, 0, out=y)
    return _result(y, (x, w, gamma, beta), "conv_bn_relu",
                   lambda g: _conv_backward(bn_grad(np.multiply(g, y > 0, out=g)), x, w))


def residual_norm(x: Tensor) -> Tensor:
    """Identity shortcut plus frequency-wise instance normalization.

    Each (sample, frequency-bin) slice is standardized across (time,
    channel) with variance offset RN_EPS; the output is
    RN_LAMBDA * x + standardized(x).
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"residual_norm expects B x F x T x C, got {x.shape}")
    axes = (2, 3)
    _, _, inv, xhat, y = _standardize(x.data, axes, RN_EPS)
    np.multiply(x.data, RN_LAMBDA, out=y)
    y += xhat

    def _bw(g):
        dx, _, _ = _standardize_grad(g, xhat, inv, axes)
        g *= RN_LAMBDA
        dx += g
        x.accumulate(dx)
    return _result(y, (x,), "residual_norm", _bw)


# ---------------------------------------------------------------------------
# axis reductions and global pooling


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    n = x.shape[axis]
    return _result(x.data.mean(axis=axis, dtype=np.float64).astype(x.dtype), (x,),
                   "reduce_mean",
                   lambda g: x.accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis)))


def reduce_max(x: Tensor, axis: int) -> Tensor:
    idx = x.data.argmax(axis=axis)
    out_data = np.take_along_axis(x.data, np.expand_dims(idx, axis), axis=axis)

    def _bw(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        x.accumulate(gx)
    return _result(np.squeeze(out_data, axis=axis), (x,), "reduce_max", _bw)


def global_pool(x: Tensor) -> Tensor:
    """The pooling head's [B, 3C] descriptor of [B, F, T, C]: per channel the
    mean over frequency and time, the frequency mean of the temporal max and
    the temporal max of the frequency mean, in that order; it takes the
    frequency mean once."""
    if x.data.ndim != 4:
        raise ShapeMismatch(f"global_pool expects 4-D input, got {x.shape}")
    freq_mean = reduce_mean(x, 1)
    overall_avg = reduce_mean(freq_mean, 1)
    time_max = reduce_mean(reduce_max(x, 2), 1)
    freq_avg = reduce_max(freq_mean, 1)
    return concat([overall_avg, time_max, freq_avg], axis=1)
