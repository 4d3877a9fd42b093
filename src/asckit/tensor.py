"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Supports exactly the operations the classification networks need, on
[batch, frequency, time, channel] layouts. Every op builds a backward
closure and returns its output through `_result`, which records the op's
inputs and that closure only when grad is enabled and some input requires
grad (`_records`); under `no_grad` ops record nothing. Whether grad is
enabled is kept per thread, so a `no_grad` block in one thread leaves grad
on in every other, and threads may run eval forwards at once.
`concurrently` runs a list of callables at once, on the calling thread and
a pool that lives only for the call, each pool thread with the caller's
grad flag, and gives their results in list order.

The graph is made of nodes (`Node`), which hold no data: a node has its
tensor's gradient, its backward closure, its inputs' nodes (`_parents`)
and its op name. A tensor made directly, a leaf, is its own node, and so is
every `Parameter`. An op that records gives its output a node of its own
(`_Output`), and the output's `grad`, `_backward`, `_parents`,
`requires_grad` and `op` read and write that node's. Each closure captures
its inputs' nodes and exactly the arrays its backward reads, taken at
forward time, and never the tensor of an op output; so an intermediate
array is freed as soon as the forward code drops its tensor, unless a
closure saved it. `add`, `scale`, `tsum`, `reshape`, `concat`, `avg_pool`
and `reduce_mean` keep no array of their inputs or output; `mul`, `log`,
`relu` and `dense` keep the input arrays they read, `softmax` its output,
and `conv2d` its input and kernel. `conv_bn_relu` keeps its input and
kernel, the standardized conv output (xhat) and a bool mask of its
output's sign; train-mode `batch_norm` and `residual_norm` keep xhat and
per-channel vectors. `dropout` keeps a bool mask and its scale, `max_pool`
a uint8 index of each tile's maximum and `reduce_max` its argmax index.

`backward` schedules the op nodes with the standard library's
`graphlib.TopologicalSorter`, in which each op node comes after all of its
consumers: so a closure runs once all its consumers have run. Each round of
ready nodes (an inception unit's branches, say) runs its closures through
`concurrently`. While a closure runs in a round, `Node.accumulate` queues
each (node, gradient) pair it is handed, per thread, and adds nothing; once
the round is done the pairs are added in ready order, the order the sorter
gives the round's nodes, which follows the order the graph was gathered in.
So the order gradients are added in, and with it every gradient's bits,
depends neither on `id()` values nor on how the threads run, nor on the
CPU count. Once its round has run, an op's node is released: its gradient,
its closure and its parents are dropped, so the arrays the closure kept
are freed as the rounds go, and a second `backward` through the same graph
reaches nothing.

The window ops have the geometries the networks give them. `conv2d` slides
stride-1 'same' windows that reach (k - 1) // 2 cells before their centre
and k // 2 after along each axis, so the output has the input's frequency
and time size; `_span` gives, along one axis, the cells whose neighbour d
cells away lies inside it. `conv2d`'s forward copies the windows of its
zero-padded input, a `sliding_window_view` (`_windows`), out as the columns
of one GEMM (im2col). Its backward runs one GEMM per kernel offset for each
gradient: the kernel's reads that offset's view of the windows, padded anew
so no closure keeps a padded input, and the input's adds the
`_span`-clipped part of its GEMM into a zero array of the input's shape,
padding nothing. Nor does `avg_pool`, the inception-residual unit's fixed
pooled sum of three inputs over (K, 1), (K, K) and (1, K) windows centred
on their cell, K = `INCRES_K` being odd: `_box_sum` sums each window along
one axis with one add of each `_span`-shifted slice, and a window is
divided by the cells it covers, the product of its two 1-D counts. So the
first two inputs share one frequency pass, and the backward runs the same
boxes over the gradient divided by those counts. `max_pool` is the fixed
2 x 2 tile max of every block, on even sides only: its four views are the
cells of the non-overlapping tiles, which cover the input. Its forward is a
running max over the views and, when it records, the uint8 index of each
tile's first maximum in row-major order, which is 1/16 of a float32
input's bytes; its backward writes each tile cell once, the tile's gradient
where the index is that cell's view and zero elsewhere.

The conv core, `_conv_forward` and `_conv_backward`, has no bias; `conv2d`
adds its own and sums its gradient. `conv_bn_relu` is the networks'
train-mode conv -> batch norm -> ReLU unit as one op; its conv has no bias,
which the batch mean would cancel exactly. It runs the core and train-mode
`batch_norm` code, so its output, gradients and running buffers are
bit-identical to the three-op chain with a zero bias, but its closure
keeps a bool mask of its output's sign where the chain keeps the BN output.

Every op stores its output, and every gradient, in its input's dtype
(float32 in training, float64 in the gradient test-suite), and an op with
several inputs rejects inputs of different dtypes; statistics
(means/variances) and full reductions accumulate in float64 and are cast
back to that dtype before they broadcast, without any full-size float64
temporary. Batch norm's per-channel sums reduce (batch, frequency) first,
over contiguous time x channel rows, then time; its per-channel vectors
broadcast as [time, channel] rows (`_rows`), so numpy runs each op over the
last two axes merged. After `backward` only leaves (tensors made directly, and
`Parameter`s) keep their `.grad`; an op's node drops its gradient once
its backward closure has consumed it. A backward hands each input a
gradient of that input's shape and dtype through `Node.accumulate`, which
keeps a first gradient as is and adds later ones into it: the closure must
not write to that array or give it to another input afterwards. So `add`
gives one input a copy of its gradient and the other the gradient itself,
and `reshape` and `concat` hand over non-overlapping views of theirs. The
gradient `g` a closure is handed is its output's own, which `backward`
drops once the closure has run, so the closure may write into it, as
`relu`, `dropout`, `conv_bn_relu`, `avg_pool` and `residual_norm` do, or
hand it to an input. The closures of a round run at once, so a closure
writes into no array but that `g` and those it makes itself.

The network settings are the module constants `BN_EPS`, `BN_MOMENTUM`,
`RN_LAMBDA`, `RN_EPS` and `INCRES_K`; no caller sets them. Eval-mode
`batch_norm` is a per-channel affine map with constant coefficients from
gamma, beta and the running buffers, so its backward reaches only its input.
"""

from __future__ import annotations

import contextlib
import functools
import graphlib
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigMismatch, ShapeMismatch

# settings of the paper's networks
BN_EPS = 1e-3  # batch norm variance offset
BN_MOMENTUM = 0.99  # batch norm running-statistics momentum
RN_LAMBDA = 0.4  # weight of the identity shortcut in residual norm
RN_EPS = 1e-5  # residual norm variance offset
INCRES_K = 3  # odd side of the inception-residual unit's conv and pool windows


class Node:
    """A graph node: the gradient, the backward closure, the input nodes
    (`_parents`) and the op name of one tensor. It holds no data."""

    __slots__ = ("requires_grad", "grad", "_parents", "_backward", "op")

    def __init__(self, requires_grad=False, parents=(), backward=None, op="leaf"):
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = parents
        self._backward = backward
        self.op = op

    @property
    def node(self):
        """The node itself, so an op may take a tensor's node for the tensor."""
        return self

    def accumulate(self, g):
        """Add the gradient `g`, of this node's tensor's shape and dtype, into
        `.grad`. A first gradient becomes `.grad` as is: so the caller must
        not write to `g`, or hand it to another node, afterwards. Within a
        round of `backward` the pair is queued on this thread and added in
        ready order once the round is done."""
        if not self.requires_grad:
            return
        if _grad.queue is not None:  # inside a round of `backward`
            _grad.queue.append((self, g))
        elif self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Tensor(Node):
    """An array and its graph node. A tensor made directly, a leaf, is its
    own node; an op that records a graph gives its output a separate one
    (`_Output`)."""

    __slots__ = ("data",)

    def __init__(self, data, requires_grad=False, op="leaf"):
        super().__init__(requires_grad, op=op)
        self.data = np.asarray(data)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor({self.op}, shape={self.shape}, grad={self.requires_grad})"


def _on_node(name):
    """A property that reads and writes the attribute `name` of the node."""
    return property(lambda t: getattr(t.node, name), lambda t, v: setattr(t.node, name, v))


class _Output(Tensor):
    """The output of an op that recorded a graph. Its node lives apart from
    it, in the graph, and every graph attribute reads and writes the node's;
    so its array is freed once no code holds the tensor, unless a closure
    saved the array."""

    __slots__ = ("node",)
    requires_grad, grad, _parents, _backward, op = map(_on_node, Node.__slots__)

    def __init__(self, data, node):
        self.data = data
        self.node = node


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
    queue = None  # the (node, gradient) pairs a closure of a backward round hands over


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


def _records(parents) -> bool:
    """Whether an op on the tensors `parents` records a graph: grad is
    enabled and some parent requires grad."""
    return _grad.enabled and any(p.requires_grad for p in parents)


def _result(data, parents, op, backward):
    """The output of `op` on the tensors (or nodes) `parents`. When
    `_records(parents)`, it gets a node of its own with the parents' nodes
    and the closure `backward(g)`, which hands each of them its gradient;
    otherwise it is a plain tensor with no parents, and `backward` may be
    None."""
    if not _records(parents):
        return Tensor(data, op=op)
    return _Output(data, Node(True, tuple(p.node for p in parents), backward, op))


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps
    one (`os.sched_getaffinity`, Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def concurrently(calls) -> list:
    """The results of the callables `calls`, in list order, run at once.

    The calling thread and a pool of min(`_cpus()`, len(calls)) - 1 threads,
    which lives only for this call, each take the next callable not yet
    started until none is left; each pool thread runs with the caller's
    grad flag. With one CPU or one callable, all run in order on the caller.
    An exception a callable raises reaches the caller once every thread is
    done, and the callables not yet started then do not run.
    """
    calls = list(calls)
    workers = min(_cpus(), len(calls)) - 1
    if workers < 1:
        return [call() for call in calls]
    results = [None] * len(calls)
    left = list(enumerate(calls))[::-1]  # list.pop is atomic: each runs once
    enabled = _grad.enabled

    def drain():
        while True:
            try:
                i, call = left.pop()
            except IndexError:
                return
            try:
                results[i] = call()
            except BaseException:
                left.clear()
                raise

    def work():
        _grad.enabled = enabled
        drain()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work) for _ in range(workers)]
        drain()
        for future in futures:
            future.result()
    return results


def _run_closure(node):
    """Run `node`'s backward closure and return the (node, gradient) pairs
    it handed over, in order, unapplied."""
    _grad.queue = pairs = []
    try:
        node._backward(node.grad)
    finally:
        _grad.queue = None
    return pairs


def _release(node):
    """Drop the op node's gradient, closure and parents: its graph."""
    node.grad, node._backward, node._parents = None, None, ()


def backward(loss: Tensor) -> None:
    """Populate the grads of the leaves the scalar `loss` depends on.

    Gradients flow through the op nodes in rounds of a
    `graphlib.TopologicalSorter` in which each op node comes after all of
    its consumers: a round's closures run at once (`concurrently`), and the
    gradients they hand over are added in ready order once all have run.
    Each op node is then released: its `.grad`, its closure and its parents
    are dropped, so after the call only leaves and `Parameter`s hold a
    gradient, and the graph behind `loss` is gone.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.node.grad = np.ones_like(loss.data)
    if loss.node._backward is None:
        return  # a leaf, or a graph already released
    consumers, found = {loss.node: []}, [loss.node]
    for node in found:  # grows by each op node met for the first time
        for p in node._parents:
            if p._backward is not None:  # an op node, not a leaf
                if p not in consumers:
                    consumers[p] = []
                    found.append(p)
                consumers[p].append(node)
    sorter = graphlib.TopologicalSorter(consumers)
    sorter.prepare()
    while sorter.is_active():
        ready = sorter.get_ready()
        _run_round(ready)
        sorter.done(*ready)


def _run_round(nodes):
    """Run at once the closures of those op nodes of `nodes` a gradient
    reached, add the gradients they handed over in node order, then release
    every node."""
    reached = [n for n in nodes if n.grad is not None]
    for pairs in concurrently([functools.partial(_run_closure, n) for n in reached]):
        for n, g in pairs:
            n.accumulate(g)
    for node in nodes:
        _release(node)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise and shape ops


def _check_dtypes(op, *arrays):
    """Raise ShapeMismatch unless the tensors or arrays share one dtype."""
    if len({a.dtype for a in arrays}) > 1:
        raise ShapeMismatch(f"{op}: inputs of different dtypes "
                            f"{', '.join(a.dtype.name for a in arrays)}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("add", a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")

    na, nb = a.node, b.node

    def _bw(g):
        na.accumulate(g.copy())
        nb.accumulate(g)
    return _result(a.data + b.data, (a, b), "add", _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("mul", a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}")

    na, nb, a, b = a.node, b.node, a.data, b.data

    def _bw(g):
        na.accumulate(g * b)
        nb.accumulate(g * a)
    return _result(a * b, (na, nb), "mul", _bw)


def scale(x: Tensor, c: float) -> Tensor:
    n = x.node
    return _result(x.data * c, (x,), "scale", lambda g: n.accumulate(g * c))


def log(x: Tensor) -> Tensor:
    n, x = x.node, x.data
    return _result(np.log(x), (n,), "log", lambda g: n.accumulate(g / x))


def tsum(x: Tensor) -> Tensor:
    """Full reduction to a scalar, 64-bit accumulation."""
    n, shape, dtype = x.node, x.shape, x.dtype
    total = x.data.sum(dtype=np.float64)
    return _result(np.asarray(total, dtype=dtype), (x,), "sum",
                   lambda g: n.accumulate(np.broadcast_to(g, shape).astype(dtype)))


def reshape(x: Tensor, shape) -> Tensor:
    n, before = x.node, x.shape
    return _result(x.data.reshape(shape), (x,), "reshape",
                   lambda g: n.accumulate(g.reshape(before)))


def concat(tensors) -> Tensor:
    """The tensors, alike but in their last axis, joined along it."""
    tensors = list(tensors)
    if len({(t.shape[:-1], t.dtype) for t in tensors}) != 1 or min(
            t.data.ndim for t in tensors) == 0:
        raise ShapeMismatch(f"concat: inputs {[(t.shape, t.dtype.name) for t in tensors]} "
                            "do not join along the last axis")
    offsets = np.cumsum([0] + [t.shape[-1] for t in tensors])
    nodes = [t.node for t in tensors]

    def _bw(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            n.accumulate(g[..., lo:hi])
    return _result(np.concatenate([t.data for t in tensors], axis=-1), nodes, "concat", _bw)


def relu(x: Tensor) -> Tensor:
    n, x = x.node, x.data
    return _result(np.maximum(x, 0), (n,), "relu",
                   lambda g: n.accumulate(np.multiply(g, x > 0, out=g)))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    np.maximum(y, np.finfo(y.dtype).tiny, out=y)  # keeps log(y) and its gradient finite

    n = x.node

    def _bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        n.accumulate((g - dot) * y)
    return _result(y, (n,), "softmax", _bw)


def check_mode(op, mode):
    """Raise ConfigMismatch unless `mode` is "train" or "eval"."""
    if mode not in ("train", "eval"):
        raise ConfigMismatch(f"{op}: mode must be 'train' or 'eval', got {mode!r}")


def dropout(x: Tensor, p: float, mode: str, rng=None) -> Tensor:
    """Train mode zeroes each cell with probability p and scales the others
    by c = 1 / (1 - p), the quotient the whole-mask division `keep = (rng
    draws >= p) / (1 - p)` gives a kept cell, in x's dtype. The output is x
    * mask * c with the bool mask, which has the bits of x * keep: x * 1 is
    x, and x * 0 keeps its sign (or is NaN) through * c. The backward keeps
    only the mask, a byte a cell, and c. Eval mode, or p = 0, returns x."""
    check_mode("dropout", mode)
    if not 0 <= p < 1:
        raise ConfigMismatch(f"dropout rate must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x
    if rng is None:
        raise ConfigMismatch(f"train-mode dropout at rate {p} needs an RNG, got None")
    mask = rng.random(x.shape) >= p
    # one kept cell divided as the whole mask would be: keep's dtype and bits
    c = (np.ones(1, bool) / np.asarray(1.0 - p, dtype=x.dtype)).astype(x.dtype)
    y = np.multiply(x.data, mask)
    y *= c
    n = x.node

    def _bw(g):
        np.multiply(g, mask, out=g)
        g *= c
        n.accumulate(g)
    return _result(y, (n,), "dropout", _bw)


# ---------------------------------------------------------------------------
# dense / convolution


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("dense", x, w, b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"dense: {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeMismatch(f"dense bias: {b.shape}")

    nodes = (nx, nw, nb) = x.node, w.node, b.node
    x, w = x.data, w.data

    def _bw(g):
        nx.accumulate(g @ w.T)
        nw.accumulate(x.T @ g)
        nb.accumulate(g.sum(axis=0))
    return _result(x @ w + b.data, nodes, "dense", _bw)


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
    _check_dtypes("conv2d", x, w)
    if x.ndim != 4 or w.ndim != 4 or x.shape[3] != w.shape[2]:
        raise ShapeMismatch(f"conv2d: input {x.shape}, kernel {w.shape}")
    kf, kt, cin, cout = w.shape
    # im2col: one copy of the windows as rows, columns ordered (u, v, cin)
    view = _windows(x, (kf, kt)).transpose(0, 1, 2, 4, 5, 3)
    y = view.reshape(-1, kf * kt * cin) @ w.reshape(-1, cout)
    return y.reshape(x.shape[:3] + (cout,))


def _conv_backward(g, x, w, nx, nw):
    """Hand the nodes nx and nw of the arrays x and w their gradients from
    the output gradient g of `_conv_forward(x, w)`: one GEMM per kernel
    offset (u, v) for each. w's reads the windows' view at (u, v), padded
    anew from x. x's pads nothing: output cell (i, j) reads input cell
    (i + u - pf, j + v - pt), so the `_span`-clipped GEMM is added into
    those cells of a zero array that nx then owns."""
    kf, kt, cin, cout = w.shape
    pf, pt = (kf - 1) // 2, (kt - 1) // 2
    g2 = g.reshape(-1, cout)
    if nw.requires_grad:
        windows = _windows(x, (kf, kt))
        gw = np.empty_like(w)
        for u, v in np.ndindex(kf, kt):
            np.matmul(windows[..., u, v].reshape(-1, cin).T, g2, out=gw[u, v])
        nw.accumulate(gw)
    if nx.requires_grad:
        gx = np.zeros_like(x)
        for u, v in np.ndindex(kf, kt):
            (to_f, frm_f), (to_t, frm_t) = _span(x.shape[1], u - pf), _span(x.shape[2], v - pt)
            gx[:, frm_f, frm_t] += (g2 @ w[u, v].T).reshape(x.shape)[:, to_f, to_t]
        nx.accumulate(gx)


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
    nodes = (nx, nw, nb) = x.node, w.node, b.node
    x, w, (cout,), dtype = x.data, w.data, b.shape, b.dtype

    def _bw(g):
        if nb.requires_grad:
            nb.accumulate(g.reshape(-1, cout).sum(axis=0, dtype=np.float64).astype(dtype))
        _conv_backward(g, x, w, nx, nw)
    return _result(y, nodes, "conv2d", _bw)


# ---------------------------------------------------------------------------
# pooling


def max_pool(x: Tensor) -> Tensor:
    """Max over the non-overlapping 2 x 2 (frequency, time) tiles, which
    cover the input: both sides must be even. Each tile's gradient goes to
    its first maximum in row-major order.

    When it records a graph, the forward also builds a uint8 index of that
    maximum's offset k in each tile, 0-3 in row-major order, which is all
    the backward keeps: the output's shape at a byte a cell, 1/16 of a
    float32 input's bytes. The backward writes the tile's gradient into view
    k where the index is k and zeros elsewhere; a tile whose max is NaN
    equals no cell, has index 4 and gets no gradient. Under `no_grad`, or on
    an input that requires no grad, no index is built.
    """
    if x.data.ndim != 4:
        raise ShapeMismatch(f"max_pool expects B x F x T x C, got {x.shape}")
    _, f, t, _ = x.shape
    if f < 2 or t < 2 or f % 2 or t % 2:
        raise ShapeMismatch(f"max_pool needs at least 2 x 2 (frequency, time), even, got {(f, t)}")
    tiles = [(slice(None), slice(u, None, 2), slice(v, None, 2)) for u in (0, 1) for v in (0, 1)]
    y = x.data[tiles[0]].copy()
    for o in tiles[1:]:
        np.maximum(y, x.data[o], out=y)
    if not _records((x,)):
        return _result(y, (x,), "max_pool", None)
    # a tile's index counts the views before the first to hold its max, each
    # still marked in the running `missed`: 4 if none does, as a NaN max
    missed = np.not_equal(x.data[tiles[0]], y)
    index = missed.astype(np.uint8)
    ne = np.empty(y.shape, bool)
    for o in tiles[1:]:
        missed &= np.not_equal(x.data[o], y, out=ne)
        index += missed
    n, shape = x.node, x.shape

    def _bw(g):
        gx = np.empty_like(g, shape=shape)  # the tile views write every cell
        hit = np.empty(index.shape, bool)
        for k, o in enumerate(tiles):
            np.multiply(g, np.equal(index, k, out=hit), out=gx[o])  # the views are disjoint
        n.accumulate(gx)
    return _result(y, (n,), "max_pool", _bw)


def _box_sum(a, axis, out):
    """Sums of `a` over the windows of INCRES_K cells centred on each cell
    along `axis`, each clipped to the array, written into `out`, which must
    not be `a`: a copy, then one add of each shifted slice."""
    np.copyto(out, a)
    lead = (slice(None),) * axis
    r = INCRES_K // 2
    for d in (*range(-r, 0), *range(1, r + 1)):
        to, frm = (lead + (s,) for s in _span(a.shape[axis], d))
        np.add(out[to], a[frm], out=out[to])
    return out


def avg_pool(xs) -> Tensor:
    """The sum of the stride-1 window means of the three [B, F, T, C] inputs
    `xs`, of one shape and dtype, over (K, 1), (K, K) and (1, K) (frequency,
    time) cells in that order, K = INCRES_K: the inception-residual unit's
    pooled branches. Each window, centred on its cell as K is odd, is
    divided by the cells of the input it covers, the product of its 1-D
    counts cf and ct, so with boxF and boxT the window sums along one axis,
    y = boxF(x0 + boxT(x1) / ct) / cf + boxT(x2) / ct. The backward runs the
    same boxes; each input gets its own array.
    """
    xs = list(xs)
    if len(xs) != 3 or len(xs[0].shape) != 4 or any(
            (x.shape, x.dtype) != (xs[0].shape, xs[0].dtype) for x in xs):
        raise ShapeMismatch("avg_pool needs 3 B x F x T x C inputs of one shape and dtype, "
                            f"got {[(x.shape, x.dtype.name) for x in xs]}")
    x0, x1, x2 = xs
    _, f, t, c = x0.shape

    def box(a, axis):
        return _box_sum(a, axis, np.empty_like(a))

    # the counts broadcast as [F, 1, 1] and as [T, C] rows, over which numpy
    # runs one inner loop (see `_rows`)
    cf = box(np.ones(f, x0.dtype), 0)[:, None, None]
    ct = np.repeat(box(np.ones(t, x0.dtype), 0), c).reshape(t, c)
    s = box(x1.data, 2)
    s /= ct
    s += x0.data
    y = box(s, 1)
    y /= cf
    s = _box_sum(x2.data, 2, s)
    s /= ct
    y += s
    nodes = (n0, n1, n2) = x0.node, x1.node, x2.node

    def _bw(g):
        h = box(g / cf, 1)
        n1.accumulate(box(h / ct, 2))
        n0.accumulate(h)
        g /= ct  # g is this output's own gradient
        n2.accumulate(box(g, 2))
    return _result(y, nodes, "avg_pool", _bw)


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
    gamma, beta = gamma.node, beta.node

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
    n = x.node
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
        return _result(y, (n,), "batch_norm", lambda g: n.accumulate(g * scale))
    y, grad = _batch_norm_train(x.data, gamma, beta, running_mean, running_var)
    return _result(y, (n, gamma, beta), "batch_norm", lambda g: n.accumulate(grad(g)))


def conv_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, running_mean,
                 running_var) -> Tensor:
    """relu(batch_norm(conv2d(x, w, 0), gamma, beta, running_mean,
    running_var, "train")) as one op, with the same arithmetic and so the
    same bits, buffer update included; its conv has no bias.

    Its closure keeps the arrays x and w, BN's xhat and the bool mask y > 0
    of its output y, a byte a cell, where the chain keeps x, w, xhat and the
    BN output: the ReLU is taken in place, and its backward needs only the
    output's sign. So the output is freed once the ops it feeds are done.
    """
    y = _conv_forward(x.data, w.data)
    _check_channels("conv_bn_relu", y.shape, gamma, beta, running_mean, running_var)
    y, bn_grad = _batch_norm_train(y, gamma, beta, running_mean, running_var)
    np.maximum(y, 0, out=y)
    nodes = (nx, nw) = x.node, w.node
    x, w, positive = x.data, w.data, y > 0

    def _bw(g):
        _conv_backward(bn_grad(np.multiply(g, positive, out=g)), x, w, nx, nw)
    return _result(y, nodes + (gamma, beta), "conv_bn_relu", _bw)


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
    n = x.node

    def _bw(g):
        dx, _, _ = _standardize_grad(g, xhat, inv, axes)
        g *= RN_LAMBDA
        dx += g
        n.accumulate(dx)
    return _result(y, (n,), "residual_norm", _bw)


# ---------------------------------------------------------------------------
# axis reductions and global pooling


def _check_axis(op, x, axis):
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeMismatch(f"{op}: axis {axis} is out of range for shape {x.shape}")


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    _check_axis("reduce_mean", x, axis)
    node, n = x.node, x.shape[axis]
    return _result(x.data.mean(axis=axis, dtype=np.float64).astype(x.dtype), (node,),
                   "reduce_mean",
                   lambda g: node.accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis)))


def reduce_max(x: Tensor, axis: int) -> Tensor:
    _check_axis("reduce_max", x, axis)
    idx = np.expand_dims(x.data.argmax(axis=axis), axis)
    out_data = np.take_along_axis(x.data, idx, axis=axis)
    n, shape, dtype = x.node, x.shape, x.dtype

    def _bw(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis=axis)
        n.accumulate(gx)
    return _result(np.squeeze(out_data, axis=axis), (n,), "reduce_max", _bw)


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
    return concat([overall_avg, time_max, freq_avg])
