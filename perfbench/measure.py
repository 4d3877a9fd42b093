"""Span tracer and summary statistics for the asckit benchmark.

The tracer times layers from the outside: the benchmark opens a span around
each call it makes into an asckit module, and `Tracer.install` temporarily
replaces the public op functions of `asckit.tensor`, the backward closure
each op attaches to its output, and the entries of `Network.blocks`,
`Network.head` and `Network.forward` with timing wrappers.
`Tracer.uninstall` puts every original back. Spans stay in memory until
`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from collections import defaultdict

# Public op functions of asckit.tensor: each takes Tensors and returns one.
TENSOR_OPS = (
    "add", "mul", "scale", "log", "tsum", "reshape", "concat", "relu",
    "softmax", "dropout", "dense", "conv2d", "max_pool", "avg_pool",
    "batch_norm", "residual_norm", "reduce_mean", "reduce_max", "global_pool",
)

_NULL_SPAN = contextlib.nullcontext()


def tail_percentile(samples, beyond: int = 10):
    """Highest whole percentile with at least `beyond` samples above it.

    Uses nearest-rank percentiles: percentile q is the sample at rank
    ceil(q * n / 100). Returns (q, value), or None when fewer than
    beyond + 1 samples exist.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return None
    q = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, ordered[rank - 1]


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class _Wrapped:
    """Stand-in for a network block or head that times each call."""

    def __init__(self, tracer, name, inner):
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._inner(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class Tracer:
    """In-memory spans (name, start, end, parent, op) plus per-op counters.

    `op` is the index of the timed benchmark op a span belongs to, or -1
    outside timed ops. Spans and counters are recorded only while `active`.
    """

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self.counters = defaultdict(float)  # (op, key) -> value
        self._stack = []
        self._restore = []

    @contextlib.contextmanager
    def _record(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def span(self, name):
        """Context manager recording one span; free when inactive."""
        return self._record(name) if self.active else _NULL_SPAN

    def count(self, key, value=1.0):
        if self.active:
            self.counters[(self.op, key)] += value

    # -- wrapping -------------------------------------------------------

    def _wrap_backward(self, name, closure):
        def timed_backward(g):
            with self.span(name):
                closure(g)
        return timed_backward

    def _wrap_op(self, tensor_mod, op_name, fn):
        fwd_name = f"tensor.{op_name}.fwd"
        bwd_name = f"tensor.{op_name}.bwd"
        tensor_cls = tensor_mod.Tensor

        def timed_op(*args, **kwargs):
            with self.span(fwd_name):
                out = fn(*args, **kwargs)
            inputs = [a for a in args if isinstance(a, tensor_cls)]
            for a in args:
                if isinstance(a, (list, tuple)):
                    inputs.extend(t for t in a if isinstance(t, tensor_cls))
            if any(out is t for t in inputs):
                return out  # identity (e.g. eval-mode dropout): no new output
            self.count(f"tensor.{op_name}.calls")
            self.count(f"tensor.{op_name}.out_bytes", out.data.nbytes)
            if (out.data.dtype.name == "float64" and inputs
                    and all(t.data.dtype.name == "float32" for t in inputs)):
                self.count("tensor.f64_outputs")
            if out._backward is not None:
                out._backward = self._wrap_backward(bwd_name, out._backward)
            return out

        return timed_op

    def install(self, tensor_mod, network=None):
        """Wrap tensor ops (and a network's blocks, head and forward)."""
        if self._restore:
            raise RuntimeError("tracer wrappers are already installed")
        for op_name in TENSOR_OPS:
            original = getattr(tensor_mod, op_name)
            setattr(tensor_mod, op_name, self._wrap_op(tensor_mod, op_name, original))
            self._restore.append(lambda n=op_name, f=original: setattr(tensor_mod, n, f))
        if network is not None:
            blocks = network.blocks
            originals = list(blocks)
            blocks[:] = [_Wrapped(self, f"models.block{i}", b) for i, b in enumerate(originals)]
            self._restore.append(lambda: blocks.__setitem__(slice(None), originals))
            head = network.head
            network.head = _Wrapped(self, "models.head", head)
            self._restore.append(lambda: setattr(network, "head", head))
            network.forward = _Wrapped(self, "models.forward", network.forward)
            self._restore.append(lambda: delattr(network, "forward"))

    def uninstall(self):
        """Put back every function and object `install` replaced."""
        while self._restore:
            self._restore.pop()()

    # -- summaries ------------------------------------------------------

    def durations(self, name, ops=None):
        """Inclusive durations of the spans called `name` (within `ops`)."""
        return [e - s for n, s, e, _, op in self.spans
                if n == name and (ops is None or op in ops)]

    def per_op_totals(self, ops, self_only=False):
        """{span name: [per-op sum of durations (or self times)]} over `ops`."""
        ops = list(ops)
        slot = {op: i for i, op in enumerate(ops)}
        totals = defaultdict(lambda: [0.0] * len(ops))
        own = self_times(self.spans) if self_only else None
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if op in slot:
                value = own[index] if self_only else end - start
                totals[name][slot[op]] += value
        return totals

    def per_op_counts(self, ops, key):
        return [self.counters.get((op, key), 0.0) for op in ops]

    def dump(self, path, meta):
        """Write spans and counters as one JSON document."""
        doc = {
            "meta": meta,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans
            ],
            "counters": [
                {"op": op, "key": key, "value": v}
                for (op, key), v in sorted(self.counters.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
