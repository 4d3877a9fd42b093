"""Tests for the benchmark's own code: tail-percentile selection, span self
time, and tracing that restores what it wraps and changes no output."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from asckit import models  # noqa: E402
from asckit import tensor as T  # noqa: E402

import workloads  # noqa: E402
from measure import TENSOR_OPS, Tracer, self_times, tail_percentile  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 20, 37, 100, 1000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    samples = [float(v) for v in range(n)][::-1]  # input order must not matter
    q, value = tail_percentile(samples)
    assert sum(s > value for s in samples) >= 10
    next_rank = math.ceil((q + 1) * n / 100)  # nearest rank of percentile q + 1
    assert n - next_rank < 10


def test_tail_percentile_values():
    assert tail_percentile(range(20)) == (50, 9)
    assert tail_percentile(range(100)) == (90, 89)
    assert tail_percentile(range(11)) == (9, 0)
    assert tail_percentile(range(10)) is None


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("a", 2.0, 4.0, 0, 0),
        ("b", 3.0, 5.0, 0, 0),  # overlaps a: together they cover 2..5
        ("c", 8.0, 12.0, 0, 0),  # only 8..10 lies inside the parent
        ("grandchild", 2.5, 3.5, 1, 0),  # counts against a, not the parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_spans_nest_and_are_skipped_when_inactive():
    tracer = Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []
    tracer.active = True
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [(name, parent) for name, _, _, parent, _ in tracer.spans] == [
        ("outer", -1), ("inner", 0)]


def test_traced_predict_restores_wrappers_and_matches_untraced():
    net = models.build_network("red03", seed=0)
    feats = np.random.default_rng(0).standard_normal(
        (2,) + models.INPUT_SHAPE).astype(np.float32)
    originals = {name: getattr(T, name) for name in TENSOR_OPS}
    blocks, head = list(net.blocks), net.head

    plain = models.predict(net, feats, batch_size=2)
    tracer = Tracer()
    tracer.active, tracer.op = True, 0
    tracer.install(T, net)
    try:
        traced = models.predict(net, feats, batch_size=2)
    finally:
        tracer.uninstall()

    assert all(getattr(T, name) is fn for name, fn in originals.items())
    assert len(net.blocks) == len(blocks)
    assert all(a is b for a, b in zip(net.blocks, blocks))
    assert net.head is head
    assert "forward" not in vars(net)
    np.testing.assert_array_equal(traced, plain)
    names = {s[0] for s in tracer.spans}
    assert {"models.forward", "models.head", "models.block0", "models.block3",
            "tensor.conv2d.fwd", "tensor.batch_norm.fwd"} <= names
    assert tracer.counters[(0, "tensor.conv2d.calls")] > 0


def test_traced_backward_is_timed_and_gives_the_same_gradients():
    def grads(traced):
        tracer = Tracer()
        tracer.active = traced
        x = T.Parameter(np.linspace(-1.0, 1.0, 6, dtype=np.float32), name="x")
        if traced:
            tracer.install(T)
        try:
            loss = T.tsum(T.relu(T.scale(x, 2.0)))
            with tracer.span("backward"):
                T.backward(loss)
        finally:
            tracer.uninstall()
        return x.grad, tracer

    traced_grad, tracer = grads(True)
    np.testing.assert_array_equal(traced_grad, grads(False)[0])
    bwd = [(name, tracer.spans[parent][0]) for name, _, _, parent, _ in tracer.spans
           if name.endswith(".bwd")]
    assert ("tensor.relu.bwd", "backward") in bwd
    assert ("tensor.scale.bwd", "backward") in bwd


def test_layer_metrics_cover_the_per_layer_list():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ops = [{"i": i, "s": 1.0, "items": 4, "traced": i % 2 == 1, "usage": np.zeros(3)}
           for i in range(4)]
    metrics = workloads.layer_metrics(Tracer(), object(), ops, [0.01], 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
