"""A traced train step: the benchmark's `Tracer` wraps every public op of
`asckit.tensor`, each backward closure and a network's blocks, head and
forward, and must change no bit of a train forward and backward."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from asckit import models, train  # noqa: E402
from asckit import tensor as T  # noqa: E402
from measure import TENSOR_OPS, Tracer  # noqa: E402


def _train_step(net):
    """The loss and output of one B=2 train forward and backward of `net`."""
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.standard_normal((2,) + models.INPUT_SHAPE).astype(np.float32))
    probs = net.forward(x, "train", rng=np.random.default_rng(32))
    loss = train.cross_entropy(probs, np.eye(models.N_CLASSES)[[3, 8]])
    T.backward(loss)
    return [loss.data, probs.data]


def _state(net):
    """Every gradient and BN buffer of `net`, read with no wrapper in place."""
    grads = [p.grad for p in net.params()]
    assert all(g is not None for g in grads)
    return grads + list(net.buffers().values())


def test_traced_train_step_is_bit_identical_and_restores_every_op():
    plain_net = models.build_network("red03", seed=0)
    plain = _train_step(plain_net) + _state(plain_net)
    net = models.build_network("red03", seed=0)
    originals = {name: getattr(T, name) for name in TENSOR_OPS}
    blocks, head = list(net.blocks), net.head
    tracer = Tracer()
    tracer.active, tracer.op = True, 0
    tracer.install(T, net)
    try:
        traced = _train_step(net)
    finally:
        tracer.uninstall()

    assert all(getattr(T, name) is fn for name, fn in originals.items())
    assert all(a is b for a, b in zip(net.blocks, blocks)) and len(net.blocks) == len(blocks)
    assert net.head is head and "forward" not in vars(net)
    traced += _state(net)
    assert len(traced) == len(plain) > 2
    for a, b in zip(traced, plain):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the ops that take a list of tensors were traced too, forward and backward
    assert tracer.counters[(0, "tensor.avg_pool.calls")] == 3
    assert tracer.counters[(0, "tensor.concat.calls")] == 2
    assert {"tensor.avg_pool.bwd", "tensor.concat.bwd"} <= {s[0] for s in tracer.spans}
    assert (0, "tensor.f64_outputs") not in tracer.counters
