import json
import re
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from asckit import models, train
from asckit import tensor as T
from asckit.augment import AugmentConfig, AugmentPipeline
from asckit.errors import ConfigMismatch, IOFailure, ShapeMismatch
from byte_fuzz import entry_offset
from test_tensor import _avg_pool_loop, _closure_arrays, _reached

VARIANTS = ["baseline", "red01", "red02", "red03"]
# variant -> {"params": ..., "buffers": ...}, each a list of [name, shape] in model order
EXPECTED = json.loads((Path(__file__).parent / "data" / "model_names.json").read_text())


@pytest.fixture(scope="module")
def nets():
    return {v: models.build_network(v, seed=0) for v in VARIANTS}


def _snapshot(model):
    return {k: np.array(v, copy=True) for k, v in model.state_dict().items()}


def _assert_state_equal(a, b):
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestBudgets:
    # the counts of the `models` docstring table; "ensemble" is its three
    # red02 networks, one per front-end
    COUNTS = {"baseline": 9_531_863, "red01": 2_777_111, "red02": 700_428,
              "red03": 178_199, "ensemble": 2_101_284}

    @pytest.mark.parametrize("variant", list(COUNTS))
    def test_exact_count(self, nets, variant):
        members = [nets["red02"]] * 3 if variant == "ensemble" else [nets[variant]]
        assert sum(models.count_parameters(net) for net in members) == self.COUNTS[variant]

    def test_strict_ordering(self, nets):
        counts = [models.count_parameters(nets[v]) for v in VARIANTS]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)


class TestL2:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_l2_names_are_the_kernel_names(self, nets, variant):
        params = nets[variant].params()
        assert [p.name for p in params if p.l2_included] == \
            [p.name for p in params if p.name.endswith(".w")]


class TestForward:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_on_the_simplex(self, nets, variant, mode):
        x = np.random.default_rng(0).normal(size=(2,) + models.INPUT_SHAPE)
        out = nets[variant].forward(x, mode, rng=np.random.default_rng(1)).data
        assert out.shape == (2, models.N_CLASSES)
        assert np.isfinite(out).all() and (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-5)

    def test_mode_other_than_train_or_eval_rejected_before_any_op(self, nets, monkeypatch):
        calls = []
        conv2d = T.conv2d
        monkeypatch.setattr(T, "conv2d", lambda *a: calls.append(1) or conv2d(*a))
        x = np.zeros((1,) + models.INPUT_SHAPE, np.float32)
        with pytest.raises(ConfigMismatch, match="forward: mode must be 'train' or 'eval', "
                                                 "got 'test'"):
            nets["red03"].forward(x, "test")
        assert calls == []

    @pytest.mark.parametrize("n, mode, rng, error, message", [
        (0, "train", np.random.default_rng(0), ShapeMismatch, "the batch holds no examples"),
        (0, "eval", None, ShapeMismatch, "the batch holds no examples"),
        (1, "train", None, ConfigMismatch, "train mode needs an RNG for dropout, got None"),
    ], ids=["empty-train", "empty-eval", "train-without-rng"])
    def test_forward_that_cannot_run_rejected_before_any_op(self, monkeypatch, n, mode, rng,
                                                            error, message):
        # a fault found by an op would come after the first BNs have moved
        # their running buffers; on an empty batch, to NaN
        net = models.build_network("red03", seed=0)
        before = _snapshot(net)
        calls = []
        conv2d = T.conv2d
        monkeypatch.setattr(T, "conv2d", lambda *a: calls.append(1) or conv2d(*a))
        with pytest.raises(error, match=f"^forward: {message}$"):
            net.forward(np.zeros((n,) + models.INPUT_SHAPE, np.float32), mode, rng=rng)
        assert calls == []
        _assert_state_equal(_snapshot(net), before)

    def test_eval_forward_records_no_graph(self):
        net = models.build_network("red03", seed=0)
        x = T.Tensor(np.random.default_rng(8).normal(size=(1,) + models.INPUT_SHAPE)
                     .astype(np.float32), requires_grad=True)
        out = net.forward(x, "eval")
        assert out._parents == () and out._backward is None and not out.requires_grad
        T.backward(T.tsum(T.log(out)))
        assert x.grad is None and all(p.grad is None for p in net.params())
        # grad recording is back on after the call
        assert T.relu(x)._parents == (x,)

    @pytest.mark.parametrize("cin", [3, 4], ids=["projection", "identity"])
    def test_incres_unit_pools_each_branch_with_its_kernel(self, cin):
        # `T.avg_pool` pools its inputs with (K, 1), (K, K) and (1, K) by
        # position, so each branch must sit where its kernel is
        rng = np.random.default_rng(17)
        unit = models.IncResUnit("u", cin, 4, rng)
        for p in unit.params():  # float64, as the window loops are
            p.data = p.data.astype(np.float64)
        x = T.Tensor(rng.normal(size=(2, 6, 7, cin)))
        g = np.zeros((2, 6, 7, 4))
        with T.no_grad():
            want = T.conv2d(x, *unit.proj).data if unit.proj else x.data
            for br, kernel in zip(unit.branches, unit.KERNELS):
                assert br.w.shape[:2] == kernel
                want = want + _avg_pool_loop(br(x, "eval", None).data, kernel, g)[0]
            got = unit(x, "eval", None).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigMismatch, match=r"unknown variant 'red04'; choose from ") as info:
            models.build_network("red04")
        assert "red04" in str(info.value)
        for variant in VARIANTS:
            assert repr(variant) in str(info.value)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        # -1 and 1.5 would fail in np.random.default_rng with numpy's own
        # errors, and True would seed as 1
        with pytest.raises(ConfigMismatch, match=re.escape(
                f"seed must be an integer of at least 0, got {seed!r}")):
            models.build_network("red03", seed=seed)


def _parts(x, batch_size, cpus):
    """The parts `predict` splits `x` into, in row order: each batch of
    `batch_size` rows cut into min(cpus, rows) contiguous parts."""
    batches = [x[lo : lo + batch_size] for lo in range(0, len(x), batch_size)]
    return [part for b in batches for part in np.array_split(b, min(cpus, len(b)))]


class TestPredict:
    def test_zero_rows(self, nets, monkeypatch):
        calls = []
        monkeypatch.setattr(nets["red03"], "forward", lambda *a, **k: calls.append(a))
        out = models.predict(nets["red03"], np.zeros((0,) + models.INPUT_SHAPE))
        assert out.shape == (0, models.N_CLASSES)
        assert out.dtype == np.float64
        assert calls == []

    def test_zero_rows_of_the_wrong_shape_rejected(self, nets):
        with pytest.raises(ShapeMismatch, match="got"):
            models.predict(nets["red03"], np.zeros((0, 128, 255, 3)))

    def test_no_graph_kept(self, monkeypatch):
        # one forward per part, each on the calling thread or a pool thread
        # that is gone when predict returns; the outputs arrive in the order
        # the threads finish, so each is put back at its part's first row
        net = models.build_network("red03", seed=0)
        x = np.random.default_rng(3).normal(size=(5,) + models.INPUT_SHAPE).astype(np.float32)
        outs = []
        forward = net.forward
        monkeypatch.setattr(net, "forward",
                            lambda part, **k: outs.append((part, forward(part, **k))) or outs[-1][1])
        threads = threading.active_count()
        probs = models.predict(net, x, batch_size=3)
        assert threading.active_count() == threads
        parts = _parts(x, 3, T._cpus())
        assert len(outs) == len(parts)
        for _, out in outs:
            assert out._parents == () and out._backward is None and not out.requires_grad
        first_row = {next(i for i, row in enumerate(x) if np.array_equal(row, part[0])): out
                     for part, out in outs}
        assert sorted(first_row) == list(np.cumsum([0] + [len(p) for p in parts[:-1]]))
        expected = np.concatenate([first_row[i].data for i in sorted(first_row)])
        assert probs.tobytes() == expected.astype(np.float64).tobytes()

    # each CPU count splits a batch of 4 rows and one of 1 row; 2, 3 and 4
    # CPUs are more than the second has rows, and 3 and 4 are more threads
    # than a 2-CPU host has CPUs
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_matches_serial_forwards_over_the_same_parts(self, nets, monkeypatch, cpus):
        monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        x = np.random.default_rng(8).normal(size=(5,) + models.INPUT_SHAPE).astype(np.float32)
        net = nets["red03"]
        want = [net.forward(part, "eval").data for part in _parts(x, 4, cpus)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = models.predict(net, x, batch_size=4)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == np.concatenate(want).astype(np.float64).tobytes()

    # without an affinity set (macOS, Windows) predict splits over every CPU
    # of the machine, or runs one part when their count is unknown
    @pytest.mark.parametrize("cpu_count, cpus", [(3, 3), (None, 1)])
    def test_splits_over_all_cpus_without_affinity(self, nets, monkeypatch, cpu_count, cpus):
        monkeypatch.delattr(T.os, "sched_getaffinity")
        monkeypatch.setattr(T.os, "cpu_count", lambda: cpu_count)
        assert T._cpus() == cpus
        x = np.random.default_rng(9).normal(size=(5,) + models.INPUT_SHAPE).astype(np.float32)
        net = nets["red03"]
        want = [net.forward(part, "eval").data for part in _parts(x, 4, cpus)]
        got = models.predict(net, x, batch_size=4)
        assert got.tobytes() == np.concatenate(want).astype(np.float64).tobytes()

    def test_rows_do_not_depend_on_the_batch(self):
        # eval BN uses its running statistics and residual norm works per
        # sample, so no sample's row depends on the others in its batch
        net = models.build_network("red03", seed=5)
        _perturb_bns(net, seed=6)
        x = np.random.default_rng(7).normal(size=(5,) + models.INPUT_SHAPE).astype(np.float32)
        alone = models.predict(net, x, batch_size=1)
        for batch_size in (np.int64(2), 5):
            np.testing.assert_allclose(models.predict(net, x, batch_size=batch_size), alone,
                                       rtol=0, atol=1e-5)

    # and sizes that are not integers: 2.5 would fail in range() with a
    # TypeError, and True would run as 1
    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_batch_size_below_one_rejected(self, nets, batch_size):
        x = np.zeros((1,) + models.INPUT_SHAPE)
        with pytest.raises(ConfigMismatch, match=f"integer of at least 1, got {batch_size}"):
            models.predict(nets["red03"], x, batch_size=batch_size)


def _conv_bn_relus(net):
    return [br for block in net.blocks for unit in block.units for br in unit.branches]


def _unfolded(self, x, mode, rng):
    """The unit as conv2d with a zero bias -> batch_norm -> relu."""
    zero = T.Tensor(np.zeros(self.w.shape[3], self.w.dtype))
    return T.relu(self.bn(T.conv2d(x, self.w, zero), mode, rng))


def _perturb_bns(net, seed):
    rng = np.random.default_rng(seed)
    for m, attr, v in net._leaves():
        if isinstance(m, models.BatchNorm) and attr == "running_mean":
            m.running_mean[...] = rng.normal(0.0, 0.3, size=v.shape)
            m.running_var[...] = rng.uniform(0.3, 3.0, size=v.shape)
            m.gamma.data = rng.uniform(0.5, 1.5, size=v.shape).astype(np.float32)
            m.beta.data = rng.normal(0.0, 0.3, size=v.shape).astype(np.float32)


def _backbone_and_probs(net, x):
    with T.no_grad():
        for block in net.blocks:
            x = block(x, "eval", None)
        return x.data, net.head(x, "eval", None).data


class TestFoldedEval:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_conv_then_batch_norm(self, variant, monkeypatch):
        net = models.build_network(variant, seed=2)
        _perturb_bns(net, seed=3)
        rng = np.random.default_rng(4)
        for unit in _conv_bn_relus(net):
            cin = unit.w.shape[2]
            x = T.Tensor(rng.normal(size=(2, 12, 10, cin)).astype(np.float32))
            got = unit(x, "eval", None).data
            ref = _unfolded(unit, x, "eval", None).data
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * np.abs(ref).max())
        # the probabilities of a random network are near 0 or 1, so the
        # backbone output is compared as well
        x = T.Tensor(rng.normal(size=(2,) + models.INPUT_SHAPE).astype(np.float32))
        got = _backbone_and_probs(net, x)
        monkeypatch.setattr(models._ConvBnRelu, "__call__", _unfolded)
        ref = _backbone_and_probs(net, x)
        np.testing.assert_allclose(got[0], ref[0], rtol=0, atol=1e-5 * np.abs(ref[0]).max())
        np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=1e-5)

    def test_no_stale_fold(self, tmp_path):
        net = models.build_network("red03", seed=0)
        x = np.random.default_rng(5).normal(size=(1,) + models.INPUT_SHAPE)
        before = models.predict(net, x)
        net.blocks[1].units[0].branches[0].bn.running_mean += 1.0
        after_edit = models.predict(net, x)
        assert not np.array_equal(after_edit, before)
        other = models.build_network("red03", seed=1)
        other.save(tmp_path / "w.ascw")
        net.load(tmp_path / "w.ascw")
        after_load = models.predict(net, x)
        assert not np.array_equal(after_load, after_edit)
        np.testing.assert_array_equal(after_load, models.predict(other, x))

    @pytest.mark.parametrize("mode, calls", [("eval", 4), ("train", 4)])
    def test_batch_norm_calls(self, nets, monkeypatch, mode, calls):
        # the 12 conv -> BN -> ReLU units are folded convs in eval mode and
        # fused ops in train mode; the other 4 BNs run as batch_norm in both
        seen = {"batch_norm": [], "conv_bn_relu": []}
        for name, calls_made in seen.items():
            op = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, _op=op, _seen=calls_made, **k:
                                _seen.append(1) or _op(*a, **k))
        x = np.random.default_rng(6).normal(size=(1,) + models.INPUT_SHAPE)
        with T.no_grad():
            nets["red02"].forward(x, mode, np.random.default_rng(7))
        assert len(seen["batch_norm"]) == calls
        assert len(seen["conv_bn_relu"]) == {"eval": 0, "train": 12}[mode]

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_head_reduce_calls(self, nets, monkeypatch, mode):
        # the head pools in one global_pool call, whose frequency mean feeds
        # two pooled features but is taken once, and each dense layer of the
        # head (baseline's hidden FC too) is one call
        seen = {"global_pool": [], "reduce_mean": [], "reduce_max": [], "dense": []}
        for name, calls_made in seen.items():
            op = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, _op=op, _seen=calls_made, **k:
                                _seen.append(1) or _op(*a, **k))
        x = np.random.default_rng(6).normal(size=(1,) + models.INPUT_SHAPE)
        for variant, dense_calls in (("red02", 1), ("baseline", 2)):
            for calls_made in seen.values():
                calls_made.clear()
            nets[variant].forward(x, mode, np.random.default_rng(7))
            assert {name: len(calls) for name, calls in seen.items()} == \
                {"global_pool": 1, "reduce_mean": 3, "reduce_max": 2,
                 "dense": dense_calls}, variant


def _train_step(net, batch, seed):
    """One train forward and backward of `net` on a random batch; returns
    the gradients, the buffers and the dropout RNG's state after it."""
    data = np.random.default_rng(seed)
    x = T.Tensor(data.normal(size=(batch,) + models.INPUT_SHAPE).astype(np.float32))
    target = np.eye(models.N_CLASSES)[data.integers(0, 10, batch)]
    rng = np.random.default_rng(seed + 1)
    probs = net.forward(x, "train", rng)
    T.backward(train.cross_entropy(probs, target))
    return ([p.grad for p in net.params()], list(net.buffers().values()),
            rng.bit_generator.state)


def _graph(out):
    """Every graph node `out` depends on, its own included."""
    seen, stack = {}, [out.node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _spy_inputs(monkeypatch, ops):
    """Patch the `T` ops named in `ops` to record, at each call, the
    output's graph node and the shape of the (first) input; returns the
    list of those (node, shape) pairs, which keeps the nodes alive."""
    calls = []
    for name in ops:
        def spy(x, *args, _op=getattr(T, name)):
            out = _op(x, *args)
            calls.append((out.node, (x[0] if isinstance(x, list) else x).shape))
            return out
        monkeypatch.setattr(T, name, spy)
    return calls


def _retained():
    """Bytes a red03 train forward at batch 2 leaves allocated, its graph."""
    net = models.build_network("red03", seed=0)
    x = T.Tensor(np.random.default_rng(14).normal(size=(2,) + models.INPUT_SHAPE)
                 .astype(np.float32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = net.forward(x, "train", np.random.default_rng(15))  # noqa: F841
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestTrainBackward:
    def test_fused_units_match_the_chain(self, monkeypatch):
        got = _train_step(models.build_network("red03", seed=0), batch=2, seed=11)
        monkeypatch.setattr(models._ConvBnRelu, "__call__", _unfolded)
        want = _train_step(models.build_network("red03", seed=0), batch=2, seed=11)
        for a, b in zip(got[0] + got[1], want[0] + want[1]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[2] == want[2]

    def test_every_baseline_parameter_reaches_the_loss(self):
        # a conv bias in front of a train-mode BN would get a zero gradient (up
        # to rounding); baseline is checked because in red01-red03 each block's
        # 1x1 projection feeds that block's BN, so `.proj.b` gets none there
        net = models.build_network("baseline", seed=0)
        grads, _, _ = _train_step(net, batch=2, seed=11)
        dead = [p.name for p, g in zip(net.params(), grads) if np.abs(g).max() <= 1e-5]
        assert dead == []

    def test_window_closures_keep_no_padded_input(self, monkeypatch):
        calls = _spy_inputs(monkeypatch, ("conv2d", "avg_pool", "conv_bn_relu"))
        net = models.build_network("red03", seed=0)
        x = np.random.default_rng(12).normal(size=(1,) + models.INPUT_SHAPE)
        net.forward(x, "train", np.random.default_rng(13))
        for node, (b, f, t, c) in calls:
            for a in _closure_arrays(node._backward):
                # a padded copy of the input: its batch and channels, and
                # more frequency or time cells
                padded = (a.ndim == 4 and (a.shape[0], a.shape[3]) == (b, c)
                          and (a.shape[1] > f or a.shape[2] > t))
                assert not padded, (node.op, a.shape)
        assert len(calls) == 12 + 3 + 3  # fused units, pooled sums, 1x1 projections

    def test_fused_graph_retains_less(self, monkeypatch):
        fused = _retained()
        monkeypatch.setattr(models._ConvBnRelu, "__call__", _unfolded)
        chain = _retained()
        # the fused graph keeps about 32 MB here and the chain about 44 MB,
        # as the fused units keep a bool mask of their output's sign where
        # the chain's ReLU keeps the BN output (72 and 102 MB while every op
        # output stayed in the graph)
        assert fused <= 0.8 * chain, (fused, chain)

    def test_graph_keeps_only_what_each_backward_reads(self):
        # no closure reaches an op output's tensor, only graph nodes, arrays
        # and leaves (the forward's input and target, and the parameters),
        # so each intermediate array is freed unless a closure saved it.
        # By tracemalloc this forward's graph read 71.8 MB while every op
        # output stayed in it, 45.3 MB with only the block intermediates
        # freed, and 32.3 MB with the fused units' bool ReLU masks too
        _, _, loss = _step_loss(29)
        nodes = [n for n in _graph(loss) if n._backward is not None]
        tensors = [v for n in nodes for v in _reached(n._backward) if isinstance(v, T.Tensor)]
        assert len(nodes) > 40 and tensors
        assert all(t.op in ("leaf", "param") for t in tensors), {t.op for t in tensors}
        retained = _retained()
        assert retained <= 50e6, retained

    def test_pooled_sum_graph_retains_less(self, monkeypatch):
        # each pooled sum's backward keeps no full-size array: neither an
        # input, nor its output, nor a pass over an input
        pools = _spy_inputs(monkeypatch, ("avg_pool",))
        net = models.build_network("red03", seed=0)
        x = np.random.default_rng(12).normal(size=(1,) + models.INPUT_SHAPE)
        net.forward(x, "train", np.random.default_rng(13))
        assert len(pools) == 3
        for node, shape in pools:
            assert node.op == "avg_pool"
            full = [a.shape for a in _closure_arrays(node._backward) if a.size >= np.prod(shape)]
            assert full == []

    def test_gradients_own_their_memory(self, monkeypatch):
        def grads():
            net = models.build_network("red03", seed=0)
            rng = np.random.default_rng(9)
            x = T.Tensor(rng.normal(size=(2,) + models.INPUT_SHAPE).astype(np.float32),
                         requires_grad=True)
            probs = net.forward(x, "train", rng=np.random.default_rng(10))
            T.backward(train.cross_entropy(probs, np.eye(models.N_CLASSES)[[1, 4]]))
            return [x] + net.params()

        tensors = grads()
        for t in tensors:  # each of its own shape and dtype, as `accumulate` keeps it
            assert t.grad is not None and (t.grad.shape, t.grad.dtype) == (t.shape, t.dtype), t
        got = [t.grad for t in tensors]
        for i, a in enumerate(got):
            for b in got[i + 1:]:
                assert not np.shares_memory(a, b)
        # the same values as when every first gradient is copied
        accumulate = T.Node.accumulate
        monkeypatch.setattr(T.Node, "accumulate", lambda n, g: accumulate(n, np.array(g)))
        for a, b in zip(got, grads()):
            assert a.tobytes() == b.grad.tobytes()


def _faults_in_pool_threads():
    """A function that wraps a callable so that on the calling thread it
    waits until a pool thread has raised, then runs, and on a pool thread
    raises ShapeMismatch; and the list the raised errors go into."""
    caller, raised, done = threading.get_ident(), [], threading.Event()

    def wrap(run):
        def faulty(*args):
            if threading.get_ident() != caller:
                raised.append(ShapeMismatch("fault in a pool thread"))
                done.set()
                raise raised[-1]
            done.wait(60)
            return run(*args)
        return faulty
    return wrap, raised


def _step_loss(seed):
    """A red03 network, and the probabilities and loss of its B=2 train
    forward, before any backward."""
    net = models.build_network("red03", seed=0)
    data = np.random.default_rng(seed)
    x = T.Tensor(data.normal(size=(2,) + models.INPUT_SHAPE).astype(np.float32))
    target = np.eye(models.N_CLASSES)[data.integers(0, 10, 2)]
    probs = net.forward(x, "train", np.random.default_rng(seed + 1))
    return net, probs, train.cross_entropy(probs, target)


class TestTrainThreads:
    def test_no_grad_reaches_the_branch_threads(self, monkeypatch):
        # a pool thread with grad on would record each branch's graph; the
        # fused units' running buffers still move under no_grad
        monkeypatch.setattr(T, "_cpus", lambda: 3)
        net = models.build_network("red03", seed=0)
        before = {k: v.copy() for k, v in net.buffers().items()}
        fused, outs, threads = T.conv_bn_relu, [], set()

        def spy(*args):
            threads.add(threading.get_ident())
            outs.append(fused(*args))
            return outs[-1]
        monkeypatch.setattr(T, "conv_bn_relu", spy)
        x = np.random.default_rng(21).normal(size=(2,) + models.INPUT_SHAPE)
        with T.no_grad():
            probs = net.forward(x, "train", np.random.default_rng(22))
        assert probs._parents == () and probs._backward is None and not probs.requires_grad
        assert len(outs) == 12 and len(threads) > 1
        for out in outs:
            assert out._parents == () and out._backward is None and not out.requires_grad
        moved = [k for k, v in net.buffers().items() if not np.array_equal(v, before[k])]
        assert len(moved) == len(before)

    def test_gradients_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # the branches and each backward round run on as many threads as
        # `_cpus` allows; the bits must not follow that count
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(T, "_cpus", lambda n=cpus: n)
            net, probs, loss = _step_loss(29)
            T.backward(loss)
            runs.append([loss.data.tobytes(), probs.data.tobytes()]
                        + [p.grad.tobytes() for p in net.params()]
                        + [b.tobytes() for b in net.buffers().values()])
        assert runs[0] == runs[1] == runs[2]

    def test_backward_releases_the_graph(self):
        net, probs, loss = _step_loss(23)
        nodes = [n for n in _graph(loss) if n._backward is not None]
        T.backward(loss)
        assert len(nodes) > 40
        for node in nodes:
            assert node._parents == () and node._backward is None and node.grad is None
        # a second backward through the same graph reaches nothing
        grads = [p.grad.copy() for p in net.params()]
        T.backward(loss)
        for p, g in zip(net.params(), grads):
            assert p.grad.tobytes() == g.tobytes()

    def test_backward_frees_the_saved_arrays(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, probs, loss = _step_loss(25)
            graph = tracemalloc.get_traced_memory()[0] - before
            T.backward(loss)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the network and its graph take about 73 MB here; the network and
        # its parameters' gradients, about 1.5 MB, stay
        assert retained < 0.1 * graph, (retained, graph)
        assert probs.data.shape == (2, models.N_CLASSES) and loss.data.size == 1

    @pytest.mark.parametrize("where", ["forward", "backward"])
    def test_fault_in_a_pool_thread_reaches_the_caller(self, monkeypatch, where):
        monkeypatch.setattr(T, "_cpus", lambda: 3)
        fused, (wrap, raised) = T.conv_bn_relu, _faults_in_pool_threads()

        def faulty_backward(*args):
            out = fused(*args)
            out._backward = wrap(out._backward)
            return out
        faulty = wrap(fused) if where == "forward" else faulty_backward
        monkeypatch.setattr(T, "conv_bn_relu", faulty)
        net = models.build_network("red03", seed=0)
        threads = threading.active_count()
        with pytest.raises(ShapeMismatch, match="fault in a pool thread") as info:
            _train_step(net, batch=2, seed=27)
        assert threading.active_count() == threads
        assert info.value in raised

    def test_no_thread_outlives_a_train_step_or_predict(self, monkeypatch):
        monkeypatch.setattr(T, "_cpus", lambda: 3)
        net = models.build_network("red03", seed=0)
        threads = threading.active_count()
        _train_step(net, batch=2, seed=28)
        assert threading.active_count() == threads
        models.predict(net, np.zeros((3,) + models.INPUT_SHAPE), batch_size=3)
        assert threading.active_count() == threads


class TestNames:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_network_params_and_state_dict_keys(self, nets, variant):
        net = nets[variant]
        expected = EXPECTED[variant]
        assert [[p.name, list(p.shape)] for p in net.params()] == expected["params"]
        assert [[k, list(v.shape)] for k, v in net.buffers().items()] == expected["buffers"]
        assert list(net.state_dict()) == [n for n, _ in expected["params"] + expected["buffers"]]

    def test_duplicate_name_rejected(self, tmp_path):
        model = models.build_network("red03", seed=0)
        first, second = model.params()[:2]
        second.name = first.name
        with pytest.raises(ConfigMismatch, match="duplicate"):
            model.params()
        with pytest.raises(ConfigMismatch, match="duplicate"):
            model.save(tmp_path / "w.ascw")
        assert list(tmp_path.iterdir()) == []

    def test_summary_rows_add_up(self, nets):
        rows = models.network_summary(nets["red03"])
        assert [r[0] for r in rows] == ["block0", "block1", "block2", "block3", "head", "total"]
        for i in (2, 4, 5):
            assert sum(r[i] for r in rows[:-1]) == rows[-1][i]
        for name, shape, _, dtype, act_bytes, _ in rows[:-1]:
            assert dtype == "float32"
            assert act_bytes == 4 * np.prod(shape), name

    def test_summary_macs_by_hand(self, nets):
        rows = models.network_summary(nets["red03"])
        # block0 is one inception unit on the 128 x 256 x 3 input: branches
        # 3x3 -> 6, 1x1 -> 5 and 4x1 -> 5 channels, all stride-1 'same'
        assert rows[0][5] == 128 * 256 * 3 * (3 * 3 * 6 + 1 * 1 * 5 + 4 * 1 * 5)
        # the head is one 3*128 -> 10 dense layer
        assert rows[4][5] == 3 * 128 * 10

    def test_summary_keeps_no_graph(self, nets, monkeypatch):
        outs = []
        softmax = T.softmax
        monkeypatch.setattr(T, "softmax", lambda *a, **k: outs.append(softmax(*a, **k)) or outs[-1])
        models.network_summary(nets["red03"])
        assert len(outs) == 1 and outs[0]._parents == () and not outs[0].requires_grad


class TestDeterminism:
    def test_same_seed_same_weights(self):
        _assert_state_equal(models.build_network("red03", seed=5).state_dict(),
                            models.build_network("red03", seed=np.uint8(5)).state_dict())

    def test_different_seed_different_weights(self):
        a = models.build_network("red03", seed=5).params()
        b = models.build_network("red03", seed=6).params()
        assert not np.array_equal(a[0].data, b[0].data)

    def test_same_seed_same_predictions(self):
        x = np.random.default_rng(0).normal(size=(2,) + models.INPUT_SHAPE)
        np.testing.assert_array_equal(
            models.predict(models.build_network("red03", seed=5), x),
            models.predict(models.build_network("red03", seed=5), x))

    def test_same_seeds_same_train_step(self):
        # augment -> train forward -> cross-entropy -> backward -> SGD, twice
        # from the same seeds on fresh networks
        rng = np.random.default_rng(4)
        batch = ([11, 4], rng.normal(size=(2, 128, 305, 3)).astype(np.float32),
                 np.eye(models.N_CLASSES)[[2, 8]])
        losses, states = [], []
        for _ in range(2):
            net = models.build_network("red03", seed=5)
            loss, _, _ = train.step(net, AugmentPipeline(AugmentConfig(rng_seed=9)), batch, 3,
                                    np.random.default_rng(6))
            losses.append(np.float64(loss))
            states.append(_snapshot(net))
        assert losses[0].tobytes() == losses[1].tobytes()
        assert list(states[0]) == list(states[1])
        for k in states[0]:
            assert states[0][k].tobytes() == states[1][k].tobytes(), k
        # the step moved every parameter and buffer off its seed value
        start = _snapshot(models.build_network("red03", seed=5))
        assert all(not np.array_equal(states[0][k], start[k]) for k in start)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        src = models.build_network("red03", seed=3)
        rng = np.random.default_rng(1)
        for buf in src.buffers().values():
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape)
        src.save(tmp_path / "a.ascw")
        dst = models.build_network("red03", seed=4)
        dst.load(tmp_path / "a.ascw")
        _assert_state_equal(dst.state_dict(), src.state_dict())
        assert all(p.data.dtype == np.float32 for p in dst.params())
        assert all(b.dtype == np.float64 for b in dst.buffers().values())
        dst.save(tmp_path / "b.ascw")
        assert (tmp_path / "b.ascw").read_bytes() == (tmp_path / "a.ascw").read_bytes()

    def test_loaded_network_predicts_the_same(self, tmp_path):
        # train forwards move the float64 BN running buffers off float32 values
        src = models.build_network("red03", seed=7)
        rng = np.random.default_rng(2)
        for _ in range(3):
            src.forward(rng.normal(size=(2,) + models.INPUT_SHAPE), "train", rng=rng)
        src.save(tmp_path / "w.ascw")
        dst = models.build_network("red03", seed=8)
        dst.load(tmp_path / "w.ascw")
        _assert_state_equal(dst.state_dict(), src.state_dict())
        x = np.random.default_rng(0).normal(size=(2,) + models.INPUT_SHAPE)
        assert models.predict(dst, x).tobytes() == models.predict(src, x).tobytes()

    def test_non_finite_weights_neither_saved_nor_loaded(self, tmp_path):
        # one NaN in the first kernel would make every predicted row NaN
        path = tmp_path / "w.ascw"
        model = models.build_network("red03", seed=3)
        first = model.params()[0]
        first.data[0, 0, 0, 0] = np.nan
        with pytest.raises(IOFailure, match=f"^{re.escape(str(path))}: {first.name} holds a "
                                            f"non-finite value$"):
            model.save(path)
        assert list(tmp_path.iterdir()) == []
        first.data[0, 0, 0, 0] = 0.0
        model.save(path)
        raw = path.read_bytes()
        payload = 10 + 2 + len(first.name) + 2 + 4 * first.data.ndim
        path.write_bytes(raw[:payload] + struct.pack("<f", np.nan) + raw[payload + 4 :])
        before = _snapshot(model)
        with pytest.raises(IOFailure, match=f"^{re.escape(str(path))}: {first.name} payload "
                                            f"holds a non-finite value at offset {payload}$"):
            model.load(path)
        _assert_state_equal(model.state_dict(), before)

    @pytest.mark.parametrize("edit", ["drop_last_param", "drop_last_buffer",
                                      "wrong_param_shape", "wrong_buffer_shape",
                                      "stray_entry"])
    def test_bad_file_rejected_and_model_unchanged(self, tmp_path, edit):
        # the file is another model's, with one entry too few, too many or reshaped
        model = models.build_network("red03", seed=3)
        other = models.build_network("red03", seed=9)
        for buf in other.buffers().values():
            buf += 0.5
        first, last_bn = other.params()[0], other.blocks[-1].bn
        name = {"drop_last_param": other.params()[-1].name,
                "drop_last_buffer": list(other.buffers())[-1],
                "wrong_param_shape": first.name,
                "wrong_buffer_shape": list(other.buffers())[-1],
                "stray_entry": "stray.w"}[edit]
        shape = model.state_dict()[name].shape if edit != "stray_entry" else None
        if edit == "drop_last_param":
            other.head.classifier[1] = None
        elif edit == "drop_last_buffer":
            del last_bn.running_var
        elif edit == "wrong_param_shape":
            first.data = np.zeros((8,) + shape[1:], np.float32)
        elif edit == "wrong_buffer_shape":
            last_bn.running_var = np.ones(1)
        else:
            other.stray = T.Parameter(np.zeros(2, np.float32), name)
        path = tmp_path / "bad.ascw"
        other.save(path)
        raw = path.read_bytes()
        if edit.startswith("drop"):
            message = f"file is missing {name} at offset {len(raw)}"
        elif edit == "stray_entry":
            message = f"entry {name!r} is not in the model at offset {entry_offset(raw, name)}"
        else:
            message = (f"{name}: file shape {other.state_dict()[name].shape} != model shape "
                       f"{shape} at offset {entry_offset(raw, name)}")
        before = _snapshot(model)
        with pytest.raises(IOFailure, match=f"^{re.escape(f'{path}: {message}')}$"):
            model.load(path)
        _assert_state_equal(model.state_dict(), before)
