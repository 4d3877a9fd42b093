"""Central finite-difference checks for every differentiable tensor op.

Each check builds a scalar loss sum(op(inputs) * R) with a fixed random
weighting R, computes analytic gradients via backward(), and compares
against central differences (h = 1e-4) evaluated fully in float64.
"""

import numpy as np
import pytest

from asckit import models
from asckit import tensor as T

H = 1e-4
TOL = 1e-5


def numeric_grad(loss_fn, arr, h=H):
    g = np.zeros_like(arr)
    flat = arr.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_fn()
        flat[i] = orig - h
        lo = loss_fn()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def max_rel_err(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3 * scale)
    return float((np.abs(analytic - numeric) / denom).max())


def check(build, leaves, tol=TOL):
    """build(leaves) -> output tensor; checks d(sum(out*R))/d(leaf) for all leaves."""
    out0 = build(*leaves)
    rng = np.random.default_rng(99)
    r_const = T.Tensor(rng.uniform(-1.0, 1.0, out0.shape))

    def forward():
        return T.tsum(T.mul(build(*leaves), r_const))

    loss = forward()
    T.backward(loss)
    for leaf in leaves:
        numeric = numeric_grad(lambda: float(forward().data), leaf.data)
        err = max_rel_err(leaf.grad, numeric)
        assert err < tol, f"{out0.op}: leaf grad err {err:.3g} >= {tol}"
        leaf.grad = None


def well_spaced(rng, shape, spacing=0.01):
    """Values with pairwise gaps >> h so argmax-based ops are FD-stable."""
    n = int(np.prod(shape))
    vals = rng.permutation(np.arange(n, dtype=np.float64)) * spacing * 2
    return vals.reshape(shape) - vals.mean()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestElementwise:
    def test_add(self, rng):
        a = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        check(lambda a, b: T.add(a, b), [a, b])

    def test_mul(self, rng):
        a = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        check(lambda a, b: T.mul(a, b), [a, b])

    def test_scale(self, rng):
        a = T.Tensor(rng.normal(size=(6,)), requires_grad=True)
        check(lambda a: T.scale(a, -2.5), [a])

    def test_log(self, rng):
        a = T.Tensor(rng.uniform(0.2, 3.0, size=(4, 4)), requires_grad=True)
        check(lambda a: T.log(a), [a])

    def test_relu_off_kink(self, rng):
        vals = rng.uniform(0.05, 1.0, size=(5, 7)) * rng.choice([-1, 1], size=(5, 7))
        a = T.Tensor(vals, requires_grad=True)
        check(lambda a: T.relu(a), [a])

    def test_softmax(self, rng):
        a = T.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        check(lambda a: T.softmax(a), [a])

    def test_reshape(self, rng):
        a = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        check(lambda a: T.reshape(a, (6, 4)), [a])

    def test_dropout_fixed_mask(self, rng):
        a = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        check(lambda a: T.dropout(a, 0.4, "train", np.random.default_rng(7)), [a])


class TestDenseConv:
    def test_dense(self, rng):
        x = T.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        check(lambda x, w, b: T.dense(x, w, b), [x, w, b])

    # the kernels of the network's convs; 4x1 is test_conv2d_asymmetric_kernel.
    # The last input is narrower than its kernel along time, so the offsets
    # off centre there read no input cell
    @pytest.mark.parametrize("kernel, shape", [((3, 3), (2, 6, 7, 3)), ((1, 1), (2, 6, 7, 3)),
                                               ((3, 1), (2, 6, 7, 3)), ((1, 3), (2, 6, 7, 3)),
                                               ((3, 3), (2, 2, 1, 3))],
                             ids=["3x3", "1x1", "3x1", "1x3", "3x3-input-2x1"])
    def test_conv2d(self, rng, kernel, shape):
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)
        w = T.Tensor(rng.normal(size=kernel + (3, 4)) * 0.5, requires_grad=True)
        b = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
        check(lambda x, w, b: T.conv2d(x, w, b), [x, w, b])

    def test_conv2d_asymmetric_kernel(self, rng):
        x = T.Tensor(rng.normal(size=(2, 8, 5, 2)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 1, 2, 3)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        check(lambda x, w, b: T.conv2d(x, w, b), [x, w, b])


class TestPooling:
    def test_max_pool(self, rng):
        x = T.Tensor(well_spaced(rng, (2, 6, 6, 3)), requires_grad=True)
        check(lambda x: T.max_pool(x), [x])

    # each input alone, the others constant: the kernels IncResUnit pools with,
    # then even sides, whose windows reach one cell further after their centre
    # than before
    @pytest.mark.parametrize("kernel", [(3, 3), (3, 1), (1, 3), (2, 2), (4, 1)],
                             ids=["same", "same-3x1", "same-1x3", "same-2x2", "same-4x1"])
    def test_avg_pool(self, rng, kernel):
        k = max(kernel)
        xs = [T.Tensor(rng.normal(size=(2, 6, 7, 3))) for _ in range(3)]
        i = [(k, 1), (k, k), (1, k)].index(kernel)
        xs[i].requires_grad = True
        check(lambda x: T.avg_pool(xs, k), [xs[i]])

    def test_avg_pool_sum(self, rng):
        # IncResUnit's three branches pooled and summed in one op, at an even
        # side and at the unit's
        for k in (2, models.INCRES_K):
            xs = [T.Tensor(rng.normal(size=(2, 6, 7, 3)), requires_grad=True) for _ in range(3)]
            check(lambda *xs: T.avg_pool(xs, k), xs)

    def test_reduce_max(self, rng):
        x = T.Tensor(well_spaced(rng, (3, 5, 4, 2)), requires_grad=True)
        check(lambda x: T.reduce_max(x, 2), [x])

    def test_reduce_mean(self, rng):
        x = T.Tensor(rng.normal(size=(3, 5, 4, 2)), requires_grad=True)
        check(lambda x: T.reduce_mean(x, 1), [x])

    # The descriptor's three C-wide parts in order: the per-channel mean over
    # frequency and time, the frequency mean of the temporal max and the
    # temporal max of the frequency mean. Each is checked with the others'
    # outputs weighted by zero.
    @pytest.mark.parametrize("part", ["avg_channel", "max_time", "avg_freq"])
    def test_global_pool(self, rng, part):
        x = T.Tensor(well_spaced(rng, (2, 4, 5, 3)), requires_grad=True)
        i = ["avg_channel", "max_time", "avg_freq"].index(part)
        mask = np.zeros((2, 9))
        mask[:, 3 * i:3 * (i + 1)] = 1.0
        check(lambda x: T.mul(T.global_pool(x), T.Tensor(mask)), [x])


class TestNorms:
    def test_batch_norm_train(self, rng):
        x = T.Tensor(rng.normal(size=(4, 5, 6, 3)) * 2 + 1, requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=(3,)), requires_grad=True)
        beta = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        check(lambda x, g, b: T.batch_norm(x, g, b, rm, rv, "train"),
              [x, gamma, beta])

    def test_batch_norm_eval(self, rng):
        # eval mode is an affine map with constant coefficients: only x is a leaf
        x = T.Tensor(rng.normal(size=(4, 5, 6, 3)), requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=(3,)))
        beta = T.Tensor(rng.normal(size=(3,)))
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        check(lambda x: T.batch_norm(x, gamma, beta, rm, rv, "eval"), [x])

    # the kernels of the network's conv -> BN -> ReLU units
    @pytest.mark.parametrize("kernel", [(3, 3), (1, 1), (4, 1), (1, 3)],
                             ids=["3x3", "1x1", "4x1", "1x3"])
    def test_conv_bn_relu_off_kink(self, rng, kernel):
        x = T.Tensor(rng.normal(size=(2, 6, 7, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=kernel + (3, 4)) * 0.5, requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=(4,)), requires_grad=True)
        beta = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
        with T.no_grad():
            pre = T.batch_norm(T.conv2d(x, w, T.Tensor(np.zeros(4))), gamma, beta, np.zeros(4),
                               np.ones(4), "train")
        # outputs within 0.05 of the ReLU kink get no weight in the loss, so no
        # finite-difference step crosses it
        off_kink = T.Tensor((np.abs(pre.data) > 0.05).astype(np.float64))
        rm, rv = np.zeros(4), np.ones(4)
        check(lambda x, w, g, be: T.mul(T.conv_bn_relu(x, w, g, be, rm, rv), off_kink),
              [x, w, gamma, beta])

    def test_residual_norm(self, rng):
        x = T.Tensor(rng.normal(size=(2, 4, 6, 3)), requires_grad=True)
        check(T.residual_norm, [x])


class TestComposite:
    def test_concat(self, rng):
        a = T.Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        check(lambda a, b: T.concat([a, b], axis=3), [a, b])

    def test_small_network_chain(self, rng):
        # conv -> relu -> max_pool -> residual_norm -> global pool -> dense
        x = T.Tensor(rng.normal(size=(2, 8, 8, 2)), requires_grad=True)
        w1 = T.Tensor(rng.normal(size=(3, 3, 2, 4)) * 0.4, requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(12, 3)) * 0.4, requires_grad=True)
        b1, b2 = T.Tensor(np.zeros(4)), T.Tensor(np.zeros(3))

        def net(x, w1, w2):
            h = T.relu(T.conv2d(x, w1, b1))
            h = T.max_pool(h)
            h = T.residual_norm(h)
            h = T.global_pool(h)
            return T.softmax(T.dense(h, w2, b2))

        check(net, [x, w1, w2], tol=1e-4)

    def test_fanout_accumulation(self, rng):
        # the same tensor feeds two branches; grads must accumulate
        x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check(lambda x: T.add(T.relu(x), T.mul(x, x)), [x])
