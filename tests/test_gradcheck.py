"""Central finite-difference checks for every differentiable tensor op.

Each check builds a scalar loss sum(op(inputs) * R) with a fixed random
weighting R, computes analytic gradients via backward(), and compares
against central differences (h = 1e-4) evaluated fully in float64.
"""

import numpy as np
import pytest

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
        check(lambda a: T.softmax(a, axis=1), [a])

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

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"),
                                                ((2, 1), "same")])
    def test_conv2d(self, rng, stride, padding):
        x = T.Tensor(rng.normal(size=(2, 6, 7, 3)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 3, 3, 4)) * 0.5, requires_grad=True)
        b = T.Tensor(rng.normal(size=(4,)), requires_grad=True)
        check(lambda x, w, b: T.conv2d(x, w, b, stride=stride, padding=padding),
              [x, w, b])

    def test_conv2d_asymmetric_kernel(self, rng):
        x = T.Tensor(rng.normal(size=(2, 8, 5, 2)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(4, 1, 2, 3)), requires_grad=True)
        check(lambda x, w: T.conv2d(x, w, None, stride=1, padding="same"), [x, w])


class TestPooling:
    def test_max_pool(self, rng):
        x = T.Tensor(well_spaced(rng, (2, 6, 6, 3)), requires_grad=True)
        check(lambda x: T.max_pool(x, 2), [x])

    def test_max_pool_overlapping(self, rng):
        x = T.Tensor(well_spaced(rng, (1, 7, 7, 2)), requires_grad=True)
        check(lambda x: T.max_pool(x, 3, stride=2), [x])
        x = T.Tensor(well_spaced(rng, (2, 7, 6, 2)), requires_grad=True)
        check(lambda x: T.max_pool(x, (3, 2), stride=(2, 1)), [x])

    # the asymmetric "same" kernels are the ones IncResUnit pools with
    @pytest.mark.parametrize("kernel,padding", [(3, "same"), (3, "valid"),
                                                ((3, 1), "same"), ((1, 3), "same")],
                             ids=["same", "valid", "same-3x1", "same-1x3"])
    def test_avg_pool(self, rng, kernel, padding):
        x = T.Tensor(rng.normal(size=(2, 6, 7, 3)), requires_grad=True)
        check(lambda x: T.avg_pool(x, kernel, stride=1, padding=padding), [x])

    def test_avg_pool_strided_same(self, rng):
        x = T.Tensor(rng.normal(size=(2, 5, 8, 2)), requires_grad=True)
        check(lambda x: T.avg_pool(x, 3, stride=2, padding="same"), [x])

    def test_reduce_max(self, rng):
        x = T.Tensor(well_spaced(rng, (3, 5, 4, 2)), requires_grad=True)
        check(lambda x: T.reduce_max(x, 2), [x])

    def test_reduce_mean(self, rng):
        x = T.Tensor(rng.normal(size=(3, 5, 4, 2)), requires_grad=True)
        check(lambda x: T.reduce_mean(x, 1), [x])

    @pytest.mark.parametrize("kind", ["avg_channel", "max_time", "avg_freq"])
    def test_global_pool(self, rng, kind):
        x = T.Tensor(well_spaced(rng, (2, 4, 5, 3)), requires_grad=True)
        check(lambda x: T.global_pool(x, kind), [x])


class TestNorms:
    def test_batch_norm_train(self, rng):
        x = T.Tensor(rng.normal(size=(4, 5, 6, 3)) * 2 + 1, requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=(3,)), requires_grad=True)
        beta = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        check(lambda x, g, b: T.batch_norm(x, g, b, rm, rv, "train"),
              [x, gamma, beta])

    def test_batch_norm_eval(self, rng):
        x = T.Tensor(rng.normal(size=(4, 5, 6, 3)), requires_grad=True)
        gamma = T.Tensor(rng.uniform(0.5, 1.5, size=(3,)), requires_grad=True)
        beta = T.Tensor(rng.normal(size=(3,)), requires_grad=True)
        rm = rng.normal(size=3)
        rv = rng.uniform(0.5, 2.0, size=3)
        check(lambda x, g, b: T.batch_norm(x, g, b, rm, rv, "eval"),
              [x, gamma, beta])

    def test_residual_norm(self, rng):
        x = T.Tensor(rng.normal(size=(2, 4, 6, 3)), requires_grad=True)
        check(lambda x: T.residual_norm(x, lam=0.4), [x])


class TestComposite:
    def test_concat(self, rng):
        a = T.Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        check(lambda a, b: T.concat([a, b], axis=3), [a, b])

    def test_small_network_chain(self, rng):
        # conv -> relu -> max_pool -> residual_norm -> global pool -> dense
        x = T.Tensor(rng.normal(size=(2, 8, 8, 2)), requires_grad=True)
        w1 = T.Tensor(rng.normal(size=(3, 3, 2, 4)) * 0.4, requires_grad=True)
        w2 = T.Tensor(rng.normal(size=(16, 3)) * 0.4, requires_grad=True)

        def net(x, w1, w2):
            h = T.relu(T.conv2d(x, w1, None, stride=1, padding="same"))
            h = T.max_pool(h, 2)
            h = T.residual_norm(h, 0.4)
            h = T.global_pool(h, "avg_channel")
            return T.softmax(T.dense(h, w2), axis=1)

        check(net, [x, w1, w2], tol=1e-4)

    def test_fanout_accumulation(self, rng):
        # the same tensor feeds two branches; grads must accumulate
        x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        check(lambda x: T.add(T.relu(x), T.mul(x, x)), [x])
