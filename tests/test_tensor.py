import threading
import tracemalloc

import numpy as np
import pytest

from asckit import models
from asckit import tensor as T
from asckit.errors import ConfigMismatch, ShapeMismatch


def _t(*shape):
    return T.Tensor(np.zeros(shape))


def _naive_conv_same(x, w, b):
    """Sextuple-loop cross-correlation over x zero-padded by (k - 1) // 2
    before and k // 2 after along each axis."""
    kf, kt, cin, cout = w.shape
    n, f, t, _ = x.shape
    xp = np.zeros((n, f + kf - 1, t + kt - 1, cin))
    xp[:, (kf - 1) // 2 : (kf - 1) // 2 + f, (kt - 1) // 2 : (kt - 1) // 2 + t] = x
    out = np.zeros((n, f, t, cout))
    for s in range(n):
        for i in range(f):
            for j in range(t):
                for o in range(cout):
                    acc = b[o]
                    for u in range(kf):
                        for v in range(kt):
                            for c in range(cin):
                                acc += xp[s, i + u, j + v, c] * w[u, v, c, o]
                    out[s, i, j, o] = acc
    return out


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(2, 4, 5, 1)))
        w = T.Tensor(np.ones((1, 1, 1, 1)))
        b = T.Tensor(np.zeros(1))
        out = T.conv2d(x, w, b)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-12)

    def test_matches_naive_loop(self):
        # the inputs after the first are smaller than some kernels along an
        # axis, so some offsets read no cell of the input there
        rng = np.random.default_rng(1)
        for shape in [(2, 5, 6, 3), (2, 1, 1, 3), (2, 2, 1, 3), (1, 1, 5, 2), (1, 3, 2, 2)]:
            x = rng.normal(size=shape)
            b = rng.normal(size=4)
            for kernel in [(3, 3), (4, 1), (1, 3), (1, 1)]:
                w = rng.normal(size=kernel + (shape[3], 4))
                out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data
                np.testing.assert_allclose(out, _naive_conv_same(x, w, b), rtol=1e-6,
                                           err_msg=f"input {shape}, kernel {kernel}")

    def test_input_gradient_owns_its_memory(self):
        x = T.Tensor(np.random.default_rng(2).normal(size=(1, 4, 4, 2)), requires_grad=True)
        w = T.Tensor(np.ones((3, 3, 2, 3)), requires_grad=True)
        T.backward(T.tsum(T.conv2d(x, w, T.Tensor(np.zeros(3)))))
        assert x.grad.shape == x.shape and x.grad.flags.c_contiguous and x.grad.base is None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.conv2d(T.Tensor(np.zeros((1, 4, 4, 2))),
                     T.Tensor(np.zeros((3, 3, 3, 1))), T.Tensor(np.zeros(1)))


class TestBatchNorm:
    def test_normalizes_batch_stats(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.normal(loc=5.0, scale=2.0, size=(8, 4, 4, 3)))
        gamma = T.Tensor(np.ones(3))
        beta = T.Tensor(np.zeros(3))
        out = T.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), "train")
        got_mean = out.data.mean(axis=(0, 1, 2))
        got_var = out.data.var(axis=(0, 1, 2))
        np.testing.assert_allclose(got_mean, 0.0, atol=1e-10)
        np.testing.assert_allclose(got_var, 1.0, atol=1e-3)  # eps=1e-3 bias

    def test_affine_output(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(16, 2, 2, 1)))
        out = T.batch_norm(x, T.Tensor(np.full(1, 2.0)), T.Tensor(np.full(1, 3.0)),
                           np.zeros(1), np.ones(1), "train")
        assert abs(out.data.mean() - 3.0) < 1e-9
        assert abs(out.data.std() - 2.0) < 0.01

    def test_eval_passthrough_unit_stats(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.normal(size=(4, 3, 3, 2)))
        gamma = T.Tensor(np.array([1.5, 0.5]))
        beta = T.Tensor(np.array([0.1, -0.2]))
        out = T.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), "eval")
        want = x.data * (gamma.data / np.sqrt(1.0 + T.BN_EPS)) + beta.data
        np.testing.assert_allclose(out.data, want, rtol=1e-12)

    def test_running_stats_update(self):
        x = T.Tensor(np.full((4, 2, 2, 1), 10.0))
        rm, rv = np.zeros(1), np.ones(1)
        T.batch_norm(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), rm, rv, "train")
        m = T.BN_MOMENTUM
        np.testing.assert_allclose(rm, m * 0.0 + (1 - m) * 10.0)
        np.testing.assert_allclose(rv, m * 1.0 + (1 - m) * 0.0)

    # the 3 input channels, a red02 inception branch (11) and block (64)
    @pytest.mark.parametrize("c", [3, 11, 64])
    def test_running_var_float32_large_offset(self, c):
        # oracle: np.var in float64 of the same float32 values; the offset is
        # 1e5 standard deviations, so centring in float32 must not bias it.
        # From zero buffers the update is (1 - momentum) * batch statistic.
        rng = np.random.default_rng(17)
        x = (1e3 + 1e-2 * rng.normal(size=(4, 16, 16, c))).astype(np.float32)
        rm, rv = np.zeros(c), np.zeros(c)
        T.batch_norm(T.Tensor(x), T.Tensor(np.ones(c, np.float32)),
                     T.Tensor(np.zeros(c, np.float32)), rm, rv, "train")
        want = x.astype(np.float64).var(axis=(0, 1, 2))
        np.testing.assert_allclose(rv / (1.0 - T.BN_MOMENTUM), want, rtol=1e-6)
        np.testing.assert_allclose(rm / (1.0 - T.BN_MOMENTUM),
                                   x.astype(np.float64).mean(axis=(0, 1, 2)), rtol=1e-12)

    def test_eval_float32_large_running_mean(self):
        # oracle: the float64 formula; outputs reach ~4, so 1e-6 is about two
        # float32 ulps (adding the mean into the bias instead would cost ~1e-3)
        rng = np.random.default_rng(18)
        x = (1e3 + 0.1 * rng.normal(size=(4, 8, 8, 2))).astype(np.float32)
        rm = np.array([1e3 + 0.0123, 1e3 - 0.0071])
        rv = np.array([1e-2, 2e-2])
        gamma = np.array([1.5, 0.5], np.float32)
        beta = np.array([0.1, -0.2], np.float32)
        out = T.batch_norm(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), rm, rv, "eval")
        want = (x.astype(np.float64) - rm) / np.sqrt(rv + 1e-3) * gamma + beta
        assert out.dtype == np.float32
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_channel_mismatch_rejected_before_the_buffers_move(self, mode):
        x = T.Tensor(np.ones((2, 4, 3, 6)))
        rm, rv = np.full(3, 0.25), np.full(3, 2.0)
        before = rm.tobytes() + rv.tobytes()
        with pytest.raises(ShapeMismatch, match=r"batch_norm: input \(2, 4, 3, 6\)"):
            T.batch_norm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), rm, rv, mode)
        assert rm.tobytes() + rv.tobytes() == before

    @pytest.mark.parametrize("mode", ["Train", "evaluate"])
    def test_unknown_mode_rejected(self, mode):
        x = T.Tensor(np.ones((2, 2, 2, 1)))
        with pytest.raises(ConfigMismatch, match=repr(mode)):
            T.batch_norm(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), np.zeros(1),
                         np.ones(1), mode)


class TestConvBnRelu:
    # the kernels of the network's conv -> BN -> ReLU units
    @pytest.mark.parametrize("kernel", [(3, 3), (1, 1), (4, 1), (1, 3)],
                             ids=["3x3", "1x1", "4x1", "1x3"])
    def test_bit_identical_to_the_chain(self, kernel):
        def run(fused):
            rng = np.random.default_rng(19)
            leaves = [T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
                      for shape in [(2, 6, 7, 3), kernel + (3, 4), (4,), (4,)]]
            x, w, gamma, beta = leaves
            rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
            if fused:
                out = T.conv_bn_relu(x, w, gamma, beta, rm, rv)
            else:
                zero = T.Tensor(np.zeros(4, np.float32))
                out = T.relu(T.batch_norm(T.conv2d(x, w, zero), gamma, beta, rm, rv, "train"))
            weights = T.Tensor(rng.normal(size=out.shape).astype(np.float32))
            T.backward(T.tsum(T.mul(out, weights)))
            return [out.data] + [t.grad for t in leaves] + [rm, rv]

        got, want = run(fused=True), run(fused=False)
        assert (got[0] == 0).any() and (got[0] > 0).any()
        for name, a, b in zip(["out", "x", "w", "gamma", "beta", "mean", "var"], got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_channel_mismatch_rejected_before_the_buffers_move(self):
        # a 6-output kernel in front of 3-channel BN parameters and buffers
        rm, rv = np.full(3, 0.25), np.full(3, 2.0)
        before = rm.tobytes() + rv.tobytes()
        with pytest.raises(ShapeMismatch, match=r"conv_bn_relu: input \(2, 5, 6, 6\)"):
            T.conv_bn_relu(T.Tensor(np.ones((2, 5, 6, 2))), T.Tensor(np.ones((3, 3, 2, 6))),
                           T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)), rm, rv)
        assert rm.tobytes() + rv.tobytes() == before


class TestActivations:
    def test_softmax_uniform(self):
        out = T.softmax(T.Tensor(np.zeros((3, 10))))
        np.testing.assert_allclose(out.data, 0.1, rtol=1e-12)

    def test_softmax_simplex_large_logits(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.uniform(-50, 50, size=(100, 10)))
        out = T.softmax(x)
        assert np.all(out.data > 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_underflow_keeps_log_loss_finite(self):
        # exp(-200) is 0 in float32; the target is on that class
        z = T.Tensor(np.array([[200.0, 0.0]], dtype=np.float32), requires_grad=True)
        t = T.Tensor(np.array([[0.0, 1.0]], dtype=np.float32))
        loss = T.tsum(T.mul(t, T.log(T.softmax(z))))
        T.backward(loss)
        assert np.isfinite(loss.data) and np.isfinite(z.grad).all()

    def test_relu_sign_exclusive(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 7))
        pos = T.relu(T.Tensor(x)).data
        neg = T.relu(T.Tensor(-x)).data
        np.testing.assert_array_equal(pos * neg, 0.0)

    def test_dropout_expectation(self):
        # oracle: Monte Carlo; inverted scaling keeps the mean at 1
        rng = np.random.default_rng(7)
        x = T.Tensor(np.ones((10, 10)))
        total = 0.0
        for _ in range(10000):
            total += T.dropout(x, 0.3, "train", rng).data.mean()
        assert abs(total / 10000 - 1.0) < 0.02

    def test_dropout_eval_identity(self):
        x = T.Tensor(np.random.default_rng(8).normal(size=(4, 4)))
        assert T.dropout(x, 0.5, "eval") is x

    @pytest.mark.parametrize("mode", ["Train", "evaluate"])
    def test_dropout_unknown_mode_rejected(self, mode):
        with pytest.raises(ConfigMismatch, match=repr(mode)):
            T.dropout(T.Tensor(np.ones((4, 4))), 0.5, mode, np.random.default_rng(0))

    @pytest.mark.parametrize("rate", [1.0, -0.1, 1.5])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ConfigMismatch, match=f"got {rate}"):
            T.dropout(T.Tensor(np.ones((4, 4))), rate, "train", np.random.default_rng(0))

    def test_train_dropout_without_rng_rejected(self):
        with pytest.raises(ConfigMismatch, match="rate 0.5 needs an RNG, got None"):
            T.dropout(T.Tensor(np.ones((4, 4))), 0.5, "train")


class TestPooling:
    def test_max_pool_2x2(self):
        x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert T.max_pool(x).data[0, 0, 0, 0] == 4.0

    def test_avg_pool_2x2(self):
        # a 2x2 window pads one trailing cell: only the first window is whole
        x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert T.avg_pool([_t(1, 2, 2, 1), x, _t(1, 2, 2, 1)], 2).data[0, 0, 0, 0] == 2.5

    def test_avg_pool_same_corner_true_divisor(self):
        # at a corner of all-ones inputs a 3x3 window overlaps 4 real cells
        # and a 3x1 or 1x3 window 2: each mean is 1
        out = T.avg_pool([T.Tensor(np.ones((1, 4, 4, 1)))] * 3, 3)
        assert out.data[0, 0, 0, 0] == 3.0
        np.testing.assert_allclose(out.data, 3.0)

    @pytest.mark.parametrize("k", [0, -1], ids=str)
    def test_avg_pool_kernel_side_under_1_rejected(self, k):
        with pytest.raises(ShapeMismatch, match=rf"kernel side {k}: must be at least 1"):
            T.avg_pool([T.Tensor(np.ones((1, 4, 4, 1)))] * 3, k)

    @pytest.mark.parametrize("xs, message", [
        ([], r"got \[\]"),
        ([_t(1, 4, 4, 1)] * 2, "needs 3"),
        ([_t(1, 4, 4, 1)] * 4, "needs 3"),
        ([_t(1, 4, 4, 1)] * 2 + [_t(1, 4, 5, 1)], "one shape and dtype"),
        ([_t(1, 4, 4)] * 3, "B x F x T x C"),
    ], ids=["empty", "two", "four", "shapes", "rank"])
    def test_avg_pool_inputs_rejected(self, xs, message):
        with pytest.raises(ShapeMismatch, match=message):
            T.avg_pool(xs, 3)

    EDGE_SHAPES = pytest.mark.parametrize(
        "shape", [(2, 1, 5, 3), (2, 5, 1, 3), (2, 2, 2, 2), (1, 3, 2, 2), (2, 6, 7, 3)],
        ids=["f1", "t1", "f2-t2", "f3-t2", "f6-t7"])

    @EDGE_SHAPES
    # 7x1 reaches 3 cells each way, more than a side of 2 holds
    @pytest.mark.parametrize("kernel", [(1, 1), (2, 2), (3, 1), (1, 3), (3, 3), (4, 1), (7, 1)],
                             ids=lambda k: f"{k[0]}x{k[1]}")
    def test_avg_pool_matches_the_window_loop(self, kernel, shape):
        # each input alone, the other two zero, is pooled with its own kernel:
        # the first with (k, 1), the second with (k, k), the third with (1, k)
        k = max(kernel)
        i = [(k, 1), (k, k), (1, k)].index(kernel)
        rng = np.random.default_rng(20)
        xs = [T.Tensor(np.zeros(shape), requires_grad=True) for _ in range(3)]
        xs[i].data[...] = rng.normal(size=shape)
        g = rng.normal(size=shape)
        out = T.avg_pool(xs, k)
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        want, want_grad = _avg_pool_loop(xs[i].data, kernel, g)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(xs[i].grad, want_grad, rtol=1e-12, atol=1e-15)

    @EDGE_SHAPES
    @pytest.mark.parametrize("k", [1, 2, models.INCRES_K, 4, 7],
                             ids=lambda k: "incres" if k == models.INCRES_K else f"k{k}")
    def test_avg_pool_sum_matches_the_window_loops(self, k, shape):
        # the output and each input's gradient against the sum of the loops
        # over (k, 1), (k, k) and (1, k)
        rng = np.random.default_rng(20)
        xs = [T.Tensor(rng.normal(size=shape), requires_grad=True) for _ in range(3)]
        g = rng.normal(size=shape)
        out = T.avg_pool(xs, k)
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        kernels = [(k, 1), (k, k), (1, k)]
        want = [_avg_pool_loop(x.data, kernel, g) for x, kernel in zip(xs, kernels)]
        np.testing.assert_allclose(out.data, sum(w[0] for w in want), rtol=1e-12, atol=1e-15)
        for x, (_, want_grad) in zip(xs, want):
            np.testing.assert_allclose(x.grad, want_grad, rtol=1e-12, atol=1e-15)

    def test_max_pool_drops_trailing_remainder(self):
        # 5x7 in 2x2 tiles: 2x3 tiles, the last row and column in none
        x = np.arange(35.0).reshape(1, 5, 7, 1)
        x[0, 4, :, 0] = x[0, :, 6, 0] = 100.0
        xt = T.Tensor(x, requires_grad=True)
        out = T.max_pool(xt)
        np.testing.assert_array_equal(out.data[0, :, :, 0], [[8, 10, 12], [22, 24, 26]])
        T.backward(T.tsum(out))
        assert xt.grad[0, 4, :, 0].sum() == 0 and xt.grad[0, :, 6, 0].sum() == 0
        assert xt.grad.sum() == 6

    # the even shape's tile views cover every cell, so its gradient starts empty
    @pytest.mark.parametrize("f, t", [(6, 8), (5, 7)], ids=["even", "odd"])
    def test_max_pool_gradient_fills_every_cell(self, f, t, monkeypatch):
        # ties included: each tile's gradient goes to its first maximum in
        # row-major order, every other cell gets zero; an unwritten cell shows
        # as NaN
        empty_like = np.empty_like
        monkeypatch.setattr(np, "empty_like",
                            lambda a, *args, **kw: empty_like(a, *args, **kw) * np.nan)
        rng = np.random.default_rng(21)
        x = rng.integers(0, 3, size=(f, t)).astype(float)
        g = rng.normal(size=(f // 2, t // 2))
        want = np.zeros((f, t))
        for i, j in np.ndindex(g.shape):
            tile = x[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            u, v = np.unravel_index(np.argmax(tile), (2, 2))
            want[2 * i + u, 2 * j + v] = g[i, j]
        np.testing.assert_array_equal(_max_pool_grad(x, g), want)

    @pytest.mark.parametrize("f, t", [(1, 4), (4, 1)])
    def test_max_pool_input_under_2x2_rejected(self, f, t):
        with pytest.raises(ShapeMismatch, match=rf"at least 2 x 2 .*got \({f}, {t}\)"):
            T.max_pool(T.Tensor(np.zeros((1, f, t, 1))))


def _avg_pool_loop(x, kernel, g):
    """The 'same' window mean of x and its input gradient for the output
    gradient g, by a loop over the windows of x zero-padded by (k - 1) // 2
    before and k // 2 after along each axis, in float64; each window is
    divided by the cells of x it covers."""
    kf, kt = kernel
    _, f, t, _ = x.shape
    pad = ((0, 0), ((kf - 1) // 2, kf // 2), ((kt - 1) // 2, kt // 2), (0, 0))
    xp = np.pad(x, pad)
    inside = np.pad(np.ones((f, t)), pad[1:3])
    out, gp = np.zeros(x.shape), np.zeros(xp.shape)
    for i in range(f):
        for j in range(t):
            cells = inside[i:i + kf, j:j + kt].sum()
            out[:, i, j] = xp[:, i:i + kf, j:j + kt].sum(axis=(1, 2)) / cells
            gp[:, i:i + kf, j:j + kt] += g[:, i, j][:, None, None] / cells
    return out, gp[:, pad[1][0]:pad[1][0] + f, pad[2][0]:pad[2][0] + t]


def _max_pool_grad(x, g):
    """Input gradient of max_pool for the output gradient g ([F, T] arrays)."""
    xt = T.Tensor(np.asarray(x, float)[None, :, :, None], requires_grad=True)
    out = T.max_pool(xt)
    T.backward(T.tsum(T.mul(out, T.Tensor(np.asarray(g, float)[None, :, :, None]))))
    return xt.grad[0, :, :, 0]


class TestMaxPoolTies:
    """A window's gradient goes to its first maximum in row-major order."""

    def test_constant_input(self):
        grad = _max_pool_grad(np.full((4, 4), 0.5), [[1, 2], [3, 4]])
        np.testing.assert_array_equal(grad, [[1, 0, 2, 0],
                                             [0, 0, 0, 0],
                                             [3, 0, 4, 0],
                                             [0, 0, 0, 0]])

    def test_two_equal_maxima_in_a_window(self):
        x = [[1, 5, 7, 0],
             [5, 2, 0, 7]]
        grad = _max_pool_grad(x, [[1, 2]])
        np.testing.assert_array_equal(grad, [[0, 1, 2, 0],
                                             [0, 0, 0, 0]])


class TestResidualNorm:
    def test_standardized_input_scales(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, 50, 3))
        x = (x - x.mean(axis=(2, 3), keepdims=True)) / x.std(axis=(2, 3), keepdims=True)
        out = T.residual_norm(T.Tensor(x))
        np.testing.assert_allclose(out.data, (1 + T.RN_LAMBDA) * x, atol=1e-4)

    def test_constant_slice_guard(self):
        x = np.full((1, 3, 8, 2), 6.0)
        out = T.residual_norm(T.Tensor(x))
        np.testing.assert_allclose(out.data, T.RN_LAMBDA * 6.0, atol=1e-9)

    def test_slice_mean_identity(self):
        # oracle: direct two-pass mean/variance per (sample, frequency) slice
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 8, 16, 3)) * 3 + 1
        out = T.residual_norm(T.Tensor(x))
        got = out.data.mean(axis=(2, 3))
        want = T.RN_LAMBDA * x.mean(axis=(2, 3))
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestDenseAndShape:
    def test_dense_identity(self):
        x = np.random.default_rng(11).normal(size=(3, 4))
        out = T.dense(T.Tensor(x), T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_concat_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((2, 5)))
        assert T.concat([a, b], axis=1).shape == (2, 8)

    def test_global_pool_reference(self):
        # oracle: the three per-channel descriptors in float64, in their order
        x = np.random.default_rng(11).normal(size=(2, 8, 16, 5))
        out = T.global_pool(T.Tensor(x))
        assert out.shape == (2, 3 * 5) and out.dtype == np.float64
        want = np.concatenate([x.mean(axis=(1, 2)), x.max(axis=2).mean(axis=1),
                               x.mean(axis=1).max(axis=1)], axis=1)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)


class TestBackward:
    def test_linear_gradient(self):
        rng = np.random.default_rng(12)
        x = T.Tensor(rng.normal(size=(4, 4)))
        w = T.Parameter(rng.normal(size=(4, 4)), name="w")
        loss = T.tsum(T.mul(w, x))
        T.backward(loss)
        np.testing.assert_allclose(w.grad, x.data, rtol=1e-12)

    def test_dead_relu_zero_grad(self):
        rng = np.random.default_rng(13)
        x = T.Parameter(rng.normal(size=(5, 5)), name="x")
        loss = T.tsum(T.relu(T.scale(T.mul(x, x), -1.0)))  # relu(-x^2) == 0
        T.backward(loss)
        np.testing.assert_array_equal(loss.data, 0.0)
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_disconnected_parameter_grad_is_none(self):
        # documented: a parameter the loss does not depend on keeps grad None
        x = T.Tensor(np.ones((2, 2)))
        w = T.Parameter(np.ones((2, 2)), name="w")
        loss = T.tsum(x)
        T.backward(loss)
        assert w.grad is None

    def test_no_grad_records_no_graph(self):
        w = T.Parameter(np.ones((2, 2)), name="w")
        with T.no_grad():
            out = T.relu(T.mul(w, w))
        assert out._parents == () and out._backward is None and not out.requires_grad
        with pytest.raises(RuntimeError), T.no_grad():
            raise RuntimeError
        after = T.mul(w, w)
        assert after._parents == (w, w) and after.requires_grad

    def test_only_leaves_keep_grad(self):
        rng = np.random.default_rng(19)
        x = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = T.Parameter(rng.normal(size=(3, 3)), name="w")
        h = T.mul(w, x)
        r = T.relu(h)
        loss = T.tsum(r)
        T.backward(loss)
        assert h.grad is None and r.grad is None and loss.grad is None
        np.testing.assert_allclose(w.grad, x.data * (h.data > 0), rtol=1e-12)
        np.testing.assert_allclose(x.grad, w.data * (h.data > 0), rtol=1e-12)

    def test_shared_gradient_not_aliased(self):
        # add hands one gradient array to both inputs; each must keep its own
        a = T.Tensor(np.ones((2, 2)), requires_grad=True)
        b = T.Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.tsum(T.add(T.add(a, b), a)))
        np.testing.assert_array_equal(a.grad, 2.0)
        np.testing.assert_array_equal(b.grad, 1.0)

    def test_add_to_itself_not_aliased(self):
        # each add hands one array to both inputs, here twice to x
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        T.backward(T.tsum(T.add(T.add(x, x), x)))
        np.testing.assert_array_equal(x.grad, 3.0)

    def test_handed_over_gradients_are_exact_and_unshared(self):
        # concat and reshape hand their inputs views of their own gradient, and
        # add hands its gradient to one input and a copy to the other
        rng = np.random.default_rng(20)
        a, x, y, z = (T.Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(4))
        b = T.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        r = [T.Tensor(rng.normal(size=s)) for s in [(2, 5), (2, 6), (3, 2), (2, 3)]]
        outs = [T.concat([a, b], axis=1), T.concat([x, x], axis=1), T.reshape(y, (3, 2)),
                T.add(z, z)]
        losses = [T.tsum(T.mul(o, w)) for o, w in zip(outs, r)]
        T.backward(T.add(T.add(losses[0], losses[1]), T.add(losses[2], losses[3])))
        w = [t.data for t in r]
        np.testing.assert_array_equal(a.grad, w[0][:, :3])
        np.testing.assert_array_equal(b.grad, w[0][:, 3:])
        np.testing.assert_array_equal(x.grad, w[1][:, :3] + w[1][:, 3:])
        np.testing.assert_array_equal(y.grad, w[2].reshape(2, 3))
        np.testing.assert_array_equal(z.grad, 2 * w[3])
        arrays = [a.grad, b.grad, x.grad, y.grad, z.grad] + w
        for i, p in enumerate(arrays):
            for q in arrays[i + 1:]:
                assert not np.shares_memory(p, q)

    # relu's mask of x > 0 takes a byte a cell and residual_norm's input
    # gradient an array of its own; the rest is written into g, besides
    # numpy's cast buffers of a fixed size
    @pytest.mark.parametrize("make, extra", [
        (lambda x, rng: T.relu(x), 0.25),
        (lambda x, rng: T.dropout(x, 0.5, "train", rng), 0.0),
        (lambda x, rng: T.residual_norm(x), 1.0),
    ], ids=["relu", "dropout", "residual_norm"])
    def test_backward_writes_into_the_gradient_it_owns(self, make, extra):
        rng = np.random.default_rng(23)
        x = T.Tensor(rng.normal(size=(4, 32, 64, 32)).astype(np.float32), requires_grad=True)
        out = make(x, rng)
        g = rng.normal(size=x.shape).astype(np.float32)
        tracemalloc.start()
        try:
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (extra + 0.25) * g.nbytes, (peak, g.nbytes)

    def test_zero_grads_starts_the_next_step_afresh(self):
        w = T.Parameter(np.array([1.0, 2.0]), name="w")
        x = T.Tensor(np.array([3.0, -1.0]))
        for _ in range(2):
            T.zero_grads([w])
            assert w.grad is None
            T.backward(T.tsum(T.mul(w, x)))
            np.testing.assert_array_equal(w.grad, x.data)  # not summed over steps

    def test_scalar_loss_required(self):
        with pytest.raises(ShapeMismatch):
            T.backward(T.Tensor(np.zeros((2, 2))))

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(2, 8, 8, 3)))
            w = T.Tensor(rng.normal(size=(3, 3, 3, 4)))
            h = T.relu(T.conv2d(x, w, T.Tensor(rng.normal(size=4))))
            h = T.dropout(h, 0.5, "train", np.random.default_rng(5))
            return T.global_pool(h).data
        a, b = run(), run()
        np.testing.assert_array_equal(a, b)


class TestShapeChecks:
    @pytest.mark.parametrize("make, message", [
        (lambda: T.add(_t(2, 3), _t(3, 2)), r"add: \(2, 3\) vs \(3, 2\)"),
        (lambda: T.mul(_t(2, 3), _t(2, 1)), r"mul: \(2, 3\) vs \(2, 1\)"),
        (lambda: T.dense(_t(2, 3), _t(4, 5), _t(5)), r"dense: \(2, 3\) @ \(4, 5\)"),
        (lambda: T.dense(_t(2, 3, 1), _t(3, 5), _t(5)), r"dense: \(2, 3, 1\) @ \(3, 5\)"),
        (lambda: T.dense(_t(2, 3), _t(3, 5), _t(1, 5)), r"dense bias: \(1, 5\)"),
        (lambda: T.conv2d(_t(1, 4, 4, 2), _t(3, 3, 2, 5), _t(4)), r"conv bias: \(4,\)"),
        (lambda: T.residual_norm(_t(2, 3, 4)), "residual_norm expects B x F x T x C"),
        (lambda: T.global_pool(_t(2, 3, 4)), "global_pool expects 4-D input"),
        (lambda: T.max_pool(_t(4, 4, 2)), r"max_pool expects B x F x T x C, got \(4, 4, 2\)"),
        (lambda: T.concat([_t(2, 3), _t(3, 3)], axis=1),
         r"^concat: shapes \[\(2, 3\), \(3, 3\)\] do not join along axis 1$"),
        (lambda: T.concat([], axis=0), r"^concat: shapes \[\] do not join along axis 0$"),
        (lambda: T.concat([_t(2, 3), _t(2, 1)], axis=2),
         r"^concat: shapes \[\(2, 3\), \(2, 1\)\] do not join along axis 2$"),
    ], ids=["add", "mul", "dense-inner", "dense-rank", "dense-bias", "conv2d-bias",
            "residual_norm-rank", "global_pool-rank", "max_pool-rank", "concat-other-axis",
            "concat-empty", "concat-axis-range"])
    def test_rejected(self, make, message):
        with pytest.raises(ShapeMismatch, match=message):
            make()


def _f32(rng, *shape):
    return T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


FLOAT32_OPS = {
    "add": lambda r: T.add(_f32(r, 2, 3), _f32(r, 2, 3)),
    "mul": lambda r: T.mul(_f32(r, 2, 3), _f32(r, 2, 3)),
    "scale": lambda r: T.scale(_f32(r, 2, 3), -2.5),
    "log": lambda r: T.log(T.softmax(_f32(r, 2, 3))),
    "tsum": lambda r: T.tsum(_f32(r, 2, 3)),
    "reshape": lambda r: T.reshape(_f32(r, 2, 3), (3, 2)),
    "concat": lambda r: T.concat([_f32(r, 2, 3), _f32(r, 2, 1)], axis=1),
    "relu": lambda r: T.relu(_f32(r, 2, 3)),
    "softmax": lambda r: T.softmax(_f32(r, 2, 3)),
    "dropout": lambda r: T.dropout(_f32(r, 4, 4), 0.5, "train", r),
    "dense": lambda r: T.dense(_f32(r, 2, 3), _f32(r, 3, 4), _f32(r, 4)),
    "conv2d": lambda r: T.conv2d(_f32(r, 1, 5, 6, 2), _f32(r, 3, 1, 2, 3), _f32(r, 3)),
    "conv_bn_relu": lambda r: T.conv_bn_relu(
        _f32(r, 2, 5, 6, 2), _f32(r, 3, 1, 2, 3), _f32(r, 3), _f32(r, 3), np.zeros(3),
        np.ones(3)),
    "max_pool": lambda r: T.max_pool(_f32(r, 1, 4, 6, 2)),
    "avg_pool_same": lambda r: T.avg_pool([_f32(r, 1, 4, 6, 2) for _ in range(3)], 2),
    "avg_pool_sum": lambda r: T.avg_pool([_f32(r, 1, 4, 6, 2) for _ in range(3)],
                                         models.INCRES_K),
    "batch_norm_train": lambda r: T.batch_norm(
        _f32(r, 2, 3, 4, 2), _f32(r, 2), _f32(r, 2), np.zeros(2), np.ones(2), "train"),
    # eval-mode gamma and beta are constants: they get no gradient
    "batch_norm_eval": lambda r: T.batch_norm(
        _f32(r, 2, 3, 4, 2), T.Tensor(np.ones(2, np.float32)), T.Tensor(np.zeros(2, np.float32)),
        np.zeros(2), np.ones(2), "eval"),
    "residual_norm": lambda r: T.residual_norm(_f32(r, 2, 3, 4, 2)),
    "reduce_mean": lambda r: T.reduce_mean(_f32(r, 2, 3, 4), 1),
    "reduce_max": lambda r: T.reduce_max(_f32(r, 2, 3, 4), 1),
    "global_pool": lambda r: T.global_pool(_f32(r, 2, 3, 4, 2)),
}


class TestFloat32:
    @pytest.mark.parametrize("op", sorted(FLOAT32_OPS))
    def test_op_keeps_float32(self, op, monkeypatch):
        # and hands each input that requires grad a gradient of its shape and dtype
        inputs, make = [], _f32

        def f32(r, *shape):
            inputs.append(make(r, *shape))
            return inputs[-1]
        monkeypatch.setitem(globals(), "_f32", f32)
        out = FLOAT32_OPS[op](np.random.default_rng(15))
        assert out.dtype == np.float32
        T.backward(out if out.shape == () else T.tsum(out))
        assert inputs
        for t in inputs:
            assert t.grad is not None and (t.grad.shape, t.grad.dtype) == (t.shape, t.dtype)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_network_keeps_float32(self, mode):
        net = models.build_network("red03")
        x = np.zeros((1,) + models.INPUT_SHAPE, dtype=np.float32)
        assert net.forward(x, mode, rng=np.random.default_rng(16)).dtype == np.float32


class TestNoGraph:
    @pytest.mark.parametrize("op", sorted(FLOAT32_OPS))
    def test_inputs_without_grad_record_nothing(self, op, monkeypatch):
        # the same ops on inputs that require no grad, with grad enabled
        monkeypatch.setitem(globals(), "_f32",
                            lambda r, *shape: T.Tensor(r.normal(size=shape).astype(np.float32)))
        out = FLOAT32_OPS[op](np.random.default_rng(15))
        assert out._parents == () and out._backward is None and not out.requires_grad


    def test_no_grad_holds_only_in_its_thread(self):
        # while another thread sits inside no_grad, ops here still record
        x = T.Tensor(np.ones((1, 2), dtype=np.float32))
        w = T.Parameter(np.ones((2, 3), dtype=np.float32), name="w")
        b = T.Parameter(np.zeros(3, dtype=np.float32), name="b")
        entered, release, inside = threading.Event(), threading.Event(), []

        def hold():
            with T.no_grad():
                entered.set()
                release.wait(60)
                inside.append(T.dense(x, w, b))

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(60)
            out = T.dense(x, w, b)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive()
        assert out.requires_grad and out._parents == (x, w, b)
        assert not inside[0].requires_grad and inside[0]._parents == ()

    def test_concurrent_eval_forwards_keep_no_graph(self):
        # the thread that enters no_grad first also leaves it first, while
        # the other is still inside, before its head's dense layer runs
        net = models.build_network("red03", seed=0)
        x = np.random.default_rng(17).normal(size=(1,) + models.INPUT_SHAPE).astype(np.float32)
        block0, head = net.blocks[0], net.head
        started, first_done = threading.Event(), threading.Event()
        at_head = threading.Barrier(2, timeout=60)
        outs = {}

        def first_block(h, mode, rng):
            started.set()
            return block0(h, mode, rng)

        def paced_head(h, mode, rng):
            at_head.wait()
            if threading.current_thread().name == "second":
                first_done.wait(60)
            return head(h, mode, rng)

        def run(name):
            outs[name] = net.forward(x, "eval")
            if name == "first":
                first_done.set()

        net.blocks[0], net.head = first_block, paced_head
        threads = [threading.Thread(target=run, args=(n,), name=n) for n in ("first", "second")]
        threads[0].start()
        assert started.wait(60)
        threads[1].start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert sorted(outs) == ["first", "second"]
        for out in outs.values():
            assert out._parents == () and out._backward is None and not out.requires_grad
        assert outs["first"].data.tobytes() == outs["second"].data.tobytes()
        # and this thread still records
        w = net.params()[0]
        assert T.relu(w)._parents == (w,)
