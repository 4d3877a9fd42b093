import numpy as np
import pytest

from asckit import models
from asckit import tensor as T
from asckit.errors import ConfigMismatch, IOFailure, ShapeMismatch


class TestConv2d:
    def test_identity_kernel(self):
        x = T.Tensor(np.random.default_rng(0).normal(size=(2, 4, 5, 1)))
        w = T.Tensor(np.ones((1, 1, 1, 1)))
        b = T.Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, stride=1, padding="same")
        np.testing.assert_allclose(out.data, x.data, rtol=1e-12)

    def test_sum_kernel_valid(self):
        x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        w = T.Tensor(np.ones((2, 2, 1, 1)))
        b = T.Tensor(np.zeros(1))
        out = T.conv2d(x, w, b, stride=1, padding="valid")
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 10.0

    def test_matches_naive_loop(self):
        # oracle: sextuple-loop cross-correlation
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 5, 3))
        w = rng.normal(size=(3, 3, 3, 4))
        b = rng.normal(size=4)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=1,
                       padding="valid").data
        naive = np.zeros((2, 3, 3, 4))
        for n in range(2):
            for i in range(3):
                for j in range(3):
                    for o in range(4):
                        acc = b[o]
                        for u in range(3):
                            for v in range(3):
                                for c in range(3):
                                    acc += x[n, i + u, j + v, c] * w[u, v, c, o]
                        naive[n, i, j, o] = acc
        np.testing.assert_allclose(out, naive, rtol=1e-6)

    @pytest.mark.parametrize("f,t,stride", [(11, 13, 1), (11, 13, 2), (8, 9, 3),
                                            (128, 256, 2)])
    def test_same_output_dims_ceil(self, f, t, stride):
        x = T.Tensor(np.zeros((1, f, t, 2)))
        w = T.Tensor(np.zeros((3, 3, 2, 1)))
        out = T.conv2d(x, w, None, stride=stride, padding="same")
        assert out.shape[1] == -(-f // stride)
        assert out.shape[2] == -(-t // stride)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.conv2d(T.Tensor(np.zeros((1, 4, 4, 2))),
                     T.Tensor(np.zeros((3, 3, 3, 1))))


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
        out = T.batch_norm(x, gamma, beta, np.zeros(2), np.ones(2), "eval", eps=0.0)
        np.testing.assert_allclose(out.data, gamma.data * x.data + beta.data,
                                   rtol=1e-12)

    def test_running_stats_update(self):
        x = T.Tensor(np.full((4, 2, 2, 1), 10.0))
        rm, rv = np.zeros(1), np.ones(1)
        T.batch_norm(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), rm, rv, "train",
                     momentum=0.9)
        np.testing.assert_allclose(rm, 0.9 * 0.0 + 0.1 * 10.0)
        np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * 0.0)

    def test_running_var_float32_large_offset(self):
        # oracle: np.var in float64 of the same float32 values; the offset is
        # 1e5 standard deviations, so centring in float32 must not bias it
        rng = np.random.default_rng(17)
        x = (1e3 + 1e-2 * rng.normal(size=(4, 16, 16, 3))).astype(np.float32)
        rm, rv = np.zeros(3), np.ones(3)
        T.batch_norm(T.Tensor(x), T.Tensor(np.ones(3, np.float32)),
                     T.Tensor(np.zeros(3, np.float32)), rm, rv, "train", momentum=0.0)
        want = x.astype(np.float64).var(axis=(0, 1, 2))
        np.testing.assert_allclose(rv, want, rtol=1e-6)
        np.testing.assert_allclose(rm, x.astype(np.float64).mean(axis=(0, 1, 2)), rtol=1e-12)

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

    @pytest.mark.parametrize("mode", ["Train", "evaluate"])
    def test_unknown_mode_rejected(self, mode):
        x = T.Tensor(np.ones((2, 2, 2, 1)))
        with pytest.raises(ConfigMismatch, match=repr(mode)):
            T.batch_norm(x, T.Tensor(np.ones(1)), T.Tensor(np.zeros(1)), np.zeros(1),
                         np.ones(1), mode)


class TestActivations:
    def test_softmax_uniform(self):
        out = T.softmax(T.Tensor(np.zeros((3, 10))), axis=1)
        np.testing.assert_allclose(out.data, 0.1, rtol=1e-12)

    def test_softmax_simplex_large_logits(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.uniform(-50, 50, size=(100, 10)))
        out = T.softmax(x, axis=1)
        assert np.all(out.data > 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

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


class TestPooling:
    def test_max_pool_2x2(self):
        x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert T.max_pool(x, 2).data[0, 0, 0, 0] == 4.0

    def test_avg_pool_2x2(self):
        x = T.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert T.avg_pool(x, 2, stride=2, padding="valid").data[0, 0, 0, 0] == 2.5

    def test_avg_pool_same_corner_true_divisor(self):
        # 3x3 window at a corner of all-ones input overlaps 4 real cells: 4/4 = 1
        x = T.Tensor(np.ones((1, 4, 4, 1)))
        out = T.avg_pool(x, 3, stride=1, padding="same")
        assert out.data[0, 0, 0, 0] == 1.0
        np.testing.assert_allclose(out.data, 1.0)


def _max_pool_grad(x, g, kernel, stride=None):
    """Input gradient of max_pool for the output gradient g ([F, T] arrays)."""
    xt = T.Tensor(np.asarray(x, float)[None, :, :, None], requires_grad=True)
    out = T.max_pool(xt, kernel, stride)
    T.backward(T.tsum(T.mul(out, T.Tensor(np.asarray(g, float)[None, :, :, None]))))
    return xt.grad[0, :, :, 0]


class TestMaxPoolTies:
    """A window's gradient goes to its first maximum in row-major order."""

    def test_constant_input(self):
        grad = _max_pool_grad(np.full((4, 4), 0.5), [[1, 2], [3, 4]], 2)
        np.testing.assert_array_equal(grad, [[1, 0, 2, 0],
                                             [0, 0, 0, 0],
                                             [3, 0, 4, 0],
                                             [0, 0, 0, 0]])

    def test_two_equal_maxima_in_a_window(self):
        x = [[1, 5, 7, 0],
             [5, 2, 0, 7]]
        grad = _max_pool_grad(x, [[1, 2]], 2)
        np.testing.assert_array_equal(grad, [[0, 1, 2, 0],
                                             [0, 0, 0, 0]])

    def test_cell_winning_two_overlapping_windows(self):
        # (3, 2) windows at stride (2, 1): rows 0-2 / 2-4, columns 0-1 / 1-2;
        # cell (2, 1) is the max of both windows in column 0-1
        x = np.zeros((5, 3))
        x[2, 1] = 9
        x[0, 2] = x[4, 2] = 10
        grad = _max_pool_grad(x, [[1, 2], [3, 4]], (3, 2), stride=(2, 1))
        expected = np.zeros((5, 3))
        expected[2, 1] = 1 + 3
        expected[0, 2] = 2
        expected[4, 2] = 4
        np.testing.assert_array_equal(grad, expected)


class TestResidualNorm:
    def test_standardized_input_scales(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 4, 50, 3))
        x = (x - x.mean(axis=(2, 3), keepdims=True)) / x.std(axis=(2, 3), keepdims=True)
        out = T.residual_norm(T.Tensor(x), lam=0.4)
        np.testing.assert_allclose(out.data, 1.4 * x, atol=1e-4)

    def test_constant_slice_guard(self):
        x = np.full((1, 3, 8, 2), 6.0)
        out = T.residual_norm(T.Tensor(x), lam=0.4)
        np.testing.assert_allclose(out.data, 0.4 * 6.0, atol=1e-9)

    def test_slice_mean_identity(self):
        # oracle: direct two-pass mean/variance per (sample, frequency) slice
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 8, 16, 3)) * 3 + 1
        lam = 0.4
        out = T.residual_norm(T.Tensor(x), lam=lam)
        got = out.data.mean(axis=(2, 3))
        want = lam * x.mean(axis=(2, 3))
        np.testing.assert_allclose(got, want, atol=1e-5)


class TestDenseAndShape:
    def test_dense_identity(self):
        x = np.random.default_rng(11).normal(size=(3, 4))
        out = T.dense(T.Tensor(x), T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_global_avg_freq_constant(self):
        x = T.Tensor(np.full((2, 5, 6, 3), 7.0))
        out = T.global_pool(x, "avg_freq")
        assert out.shape == (2, 18)
        np.testing.assert_allclose(out.data, 7.0)

    def test_concat_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((2, 5)))
        assert T.concat([a, b], axis=1).shape == (2, 8)

    def test_global_pool_kinds_shapes(self):
        x = T.Tensor(np.zeros((2, 8, 16, 512)))
        assert T.global_pool(x, "avg_channel").shape == (2, 8 * 16)
        assert T.global_pool(x, "max_time").shape == (2, 8 * 512)
        assert T.global_pool(x, "avg_freq").shape == (2, 16 * 512)


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

    def test_scalar_loss_required(self):
        with pytest.raises(ShapeMismatch):
            T.backward(T.Tensor(np.zeros((2, 2))))

    def test_forward_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(2, 8, 8, 3)))
            w = T.Tensor(rng.normal(size=(3, 3, 3, 4)))
            h = T.relu(T.conv2d(x, w, None, stride=2, padding="same"))
            h = T.dropout(h, 0.5, "train", np.random.default_rng(5))
            return T.global_pool(h, "avg_channel").data
        a, b = run(), run()
        np.testing.assert_array_equal(a, b)


def _f32(rng, *shape):
    return T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)


FLOAT32_OPS = {
    "add": lambda r: T.add(_f32(r, 2, 3), _f32(r, 2, 3)),
    "mul": lambda r: T.mul(_f32(r, 2, 3), _f32(r, 2, 3)),
    "scale": lambda r: T.scale(_f32(r, 2, 3), -2.5),
    "log": lambda r: T.log(T.Tensor(np.full((2, 3), 0.5, np.float32))),
    "tsum": lambda r: T.tsum(_f32(r, 2, 3)),
    "reshape": lambda r: T.reshape(_f32(r, 2, 3), (3, 2)),
    "concat": lambda r: T.concat([_f32(r, 2, 3), _f32(r, 2, 1)], axis=1),
    "relu": lambda r: T.relu(_f32(r, 2, 3)),
    "softmax": lambda r: T.softmax(_f32(r, 2, 3), axis=1),
    "dropout": lambda r: T.dropout(_f32(r, 4, 4), 0.5, "train", r),
    "dense": lambda r: T.dense(_f32(r, 2, 3), _f32(r, 3, 4), _f32(r, 4)),
    "conv2d": lambda r: T.conv2d(_f32(r, 1, 5, 6, 2), _f32(r, 3, 1, 2, 3), _f32(r, 3),
                                 stride=2),
    "max_pool": lambda r: T.max_pool(_f32(r, 1, 4, 6, 2), 2),
    "avg_pool_same": lambda r: T.avg_pool(_f32(r, 1, 4, 6, 2), (1, 3), padding="same"),
    "avg_pool_valid": lambda r: T.avg_pool(_f32(r, 1, 4, 6, 2), 2, stride=2),
    "batch_norm_train": lambda r: T.batch_norm(
        _f32(r, 2, 3, 4, 2), _f32(r, 2), _f32(r, 2), np.zeros(2), np.ones(2), "train"),
    "batch_norm_eval": lambda r: T.batch_norm(
        _f32(r, 2, 3, 4, 2), _f32(r, 2), _f32(r, 2), np.zeros(2), np.ones(2), "eval"),
    "residual_norm": lambda r: T.residual_norm(_f32(r, 2, 3, 4, 2)),
    "reduce_mean": lambda r: T.reduce_mean(_f32(r, 2, 3, 4), 1),
    "reduce_max": lambda r: T.reduce_max(_f32(r, 2, 3, 4), 1),
    "global_pool": lambda r: T.global_pool(_f32(r, 2, 3, 4, 2), "max_time"),
}


class TestFloat32:
    @pytest.mark.parametrize("op", sorted(FLOAT32_OPS))
    def test_op_keeps_float32(self, op):
        assert FLOAT32_OPS[op](np.random.default_rng(15)).dtype == np.float32

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_network_keeps_float32(self, mode):
        net = models.build_network("red03")
        x = np.zeros((1,) + models.INPUT_SHAPE, dtype=np.float32)
        assert net.forward(x, mode, rng=np.random.default_rng(16)).dtype == np.float32


class TestWeightsIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        named = {
            "block1.conv.w": rng.normal(size=(3, 3, 2, 4)).astype(np.float32),
            "block1.conv.b": rng.normal(size=4).astype(np.float32),
            "head.fc.w": rng.normal(size=(16, 10)).astype(np.float32),
        }
        path = tmp_path / "weights.ascw"
        T.save_weights(path, named)
        back = T.load_weights(path)
        assert list(back.keys()) == list(named.keys())
        for k in named:
            np.testing.assert_array_equal(back[k], named[k])

    def test_magic_and_count(self, tmp_path):
        path = tmp_path / "w.ascw"
        T.save_weights(path, {"a": np.zeros(2, np.float32)})
        raw = path.read_bytes()
        assert raw[:4] == b"ASCW"
        assert int.from_bytes(raw[4:6], "little") == 1
        assert int.from_bytes(raw[6:10], "little") == 1

    def test_reject_junk(self, tmp_path):
        p = tmp_path / "bad.ascw"
        p.write_bytes(b"nope")
        with pytest.raises(IOFailure):
            T.load_weights(p)
