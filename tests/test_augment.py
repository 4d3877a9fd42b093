import re

import numpy as np
import pytest

from asckit import augment, models
from asckit.augment import (
    CROP_WIDTH,
    MASK_LEN,
    AugmentConfig,
    AugmentPipeline,
    LabeledBatch,
    center_crop,
    mixup,
    random_crop,
    spec_augment,
)
from asckit.errors import ConfigMismatch, ShapeMismatch


def make_batch(b=4, f=128, t=305, c=3, m=10, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(b, f, t, c)).astype(np.float32)
    labels = np.eye(m)[rng.integers(0, m, b)]
    return LabeledBatch(feats, labels)


def streams(n, seed=0):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def on_simplex(labels):
    return np.all(labels >= 0) and np.allclose(labels.sum(axis=1), 1.0, atol=1e-6)


class TestLabeledBatch:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_label_rejected(self, bad):
        # NaN passes both simplex comparisons, since each is False for it
        with pytest.raises(ShapeMismatch, match="finite"):
            LabeledBatch(np.zeros((2, 4, 300, 3)), [[bad, 1.0], [0.5, 0.5]])

    @pytest.mark.parametrize("features, labels, message", [
        (np.zeros((2, 4, 300)), np.eye(2), "features must be B x F x T x C"),
        (np.zeros((2, 4, 300, 3)), np.ones(2), "labels must be B x M aligned"),
        (np.zeros((2, 4, 300, 3)), np.eye(3), "labels must be B x M aligned"),
        (np.zeros((2, 4, 300, 3)), [[1.5, -0.5], [0.5, 0.5]], "probability simplex"),
        (np.zeros((2, 4, 300, 3)), [[0.5, 0.4], [0.5, 0.5]], "probability simplex"),
    ], ids=["features-3d", "labels-1d", "labels-unaligned", "negative", "sum-not-one"])
    def test_malformed_batch_rejected(self, features, labels, message):
        with pytest.raises(ShapeMismatch, match=message):
            LabeledBatch(features, labels)


@pytest.mark.parametrize("transform", [
    random_crop, spec_augment, lambda batch, rngs: mixup(batch, np.random.default_rng(0), rngs),
], ids=["random_crop", "spec_augment", "mixup"])
def test_one_stream_per_sample_required(transform):
    with pytest.raises(ShapeMismatch, match="^need 4 per-sample streams, got 3$"):
        transform(make_batch(), streams(3))


class TestRandomCrop:
    def test_output_shape_and_offsets(self):
        batch = make_batch()
        out = random_crop(batch, streams(4))
        assert out.features.shape == (4, 128, 256, 3)
        # every cropped sample is a contiguous slice of the original
        for i in range(batch.size):
            found = any(
                np.array_equal(out.features[i], batch.features[i, :, o : o + 256])
                for o in range(305 - 256 + 1)
            )
            assert found

    def test_identity_when_full_width(self):
        batch = make_batch(t=256)
        out = random_crop(batch, streams(4, seed=1))
        np.testing.assert_array_equal(out.features, batch.features)

    def test_constant_tensor_invariant(self):
        feats = np.full((3, 8, 300, 1), 2.5, dtype=np.float32)
        labels = np.eye(10)[[0, 1, 2]]
        out = random_crop(LabeledBatch(feats, labels), streams(3, seed=2))
        assert np.all(out.features == 2.5)

    def test_too_wide(self):
        with pytest.raises(ShapeMismatch, match=rf"crop {CROP_WIDTH} > time axis 100"):
            random_crop(make_batch(t=100), streams(4))

    def test_labels_unchanged(self):
        batch = make_batch()
        out = random_crop(batch, streams(4, seed=3))
        np.testing.assert_array_equal(out.labels, batch.labels)


class TestSpecAugment:
    def test_exact_zero_count_freq_axis(self):
        feats = np.ones((1, 128, 256, 3), dtype=np.float32)
        labels = np.eye(10)[[0]]
        # force the frequency axis by scanning seeds for a known draw
        for seed in range(50):
            if np.random.default_rng(seed).integers(0, 2) == 0:
                out = spec_augment(LabeledBatch(feats, labels), [np.random.default_rng(seed)])
                assert int((out.features == 0).sum()) == 10 * 256 * 3
                return
        pytest.fail("no seed produced a frequency mask")

    def test_zero_run_contiguous_single_interval(self):
        batch = make_batch(b=6, f=32, t=64, c=2)
        batch.features[:] = 1.0
        out = spec_augment(batch, streams(6, seed=4))
        for i in range(6):
            zero_f = np.where(np.all(out.features[i] == 0, axis=(1, 2)))[0]
            zero_t = np.where(np.all(out.features[i] == 0, axis=(0, 2)))[0]
            run = zero_f if zero_f.size else zero_t
            assert run.size == 10
            assert np.array_equal(run, np.arange(run[0], run[0] + 10))

    def test_expected_zero_fraction(self):
        # oracle: Monte Carlo with a fixed seed; expectation
        # 0.5*(10/128) + 0.5*(10/256) = 0.05859
        ones = np.ones((1, 128, 256, 1), dtype=np.float32)
        labels = np.eye(10)[[0]]
        rng = np.random.default_rng(123)
        total = 0.0
        n_draws = 10000
        for _ in range(n_draws):
            out = spec_augment(LabeledBatch(ones, labels), [rng])
            total += (out.features == 0).mean()
        frac = total / n_draws
        assert abs(frac - 0.05859) < 0.003

    def test_mask_longer_than_axis(self):
        with pytest.raises(ShapeMismatch, match=rf"mask {MASK_LEN} exceeds axis lengths \(8, 8\)"):
            spec_augment(make_batch(f=8, t=8), streams(4))


class TestMixup:
    def test_lambda_one_identity(self):
        batch = make_batch()

        # drive lambdas to 1 via per-sample streams that return 1.0
        class ConstRng:
            def beta(self, a, b):
                return 1.0

            def uniform(self, lo, hi):
                return 1.0

        out = mixup(batch, np.random.default_rng(0), [ConstRng()] * batch.size)
        np.testing.assert_allclose(out.features, batch.features, atol=1e-6)
        np.testing.assert_allclose(out.labels, batch.labels, atol=1e-12)

    def test_half_lambda_symmetric_pair(self):
        x = np.ones((4, 8, 1), dtype=np.float64)
        feats = np.stack([x, -x])
        labels = np.tile([[0.5, 0.5]], (2, 1))

        class HalfRng:
            def beta(self, a, b):
                return 0.5

        # permutation of size 2 from this seed swaps the pair
        rng = next(
            np.random.default_rng(s)
            for s in range(100)
            if np.array_equal(np.random.default_rng(s).permutation(2), [1, 0])
        )
        out = mixup(LabeledBatch(feats, labels), rng, [HalfRng(), HalfRng()])
        np.testing.assert_allclose(out.features, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.labels, labels, atol=1e-12)

    def test_one_hot_convexity(self):
        feats = np.zeros((2, 2, 2, 1))
        labels = np.eye(10)[[3, 7]]

        class Lam03:
            def beta(self, a, b):
                return 0.3

        rng = next(
            np.random.default_rng(s)
            for s in range(100)
            if np.array_equal(np.random.default_rng(s).permutation(2), [1, 0])
        )
        out = mixup(LabeledBatch(feats, labels), rng, [Lam03(), Lam03()])
        np.testing.assert_allclose(out.labels[0, 3], 0.3)
        np.testing.assert_allclose(out.labels[0, 7], 0.7)
        assert on_simplex(out.labels)

    def test_batch_too_small(self):
        with pytest.raises(ShapeMismatch, match="mixup needs at least two samples"):
            mixup(make_batch(b=1), np.random.default_rng(0), streams(1))


class TestPipelineProperties:
    def test_simplex_preserved(self):
        rng = np.random.default_rng(6)
        labels = rng.dirichlet(np.ones(10), size=8)
        feats = rng.normal(size=(8, 128, 305, 3)).astype(np.float32)
        batch = LabeledBatch(feats, labels)
        out = AugmentPipeline(AugmentConfig(rng_seed=9))(batch, epoch=0)
        assert on_simplex(out.labels)
        assert out.features.shape == (8, 128, 256, 3)

    def test_bit_reproducible(self):
        batch = make_batch(b=6)
        pipe = AugmentPipeline(AugmentConfig(rng_seed=42))
        a = pipe(batch, epoch=3)
        b = pipe(batch, epoch=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = pipe(batch, epoch=4)
        assert not np.array_equal(a.features, c.features)

    def test_crop_and_mask_commute_with_permutation(self):
        # per-sample streams consumed sequentially by crop then mask
        batch = make_batch(b=5)
        rngs = [np.random.default_rng([7, 0, i]) for i in range(5)]
        direct = spec_augment(random_crop(batch, rngs), rngs)
        perm = [3, 1, 4, 0, 2]
        permuted = LabeledBatch(batch.features[perm], batch.labels[perm])
        rngs_p = [np.random.default_rng([7, 0, i]) for i in perm]
        out_p = spec_augment(random_crop(permuted, rngs_p), rngs_p)
        np.testing.assert_array_equal(out_p.features, direct.features[perm])


    def test_output_feeds_the_network(self):
        # the crop width is the network's input width
        out = AugmentPipeline(AugmentConfig(rng_seed=3))(make_batch(), epoch=0)
        net = models.build_network("red03")
        probs = net.forward(out.features, "train", rng=np.random.default_rng(0))
        assert probs.shape == (4, models.N_CLASSES)

    @pytest.mark.parametrize("seed, epoch, indices, what, bad", [
        (-1, 0, None, "rng_seed", -1),
        (True, 0, None, "rng_seed", True),
        (0, -1, None, "epoch", -1),
        (0, 2.5, None, "epoch", 2.5),
        (0, 0, [0, 1, -1, 3], "sample index", -1),
        (0, 0, [0, 1.5, 2, 3], "sample index", 1.5),
        (0, 0, np.array([0.0, 1.0, 2.0, 3.0]), "sample index", np.float64(0.0)),
    ])
    def test_stream_key_not_a_non_negative_integer_rejected(self, monkeypatch, seed, epoch,
                                                            indices, what, bad):
        # 1.5 would draw sample 1's stream through int(); the others would
        # reach np.random.default_rng and fail there with a bare numpy error
        monkeypatch.setattr(augment, "random_crop", lambda *a: pytest.fail("drew"))
        pipe = AugmentPipeline(AugmentConfig(rng_seed=seed))
        with pytest.raises(ConfigMismatch, match=re.escape(
                f"{what} must be a non-negative integer, got {bad!r}")):
            pipe(make_batch(), epoch, indices)

    def test_numpy_integer_keys_accepted(self):
        batch = make_batch()
        pipe = AugmentPipeline(AugmentConfig(rng_seed=np.uint32(5)))
        a = pipe(batch, np.int64(2), np.array([7, 0, 3, 1]))
        b = AugmentPipeline(AugmentConfig(rng_seed=5))(batch, 2, [7, 0, 3, 1])
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestCenterCrop:
    def test_deterministic_center(self):
        x = np.arange(10, dtype=np.float32).reshape(1, 1, 10, 1)
        out = center_crop(x, 6)
        np.testing.assert_array_equal(out[0, 0, :, 0], np.arange(2, 8, dtype=np.float32))

    def test_error_when_too_wide(self):
        with pytest.raises(ShapeMismatch, match="crop 8 > time axis 4"):
            center_crop(np.zeros((1, 2, 4, 1)), 8)

    @pytest.mark.parametrize("width", [0, -3])
    def test_error_when_under_one_wide(self, width):
        with pytest.raises(ShapeMismatch, match=f"at least 1, got {width}$"):
            center_crop(np.zeros((1, 2, 4, 1)), width)
