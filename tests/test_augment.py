import re

import numpy as np
import pytest

from asckit import models
from asckit.augment import (
    CROP_WIDTH,
    MASK_LEN,
    MIXUP_ALPHA,
    AugmentConfig,
    AugmentPipeline,
    LabeledBatch,
    center_crop,
)
from asckit.errors import ConfigMismatch, ShapeMismatch


def make_batch(b=4, f=128, t=305, c=3, m=10, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(b, f, t, c)).astype(np.float32)
    labels = np.eye(m)[rng.integers(0, m, b)]
    return LabeledBatch(feats, labels)


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


def augment(batch, seed=0, epoch=0, indices=None):
    """The pipeline's output; `indices` defaults to the batch positions."""
    if indices is None:
        indices = range(len(batch.features))
    return AugmentPipeline(AugmentConfig(rng_seed=seed))(batch, epoch, indices)


def alone(batch, i, seed=0, epoch=0):
    """Sample i augmented in a batch of its own, which is never mixed."""
    return augment(LabeledBatch(batch.features[i : i + 1], batch.labels[i : i + 1]),
                   seed, epoch, [i])


def rebuilt(batch, seed, epoch, indices):
    """The pipeline's output rebuilt from its documented draw order."""
    _, f_len, t_len, _ = batch.features.shape
    feats, lams = [], []
    for x, index in zip(batch.features, indices):
        r = np.random.default_rng([seed, epoch, index])
        off = r.integers(0, t_len - CROP_WIDTH + 1)
        y = x[:, off : off + CROP_WIDTH].copy()
        if r.integers(0, 2) == 0:
            start = r.integers(0, f_len - MASK_LEN + 1)
            y[start : start + MASK_LEN] = 0.0
        else:
            start = r.integers(0, CROP_WIDTH - MASK_LEN + 1)
            y[:, start : start + MASK_LEN] = 0.0
        feats.append(y)
        lams.append(r.beta(MIXUP_ALPHA, MIXUP_ALPHA))
    feats, labels, lams = np.stack(feats), batch.labels, np.array(lams)
    if len(feats) >= 2:
        perm = np.random.default_rng([seed, epoch]).permutation(len(feats))
        lam = lams[:, None, None, None]
        feats = (lam * feats + (1.0 - lam) * feats[perm]).astype(feats.dtype)
        labels = lams[:, None] * labels + (1.0 - lams[:, None]) * labels[perm]
    return feats, labels


@pytest.mark.parametrize("b, indices", [
    (4, [0, 1, 2]),  # sample 3 would get no crop offset
    (4, [0, 1, 2, 3, 4]),  # a fifth stream would draw a mask for no sample
    (2, [0]),  # the pair would be mixed with one weight for two samples
], ids=["random_crop", "spec_augment", "mixup"])
def test_one_stream_per_sample_required(monkeypatch, b, indices):
    # every draw comes from a sample's stream, so the count is checked before
    # any stream is made
    batch = make_batch(b=b)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    with pytest.raises(ShapeMismatch, match=f"^need {b} sample indices, got {len(indices)}$"):
        augment(batch, indices=indices)


class FixedWeight:
    """A stream whose mixup weight is `lam`; its other draws are the real stream's."""

    def __init__(self, make_rng, key, lam):
        self.rng, self.lam = make_rng(key), lam

    def integers(self, low, high):
        return self.rng.integers(low, high)

    def permutation(self, n):
        return self.rng.permutation(n)

    def beta(self, a, b):
        return self.lam


def fix_weights(monkeypatch, lam):
    make_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda key: FixedWeight(make_rng, key, lam))


def swapping_epoch(seed):
    """An epoch whose permutation of a pair swaps it."""
    return next(e for e in range(100)
                if list(np.random.default_rng([seed, e]).permutation(2)) == [1, 0])


class TestRandomCrop:
    """Batches of one sample, so that no mixup runs."""

    def test_output_shape_and_offsets(self):
        batch = make_batch()
        for i in range(len(batch.features)):
            out = alone(batch, i).features
            assert out.shape == (1, 128, 256, 3)
            # outside the masked run, the sample is a contiguous slice of the original
            kept = out[0] != 0
            assert any(
                np.array_equal(out[0][kept], batch.features[i, :, o : o + 256][kept])
                for o in range(305 - 256 + 1)
            )

    def test_identity_when_full_width(self):
        batch = make_batch(b=1, t=256)
        out = augment(batch, seed=1).features
        kept = out != 0
        np.testing.assert_array_equal(out[kept], batch.features[kept])
        assert (~kept).sum() in (MASK_LEN * 256 * 3, 128 * MASK_LEN * 3)

    def test_constant_tensor_invariant(self):
        batch = LabeledBatch(np.full((3, 16, 300, 1), 2.5, dtype=np.float32), np.eye(10)[[0, 1, 2]])
        for i in range(len(batch.features)):
            assert set(np.unique(alone(batch, i, seed=2).features)) == {0.0, 2.5}

    def test_too_wide(self):
        with pytest.raises(ShapeMismatch, match=rf"crop {CROP_WIDTH} > time axis 100"):
            augment(make_batch(t=100))

    def test_labels_unchanged(self):
        batch = make_batch(b=1)
        out = augment(batch, seed=3)
        np.testing.assert_array_equal(out.labels, batch.labels)


class TestSpecAugment:
    """Batches of one sample, so that no mixup runs."""

    def test_exact_zero_count_freq_axis(self):
        batch = LabeledBatch(np.ones((1, 128, 256, 3), dtype=np.float32), np.eye(10)[[0]])
        # force the frequency axis by scanning indices for a known draw,
        # which follows the crop offset's
        for index in range(50):
            r = np.random.default_rng([0, 0, index])
            r.integers(0, 1)
            if r.integers(0, 2) == 0:
                out = augment(batch, indices=[index])
                assert int((out.features == 0).sum()) == 10 * 256 * 3
                return
        pytest.fail("no sample index produced a frequency mask")

    def test_zero_run_contiguous_single_interval(self):
        batch = LabeledBatch(np.ones((6, 32, 256, 2), dtype=np.float32), np.eye(10)[:6])
        for i in range(6):
            out = alone(batch, i, seed=4).features[0]
            zero_f = np.where(np.all(out == 0, axis=(1, 2)))[0]
            zero_t = np.where(np.all(out == 0, axis=(0, 2)))[0]
            run = zero_f if zero_f.size else zero_t
            assert run.size == 10
            assert np.array_equal(run, np.arange(run[0], run[0] + 10))

    def test_expected_zero_fraction(self):
        # oracle: Monte Carlo with a fixed seed; expectation
        # 0.5*(10/128) + 0.5*(10/256) = 0.05859
        batch = LabeledBatch(np.ones((1, 128, 256, 1), dtype=np.float32), np.eye(10)[[0]])
        n_draws = 10000
        total = sum((augment(batch, seed=123, indices=[k]).features == 0).mean()
                    for k in range(n_draws))
        assert abs(total / n_draws - 0.05859) < 0.003

    def test_mask_longer_than_axis(self):
        with pytest.raises(ShapeMismatch, match=rf"mask {MASK_LEN} exceeds axis lengths \(8, 256\)"):
            augment(make_batch(f=8))


class TestMixup:
    def test_lambda_one_identity(self, monkeypatch):
        # a weight of 1 keeps each sample's own crop, mask and label row
        batch = make_batch()
        y = np.concatenate([alone(batch, i, seed=2).features
                            for i in range(len(batch.features))])
        fix_weights(monkeypatch, 1.0)
        out = augment(batch, seed=2)
        np.testing.assert_array_equal(out.features, y)
        np.testing.assert_array_equal(out.labels, batch.labels)

    def test_half_lambda_symmetric_pair(self, monkeypatch):
        # x and -x under one sample index share their crop and mask, so a
        # swapped pair mixed half and half cancels
        x = np.ones((16, 256, 1))
        batch = LabeledBatch(np.stack([x, -x]), np.tile([[0.5, 0.5]], (2, 1)))
        epoch = swapping_epoch(0)
        fix_weights(monkeypatch, 0.5)
        out = augment(batch, epoch=epoch, indices=[3, 3])
        np.testing.assert_array_equal(out.features, 0.0)
        np.testing.assert_array_equal(out.labels, batch.labels)

    def test_batch_too_small(self):
        # a batch of one is not mixed: its label row and its feature values
        # are the sample's own
        batch = make_batch(b=1)
        out = augment(batch, seed=5)
        np.testing.assert_array_equal(out.labels, batch.labels)
        assert np.isin(out.features, np.append(batch.features, 0.0)).all()

    def test_one_hot_convexity(self):
        # a swapped pair: each label row puts the sample's weight lam on its
        # own class and 1 - lam on its partner's, and its features are the
        # same mix of the two samples as each is augmented alone
        batch = LabeledBatch(make_batch(b=2).features, np.eye(10)[[3, 7]])
        epoch = swapping_epoch(6)
        out = augment(batch, seed=6, epoch=epoch)
        assert on_simplex(out.labels)
        assert np.count_nonzero(out.labels[:, [0, 1, 2, 4, 5, 6, 8, 9]]) == 0
        lams = out.labels[[0, 1], [3, 7]]
        assert np.all((0 < lams) & (lams < 1))
        y = [alone(batch, i, seed=6, epoch=epoch).features[0] for i in range(2)]
        for i, lam in enumerate(lams):
            np.testing.assert_allclose(out.features[i], lam * y[i] + (1 - lam) * y[1 - i],
                                       rtol=1e-6, atol=1e-6)


class TestPipelineProperties:
    @pytest.mark.parametrize("b", [1, 2, 5])
    def test_rebuilt_from_the_draw_order(self, b):
        # shuffled indices: each sample's draws follow its index, not its position
        batch = make_batch(b=b, f=40, t=290)
        indices = [9, 4, 7, 0, 2][:b]
        out = augment(batch, seed=8, epoch=11, indices=indices)
        feats, labels = rebuilt(batch, 8, 11, indices)
        assert out.features.dtype == np.float32
        assert np.array_equal(out.features, feats)
        assert np.array_equal(out.labels, labels)

    @pytest.mark.parametrize("b", [1, 4])
    def test_input_batch_left_unchanged(self, b):
        # callers reuse their batches across epochs
        batch = make_batch(b=b)
        feats, labels = batch.features.copy(), batch.labels.copy()
        out = augment(batch, seed=7)
        np.testing.assert_array_equal(batch.features, feats)
        np.testing.assert_array_equal(batch.labels, labels)
        assert not np.shares_memory(out.features, batch.features)
        assert not np.shares_memory(out.labels, batch.labels)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(6)
        labels = rng.dirichlet(np.ones(10), size=8)
        feats = rng.normal(size=(8, 128, 305, 3)).astype(np.float32)
        batch = LabeledBatch(feats, labels)
        out = AugmentPipeline(AugmentConfig(rng_seed=9))(batch, 0, range(len(batch.features)))
        assert on_simplex(out.labels)
        assert out.features.shape == (8, 128, 256, 3)

    def test_bit_reproducible(self):
        batch = make_batch(b=6)
        pipe = AugmentPipeline(AugmentConfig(rng_seed=42))
        indices = range(len(batch.features))
        a = pipe(batch, 3, indices)
        b = pipe(batch, 3, indices)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = pipe(batch, 4, indices)
        assert not np.array_equal(a.features, c.features)

    def test_output_feeds_the_network(self):
        # the crop width is the network's input width
        batch = make_batch()
        out = AugmentPipeline(AugmentConfig(rng_seed=3))(batch, 0, range(len(batch.features)))
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
        batch = make_batch()
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
        pipe = AugmentPipeline(AugmentConfig(rng_seed=seed))
        with pytest.raises(ConfigMismatch, match=re.escape(
                f"{what} must be an integer of at least 0, got {bad!r}")):
            pipe(batch, epoch, indices)

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
