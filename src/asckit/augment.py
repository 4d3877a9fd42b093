"""Online batch augmentation: the paper's one fixed pipeline.

Each sample is cropped to a random run of CROP_WIDTH time frames (the
network's input width), one run of MASK_LEN frequency bins or time frames
is zeroed, and mixup (Zhang et al., arXiv 1710.09412) convex-combines each
sample with a partner using a Beta(MIXUP_ALPHA, MIXUP_ALPHA) weight. All
three transforms keep label rows on the probability simplex.

The pipeline is a fixed function of (seed, epoch, sample index): every
per-sample draw comes from a stream made from those three numbers, so
batches can be processed in any sample order without changing the result;
only mixup's permutation comes from a (seed, epoch) stream.

Those streams are not all apart. numpy's `SeedSequence` ignores trailing
zeros of a key, so the stream of sample index 0, default_rng([seed, epoch,
0]), is the state of mixup's default_rng([seed, epoch]), and at epoch 0
both are default_rng(seed). So sample 0's draws are not apart from the
permutation's, nor at epoch 0 from any other stream seeded with `seed`
alone. Mending the keys changes the draws, and with them the benchmark's
stored reference values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, check_integer
from .models import INPUT_SHAPE

CROP_WIDTH = INPUT_SHAPE[1]
MASK_LEN = 10
MIXUP_ALPHA = 0.4


@dataclass
class AugmentConfig:
    rng_seed: int = 0


@dataclass
class LabeledBatch:
    features: np.ndarray  # [B, F, T, C]
    labels: np.ndarray  # [B, M], rows on the simplex

    def __post_init__(self):
        self.features = np.asarray(self.features)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 4:
            raise ShapeMismatch(f"features must be B x F x T x C, got {self.features.shape}")
        if self.labels.ndim != 2 or self.labels.shape[0] != self.features.shape[0]:
            raise ShapeMismatch("labels must be B x M aligned with features")
        if not np.isfinite(self.labels).all():
            raise ShapeMismatch("label rows must be finite")
        if np.any(self.labels < 0) or np.any(np.abs(self.labels.sum(axis=1) - 1) > 1e-6):
            raise ShapeMismatch("label rows must lie on the probability simplex")


class AugmentPipeline:
    """Crop, mask and mix a batch in one pass.

    Sample i's stream, default_rng([seed, epoch, sample_indices[i]]), draws
    in this order: the crop offset in [0, T - CROP_WIDTH]; the masked axis,
    0 for frequency and 1 for time; the start of the masked run on that
    axis of the crop; and the sample's mixup weight. The required indices
    are the samples' dataset indices: batch positions 0..B-1 would give
    every batch of an epoch the same crops, masks and mixup weights. Mixup
    runs only on a batch of at least two samples, with partners from a
    permutation drawn by default_rng([seed, epoch]). The seed, the epoch
    and every sample index must be a non-negative integer: any other
    raises `ConfigMismatch` before any draw. The input is never written to.
    """

    def __init__(self, cfg: AugmentConfig):
        self.cfg = cfg

    def __call__(self, batch: LabeledBatch, epoch: int, sample_indices) -> LabeledBatch:
        seed, epoch = check_integer("rng_seed", self.cfg.rng_seed), check_integer("epoch", epoch)
        idx = [check_integer("sample index", i) for i in sample_indices]
        b, f_len, t_len, c = batch.features.shape
        if CROP_WIDTH > t_len:
            raise ShapeMismatch(f"crop {CROP_WIDTH} > time axis {t_len}")
        if MASK_LEN > min(f_len, CROP_WIDTH):
            raise ShapeMismatch(f"mask {MASK_LEN} exceeds axis lengths ({f_len}, {CROP_WIDTH})")
        if len(idx) != b:
            raise ShapeMismatch(f"need {b} sample indices, got {len(idx)}")
        feats = np.empty((b, f_len, CROP_WIDTH, c), dtype=batch.features.dtype)
        lams = np.empty(b)
        for i, key in enumerate(idx):
            r = np.random.default_rng([seed, epoch, key])
            off = int(r.integers(0, t_len - CROP_WIDTH + 1))
            feats[i] = batch.features[i, :, off : off + CROP_WIDTH]
            # a view of the sample whose first axis is the masked one
            masked = feats[i] if r.integers(0, 2) == 0 else feats[i].swapaxes(0, 1)
            start = int(r.integers(0, len(masked) - MASK_LEN + 1))
            masked[start : start + MASK_LEN] = 0.0
            lams[i] = r.beta(MIXUP_ALPHA, MIXUP_ALPHA)
        labels = batch.labels.copy()
        if b >= 2:
            perm = np.random.default_rng([seed, epoch]).permutation(b)
            lam_x = lams[:, None, None, None]
            feats = (lam_x * feats + (1.0 - lam_x) * feats[perm]).astype(feats.dtype)
            labels = lams[:, None] * labels + (1.0 - lams[:, None]) * labels[perm]
        return LabeledBatch(feats, labels)


def center_crop(features: np.ndarray, crop_width: int) -> np.ndarray:
    """Deterministic center crop of the time axis (no-augmentation phase)."""
    t_len = features.shape[2]
    if crop_width > t_len:
        raise ShapeMismatch(f"crop {crop_width} > time axis {t_len}")
    if crop_width < 1:
        raise ShapeMismatch(f"crop width must be at least 1, got {crop_width}")
    left = (t_len - crop_width) // 2
    return features[:, :, left : left + crop_width]
