"""Online batch augmentation: the paper's one fixed pipeline.

Each sample is cropped to a random run of CROP_WIDTH time frames (the
network's input width), one run of MASK_LEN frequency bins or time frames
is zeroed, and mixup (Zhang et al., arXiv 1710.09412) convex-combines each
sample with a partner using a Beta(MIXUP_ALPHA, MIXUP_ALPHA) weight. All
three transforms keep label rows on the probability simplex.

The pipeline is a fixed function of (seed, epoch, sample index): every
per-sample draw comes from that sample's own stream, made from those three
numbers, so batches can be processed in any sample order without changing
the result; only mixup's permutation comes from a (seed, epoch) stream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatch, ShapeMismatch
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

    @property
    def size(self) -> int:
        return self.features.shape[0]


def _per_sample_rngs(rngs, batch_size: int):
    rngs = list(rngs)
    if len(rngs) != batch_size:
        raise ShapeMismatch(f"need {batch_size} per-sample streams, got {len(rngs)}")
    return rngs


def random_crop(batch: LabeledBatch, rngs) -> LabeledBatch:
    """Crop each sample's time axis to CROP_WIDTH frames at an offset drawn
    from its own stream in `rngs`, one Generator per sample."""
    t_len = batch.features.shape[2]
    if CROP_WIDTH > t_len:
        raise ShapeMismatch(f"crop {CROP_WIDTH} > time axis {t_len}")
    rngs = _per_sample_rngs(rngs, batch.size)
    out = np.empty(batch.features.shape[:2] + (CROP_WIDTH,) + batch.features.shape[3:],
                   dtype=batch.features.dtype)
    for i, r in enumerate(rngs):
        off = int(r.integers(0, t_len - CROP_WIDTH + 1))
        out[i] = batch.features[i, :, off : off + CROP_WIDTH]
    return LabeledBatch(out, batch.labels.copy())


def spec_augment(batch: LabeledBatch, rngs) -> LabeledBatch:
    """Zero one contiguous run of MASK_LEN bins per sample.

    Each sample's stream in `rngs` picks the masked axis (frequency or time)
    uniformly, then the run's start; the run is erased across all remaining
    axes.
    """
    feats = batch.features.copy()
    _, f_len, t_len, _ = feats.shape
    if MASK_LEN > min(f_len, t_len):
        raise ShapeMismatch(f"mask {MASK_LEN} exceeds axis lengths ({f_len}, {t_len})")
    for i, r in enumerate(_per_sample_rngs(rngs, batch.size)):
        axis_is_freq = bool(r.integers(0, 2) == 0)
        span = f_len if axis_is_freq else t_len
        start = int(r.integers(0, span - MASK_LEN + 1))
        if axis_is_freq:
            feats[i, start : start + MASK_LEN, :, :] = 0.0
        else:
            feats[i, :, start : start + MASK_LEN, :] = 0.0
    return LabeledBatch(feats, batch.labels.copy())


def mixup(batch: LabeledBatch, rng, per_sample_rngs) -> LabeledBatch:
    """Convex-combine each sample with a permutation partner.

    x'_i = lam_i*x_i + (1-lam_i)*x_pi(i), same for labels, with lam_i drawn
    from Beta(MIXUP_ALPHA, MIXUP_ALPHA) by sample i's stream in
    `per_sample_rngs`; the permutation comes from the batch-level `rng`.
    """
    if batch.size < 2:
        raise ShapeMismatch("mixup needs at least two samples")
    perm = rng.permutation(batch.size)
    lams = np.array([r.beta(MIXUP_ALPHA, MIXUP_ALPHA)
                     for r in _per_sample_rngs(per_sample_rngs, batch.size)])
    lam_x = lams[:, None, None, None]
    feats = lam_x * batch.features + (1.0 - lam_x) * batch.features[perm]
    labels = lams[:, None] * batch.labels + (1.0 - lams[:, None]) * batch.labels[perm]
    return LabeledBatch(feats.astype(batch.features.dtype), labels)


def _stream_key(what: str, value):
    """`value` if it is a non-negative integer, a NumPy one too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigMismatch(f"{what} must be a non-negative integer, got {value!r}")
    return value


class AugmentPipeline:
    """crop -> mask -> mixup with (seed, epoch, sample index) substreams. Each
    of the three must be a non-negative integer: any other raises
    `ConfigMismatch` before any draw."""

    def __init__(self, cfg: AugmentConfig):
        self.cfg = cfg

    def __call__(self, batch: LabeledBatch, epoch: int, sample_indices=None) -> LabeledBatch:
        seed, epoch = _stream_key("rng_seed", self.cfg.rng_seed), _stream_key("epoch", epoch)
        idx = sample_indices if sample_indices is not None else range(batch.size)
        rngs = [np.random.default_rng([seed, epoch, _stream_key("sample index", i)]) for i in idx]
        batch_rng = np.random.default_rng([seed, epoch])
        out = random_crop(batch, rngs)
        out = spec_augment(out, rngs)
        if out.size >= 2:
            out = mixup(out, batch_rng, rngs)
        return out


def center_crop(features: np.ndarray, crop_width: int) -> np.ndarray:
    """Deterministic center crop of the time axis (no-augmentation phase)."""
    t_len = features.shape[2]
    if crop_width > t_len:
        raise ShapeMismatch(f"crop {crop_width} > time axis {t_len}")
    if crop_width < 1:
        raise ShapeMismatch(f"crop width must be at least 1, got {crop_width}")
    left = (t_len - crop_width) // 2
    return features[:, :, left : left + crop_width]
