"""Online batch augmentation: random temporal crop, axis masking, mixup.

All three transforms keep label rows on the probability simplex and are
deterministic given explicit RNG streams. Per-sample draws come from
independent substreams so batches can be processed in any sample order
(or in parallel) without changing the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmall,
    ConfigMismatch,
    CropWiderThanInput,
    MaskLongerThanAxis,
    ShapeMismatch,
)


@dataclass
class AugmentConfig:
    crop_width: int = 256
    mask_len: int = 10
    mixup_alpha: float = 0.4
    rng_seed: int = 0

    def __post_init__(self):
        if self.crop_width < 1:
            raise ConfigMismatch(f"crop_width must be at least 1, got {self.crop_width}")
        if self.mask_len < 0:
            raise MaskLongerThanAxis("mask_len must be >= 0")
        if self.mixup_alpha <= 0:
            raise ShapeMismatch("mixup_alpha must be positive")


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
        if np.any(self.labels < 0) or np.any(np.abs(self.labels.sum(axis=1) - 1) > 1e-6):
            raise ShapeMismatch("label rows must lie on the probability simplex")

    @property
    def size(self) -> int:
        return self.features.shape[0]


def _per_sample_rngs(rng, batch_size: int):
    if isinstance(rng, np.random.Generator):
        return rng.spawn(batch_size)
    rngs = list(rng)
    if len(rngs) != batch_size:
        raise ShapeMismatch(f"need {batch_size} per-sample streams, got {len(rngs)}")
    return rngs


def random_crop(batch: LabeledBatch, cfg: AugmentConfig, rng) -> LabeledBatch:
    """Crop each sample's time axis to cfg.crop_width at an independent offset.

    `rng` is either one Generator (substreams are spawned from it) or a
    sequence of per-sample Generators.
    """
    t_len = batch.features.shape[2]
    if cfg.crop_width > t_len:
        raise CropWiderThanInput(f"crop {cfg.crop_width} > time axis {t_len}")
    rngs = _per_sample_rngs(rng, batch.size)
    out = np.empty(batch.features.shape[:2] + (cfg.crop_width,) + batch.features.shape[3:],
                   dtype=batch.features.dtype)
    for i, r in enumerate(rngs):
        off = int(r.integers(0, t_len - cfg.crop_width + 1))
        out[i] = batch.features[i, :, off : off + cfg.crop_width]
    return LabeledBatch(out, batch.labels.copy())


def spec_augment(batch: LabeledBatch, cfg: AugmentConfig, rng) -> LabeledBatch:
    """Zero one contiguous run of cfg.mask_len bins per sample.

    The masked axis (frequency or time) is chosen uniformly per sample; the
    run is erased across all remaining axes. mask_len == 0 is an identity.
    """
    feats = batch.features.copy()
    _, f_len, t_len, _ = feats.shape
    if cfg.mask_len > min(f_len, t_len):
        raise MaskLongerThanAxis(
            f"mask {cfg.mask_len} exceeds axis lengths ({f_len}, {t_len})"
        )
    rngs = _per_sample_rngs(rng, batch.size)
    if cfg.mask_len > 0:
        for i, r in enumerate(rngs):
            axis_is_freq = bool(r.integers(0, 2) == 0)
            span = f_len if axis_is_freq else t_len
            start = int(r.integers(0, span - cfg.mask_len + 1))
            if axis_is_freq:
                feats[i, start : start + cfg.mask_len, :, :] = 0.0
            else:
                feats[i, :, start : start + cfg.mask_len, :] = 0.0
    return LabeledBatch(feats, batch.labels.copy())


def mixup(batch: LabeledBatch, cfg: AugmentConfig, rng, per_sample_rngs=None) -> LabeledBatch:
    """Convex-combine each sample with a permutation partner.

    x'_i = lam_i*x_i + (1-lam_i)*x_pi(i), same for labels; lam_i drawn from
    Beta(alpha, alpha). The permutation comes from `rng` (batch-level);
    lambdas come from per-sample substreams.
    """
    if batch.size < 2:
        raise BatchTooSmall("mixup needs at least two samples")
    if not isinstance(rng, np.random.Generator):
        raise ShapeMismatch("mixup needs a batch-level Generator for the permutation")
    perm = rng.permutation(batch.size)
    rngs = _per_sample_rngs(per_sample_rngs if per_sample_rngs is not None else rng,
                            batch.size)
    lams = np.array([r.beta(cfg.mixup_alpha, cfg.mixup_alpha) for r in rngs])
    lam_x = lams[:, None, None, None]
    feats = lam_x * batch.features + (1.0 - lam_x) * batch.features[perm]
    labels = lams[:, None] * batch.labels + (1.0 - lams[:, None]) * batch.labels[perm]
    return LabeledBatch(feats.astype(batch.features.dtype), labels)


class AugmentPipeline:
    """crop -> mask -> mixup with (seed, epoch, sample index) substreams."""

    def __init__(self, cfg: AugmentConfig):
        self.cfg = cfg

    def __call__(self, batch: LabeledBatch, epoch: int, sample_indices=None) -> LabeledBatch:
        idx = sample_indices if sample_indices is not None else range(batch.size)
        rngs = [np.random.default_rng([self.cfg.rng_seed, epoch, int(i)]) for i in idx]
        batch_rng = np.random.default_rng([self.cfg.rng_seed, epoch])
        out = random_crop(batch, self.cfg, rngs)
        out = spec_augment(out, self.cfg, rngs)
        if out.size >= 2:
            out = mixup(out, self.cfg, batch_rng, per_sample_rngs=rngs)
        return out


def center_crop(features: np.ndarray, crop_width: int) -> np.ndarray:
    """Deterministic center crop of the time axis (no-augmentation phase)."""
    t_len = features.shape[2]
    if crop_width > t_len:
        raise CropWiderThanInput(f"crop {crop_width} > time axis {t_len}")
    left = (t_len - crop_width) // 2
    return features[:, :, left : left + crop_width]
