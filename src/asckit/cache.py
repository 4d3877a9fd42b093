"""Binary feature cache holding extracted spectrogram tensors.

Layout (all little-endian):
  magic "ASCF" | version u16 (2) | frontend id u8 | F u32 | T u32 | C u32
  | record count u32
  then exactly that many records, one per segment:
  label u8 | tag length u8 | tag UTF-8 bytes | F*T*C float32 row-major
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .container import Reader, atomic_write
from .errors import ConfigMismatch, IOFailure, ShapeMismatch
from .frontend import FRONTENDS

_MAGIC = b"ASCF"
_VERSION = 2
_HEADER = "<B3I"  # frontend id, F, T, C; the record count follows
_COUNT_OFFSET = len(_MAGIC) + 2 + struct.calcsize(_HEADER)
_FRONTEND_IDS = {name: i for i, name in enumerate(FRONTENDS)}


@dataclass
class FeatureSet:
    """In-memory view of a feature cache."""

    frontend: str
    features: np.ndarray  # [N, F, T, C] float32
    labels: np.ndarray  # [N] int
    devices: list[str]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def write_cache(path, frontend: str, records) -> int:
    """Write (features [F,T,C], label 0..255, device_tag) records; returns count.

    On any error no file is left at `path`, or the one already there is kept.
    """
    if frontend not in _FRONTEND_IDS:
        raise ConfigMismatch(f"unknown frontend {frontend!r}")
    count = 0
    dims = None
    with atomic_write(path) as fh:
        for features, label, device in records:
            feats = np.asarray(features, dtype="<f4")
            if feats.ndim != 3:
                raise ShapeMismatch(f"expected F x T x C features, got {feats.shape}")
            if not np.isfinite(feats).all():
                raise IOFailure(f"record {count}: features hold a non-finite value")
            if dims is None:
                dims = feats.shape
                fh.write(_MAGIC)
                fh.write(struct.pack("<H", _VERSION))
                fh.write(struct.pack(_HEADER + "I", _FRONTEND_IDS[frontend], *dims, 0))
            elif feats.shape != dims:
                raise ShapeMismatch(f"record shape {feats.shape} != cache dims {dims}")
            if (isinstance(label, bool) or not isinstance(label, numbers.Real)
                    or not float(label).is_integer() or not 0 <= label <= 255):
                raise IOFailure(f"record {count}: label {label!r} is not a whole number in 0..255")
            tag = str(device).encode("utf-8")
            if len(tag) > 255:
                raise IOFailure(f"record {count}: device tag too long: {device!r}")
            fh.write(struct.pack("<BB", int(label), len(tag)))
            fh.write(tag)
            fh.write(feats.tobytes())
            count += 1
        if dims is None:
            raise IOFailure("refusing to write an empty feature cache")
        fh.seek(_COUNT_OFFSET)
        fh.write(struct.pack("<I", count))
    return count


def read_cache(path) -> FeatureSet:
    """Load a feature cache written by write_cache. The file must hold
    exactly its record count, and no record may hold a non-finite value."""
    rd = Reader(path)
    frontend_id, *dims = rd.header(_MAGIC, _VERSION, _HEADER)
    names = {i: n for n, i in _FRONTEND_IDS.items()}
    if frontend_id not in names:
        rd.fail(f"unknown frontend id {frontend_id}", len(_MAGIC) + 2)
    (count,) = rd.unpack("<I", "record count")
    feats, labels, devices = [], [], []
    while len(feats) < count:
        label, tag_len = rd.unpack("<BB", f"record {len(feats)} header")
        devices.append(rd.text(tag_len, f"record {len(feats)} device tag"))
        labels.append(label)
        start = rd.pos
        feats.append(rd.array("<f4", dims, f"record {len(feats)} payload"))
        if not np.isfinite(feats[-1]).all():
            rd.fail(f"record {len(feats) - 1} payload holds a non-finite value", start)
    if not feats:
        rd.fail("no records")
    rd.expect_end(f"the last of {count} records")
    return FeatureSet(
        frontend=names[frontend_id],
        features=np.stack(feats),
        labels=np.asarray(labels, dtype=np.int64),
        devices=devices,
    )
