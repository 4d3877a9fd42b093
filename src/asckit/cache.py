"""Binary feature cache holding extracted spectrogram tensors.

Layout (all little-endian):
  magic "ASCF" | version u16 | frontend id u8 | F u32 | T u32 | C u32
  then one record per segment:
  label u8 | tag length u8 | tag UTF-8 bytes | F*T*C float32 row-major
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .container import Reader, atomic_write
from .errors import IOFailure, ShapeMismatch
from .frontend import FRONTENDS

_MAGIC = b"ASCF"
_VERSION = 1
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
        raise IOFailure(f"unknown frontend {frontend!r}")
    count = 0
    dims = None
    with atomic_write(path) as fh:
        for features, label, device in records:
            feats = np.asarray(features, dtype="<f4")
            if feats.ndim != 3:
                raise ShapeMismatch(f"expected F x T x C features, got {feats.shape}")
            if dims is None:
                dims = feats.shape
                fh.write(_MAGIC)
                fh.write(struct.pack("<HB3I", _VERSION, _FRONTEND_IDS[frontend], *dims))
            elif feats.shape != dims:
                raise ShapeMismatch(f"record shape {feats.shape} != cache dims {dims}")
            if not 0 <= int(label) <= 255:
                raise IOFailure(f"record {count}: label {label} outside 0..255")
            tag = str(device).encode("utf-8")
            if len(tag) > 255:
                raise IOFailure(f"record {count}: device tag too long: {device!r}")
            fh.write(struct.pack("<BB", int(label), len(tag)))
            fh.write(tag)
            fh.write(feats.tobytes())
            count += 1
        if dims is None:
            raise IOFailure("refusing to write an empty feature cache")
    return count


def read_cache(path) -> FeatureSet:
    """Load a feature cache written by write_cache."""
    rd = Reader(path)
    frontend_id, *dims = rd.header(_MAGIC, _VERSION, "<B3I")
    names = {i: n for n, i in _FRONTEND_IDS.items()}
    if frontend_id not in names:
        rd.fail(f"unknown frontend id {frontend_id}", len(_MAGIC) + 2)
    feats, labels, devices = [], [], []
    while rd.pos < len(rd.raw):
        label, tag_len = rd.unpack("<BB", f"record {len(feats)} header")
        devices.append(rd.text(tag_len, f"record {len(feats)} device tag"))
        labels.append(label)
        feats.append(rd.floats(dims, f"record {len(feats)} payload"))
    if not feats:
        rd.fail("no records")
    return FeatureSet(
        frontend=names[frontend_id],
        features=np.stack(feats),
        labels=np.asarray(labels, dtype=np.int64),
        devices=devices,
    )
