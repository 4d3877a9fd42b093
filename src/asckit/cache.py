"""Binary feature cache holding extracted spectrogram tensors.

Layout (all little-endian):
  magic "ASCF" | version u16 (3) | frontend id u8 | pad u8 | F, T, C, N u32
  | N*F*T*C float32, the block [N, F, T, C] row-major, from byte 24
  | N labels u8 | N device tags, each u8 length + UTF-8 bytes

The 24-byte header keeps the block aligned, so `read_cache` returns it as one
view of the file's bytes. The label and tag tables trail the block because
`write_cache` streams each record to disk: a table in front would make it hold
every record before it could write the first payload.
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
_VERSION = 3
_HEADER = "<Bx4I"  # frontend id, pad, F, T, C, record count N
_COUNT_OFFSET = len(_MAGIC) + 2 + struct.calcsize(_HEADER) - 4


@dataclass
class FeatureSet:
    """A feature cache in memory. `features` is a read-only view of the
    file's bytes, which it keeps alive; copy it to write into it."""

    frontend: str
    features: np.ndarray  # [N, F, T, C] float32
    labels: np.ndarray  # [N] int
    devices: list[str]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def write_cache(path, frontend: str, records) -> int:
    """Write (features [F,T,C], label 0..255, device tag str) records; returns count.

    On any error no file is left at `path`, or the one already there is kept.
    """
    if frontend not in FRONTENDS:
        raise ConfigMismatch(f"unknown frontend {frontend!r}")
    labels, tags = bytearray(), bytearray()
    dims = None
    with atomic_write(path) as fh:
        for features, label, device in records:
            count = len(labels)
            with np.errstate(over="ignore"):  # a value past float32's range is caught below
                feats = np.asarray(features, dtype="<f4")
            if feats.ndim != 3:
                raise ShapeMismatch(f"expected F x T x C features, got {feats.shape}")
            if not np.isfinite(feats).all():
                raise IOFailure(f"record {count}: features hold a non-finite value in float32")
            if dims is None:
                dims = feats.shape
                fh.write(_MAGIC + struct.pack("<H", _VERSION))
                fh.write(struct.pack(_HEADER, FRONTENDS.index(frontend), *dims, 0))
            elif feats.shape != dims:
                raise ShapeMismatch(f"record shape {feats.shape} != cache dims {dims}")
            if (isinstance(label, bool) or not isinstance(label, numbers.Real)
                    or not float(label).is_integer() or not 0 <= label <= 255):
                raise IOFailure(f"record {count}: label {label!r} is not a whole number in 0..255")
            if not isinstance(device, str):
                raise IOFailure(f"record {count}: device tag {device!r} is not a string")
            try:
                tag = device.encode("utf-8")
            except UnicodeEncodeError:
                raise IOFailure(f"record {count}: device tag {device!r} has no UTF-8 form") from None
            if len(tag) > 255:
                raise IOFailure(f"record {count}: device tag too long: {device!r}")
            fh.write(feats.tobytes())
            labels.append(int(label))
            tags += bytes([len(tag)]) + tag
        if dims is None:
            raise IOFailure("refusing to write an empty feature cache")
        fh.write(labels + tags)
        fh.seek(_COUNT_OFFSET)
        fh.write(struct.pack("<I", len(labels)))
    return len(labels)


def read_cache(path) -> FeatureSet:
    """Load a feature cache written by write_cache. The file must hold
    exactly its record count, and no record may hold a non-finite value."""
    rd = Reader(path)
    frontend_id, *dims, count = rd.header(_MAGIC, _VERSION, _HEADER)
    if frontend_id >= len(FRONTENDS):
        rd.fail(f"unknown frontend id {frontend_id}", len(_MAGIC) + 2)
    if not count:
        rd.fail("no records")
    block = rd.pos
    feats = rd.array("<f4", (count, *dims), "feature block")
    labels = rd.array("u1", (count,), "label table").astype(np.int64)
    devices = [rd.text(rd.unpack("<B", f"record {k} tag length")[0], f"record {k} device tag")
               for k in range(count)]
    rd.expect_end(f"the last of {count} device tags")
    # after the tables, so that this loop is bounded by the file's size
    for k in range(count):
        if not np.isfinite(feats[k]).all():
            rd.fail(f"record {k} payload holds a non-finite value", block + k * feats.strides[0])
    return FeatureSet(FRONTENDS[frontend_id], feats, labels, devices)
