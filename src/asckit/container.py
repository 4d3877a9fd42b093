"""Bounds-checked reading and atomic writing for the toolkit's binary files:
ASCW weight files (`tensor.save_weights`) and ASCF feature caches
(`cache.write_cache`). Both open with a 4-byte magic and a u16 version."""

from __future__ import annotations

import contextlib
import math
import os
import struct
import uuid

import numpy as np

from .errors import IOFailure


class Reader:
    """Cursor over the bytes of one file. Every read that runs past the end
    or finds malformed data raises IOFailure naming the path and offset."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.raw = fh.read()
        self.pos = 0

    def fail(self, message, offset=None):
        offset = self.pos if offset is None else offset
        raise IOFailure(f"{self.path}: {message} at offset {offset}")

    def _advance(self, size, what):
        start = self.pos
        if size > len(self.raw) - start:
            self.fail(f"truncated {what}: need {size} bytes, {len(self.raw) - start} left")
        self.pos = start + size
        return start

    def header(self, magic: bytes, version: int, fmt: str) -> tuple:
        """Check the magic and version; return the rest of the header unpacked."""
        if self.raw[: len(magic)] != magic:
            self.fail(f"not an {magic.decode()} file", 0)
        self.pos = len(magic)
        (found,) = self.unpack("<H", "version")
        if found != version:
            self.fail(f"unsupported {magic.decode()} version {found}", len(magic))
        return self.unpack(fmt, "header")

    def unpack(self, fmt: str, what: str) -> tuple:
        start = self._advance(struct.calcsize(fmt), what)
        return struct.unpack_from(fmt, self.raw, start)

    def text(self, size: int, what: str) -> str:
        start = self._advance(size, what)
        try:
            return self.raw[start : self.pos].decode("utf-8")
        except UnicodeDecodeError:
            self.fail(f"{what} is not UTF-8", start)

    def floats(self, shape, what: str) -> np.ndarray:
        """Read-only little-endian float32 view of the file bytes."""
        count = math.prod(shape)
        start = self._advance(4 * count, what)
        flat = np.frombuffer(self.raw, dtype="<f4", count=count, offset=start)
        try:
            return flat.reshape(shape)
        except ValueError:  # an empty array whose other dims overflow
            self.fail(f"{what}: shape {tuple(shape)} too large", start)


@contextlib.contextmanager
def atomic_write(path):
    """Binary file handle whose content replaces `path` only when the block
    completes; on any error the partial file is removed and `path` is left
    as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
