"""Bounds-checked reading and atomic writing for the toolkit's files: ASCW
weight files (`models.Module.save`) and ASCF feature caches
(`cache.write_cache`), which both open with a 4-byte magic and a u16
version, and WAV files (`audio.save_wav`). `Reader` is the only code that
bounds-checks file bytes; `load_wav` walks RIFF chunks through it too, so
every malformed input file raises `IOFailure`. `Reader` reads a file once;
its arrays are views of those bytes, so a cache's feature block is not copied."""

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
    or finds malformed data raises `IOFailure` through `fail`, naming the
    path and offset."""

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            self.raw = fh.read()
        self.pos = 0

    @property
    def left(self) -> int:
        """Bytes after the cursor."""
        return len(self.raw) - self.pos

    def fail(self, message, offset=None):
        offset = self.pos if offset is None else offset
        raise IOFailure(f"{self.path}: {message} at offset {offset}") from None

    def skip(self, size: int, what: str) -> int:
        """Move the cursor past `size` bytes of `what`; return where they start."""
        start = self.pos
        if size > self.left:
            self.fail(f"truncated {what}: need {size} bytes, {self.left} left")
        self.pos = start + size
        return start

    def expect_end(self, what: str) -> None:
        """Reject any bytes left after `what`, the last item of the file."""
        if self.left:
            self.fail(f"{self.left} bytes after {what}")

    def header(self, magic: bytes, version: int, fmt: str) -> tuple:
        """Check the magic and that the u16 version is `version`, the only
        one read; return the rest of the header unpacked with `fmt`."""
        if self.raw[: len(magic)] != magic:
            self.fail(f"not an {magic.decode()} file", 0)
        self.pos = len(magic)
        (found,) = self.unpack("<H", "version")
        if found != version:
            self.fail(f"unsupported {magic.decode()} version {found}", len(magic))
        return self.unpack(fmt, "header")

    def unpack(self, fmt: str, what: str) -> tuple:
        start = self.skip(struct.calcsize(fmt), what)
        return struct.unpack_from(fmt, self.raw, start)

    def text(self, size: int, what: str) -> str:
        start = self.skip(size, what)
        try:
            return self.raw[start : self.pos].decode("utf-8")
        except UnicodeDecodeError:
            self.fail(f"{what} is not UTF-8", start)

    def array(self, dtype: str, shape, what: str) -> np.ndarray:
        """Read-only view of the file bytes as an array of `dtype`. It copies
        nothing and keeps all of the file's bytes alive while it lives."""
        count = math.prod(shape)
        start = self.skip(np.dtype(dtype).itemsize * count, what)
        flat = np.frombuffer(self.raw, dtype=dtype, count=count, offset=start)
        try:
            return flat.reshape(shape)
        except ValueError:  # an empty array whose other dims overflow
            self.fail(f"{what}: shape {tuple(shape)} too large", start)


@contextlib.contextmanager
def atomic_write(path):
    """Binary file handle whose content replaces `path` only when the block
    completes, after it has been flushed and synced to the disk; on any error
    the partial file is removed and `path` is left as it was."""
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
