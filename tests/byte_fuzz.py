"""The file-reader tests' shared harness: a valid file of each reader, byte
damage, and the truncation and byte-flip checks that every reader must pass.

`READERS` is the one table of (valid file, reader, check on success). Each
reader's test class runs `assert_every_truncation_rejected` and
`assert_flipped_bytes_read_or_rejected` on its rows."""

import re
import struct
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from asckit import models
from asckit import tensor as T
from asckit.audio import load_wav
from asckit.cache import read_cache, write_cache
from asckit.errors import IOFailure

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# up to four (position, xor mask) pairs; a position wraps around the file
flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4)


def flip(raw, flips):
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


def assert_names_path_and_offset(exc_info, path):
    message = str(exc_info.value)
    assert str(path) in message
    assert re.search(r"at offset \d+", message), message


# ---------------------------------------------------------------------------
# valid files


class Holder(models.Module):
    """A module of the given parameters, then the given buffers, which are
    saved as `<name>.<attribute>`."""

    def __init__(self, params=(), name="", **buffers):
        self.entries = list(params)
        self.name = name
        vars(self).update(buffers)


def three_entries():
    """The byte-level weight tests' module: a float32 kernel, a 0-d float32
    parameter and a float64 buffer. Its file is 133 bytes."""
    return Holder([T.Parameter(np.arange(12, dtype=np.float32).reshape(2, 3, 2), "conv.w"),
                   T.Parameter(np.array(7.5, np.float32), "scalar")],
                  name="bn", running_mean=np.array([0.1, -1.0]))


def entry_offset(raw, name):
    """Where the entry called `name` starts in an ASCW file's bytes."""
    return raw.index(struct.pack("<H", len(name)) + name.encode())


def load_three_entries(path):
    model = three_entries()
    model.load(path)
    return model


def check_three_entries(model):
    expected = three_entries().state_dict()
    for name, value in model.state_dict().items():
        assert value.shape == expected[name].shape and value.dtype == expected[name].dtype
        assert np.isfinite(value).all(), name


RECORDS = [
    (np.full((2, 3, 1), 1.5, np.float32), 3, "A"),
    (np.arange(6, dtype=np.float32).reshape(2, 3, 1), 0, ""),
    (np.full((2, 3, 1), -2.0, np.float32), 255, "Gerät-s1"),
]


def write_pcm16(path, samples_i16, rate, n_channels=1):
    data = np.asarray(samples_i16, dtype="<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 1, n_channels, rate, rate * 2 * n_channels, 2 * n_channels, 16,
        b"data", len(data),
    )
    path.write_bytes(hdr + data)


def write_float32(path, samples, rate):
    data = np.asarray(samples, dtype="<f4").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 3, 1, rate, rate * 4, 4, 32,
        b"data", len(data),
    )
    path.write_bytes(hdr + data)


PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


def write_extensible_pcm24(path, samples_i24, rate, n_channels, guid=PCM_GUID, fmt_size=40):
    """WAVE_FORMAT_EXTENSIBLE 24-bit samples, as written for PCM above 16 bits;
    a `fmt_size` under 40 cuts the fmt chunk there."""
    data = b"".join(int(v).to_bytes(3, "little", signed=True) for v in samples_i24)
    fmt = struct.pack("<HHIIHHHHI16s", 0xFFFE, n_channels, rate, rate * 3 * n_channels,
                      3 * n_channels, 24, 22, 24, 3, guid)[:fmt_size]
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _check_cache(back):
    assert back.features.shape[0] == len(back.labels) == len(back.devices)


def _check_clip(clip):
    assert clip.n_samples > 0 and np.all(np.isfinite(clip.samples))


# ---------------------------------------------------------------------------
# the harness


class Row(NamedTuple):
    write: Callable  # writes a valid file at the path it is given
    read: Callable  # reads a path; raises IOFailure for a damaged file
    check: Callable  # asserts on what a damaged file was read as


READERS = {
    "ascw": Row(lambda p: three_entries().save(p), load_three_entries, check_three_entries),
    "ascf": Row(lambda p: write_cache(p, "gam", RECORDS), read_cache, _check_cache),
    "float32-mono": Row(lambda p: write_float32(p, np.linspace(-1.0, 1.0, 16), 32000),
                        load_wav, _check_clip),
    "pcm16-stereo": Row(lambda p: write_pcm16(p, np.arange(-16, 16), 32000, n_channels=2),
                        load_wav, _check_clip),
    "extensible-pcm24-stereo": Row(lambda p: write_extensible_pcm24(
        p, np.arange(-8, 8) * 4099, 48000, n_channels=2), load_wav, _check_clip),
}
WAV_KINDS = sorted(k for k, row in READERS.items() if row.read is load_wav)


def valid_bytes(tmp_path, row):
    path = tmp_path / "valid"
    row.write(path)
    return path.read_bytes()


def assert_every_truncation_rejected(tmp_path, row):
    raw = valid_bytes(tmp_path, row)
    cut = tmp_path / "cut"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        with pytest.raises(IOFailure) as exc_info:
            row.read(cut)
        assert_names_path_and_offset(exc_info, cut)


def assert_flipped_bytes_read_or_rejected(tmp_path, row, flips):
    """A damaged file either reads as something `row.check` accepts or
    raises IOFailure naming the file and an offset."""
    bad = tmp_path / "bad"
    bad.write_bytes(flip(valid_bytes(tmp_path, row), flips))
    try:
        value = row.read(bad)
    except IOFailure as exc:
        assert str(bad) in str(exc) and re.search(r"at offset \d+", str(exc)), str(exc)
    else:
        row.check(value)
