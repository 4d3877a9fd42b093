"""Audio ingestion: WAV loading, resampling to the pipeline rate, segmentation.

The whole pipeline operates on mono clips at PIPELINE_RATE (32 kHz) cut into
10-second segments (SEGMENT_SAMPLES samples).
"""

from __future__ import annotations

import numbers
import wave
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np
from scipy import signal

from .container import Reader, atomic_write
from .errors import ShapeMismatch

PIPELINE_RATE = 32000
SEGMENT_SECONDS = 10
SEGMENT_SAMPLES = PIPELINE_RATE * SEGMENT_SECONDS

# Polyphase anti-alias filter: windowed sinc, 64 taps per phase.
_KAISER_BETA = 8.6
_TAPS_PER_PHASE = 64


@dataclass
class AudioClip:
    """Mono audio clip."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ShapeMismatch("clip must hold at least one mono sample")
        if not np.all(np.isfinite(self.samples)):
            raise ShapeMismatch("clip contains non-finite samples")
        rate = self.sample_rate
        if not (isinstance(rate, numbers.Real) and float(rate).is_integer() and rate > 0):
            raise ShapeMismatch(f"sample rate must be a positive whole number, got {rate!r}")
        self.sample_rate = int(rate)

    @property
    def n_samples(self) -> int:
        return self.samples.size


# (format tag, bits per sample) -> (sample dtype, scale to [-1, 1]); a 24-bit
# sample is widened into the top three bytes of an int32
_ENCODINGS = {(1, 16): ("<i2", 2.0**-15), (1, 24): ("<i4", 2.0**-31), (3, 32): ("<f4", 1.0)}
# WAVE_FORMAT_EXTENSIBLE keeps the encoding in a sub-format GUID at byte 24 of
# its fmt chunk; the GUIDs of PCM and IEEE float, as stored, map to tags 1 and 3
_EXTENSIBLE = 0xFFFE
_SUB_FORMATS = {bytes.fromhex("0100000000001000800000aa00389b71"): 1,
                bytes.fromhex("0300000000001000800000aa00389b71"): 3}
# from 8 kHz, resampling to PIPELINE_RATE at most quadruples a clip
MIN_RATE = 8000


def load_wav(path) -> AudioClip:
    """Load a RIFF/WAVE file as a mono clip scaled to [-1, 1].

    Accepts 16-bit and 24-bit PCM and 32-bit IEEE float at MIN_RATE or
    above, also as WAVE_FORMAT_EXTENSIBLE; multi-channel content is averaged
    down to mono. A file that is truncated, malformed, in another encoding,
    or holds no samples or a non-finite one, or a second fmt or data chunk,
    raises IOFailure naming the path and the offset.
    """
    rd = Reader(path)
    riff, _, form = rd.unpack("<4sI4s", "RIFF header")
    if riff != b"RIFF" or form != b"WAVE":
        rd.fail("not a RIFF/WAVE file", 0)
    fmt = data = None
    while rd.left:
        start = rd.pos
        cid, size = rd.unpack("<4sI", "chunk header")
        if (cid == b"fmt " and fmt is not None) or (cid == b"data" and data is not None):
            rd.fail(f"second {cid.decode()!r} chunk", start)
        if cid == b"fmt ":
            if size < 16:
                rd.fail(f"fmt chunk of {size} bytes, under 16")
            fmt_at, fmt = rd.pos, rd.unpack("<HHIIHH", "fmt chunk")
            if fmt[0] == _EXTENSIBLE:
                if size < 40:
                    rd.fail(f"extensible fmt chunk of {size} bytes, under 40", fmt_at)
                (guid,) = rd.unpack("<8x16s", "extensible fmt chunk")
                if guid not in _SUB_FORMATS:
                    rd.fail(f"unknown sub-format GUID {guid.hex()}", rd.pos - 16)
                fmt = (_SUB_FORMATS[guid],) + fmt[1:]
            rd.skip(fmt_at + size - rd.pos, "fmt chunk")
        elif cid == b"data":
            data_at, data = rd.pos, rd.array("u1", (size,), "data chunk")
        else:
            rd.skip(size, f"{cid!r} chunk")
        if size & 1 and rd.left:  # word-aligned; some writers drop the last pad byte
            rd.skip(1, "pad byte")
    if fmt is None or data is None:
        rd.fail("missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        rd.fail("zero channels", fmt_at + 2)
    if sample_rate < MIN_RATE:
        rd.fail(f"sample rate {sample_rate} Hz below {MIN_RATE} Hz", fmt_at + 4)
    if (audio_format, bits) not in _ENCODINGS:
        rd.fail(f"format {audio_format}/{bits}-bit (want PCM16, PCM24 or float32)", fmt_at)
    dtype, scale = _ENCODINGS[audio_format, bits]
    frame = n_channels * bits // 8
    if data.size % frame:
        rd.fail(f"data chunk of {data.size} bytes is not a whole number of "
                f"{n_channels}-channel {bits}-bit frames", data_at)
    if not data.size:
        rd.fail("empty data chunk", data_at)
    if bits == 24:
        wide = np.zeros((data.size // 3, 4), np.uint8)
        wide[:, 1:] = data.reshape(-1, 3)
        data = wide.reshape(-1)
    with np.errstate(invalid="ignore"):  # a signalling NaN is rejected below
        x = data.view(dtype).astype(np.float64) * scale
    if n_channels > 1:
        x = x.reshape(-1, n_channels).mean(axis=1)
    try:
        return AudioClip(samples=x, sample_rate=sample_rate)
    except ShapeMismatch:  # a float32 payload holding inf or NaN
        bad = int(np.argmin(np.isfinite(x)))
        rd.fail(f"non-finite sample in frame {bad}", data_at + bad * frame)


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM mono."""
    x = np.clip(clip.samples, -1.0, 1.0)
    with atomic_write(path) as fh, wave.open(fh, "wb") as out:
        out.setparams((1, 2, clip.sample_rate, clip.n_samples, "NONE", "not compressed"))
        out.writeframes(np.round(x * 32767.0).astype("<i2").tobytes())


@lru_cache(maxsize=4)  # a dataset has one or a few input rates
def _resample_filter(up: int, down: int) -> np.ndarray:
    """Read-only Kaiser-windowed sinc low-pass for resampling by up/down."""
    taps = _TAPS_PER_PHASE * up + 1
    h = signal.firwin(taps, 1.0 / max(up, down), window=("kaiser", _KAISER_BETA))
    h.flags.writeable = False
    return h


def resample_to_32k(clip: AudioClip) -> AudioClip:
    """Band-limited polyphase resampling to PIPELINE_RATE.

    Identity when the clip is already at 32 kHz; otherwise the output length
    is round(n * 32000 / rate_in). A clip below MIN_RATE raises ShapeMismatch.
    """
    if clip.sample_rate < MIN_RATE:
        raise ShapeMismatch(f"sample rate {clip.sample_rate} Hz below {MIN_RATE} Hz")
    if clip.sample_rate == PIPELINE_RATE:
        return clip
    g = gcd(clip.sample_rate, PIPELINE_RATE)
    up, down = PIPELINE_RATE // g, clip.sample_rate // g
    y = signal.resample_poly(clip.samples, up, down, window=_resample_filter(up, down))
    # resample_poly gives ceil(n * up / down) samples, never fewer than this
    target = int(round(clip.n_samples * PIPELINE_RATE / clip.sample_rate))
    return AudioClip(samples=y[:target], sample_rate=PIPELINE_RATE)


def segment_10s(clip: AudioClip) -> list[AudioClip]:
    """Cut a 32 kHz clip into consecutive non-overlapping 10 s segments.

    The trailing remainder shorter than a full segment is dropped.
    """
    if clip.sample_rate != PIPELINE_RATE:
        raise ShapeMismatch(
            f"segmentation expects {PIPELINE_RATE} Hz input, got {clip.sample_rate} Hz"
        )
    n_seg = clip.n_samples // SEGMENT_SAMPLES
    if n_seg == 0:
        raise ShapeMismatch(
            f"clip of {clip.n_samples} samples is shorter than one segment "
            f"({SEGMENT_SAMPLES})"
        )
    return [
        AudioClip(
            samples=clip.samples[i * SEGMENT_SAMPLES : (i + 1) * SEGMENT_SAMPLES].copy(),
            sample_rate=PIPELINE_RATE,
        )
        for i in range(n_seg)
    ]
