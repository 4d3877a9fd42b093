"""Audio ingestion: WAV loading, resampling to the pipeline rate, segmentation.

The whole pipeline operates on mono clips at PIPELINE_RATE (32 kHz) cut into
10-second segments (SEGMENT_SAMPLES samples).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import gcd

import numpy as np
from scipy import signal

from .container import atomic_write
from .errors import (
    ClipTooShort,
    EmptyAudio,
    MalformedHeader,
    ShapeMismatch,
    UnsupportedEncoding,
)

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
            raise EmptyAudio("clip must hold at least one mono sample")
        if not np.all(np.isfinite(self.samples)):
            raise EmptyAudio("clip contains non-finite samples")
        if self.sample_rate <= 0:
            raise MalformedHeader(f"non-positive sample rate {self.sample_rate}")

    @property
    def n_samples(self) -> int:
        return self.samples.size


def _read_chunks(path, raw: bytes):
    """Yield (chunk id, payload offset, payload) from a RIFF body."""
    pos = 12
    while pos + 8 <= len(raw):
        cid, size = struct.unpack_from("<4sI", raw, pos)
        if pos + 8 + size > len(raw):
            raise MalformedHeader(
                f"{path}: chunk {cid!r} at offset {pos} declares {size} bytes, "
                f"{len(raw) - pos - 8} left"
            )
        yield cid, pos + 8, raw[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def load_wav(path) -> AudioClip:
    """Load a RIFF/WAVE file as a mono clip scaled to [-1, 1].

    Accepts 16-bit PCM and 32-bit IEEE float encodings; multi-channel
    content is averaged down to mono.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    for cid, offset, payload in _read_chunks(path, raw):
        if cid == b"fmt ":
            if len(payload) < 16:
                raise MalformedHeader(f"{path}: truncated fmt chunk at offset {offset}")
            fmt = struct.unpack_from("<HHIIHH", payload, 0)
        elif cid == b"data":
            data_at, data = offset, payload
    if fmt is None or data is None:
        raise MalformedHeader(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise MalformedHeader(f"{path}: zero channels")
    if sample_rate <= 0:
        raise MalformedHeader(f"{path}: non-positive sample rate {sample_rate}")
    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise UnsupportedEncoding(
            f"{path}: format {audio_format}/{bits}-bit (want PCM16 or float32)"
        )
    frame = n_channels * bits // 8
    if len(data) % frame:
        raise MalformedHeader(
            f"{path}: data chunk of {len(data)} bytes is not a whole number of "
            f"{n_channels}-channel {bits}-bit frames"
        )
    if not data:
        raise EmptyAudio(f"{path}: empty data chunk")
    with np.errstate(invalid="ignore"):  # a signalling NaN is rejected below
        x = np.frombuffer(data, dtype=dtype).astype(np.float64) * scale
    if n_channels > 1:
        x = x.reshape(-1, n_channels).mean(axis=1)
    try:
        return AudioClip(samples=x, sample_rate=int(sample_rate))
    except EmptyAudio:  # a float32 payload holding inf or NaN
        bad = int(np.argmin(np.isfinite(x)))
        raise EmptyAudio(
            f"{path}: non-finite sample in frame {bad} at offset {data_at + bad * frame}"
        ) from None


def save_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit PCM mono."""
    x = np.clip(clip.samples, -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    hdr = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(pcm),
        b"WAVE",
        b"fmt ",
        16,
        1,
        1,
        clip.sample_rate,
        clip.sample_rate * 2,
        2,
        16,
        b"data",
        len(pcm),
    )
    with atomic_write(path) as fh:
        fh.write(hdr + pcm)


def resample_to_32k(clip: AudioClip) -> AudioClip:
    """Band-limited polyphase resampling to PIPELINE_RATE.

    Identity when the clip is already at 32 kHz; otherwise the output length
    is round(n * 32000 / rate_in).
    """
    if clip.sample_rate == PIPELINE_RATE:
        return clip
    g = gcd(clip.sample_rate, PIPELINE_RATE)
    up, down = PIPELINE_RATE // g, clip.sample_rate // g
    taps = _TAPS_PER_PHASE * up + 1
    h = signal.firwin(taps, 1.0 / max(up, down), window=("kaiser", _KAISER_BETA))
    y = signal.resample_poly(clip.samples, up, down, window=h)
    target = int(round(clip.n_samples * PIPELINE_RATE / clip.sample_rate))
    y = y[:target]
    if y.size < target:  # resample_poly yields ceil(n*up/down) >= round(...)
        y = np.pad(y, (0, target - y.size), mode="edge")
    return AudioClip(samples=y, sample_rate=PIPELINE_RATE)


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
        raise ClipTooShort(
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
