import os
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asckit.audio import (
    PIPELINE_RATE,
    SEGMENT_SAMPLES,
    AudioClip,
    load_wav,
    resample_to_32k,
    save_wav,
    segment_10s,
)
from asckit.errors import (
    AscKitError,
    ClipTooShort,
    EmptyAudio,
    MalformedHeader,
    ShapeMismatch,
    UnsupportedEncoding,
)
from byte_fuzz import FUZZ, flip, flips


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


class TestLoadWav:
    def test_full_scale_pcm16(self, tmp_path):
        p = tmp_path / "full.wav"
        write_pcm16(p, np.full(1600, 32767), 16000)
        clip = load_wav(p)
        assert clip.sample_rate == 16000
        assert clip.n_samples == 1600
        np.testing.assert_allclose(clip.samples, 32767 / 32768, rtol=0, atol=1e-12)

    def test_all_zero_payload(self, tmp_path):
        p = tmp_path / "zero.wav"
        write_pcm16(p, np.zeros(100, dtype=np.int16), 32000)
        assert np.all(load_wav(p).samples == 0.0)

    def test_stereo_symmetric_average(self, tmp_path):
        p = tmp_path / "st.wav"
        interleaved = np.empty(200, dtype=np.int16)
        interleaved[0::2] = 16384   # +0.5
        interleaved[1::2] = -16384  # -0.5
        write_pcm16(p, interleaved, 32000, n_channels=2)
        clip = load_wav(p)
        assert clip.n_samples == 100
        np.testing.assert_allclose(clip.samples, 0.0, atol=1e-12)

    def test_float32_roundtrip(self, tmp_path):
        p = tmp_path / "f32.wav"
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 500).astype(np.float32)
        write_float32(p, x, 32000)
        np.testing.assert_allclose(load_wav(p).samples, x.astype(np.float64), atol=1e-7)

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"NOTAWAVEFILE")
        with pytest.raises(MalformedHeader):
            load_wav(p)

    def test_unsupported_encoding(self, tmp_path):
        p = tmp_path / "ulaw.wav"
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + 4, b"WAVE",
            b"fmt ", 16, 7, 1, 8000, 8000, 1, 8,
            b"data", 4,
        )
        p.write_bytes(hdr + b"\x00" * 4)
        with pytest.raises(UnsupportedEncoding):
            load_wav(p)

    def test_empty_payload(self, tmp_path):
        p = tmp_path / "empty.wav"
        write_pcm16(p, np.zeros(0, dtype=np.int16), 32000)
        with pytest.raises(EmptyAudio):
            load_wav(p)

    @pytest.mark.parametrize("fmt,bits,payload", [(1, 16, b"\x01\x02\x03"),
                                                  (3, 32, b"\x00" * 6)],
                             ids=["pcm16-3-bytes", "float32-6-bytes"])
    def test_partial_sample_payload(self, tmp_path, fmt, bits, payload):
        p = tmp_path / "partial.wav"
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, fmt, 1, 32000, 32000 * bits // 8, bits // 8, bits,
            b"data", len(payload),
        )
        p.write_bytes(hdr + payload)
        with pytest.raises(MalformedHeader, match="partial.wav"):
            load_wav(p)

    def test_partial_stereo_frame(self, tmp_path):
        p = tmp_path / "odd.wav"
        write_pcm16(p, np.zeros(5, dtype=np.int16), 32000, n_channels=2)
        with pytest.raises(MalformedHeader, match="odd.wav"):
            load_wav(p)

    def test_zero_sample_rate(self, tmp_path):
        p = tmp_path / "rate0.wav"
        write_pcm16(p, np.zeros(10, dtype=np.int16), 0)
        with pytest.raises(MalformedHeader, match="rate0.wav"):
            load_wav(p)

    def test_overrunning_chunk_names_path_and_offset(self, tmp_path):
        p = tmp_path / "cut.wav"
        write_pcm16(p, np.zeros(10, dtype=np.int16), 32000)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(MalformedHeader,
                           match=r"cut\.wav: chunk b'data' at offset 36 declares 20 bytes, 19 left"):
            load_wav(p)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFF800000],
                             ids=["quiet-nan", "signalling-nan", "minus-inf"])
    def test_non_finite_sample_names_path_and_offset(self, tmp_path, bits):
        p = tmp_path / "nan.wav"
        x = np.array([0.5, 0.25, 0.0, 0.0], dtype="<f4")
        x.view("<u4")[2] = bits
        write_float32(p, x, 32000)
        with pytest.raises(EmptyAudio, match=r"nan\.wav: non-finite sample in frame 2 at offset 52"):
            load_wav(p)

    def test_save_load_roundtrip(self, tmp_path):
        p = tmp_path / "rt.wav"
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.9, 0.9, 3200)
        save_wav(p, AudioClip(samples=x, sample_rate=32000))
        back = load_wav(p)
        assert back.sample_rate == 32000
        # writer quantizes to round(x*32767), reader scales by 1/32768
        np.testing.assert_array_equal(back.samples, np.round(x * 32767) / 32768)

    def test_failed_save_keeps_earlier_file(self, tmp_path, monkeypatch):
        p = tmp_path / "keep.wav"
        save_wav(p, AudioClip(samples=np.full(100, 0.25), sample_rate=32000))
        raw = p.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_wav(p, AudioClip(samples=np.full(200, -0.5), sample_rate=16000))
        assert p.read_bytes() == raw
        assert [q.name for q in tmp_path.iterdir()] == [p.name]


class TestLoadWavFuzz:
    """A damaged file either loads as a finite clip or raises a toolkit
    error naming the file."""

    @staticmethod
    def _valid(tmp_path):
        p = tmp_path / "ok.wav"
        write_float32(p, np.linspace(-1.0, 1.0, 16), 32000)
        return p.read_bytes()

    @FUZZ
    @given(cut=st.integers(0, 10**6))
    def test_truncated_file_raises_naming_the_path(self, tmp_path, cut):
        raw = self._valid(tmp_path)
        bad = tmp_path / "cut.wav"
        bad.write_bytes(raw[: cut % len(raw)])
        with pytest.raises(AscKitError) as exc_info:
            load_wav(bad)
        assert str(bad) in str(exc_info.value)

    @FUZZ
    @given(flips=flips)
    def test_flipped_bytes_load_or_raise_naming_the_path(self, tmp_path, flips):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(flip(self._valid(tmp_path), flips))
        try:
            clip = load_wav(bad)
        except AscKitError as exc:
            assert str(bad) in str(exc), str(exc)
        else:
            assert clip.n_samples > 0 and np.all(np.isfinite(clip.samples))


class TestResample:
    def test_identity_at_32k(self):
        x = np.random.default_rng(1).normal(size=32000)
        clip = AudioClip(samples=x, sample_rate=32000)
        out = resample_to_32k(clip)
        assert out is clip  # bit-identical pass-through

    def test_length_48k_to_32k(self):
        clip = AudioClip(samples=np.zeros(480000) + 1e-9, sample_rate=48000)
        assert resample_to_32k(clip).n_samples == 320000

    def test_length_rounding(self):
        # 44.1k -> 32k on an awkward length: round(12345*32000/44100) = 8958
        clip = AudioClip(samples=np.ones(12345), sample_rate=44100)
        assert resample_to_32k(clip).n_samples == round(12345 * 32000 / 44100)

    def test_spectral_peak_preserved(self):
        # oracle: DFT peak location of the resampled tone
        sr_in, f0 = 16000, 1000.0
        t = np.arange(sr_in * 2) / sr_in
        clip = AudioClip(samples=np.sin(2 * np.pi * f0 * t), sample_rate=sr_in)
        out = resample_to_32k(clip)
        spec = np.abs(np.fft.rfft(out.samples))
        peak_hz = np.argmax(spec) * PIPELINE_RATE / out.n_samples
        bin_width = PIPELINE_RATE / out.n_samples
        assert abs(peak_hz - f0) <= bin_width

    def test_roundtrip_32_48_32_rms(self):
        # band-limited (<8 kHz) signal: length exact, RMS within 1%
        rng = np.random.default_rng(3)
        n = 64000
        spec = np.zeros(n // 2 + 1, dtype=complex)
        bins = slice(100, int(7000 * n / 32000))
        spec[bins] = rng.normal(size=bins.stop - bins.start) + 1j * rng.normal(
            size=bins.stop - bins.start
        )
        x = np.fft.irfft(spec, n)
        x /= np.abs(x).max()
        clip = AudioClip(samples=x, sample_rate=32000)
        up = AudioClip(
            samples=_resample_generic(clip.samples, 32000, 48000), sample_rate=48000
        )
        back = resample_to_32k(up)
        assert back.n_samples == n
        rms_in = np.sqrt(np.mean(x**2))
        rms_out = np.sqrt(np.mean(back.samples**2))
        assert abs(rms_out - rms_in) / rms_in < 0.01


def _resample_generic(x, sr_in, sr_out):
    """Forward leg of the round-trip test, via the same polyphase design."""
    from math import gcd

    from scipy import signal

    g = gcd(sr_in, sr_out)
    up, down = sr_out // g, sr_in // g
    h = signal.firwin(64 * up + 1, 1.0 / max(up, down), window=("kaiser", 8.6))
    y = signal.resample_poly(x, up, down, window=h)
    return y[: int(round(len(x) * sr_out / sr_in))]


class TestSegment:
    def test_exact_one_segment(self):
        x = np.random.default_rng(2).normal(size=SEGMENT_SAMPLES)
        segs = segment_10s(AudioClip(samples=x, sample_rate=32000))
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0].samples, x)

    def test_remainder_dropped(self):
        clip = AudioClip(samples=np.ones(650000), sample_rate=32000)
        segs = segment_10s(clip)
        assert len(segs) == 2
        assert all(s.n_samples == SEGMENT_SAMPLES for s in segs)

    def test_too_short(self):
        clip = AudioClip(samples=np.ones(SEGMENT_SAMPLES - 1), sample_rate=32000)
        with pytest.raises(ClipTooShort):
            segment_10s(clip)

    def test_wrong_rate_rejected_naming_both_rates(self):
        clip = AudioClip(samples=np.zeros(20 * 44100), sample_rate=44100)
        with pytest.raises(ShapeMismatch, match="expects 32000 Hz input, got 44100 Hz"):
            segment_10s(clip)

    def test_segments_are_disjoint_ordered_slices(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=SEGMENT_SAMPLES * 3 + 999)
        clip = AudioClip(samples=x, sample_rate=32000)
        segs = segment_10s(clip)
        assert len(segs) == 3
        rebuilt = np.concatenate([s.samples for s in segs])
        np.testing.assert_array_equal(rebuilt, x[: 3 * SEGMENT_SAMPLES])
