import os
import struct
import wave
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import signal

from asckit.audio import (
    MIN_RATE,
    PIPELINE_RATE,
    SEGMENT_SAMPLES,
    AudioClip,
    _resample_filter,
    load_wav,
    resample_to_32k,
    save_wav,
    segment_10s,
)
from asckit.errors import IOFailure, ShapeMismatch
from byte_fuzz import (
    FUZZ,
    PCM_GUID,
    READERS,
    WAV_KINDS,
    assert_every_truncation_rejected,
    assert_flipped_bytes_read_or_rejected,
    flips,
    write_extensible_pcm24,
    write_float32,
    write_pcm16,
)


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
        with pytest.raises(IOFailure, match=r"bad\.wav: not a RIFF/WAVE file at offset 0"):
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
        with pytest.raises(IOFailure,
                           match=r"format 7/8-bit \(want PCM16, PCM24 or float32\) at offset 20"):
            load_wav(p)

    def test_empty_payload(self, tmp_path):
        p = tmp_path / "empty.wav"
        write_pcm16(p, np.zeros(0, dtype=np.int16), 32000)
        with pytest.raises(IOFailure, match=r"empty\.wav: empty data chunk at offset 44"):
            load_wav(p)

    @pytest.mark.parametrize("fmt,bits,payload", [(1, 16, b"\x01\x02\x03"),
                                                  (1, 24, b"\x00" * 5),
                                                  (3, 32, b"\x00" * 6)],
                             ids=["pcm16-3-bytes", "pcm24-5-bytes", "float32-6-bytes"])
    def test_partial_sample_payload(self, tmp_path, fmt, bits, payload):
        p = tmp_path / "partial.wav"
        hdr = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, fmt, 1, 32000, 32000 * bits // 8, bits // 8, bits,
            b"data", len(payload),
        )
        p.write_bytes(hdr + payload)
        with pytest.raises(IOFailure, match=r"partial\.wav: data chunk .* at offset 44"):
            load_wav(p)

    def test_partial_stereo_frame(self, tmp_path):
        p = tmp_path / "odd.wav"
        write_pcm16(p, np.zeros(5, dtype=np.int16), 32000, n_channels=2)
        with pytest.raises(IOFailure, match=r"odd\.wav: data chunk of 10 bytes is not a whole "
                                            r"number of 2-channel 16-bit frames at offset 44"):
            load_wav(p)

    def test_zero_sample_rate(self, tmp_path):
        p = tmp_path / "rate0.wav"
        write_pcm16(p, np.zeros(10, dtype=np.int16), 0)
        with pytest.raises(IOFailure,
                           match=r"rate0\.wav: sample rate 0 Hz below 8000 Hz at offset 24"):
            load_wav(p)

    @pytest.mark.parametrize("rate", [1, MIN_RATE - 1])
    def test_rate_below_floor_names_path_and_offset(self, tmp_path, rate):
        # a 1 Hz header would make resample_to_32k upsample 32000-fold
        p = tmp_path / "slow.wav"
        write_pcm16(p, np.zeros(10, dtype=np.int16), rate)
        with pytest.raises(IOFailure,
                           match=rf"slow\.wav: sample rate {rate} Hz below 8000 Hz at offset 24"):
            load_wav(p)

    def test_rate_at_floor_loads(self, tmp_path):
        p = tmp_path / "8k.wav"
        write_pcm16(p, np.full(10, 16384, dtype=np.int16), MIN_RATE)
        clip = load_wav(p)
        assert clip.sample_rate == 8000
        assert np.all(clip.samples == 0.5)

    @pytest.mark.parametrize("n_channels, extensible", [
        pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
        pytest.param(2, True, id="2-extensible")])
    def test_pcm24_scaled_by_2_to_the_minus_23(self, tmp_path, n_channels, extensible):
        # the encoding of the TAU Urban Acoustic Scenes recordings
        p = tmp_path / "pcm24.wav"
        ints = np.array([0, 1, -1, 2**23 - 1, -(2**23), 123456, -654321, 42], dtype="<i4")
        if extensible:
            write_extensible_pcm24(p, ints, 48000, n_channels)
        else:
            with wave.open(str(p), "wb") as fh:
                fh.setnchannels(n_channels)
                fh.setsampwidth(3)
                fh.setframerate(48000)
                fh.writeframes(b"".join(int(v).to_bytes(3, "little", signed=True)
                                        for v in ints))
        clip = load_wav(p)
        assert clip.sample_rate == 48000
        expected = ints.reshape(-1, n_channels).mean(axis=1) * 2.0**-23
        np.testing.assert_array_equal(clip.samples, expected)

    @pytest.mark.parametrize("guid, fmt_size, message", [
        (bytes(range(16)), 40, "unknown sub-format GUID 000102030405060708090a0b0c0d0e0f "
                               "at offset 44"),
        (PCM_GUID, 24, "extensible fmt chunk of 24 bytes, under 40 at offset 20"),
    ], ids=["unknown-guid", "short-fmt"])
    def test_extensible_without_a_known_sub_format_rejected(self, tmp_path, guid, fmt_size,
                                                            message):
        p = tmp_path / "ext.wav"
        write_extensible_pcm24(p, [1, -1], 48000, 2, guid=guid, fmt_size=fmt_size)
        with pytest.raises(IOFailure, match=rf"ext\.wav: {message}$"):
            load_wav(p)

    @pytest.mark.parametrize("fmt_size, n_channels, message", [
        (14, 1, "fmt chunk of 14 bytes, under 16 at offset 20"),
        (16, 0, "zero channels at offset 22"),
    ], ids=["short-fmt", "zero-channels"])
    def test_malformed_fmt_chunk_names_path_and_offset(self, tmp_path, fmt_size, n_channels,
                                                       message):
        # a 14-byte fmt chunk is the old WAVEFORMAT, which has no bits per sample
        p = tmp_path / "fmt.wav"
        fmt = struct.pack("<HHIIHH", 1, n_channels, 32000, 64000, 2, 16)[:fmt_size]
        body = (b"WAVE" + b"fmt " + struct.pack("<I", fmt_size) + fmt
                + b"data" + struct.pack("<I", 4) + bytes(4))
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(IOFailure, match=rf"fmt\.wav: {message}$"):
            load_wav(p)

    def test_odd_chunks_padded_except_at_the_end(self, tmp_path):
        # a 3-byte LIST chunk and its pad byte, then a 3-byte PCM24 data chunk
        # whose pad byte the writer left out
        p = tmp_path / "odd.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 24000, 3, 24)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
                + b"LIST" + struct.pack("<I", 3) + b"abc\x00"
                + b"data" + struct.pack("<I", 3) + (-2).to_bytes(3, "little", signed=True))
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert load_wav(p).samples.tolist() == [-2 * 2.0**-23]

    @pytest.mark.parametrize("second, offset", [("data", 244), ("fmt ", 244)])
    def test_second_fmt_or_data_chunk_names_path_and_offset(self, tmp_path, second, offset):
        # fmt at 12, 100 PCM16 samples at 36, then a second chunk at 244
        p = tmp_path / "twice.wav"
        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 32000, 64000, 2, 16)
        data = b"data" + struct.pack("<I", 200) + bytes(200)
        extra = {"data": b"data" + struct.pack("<I", 100) + bytes(100),
                 "fmt ": b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)}
        body = b"WAVE" + fmt + data + extra[second]
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(IOFailure,
                           match=rf"twice\.wav: second '{second}' chunk at offset {offset}$"):
            load_wav(p)

    def test_overrunning_chunk_names_path_and_offset(self, tmp_path):
        p = tmp_path / "cut.wav"
        write_pcm16(p, np.zeros(10, dtype=np.int16), 32000)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(IOFailure,
                           match=r"cut\.wav: truncated data chunk: need 20 bytes, 19 left "
                                 r"at offset 44"):
            load_wav(p)

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800001, 0xFF800000],
                             ids=["quiet-nan", "signalling-nan", "minus-inf"])
    def test_non_finite_sample_names_path_and_offset(self, tmp_path, bits):
        p = tmp_path / "nan.wav"
        x = np.array([0.5, 0.25, 0.0, 0.0], dtype="<f4")
        x.view("<u4")[2] = bits
        write_float32(p, x, 32000)
        with pytest.raises(IOFailure, match=r"nan\.wav: non-finite sample in frame 2 at offset 52"):
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

    def test_save_exact_bytes(self, tmp_path):
        p = tmp_path / "three.wav"
        save_wav(p, AudioClip(samples=[0.5, -1.5, 1.0], sample_rate=8000))
        assert p.read_bytes() == (
            b"RIFF" + struct.pack("<I", 42) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
            + b"data" + struct.pack("<I", 6) + struct.pack("<3h", 16384, -32767, 32767))

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
    """The shared truncation and byte-flip checks on each kind of WAV file."""

    @pytest.mark.parametrize("kind", WAV_KINDS)
    def test_every_truncation_rejected(self, tmp_path, kind):
        assert_every_truncation_rejected(tmp_path, READERS[kind])

    @FUZZ
    @given(flips=flips, kind=st.sampled_from(WAV_KINDS))
    def test_flipped_bytes_load_or_raise_naming_the_path(self, tmp_path, flips, kind):
        assert_flipped_bytes_read_or_rejected(tmp_path, READERS[kind], flips)


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
        # round(n * 32000 / rate) samples are kept of the ceil(n * up / down)
        # that resample_poly returns, never fewer: an awkward length at 44.1k,
        # the half-way cases 2.5 (rounded down to 2) and 3.5 (up to 4), and
        # one sample
        for n, rate, kept, made in [(12345, 44100, 8958, 8958), (5, 64000, 2, 3),
                                    (7, 64000, 4, 4), (1, 44100, 1, 1)]:
            clip = AudioClip(samples=np.ones(n), sample_rate=rate)
            g = gcd(rate, PIPELINE_RATE)
            assert signal.resample_poly(clip.samples, PIPELINE_RATE // g, rate // g).size == made
            assert resample_to_32k(clip).n_samples == kept == round(n * PIPELINE_RATE / rate)

    def test_whole_float_rate_stored_as_int(self):
        clip = AudioClip(samples=np.ones(22050), sample_rate=22050.0)
        assert type(clip.sample_rate) is int
        assert resample_to_32k(clip).n_samples == 32000

    @pytest.mark.parametrize("rate", [22050.5, float("nan"), float("inf"), "32000"])
    def test_non_integer_rate_rejected_naming_it(self, rate):
        with pytest.raises(ShapeMismatch, match=f"got {rate!r}"):
            AudioClip(samples=np.ones(100), sample_rate=rate)

    @pytest.mark.parametrize("rate", [1, MIN_RATE - 1])
    def test_rate_below_floor_rejected_before_any_filter(self, rate):
        # a 1 Hz clip would be upsampled 32000-fold
        misses = _resample_filter.cache_info().misses
        with pytest.raises(ShapeMismatch, match=rf"^sample rate {rate} Hz below 8000 Hz$"):
            resample_to_32k(AudioClip(samples=np.ones(100), sample_rate=rate))
        assert _resample_filter.cache_info().misses == misses

    def test_rate_at_floor_resamples(self):
        clip = AudioClip(samples=np.ones(800), sample_rate=MIN_RATE)
        assert resample_to_32k(clip).n_samples == 3200

    @pytest.mark.parametrize("samples, message", [
        (np.zeros(0), "clip must hold at least one mono sample"),
        (np.zeros((2, 50)), "clip must hold at least one mono sample"),
        (np.array([0.0, np.inf]), "clip contains non-finite samples"),
    ], ids=["empty", "stereo", "inf"])
    def test_bad_samples_rejected(self, samples, message):
        with pytest.raises(ShapeMismatch, match=f"^{message}$"):
            AudioClip(samples=samples, sample_rate=32000)

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
        with pytest.raises(ShapeMismatch, match=rf"clip of {SEGMENT_SAMPLES - 1} samples is "
                                                rf"shorter than one segment \({SEGMENT_SAMPLES}\)"):
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
