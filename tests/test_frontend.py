import tracemalloc

import numpy as np
import pytest
from scipy import signal

from asckit.audio import SEGMENT_SAMPLES, AudioClip
from asckit.errors import ConfigMismatch, ShapeMismatch
from asckit.frontend import (
    FRONTENDS,
    HOP,
    LOG_FLOOR,
    N_BANDS,
    TARGET_FRAMES,
    WINDOW,
    cqt,
    cqt_bank,
    delta,
    extract_frontend,
    gammatone,
    gammatone_bank,
    gammatone_blocks,
    hz_to_mel,
    log_mel,
    mel_bank,
    mel_to_hz,
    stack_3ch,
    stft_power,
)

SR = 32000


def tone(freq, seconds=10.0, amp=1.0, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestStft:
    def test_zero_signal_all_zero(self):
        out = stft_power(np.zeros(8192) + 0.0)
        assert np.all(out == 0.0)

    def test_single_frame_boundary(self):
        assert stft_power(np.ones(WINDOW)).shape == (1025, 1)
        assert stft_power(np.ones(WINDOW + HOP - 1)).shape == (1025, 1)
        assert stft_power(np.ones(WINDOW + HOP)).shape == (1025, 2)

    def test_native_frame_count_10s(self):
        out = stft_power(tone(440.0))
        assert out.shape == (1025, 311)

    def test_tone_peak_bin(self):
        # oracle: direct DFT of one Hann-windowed frame
        x = tone(1000.0, seconds=1.0)
        frame = x[:2048]
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(2048) / 2048)
        n = np.arange(2048)
        dft = np.array(
            [np.sum(frame * win * np.exp(-2j * np.pi * k * n / 2048)) for k in range(0, 128)]
        )
        oracle_bin = int(np.argmax(np.abs(dft)))
        assert oracle_bin == round(1000 * 2048 / 32000) == 64

        out = stft_power(x)
        peak_bins = np.argmax(out, axis=0)
        assert np.all(peak_bins == 64)


class TestMelBank:
    def test_single_band_peak_at_mel_midpoint(self):
        # oracle: closed-form mel / inverse-mel evaluation of each band's centre
        step = (hz_to_mel(16000.0) - hz_to_mel(0.0)) / (N_BANDS + 1)
        oracle_hz = mel_to_hz(hz_to_mel(0.0) + step * np.arange(1, N_BANDS + 1))
        mid_mel = (hz_to_mel(0.0) + hz_to_mel(16000.0)) / 2.0
        assert abs(mid_mel - 1787.46) < 0.01  # midpoint on the mel axis
        assert abs(float(mel_to_hz(mid_mel)) - 2719.06) < 0.01  # back on the Hz axis

        centers, weights = mel_bank()
        np.testing.assert_allclose(centers, oracle_hz, rtol=1e-12)
        bin_hz = np.arange(1025) * SR / 2048
        top_hz = bin_hz[np.argmax(weights, axis=1)]
        assert np.all(np.abs(top_hz - centers) <= SR / 2048)  # within one bin

    def test_adjacent_filters_share_edges(self):
        centers, _ = mel_bank()
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(16000.0), N_BANDS + 2))
        # upper edge of band b is the center of band b+1 by construction
        np.testing.assert_allclose(edges[2:-1], centers[1:], rtol=1e-12)

    def test_full_coverage_between_centers(self):
        centers, weights = mel_bank()
        bin_hz = np.arange(1025) * SR / 2048
        inside = (bin_hz >= centers[0]) & (bin_hz <= centers[-1])
        assert np.all(weights.sum(axis=0)[inside] > 0)

    @pytest.mark.parametrize("bank", [mel_bank, cqt_bank, gammatone_bank, gammatone_blocks])
    def test_cached_banks_are_read_only(self, bank):
        arrays = [a for item in bank() for a in (item if isinstance(item, tuple) else (item,))]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] *= 2

    def test_rows_nonneg_centers_increasing(self):
        centers, weights = mel_bank()
        assert np.all(weights >= 0)
        assert np.all(weights.sum(axis=1) > 0)  # every band row is nonzero
        for bank in (mel_bank, cqt_bank, gammatone_bank):
            centers, _ = bank()
            assert centers.shape == (N_BANDS,)
            assert np.all(np.diff(centers) > 0)


class TestLogMel:
    def test_zero_power_floor(self):
        out = log_mel(np.zeros((1025, 7)))
        np.testing.assert_allclose(out, 10 * np.log10(LOG_FLOOR))

    def test_doubling_adds_3db(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.5, 2.0, size=(1025, 5))
        np.testing.assert_allclose(log_mel(2 * p) - log_mel(p), 10 * np.log10(2), atol=1e-9)

    def test_white_frame_proportional_to_triangle_area(self):
        # oracle: explicit matrix product with a constant power vector
        _, weights = mel_bank()
        const = np.full((1025, 1), 3.7)
        oracle = 10 * np.log10(np.maximum(weights @ const, LOG_FLOOR))
        np.testing.assert_allclose(log_mel(const), oracle, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            log_mel(np.zeros((999, 4)))

    def test_filterbank_equals_matmul_on_random_frames(self):
        # dual-route invariant: implementation path vs naive per-band loop
        rng = np.random.default_rng(1)
        _, weights = mel_bank()
        p = rng.uniform(0.0, 4.0, size=(1025, 6))
        naive = np.empty((N_BANDS, 6))
        for b in range(N_BANDS):
            for t in range(6):
                naive[b, t] = np.dot(weights[b], p[:, t])
        oracle = 10 * np.log10(np.maximum(naive, LOG_FLOOR))
        np.testing.assert_allclose(log_mel(p), oracle, rtol=1e-6)


class TestCqt:
    def test_zero_signal_floor(self):
        np.testing.assert_allclose(cqt(np.zeros(320000) + 0.0), -100.0)

    def test_octave_doubling_exact(self):
        f, _ = cqt_bank()
        np.testing.assert_array_equal(f[24:] / f[:-24], 2.0)

    def test_tone_at_band10_argmax(self):
        # oracle: direct inner product with analytic complex sinusoid kernels
        freqs, _ = cqt_bank()
        f10 = freqs[10]
        x = tone(f10, seconds=2.0)
        q = 1.0 / (2 ** (1 / 24) - 1)

        def kernel_response(band, center):
            n_k = int(round(q * SR / freqs[band]))
            n = np.arange(n_k)
            win = 0.5 - 0.5 * np.cos(2 * np.pi * n / n_k)
            kern = win * np.exp(-2j * np.pi * freqs[band] * n / SR) / win.sum()
            start = center - n_k // 2
            seg = x[max(0, start) : start + n_k]
            if start < 0:
                seg = np.pad(seg, (-start, 0))
            return abs(np.dot(seg, kern))

        center = 20 * 1024 + 1024
        oracle_resp = np.array([kernel_response(b, center) for b in range(30)])
        assert int(np.argmax(oracle_resp)) == 10

        out = cqt(x)
        assert np.all(np.argmax(out[:, 5:-5], axis=0) == 10)

    def test_shape_10s(self):
        assert cqt(tone(200.0)).shape == (128, 311)

    def test_equals_float64_kernel_inner_products(self):
        # oracle: float64 inner product of every frame with each bin's analytic
        # kernel, whose sample n_k // 2 sits on the frame centre t*HOP + WINDOW//2
        freqs, _ = cqt_bank()
        q = 1.0 / (2 ** (1 / 24) - 1)
        x = np.random.default_rng(8).uniform(-0.5, 0.5, SEGMENT_SAMPLES)
        n_frames = (x.size - WINDOW) // HOP + 1
        lead = 20000  # longer than half the longest kernel
        padded = np.concatenate([np.zeros(lead), x, np.zeros(lead)])
        oracle = np.empty((N_BANDS, n_frames))
        for band, f in enumerate(freqs):
            n_k = int(round(q * SR / f))
            n = np.arange(n_k)
            win = 0.5 - 0.5 * np.cos(2 * np.pi * n / n_k)
            kern = win * np.exp(-2j * np.pi * f * n / SR) / win.sum()
            first = lead + WINDOW // 2 - n_k // 2
            frames = np.lib.stride_tricks.sliding_window_view(padded, n_k)[first::HOP][:n_frames]
            oracle[band] = np.hypot(frames @ kern.real, frames @ kern.imag)
        oracle = 10 * np.log10(oracle)
        out = cqt(x)
        assert out.shape == oracle.shape
        # float32 products: bins far below their frame's loudest keep its rounding
        near = oracle >= oracle.max(axis=0) - 60.0
        assert np.abs(out - oracle)[near].max() <= 5e-4


def sosfilt_energies_db(x):
    """Reference gammatone: each band's cascade through `signal.sosfilt`, then
    the mean square over each whole hop, log-compressed."""
    _, sos = gammatone_bank()
    n_frames = x.size // HOP
    usable = n_frames * HOP
    energies = np.empty((N_BANDS, n_frames))
    for band in range(N_BANDS):
        y = signal.sosfilt(sos[band].copy(), x)
        energies[band] = (y[:usable] ** 2).reshape(n_frames, HOP).mean(axis=1)
    return 10 * np.log10(np.maximum(energies, LOG_FLOOR))


class TestGammatone:
    @pytest.mark.parametrize("name", ["noise-10s", "tone-3s", "64777", "under-a-hop", "x1e3"])
    def test_equals_per_band_sosfilt(self, name):
        rng = np.random.default_rng(6)
        x = {
            "noise-10s": lambda: rng.uniform(-0.5, 0.5, SEGMENT_SAMPLES),
            "tone-3s": lambda: tone(gammatone_bank()[0][64], seconds=3.0),
            "64777": lambda: rng.normal(scale=0.1, size=64000 + 777),
            "under-a-hop": lambda: rng.normal(size=HOP - 1),
            "x1e3": lambda: 1e3 * rng.normal(scale=0.1, size=64000),
        }[name]()
        out = gammatone(x)
        oracle = sosfilt_energies_db(x)
        assert out.shape == oracle.shape == (N_BANDS, x.size // HOP)
        # 1e-8 dB on every hop within 90 dB of its band's loudest. The tone's
        # onset rings the lowest bands up to 94 dB; hops that have decayed
        # 130-190 dB below that keep the float64 rounding of the onset, where
        # sosfilt itself is 1.4e-5 dB from a long-double cascade. There the
        # RMS amplitudes agree to 1e-11 of the band's loudest.
        loudest = oracle.max(axis=1, keepdims=True, initial=-np.inf)
        near = oracle >= loudest - 90.0
        assert np.abs(out - oracle)[near].max(initial=0.0) <= 1e-8
        rms_gap = np.abs(10 ** (out / 20) - 10 ** (oracle / 20))
        assert np.all(rms_gap <= 1e-11 * 10 ** (loudest / 20))

    def test_block_maps_reproduce_sosfilt(self):
        _, sos = gammatone_bank()
        w, m, k, m_hop, k_hop = gammatone_blocks()
        block = w.shape[2]
        rng = np.random.default_rng(7)
        x = rng.normal(size=block)
        for band in (0, 64, N_BANDS - 1):
            zi = rng.normal(size=(4, 2))
            y, zf = signal.sosfilt(sos[band].copy(), x, zi=zi)
            z = zi.reshape(-1)
            np.testing.assert_allclose(np.concatenate([x, z]) @ w[band], y, rtol=1e-12)
            np.testing.assert_allclose(m[band] @ z + k[band] @ x, zf.reshape(-1), rtol=1e-12)

        # Over one hop, the hop maps give sosfilt's final state, and the block
        # maps, stepped from the hop's entry state as `gammatone` steps them,
        # its outputs. Gaps are relative to the largest value. Band 0's states
        # run about 100x above its outputs (its centre gain is 1e7), so after
        # 31 block steps its outputs keep up to 3e-12 of the largest; bands 64
        # and 127 keep 1e-14.
        x = rng.normal(size=HOP)
        for band in (0, 64, N_BANDS - 1):
            zi = rng.normal(size=(4, 2))
            y, zf = signal.sosfilt(sos[band].copy(), x, zi=zi)
            z = zi.reshape(-1)
            gap = np.abs(m_hop[band] @ z + k_hop[band] @ x - zf.reshape(-1))
            assert gap.max() <= 1e-12 * np.abs(zf).max()
            outputs = []
            for xb in x.reshape(-1, block):
                outputs.append(np.concatenate([xb, z]) @ w[band])
                z = m[band] @ z + k[band] @ xb
            assert np.abs(np.concatenate(outputs) - y).max() <= 1e-11 * np.abs(y).max()

    def test_zero_signal_floor(self):
        np.testing.assert_allclose(gammatone(np.zeros(64000) + 0.0), -100.0)

    def test_erb_centers_range(self):
        cf, _ = gammatone_bank()
        assert np.all(np.diff(cf) > 0)
        assert abs(cf[0] - 50.0) < 1e-6
        assert abs(cf[-1] - 16000.0) < 1e-6

    def test_tone_at_band64_argmax(self):
        cf, sos = gammatone_bank()
        f64 = cf[64]
        # oracle: per-band frequency response evaluated at the tone frequency
        w = 2 * np.pi * f64 / SR
        resp = np.array(
            [np.abs(signal.sosfreqz(sos[b], worN=[w])[1][0]) for b in range(N_BANDS)]
        )
        assert int(np.argmax(resp)) == 64

        out = gammatone(tone(f64, seconds=3.0))
        interior = out[:, 10:-2]
        assert np.all(np.argmax(interior, axis=0) == 64)

    def test_shape_10s(self):
        assert gammatone(tone(500.0)).shape == (128, 312)


@pytest.mark.parametrize("n,windows", [(1000, 0), (2047, 0), (2048, 1)])
def test_short_input_gives_every_stage_its_frame_count(n, windows):
    # stft and cqt frames need WINDOW samples; gammatone hops need HOP
    x = np.random.default_rng(10).normal(size=n)
    assert stft_power(x).shape == (WINDOW // 2 + 1, windows)
    assert cqt(x).shape == (N_BANDS, windows)
    assert gammatone(x).shape == (N_BANDS, n // HOP)


@pytest.mark.parametrize("stage", [cqt, gammatone])
def test_stage_makes_no_segment_sized_copy(stage):
    # the working arrays are a few MB; a copy of every CQT frame is 41.5 MB
    x = np.random.default_rng(11).uniform(-0.5, 0.5, SEGMENT_SAMPLES)
    stage(x)  # build the cached banks first
    tracemalloc.start()
    try:
        stage(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


class TestDelta:
    def test_constant_input_zero(self):
        np.testing.assert_allclose(delta(np.full((4, 20), 3.3)), 0.0, atol=1e-12)

    def test_linear_ramp_unit_slope(self):
        ramp = np.tile(np.arange(30, dtype=float), (5, 1))
        np.testing.assert_allclose(delta(ramp)[:, 4:-4], 1.0, atol=1e-12)

    def test_delta_delta_quadratic(self):
        # oracle: direct evaluation of the +-4 regression formula
        t = np.arange(40, dtype=float)
        x = t**2

        def reg(seq):
            k = np.arange(1, 5)
            pad = np.pad(seq, (4, 4), mode="edge")
            return np.array(
                [np.sum(k * (pad[i + 4 + k] - pad[i + 4 - k])) / 60.0
                 for i in range(len(seq))]
            )

        oracle = reg(reg(x))
        np.testing.assert_allclose(oracle[8:-8], 2.0, atol=1e-9)

        out = delta(delta(np.tile(x, (3, 1))))
        np.testing.assert_allclose(out, np.tile(oracle, (3, 1)), atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 25))
        y = rng.normal(size=(8, 25))
        a, b = 2.5, -1.25
        np.testing.assert_allclose(delta(a * x + b * y), a * delta(x) + b * delta(y),
                                   rtol=1e-6, atol=1e-9)


class TestStack:
    def test_stack_305_identity_channel0(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(128, 305))
        out = stack_3ch(x)
        assert out.shape == (128, 305, 3)
        np.testing.assert_array_equal(out[:, :, 0], x)

    def test_constant_input_zero_deltas(self):
        out = stack_3ch(np.full((128, 305), 7.0))
        np.testing.assert_allclose(out[:, :, 1:], 0.0, atol=1e-12)

    def test_center_crop_311(self):
        x = np.tile(np.arange(311, dtype=float), (128, 1))
        out = stack_3ch(x)
        assert out.shape == (128, 305, 3)
        # drops 3 leading and 3 trailing frames
        np.testing.assert_array_equal(out[:, :, 0], x[:, 3:-3])

    def test_fewer_frames_than_target_rejected(self):
        with pytest.raises(ShapeMismatch, match=f"at least {TARGET_FRAMES} frames, got 300"):
            stack_3ch(np.zeros((128, 300)))


class TestFrontendProperties:
    @pytest.mark.parametrize("name", ["logmel", "cqt", "gam"])
    def test_all_frontends_same_shape(self, name):
        rng = np.random.default_rng(4)
        clip = AudioClip(samples=rng.uniform(-0.5, 0.5, 320000), sample_rate=SR)
        out = extract_frontend(clip, name)
        assert out.data.shape == (128, TARGET_FRAMES, 3)

    @pytest.mark.parametrize("seconds,rate", [(10, 44100), (10, 8000), (1, SR), (11, SR)])
    def test_rejects_anything_but_one_segment(self, seconds, rate):
        clip = AudioClip(samples=np.full(seconds * rate, 0.1), sample_rate=rate)
        for name in ("logmel", "cqt", "gam"):
            with pytest.raises(ShapeMismatch, match=rf"{SEGMENT_SAMPLES}.*{SR} Hz.*"
                               rf"{seconds * rate} samples at {rate} Hz"):
                extract_frontend(clip, name)

    @pytest.mark.parametrize("name", FRONTENDS)
    def test_overflowing_segment_rejected(self, name):
        # 1e160 squared is past float64's range, and cqt casts to float32
        clip = AudioClip(samples=tone(50.0, amp=1e160), sample_rate=SR)
        with pytest.raises(ShapeMismatch, match=f"^{name} features contain non-finite values$"):
            extract_frontend(clip, name)

    def test_unknown_frontend_rejected(self):
        clip = AudioClip(samples=np.full(SEGMENT_SAMPLES, 0.1), sample_rate=SR)
        with pytest.raises(ConfigMismatch, match="'mfcc'.*'logmel', 'cqt', 'gam'"):
            extract_frontend(clip, "mfcc")

    def test_log_monotone(self):
        rng = np.random.default_rng(5)
        p1 = rng.uniform(0.0, 1.0, size=(1025, 4))
        p2 = p1 + rng.uniform(0.0, 1.0, size=(1025, 4))
        assert np.all(log_mel(p2) >= log_mel(p1) - 1e-12)
