"""Spectrogram front-ends: log-mel, constant-Q, and gammatone features.

Input contract: `extract_frontend` takes exactly one 10 s segment at 32 kHz
(SEGMENT_SAMPLES samples at PIPELINE_RATE, as `audio.segment_10s` cuts
them) and is the only function here that checks the clip. The stages
below it are fixed functions of such a segment on plain float64 arrays;
none of them takes a tuning parameter.

Each front-end turns the segment into a 128-band log spectrogram,
10*log10(max(value, 1e-10)) with a -100 dB floor. With window WINDOW = 2048
and hop HOP = 1024, log-mel and CQT have 311 native frames and gammatone
(energy per hop) has 312. `stack_3ch` adds delta and delta-delta channels
and centre-crops the time axis to TARGET_FRAMES = 305: 128 x 305 x 3.

CQT analyses each frame with one kernel slab per octave of
CQT_BINS_PER_OCTAVE bins: the fewest whole rows of HOP samples that hold
that octave's longest kernel (`cqt_bank`). Frame centres are HOP apart, so
each frame's slab starts on a row of one [rows, HOP] view of the signal and
no frame is copied. The magnitudes are within 3e-4 dB of float64 inner
products with each bin's kernel (see `cqt`).

Gammatone filters all 128 bands together, one block of _GAM_BLOCK = 32
samples at a time: each band's four-biquad cascade is an exact linear map
from a block's samples and the cascade's 8-value state to the block's
outputs (40 multiply-adds per output sample) and the next state
(`gammatone_blocks`). The state entering each hop comes from exact per-hop
maps, and the states inside a hop from the block maps, so no state passes
through more than one hop of block steps. The result equals the per-band
`sosfilt` cascade to float64 rounding (see `gammatone`).

The cached filter banks are read-only arrays, so no caller can change the
features every later extraction gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal

from .audio import PIPELINE_RATE, SEGMENT_SAMPLES, AudioClip
from .errors import ConfigMismatch, ShapeMismatch

WINDOW = 2048
HOP = 1024
N_BANDS = 128
TARGET_FRAMES = 305
LOG_FLOOR = 1e-10  # 10*log10(floor) = -100 dB
DELTA_WIDTH = 9
CQT_FMIN = 32.7
CQT_BINS_PER_OCTAVE = 24
GAM_FMIN = 50.0
GAM_FMAX = 16000.0
# Gammatone is filtered in blocks of _GAM_BLOCK samples, _GAM_CHUNK hops at
# a time. A hop is whole blocks; a chunk keeps the working set at a few MB.
_GAM_BLOCK = 32
_GAM_CHUNK = 16


@dataclass
class SpectrogramTensor:
    """`extract_frontend`'s result: data [N_BANDS, TARGET_FRAMES, 3]
    (frequency, time, channel)."""

    data: np.ndarray


def _read_only(*arrays: np.ndarray) -> tuple:
    """The arrays, marked read-only: a cached bank is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _log_compress(values: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(np.maximum(values, LOG_FLOOR))


def stft_power(x: np.ndarray) -> np.ndarray:
    """Hann-window power STFT; output [WINDOW//2+1, T].

    Frame t covers samples [t*HOP, t*HOP + WINDOW), so there are
    floor((n - WINDOW)/HOP) + 1 frames, and none below WINDOW samples.
    """
    if x.size < WINDOW:
        return np.zeros((WINDOW // 2 + 1, 0))
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    spec = np.fft.rfft(frames * signal.get_window("hann", WINDOW), axis=1)
    return (spec.real**2 + spec.imag**2).T


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_bank():
    """(centres in Hz, weights [N_BANDS, WINDOW//2+1]): triangular filters
    with centres uniform on the mel scale over [0, Nyquist].

    Each triangle is area-normalized by 2/(upper_edge - lower_edge) so white
    input yields roughly flat band energies.
    """
    edges_hz = mel_to_hz(
        np.linspace(hz_to_mel(0.0), hz_to_mel(PIPELINE_RATE / 2), N_BANDS + 2)
    )
    bin_hz = np.arange(WINDOW // 2 + 1) * PIPELINE_RATE / WINDOW
    # band b's lower, centre and upper edges, as [N_BANDS, 1] columns
    lower, center, upper = (edges_hz[i : i + N_BANDS, None] for i in range(3))
    up = (bin_hz - lower) / (center - lower)
    down = (upper - bin_hz) / (upper - center)
    weights = np.maximum(0.0, np.minimum(up, down)) * (2.0 / (upper - lower))
    return _read_only(edges_hz[1:-1], weights)


def log_mel(power: np.ndarray) -> np.ndarray:
    """Mel band energies of a power spectrogram, log-compressed."""
    _, weights = mel_bank()
    if power.shape[0] != weights.shape[1]:
        raise ShapeMismatch(
            f"bank has {weights.shape[1]} bins, spectrogram has {power.shape[0]}"
        )
    return _log_compress(weights @ power)


@lru_cache(maxsize=1)
def cqt_bank():
    """(centres in Hz, slabs): one float32 kernel slab [HOP, q, n, 2] per
    octave of n = CQT_BINS_PER_OCTAVE bins (the last holds the 8 left over);
    the last axis is real and imaginary.

    Centres are CQT_FMIN * 2^(k/CQT_BINS_PER_OCTAVE), split into octave and
    fractional factors so f[k+bpo]/f[k] == 2 exactly. Bin k's kernel is a
    Hann-windowed complex sinusoid of length n_k = round(Q*sr/f_k),
    Q = 1/(2^(1/bpo)-1), normalized to unit window sum, whose sample n_k//2
    sits on the frame centre. An octave's slab is the q = ceil(n/HOP) rows
    of HOP samples that hold its longest kernel, n = 33397 down to 1044
    samples (q = 33 down to 2), centred on the frame centre; as
    [HOP, q*n*2] it is one GEMM operand. The six slabs hold 13.3 MB.

    Each slab is filled in place, one bin at a time, from a one-bin kernel
    buffer. A slab-sized temporary freed here, early in a process, leaves a
    hole that later long-lived arrays split in some processes and not in
    others; where they split it, later multi-MB allocations page-fault.
    """
    k = np.arange(N_BANDS)
    frac = np.exp2((k % CQT_BINS_PER_OCTAVE) / CQT_BINS_PER_OCTAVE)
    freqs = CQT_FMIN * np.exp2(k // CQT_BINS_PER_OCTAVE) * frac
    q = 1.0 / (2.0 ** (1.0 / CQT_BINS_PER_OCTAVE) - 1.0)
    lengths = np.round(q * PIPELINE_RATE / freqs).astype(int)
    slabs = []
    for first in range(0, N_BANDS, CQT_BINS_PER_OCTAVE):
        bins = range(first, min(first + CQT_BINS_PER_OCTAVE, N_BANDS))
        n_rows = -(-lengths[first] // HOP)
        slab = np.empty((HOP, n_rows, len(bins), 2), dtype=np.float32)
        kernel = np.empty(n_rows * HOP, dtype=np.complex128)
        for i, b in enumerate(bins):
            n_k = lengths[b]
            start = n_rows * HOP // 2 - n_k // 2
            win = signal.get_window("hann", n_k)
            phase = np.exp(-2j * np.pi * freqs[b] * np.arange(n_k) / PIPELINE_RATE)
            kernel[:] = 0.0
            kernel[start : start + n_k] = win * phase / win.sum()
            rows = kernel.reshape(n_rows, HOP).T
            slab[:, :, i, 0] = rows.real
            slab[:, :, i, 1] = rows.imag
        slabs.append(slab)
    _read_only(freqs, *slabs)
    return freqs, tuple(slabs)


def cqt(x: np.ndarray) -> np.ndarray:
    """Constant-Q magnitudes [N_BANDS, T], log-compressed.

    Frames are centred where the matching STFT frames sit
    (t*HOP + WINDOW//2), so all front-ends share the native frame count,
    and there are none below WINDOW samples. Frame centres are HOP apart,
    so for each octave the signal from the first frame's slab start on is
    a [rows, HOP] view. One GEMM with the slab gives each row's inner
    product with each slab row, and frame t sums the q products of signal
    rows t..t+q-1 with slab rows 0..q-1. The products are float32 and the
    sum float64: on a noise segment, within 3e-4 dB of a float64 inner
    product with each bin's kernel for bins within 60 dB of the frame's
    loudest.
    """
    if x.size < WINDOW:
        return np.zeros((N_BANDS, 0))
    _, slabs = cqt_bank()
    n_frames = (x.size - WINDOW) // HOP + 1
    lead = max(slab.shape[1] for slab in slabs) * HOP // 2 - WINDOW // 2
    padded = np.zeros(lead + x.size + lead, dtype=np.float32)
    padded[lead : lead + x.size] = x
    mags = []
    for slab in slabs:
        _, q, n, _ = slab.shape
        start = lead + WINDOW // 2 - q * HOP // 2
        rows = padded[start : start + (n_frames - 1 + q) * HOP].reshape(-1, HOP)
        products = (rows @ slab.reshape(HOP, -1)).reshape(len(rows), q, n, 2)
        spectrum = products[:n_frames, 0].astype(np.float64)
        for r in range(1, q):
            spectrum += products[r : r + n_frames, r]
        mags.append(np.hypot(spectrum[..., 0], spectrum[..., 1]))
    return _log_compress(np.concatenate(mags, axis=1).T)


@lru_cache(maxsize=1)
def gammatone_bank():
    """(centres in Hz, second-order sections [N_BANDS, 4, 6]) of 4th-order
    gammatone filters with centres uniform on the ERB-rate scale over
    [GAM_FMIN, GAM_FMAX], both ends included.

    Standard all-pole gammatone approximation: four cascaded biquads per
    band. The gain at each centre frequency is meant to be 1 but is not:
    the `a1` numerators double the cosine term of Slaney's A11..A14, and
    `signal.sosfreqz` gives 1.08e7 in band 0 (50 Hz), 3.89 in band 64 and
    3.65 in band 127. Halving that term gives 1 in every band, but it
    changes every gammatone feature and so `perfbench/reference.json`; it
    waits for that reference's regeneration (ROADMAP item 4). Band 127's
    centre, GAM_FMAX = 16 kHz, is the Nyquist frequency of the 32 kHz
    pipeline.
    """
    # ERB rate 21.4 log10(1 + 0.00437 f); the ERB bandwidth's brackets fix its last bit
    lo, hi = 21.4 * np.log10(1.0 + 0.00437 * np.array([GAM_FMIN, GAM_FMAX]))
    cf = (10.0 ** (np.linspace(lo, hi, N_BANDS) / 21.4) - 1.0) / 0.00437
    t = 1.0 / PIPELINE_RATE
    b = 1.019 * 2.0 * np.pi * (24.7 * (4.37 * cf / 1000.0 + 1.0))
    arg = 2.0 * cf * np.pi * t
    vec = np.exp(b * t)
    b0, b1, b2 = 1.0, -2.0 * np.cos(arg) / vec, np.exp(-2.0 * b * t)

    r_plus = np.sqrt(3.0 + 2.0**1.5)
    r_minus = np.sqrt(3.0 - 2.0**1.5)
    a1 = [
        -(2.0 * t * np.cos(arg) / vec + s * r * t * np.sin(arg) / vec)
        for s, r in ((1.0, r_plus), (-1.0, r_plus), (1.0, r_minus), (-1.0, r_minus))
    ]

    z = np.exp(4j * cf * np.pi * t)
    w = 2.0 * np.exp(-(b * t) + 2j * cf * np.pi * t) * t
    gain = np.abs(
        (-2.0 * z * t + w * (np.cos(arg) - r_minus * np.sin(arg)))
        * (-2.0 * z * t + w * (np.cos(arg) + r_minus * np.sin(arg)))
        * (-2.0 * z * t + w * (np.cos(arg) - r_plus * np.sin(arg)))
        * (-2.0 * z * t + w * (np.cos(arg) + r_plus * np.sin(arg)))
        / (-2.0 / np.exp(2.0 * b * t) - 2.0 * z + 2.0 * (1.0 + z) / vec) ** 4
    )

    sos = np.zeros((N_BANDS, 4, 6))
    for i in range(4):
        scale = gain if i == 0 else 1.0
        sos[:, i, 0] = t / scale
        sos[:, i, 1] = a1[i] / scale
        sos[:, i, 2] = 0.0
        sos[:, i, 3] = b0
        sos[:, i, 4] = b1
        sos[:, i, 5] = b2
    return _read_only(cf, sos)


def _impulse_states(sections: np.ndarray, n: int) -> np.ndarray:
    """[n, 2 * len(sections)]: the state `sosfilt` holds after each of the
    first n samples of a unit impulse through the cascade `sections`.

    `sosfilt` returns only the final state, so each section's transposed
    direct-form II state is recomputed from that section's input u and
    output y with `sosfilt`'s own arithmetic: z2 = b2*u - a2*y, and
    z1 = b1*u - a1*y plus the previous z2.
    """
    u = np.zeros(n)
    u[0] = 1.0
    states = np.empty((n, len(sections), 2))
    for i, (_, b1, b2, _, a1, a2) in enumerate(sections):
        y = signal.sosfilt(sections[i : i + 1], u)
        states[:, i, 1] = b2 * u - a2 * y
        states[:, i, 0] = b1 * u - a1 * y
        states[1:, i, 0] += states[:-1, i, 1]
        u = y
    return states.reshape(n, -1)


@lru_cache(maxsize=1)
def gammatone_blocks():
    """(W [N_BANDS, L+S, L], M [N_BANDS, S, S], K [N_BANDS, S, L],
    M_hop [N_BANDS, S, S], K_hop [N_BANDS, S, HOP]): each band's gammatone
    cascade as maps over one block of L = _GAM_BLOCK samples and over one
    hop of HOP samples. Its state is the S = 8 values of `sosfilt`'s `zi`
    for the four sections, flattened section by section.

    A block x entered with state z gives the outputs [x, z] @ W and leaves
    the state M @ z + K @ x; a hop x entered with state z leaves the state
    M_hop @ z + K_hop @ x. Each map is `sosfilt`'s own response, on
    `gammatone_bank()`'s sections, to unit samples and unit initial states,
    not a power of another map. K_hop's column j is the state after the
    first HOP - j samples of the impulse response (`_impulse_states`): a
    unit sample at j of a hop entered at rest leaves that state.
    """
    _, sos = gammatone_bank()
    n_sections = sos.shape[1]
    n_state = 2 * n_sections
    units = np.eye(_GAM_BLOCK + n_state)
    samples = units[:, :_GAM_BLOCK]  # rows past _GAM_BLOCK are silent
    zi = units[:, _GAM_BLOCK:].reshape(-1, n_sections, 2).transpose(1, 0, 2)
    silent_hops = np.zeros((n_state, HOP))
    w = np.empty((N_BANDS, _GAM_BLOCK + n_state, _GAM_BLOCK))
    m = np.empty((N_BANDS, n_state, n_state))
    k = np.empty((N_BANDS, n_state, _GAM_BLOCK))
    m_hop = np.empty((N_BANDS, n_state, n_state))
    k_hop = np.empty((N_BANDS, n_state, HOP))
    for band in range(N_BANDS):
        sections = sos[band].copy()  # sosfilt rejects read-only sections
        w[band], zf = signal.sosfilt(sections, samples, zi=zi)
        after = zf.transpose(1, 0, 2).reshape(-1, n_state)  # state after each unit row
        k[band] = after[:_GAM_BLOCK].T
        m[band] = after[_GAM_BLOCK:].T
        _, zf = signal.sosfilt(sections, silent_hops, zi=zi[:, _GAM_BLOCK:])
        m_hop[band] = zf.transpose(1, 0, 2).reshape(-1, n_state).T
        k_hop[band] = _impulse_states(sections, HOP)[::-1].T
    return _read_only(w, m, k, m_hop, k_hop)


def gammatone(x: np.ndarray) -> np.ndarray:
    """Gammatone band energies [N_BANDS, T] per HOP samples, log-compressed.

    Energy is the mean squared filter output over consecutive
    non-overlapping hop windows, so T = n // HOP. All bands are filtered at
    once (`gammatone_blocks`). One GEMM gives each hop's drive of the
    state, and one serial step per hop gives the state entering every hop.
    Then, _GAM_CHUNK hops at a time, one GEMM gives each block's drive, one
    batched step per block position advances all bands and hops of the
    chunk from those hop-entry states, and one GEMM per band gives that
    band's outputs. The energies equal those of `signal.sosfilt` with each
    band's sections to float64 rounding: within 1e-8 dB on hops within
    90 dB of the band's loudest, and to the rounding of that loudest output
    on hops that have decayed further below it.
    """
    w, m, k, m_hop, k_hop = gammatone_blocks()
    n_state = m.shape[1]
    n_frames = x.size // HOP
    hops = x[: n_frames * HOP].reshape(n_frames, HOP)
    blocks_per_hop = HOP // _GAM_BLOCK
    hop_drive = (hops @ k_hop.reshape(-1, HOP).T).reshape(n_frames, N_BANDS, n_state)
    drive_map = k.reshape(-1, _GAM_BLOCK)
    energies = np.empty((N_BANDS, n_frames))
    entry = np.zeros((N_BANDS, n_state))  # each band's state entering the next hop
    state_buffer = np.empty(blocks_per_hop * N_BANDS * n_state * _GAM_CHUNK)
    inputs = np.empty((_GAM_CHUNK * blocks_per_hop, _GAM_BLOCK + n_state))
    out = np.empty((_GAM_CHUNK * blocks_per_hop, _GAM_BLOCK))
    for start in range(0, n_frames, _GAM_CHUNK):
        chunk = hops[start : start + _GAM_CHUNK]
        n = chunk.shape[0]
        # states[j, band, :, h]: the band's state entering block j of hop h
        shape = (blocks_per_hop, N_BANDS, n_state, n)
        states = state_buffer[: np.prod(shape)].reshape(shape)
        for h in range(n):
            states[0, :, :, h] = entry
            entry = np.einsum("bij,bj->bi", m_hop, entry) + hop_drive[start + h]
        # block j - 1's drive, then the state it was entered with, through M
        blocks = chunk.reshape(n, blocks_per_hop, _GAM_BLOCK)[:, :-1].transpose(1, 2, 0)
        np.matmul(drive_map, blocks, out=states[1:].reshape(blocks_per_hop - 1, -1, n))
        for j in range(1, blocks_per_hop):
            states[j] += np.matmul(m, states[j - 1])
        rows = inputs[: n * blocks_per_hop]
        rows[:, :_GAM_BLOCK] = chunk.reshape(-1, _GAM_BLOCK)
        entered = rows[:, _GAM_BLOCK:].reshape(n, blocks_per_hop, n_state)
        outputs = out[: n * blocks_per_hop]
        hop_outputs = outputs.reshape(n, HOP)
        for band in range(N_BANDS):
            entered[...] = states[:, band].transpose(2, 0, 1)
            np.matmul(rows, w[band], out=outputs)
            energies[band, start : start + n] = (
                np.einsum("ij,ij->i", hop_outputs, hop_outputs) / HOP
            )
    return _log_compress(energies)


def delta(x: np.ndarray) -> np.ndarray:
    """Regression delta along time (axis 1) with replicate-padded edges.

    d_t = sum_{k=1..K} k*(x_{t+k} - x_{t-k}) / (2*sum k^2), K = DELTA_WIDTH//2:
    the least-squares slope over DELTA_WIDTH frames.
    """
    return signal.savgol_filter(x, DELTA_WIDTH, 1, deriv=1, mode="nearest", axis=1)


def stack_3ch(feat: np.ndarray) -> np.ndarray:
    """Stack [feature, delta, delta-delta] of a [F, T] feature into
    [F, TARGET_FRAMES, 3], centre-cropping the T >= TARGET_FRAMES frames."""
    if feat.shape[1] < TARGET_FRAMES:
        raise ShapeMismatch(f"stack_3ch needs at least {TARGET_FRAMES} frames, "
                            f"got {feat.shape[1]}")
    d1 = delta(feat)
    stacked = np.stack([feat, d1, delta(d1)], axis=2)
    left = (stacked.shape[1] - TARGET_FRAMES) // 2
    return stacked[:, left : left + TARGET_FRAMES]


# front-end name -> stage; a name's position is its id in feature caches (`cache.py`)
_STAGES = {"logmel": lambda x: log_mel(stft_power(x)), "cqt": cqt, "gam": gammatone}
FRONTENDS = tuple(_STAGES)


def extract_frontend(clip: AudioClip, frontend: str) -> SpectrogramTensor:
    """Full front-end: one 10 s / 32 kHz segment -> N_BANDS x TARGET_FRAMES x 3.

    Raises ShapeMismatch for any other clip and ConfigMismatch for a name
    not in FRONTENDS.
    """
    if clip.sample_rate != PIPELINE_RATE or clip.n_samples != SEGMENT_SAMPLES:
        raise ShapeMismatch(
            f"front-ends take one segment of {SEGMENT_SAMPLES} samples at "
            f"{PIPELINE_RATE} Hz, got {clip.n_samples} samples at {clip.sample_rate} Hz"
        )
    if frontend not in _STAGES:
        raise ConfigMismatch(f"unknown frontend {frontend!r}, expected one of {FRONTENDS}")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        data = stack_3ch(_STAGES[frontend](clip.samples))
    if not np.all(np.isfinite(data)):
        raise ShapeMismatch(f"{frontend} features contain non-finite values")
    return SpectrogramTensor(data=data)
