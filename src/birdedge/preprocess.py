"""Waveform to log-mel preprocessing pipeline.

A recording passes through five stages before it reaches the classifier:

1. length gate: clips shorter than 2.0 s are rejected outright.
2. silence removal: regions whose 50 ms sliding-max envelope falls below
   20 % of the clip's global peak are cut out and the remainder is
   concatenated. Nothing is cross-faded; excision is hard.
3. chunking: the (48 kHz) signal is sliced into consecutive non-overlapping
   2 s chunks, the trailing remainder is dropped, chunks without a local
   amplitude peak are diverted to the noise pool, and at most the first 30
   surviving chunks are kept.
4. peak normalization: each chunk is scaled so max |s| == 1.
5. mel conversion: 64-band log-mel matrix, 512-point FFT, hop 384, Hann
   window, no center padding, triangular area-normalized filters between
   150 and 7500 Hz, dB referenced to the chunk maximum and floored at -80.

For a 2 s chunk at 48 kHz the frame count is (96000 - 512)//384 + 1 = 249.
Stage 5 has no settings: its parameters are the constants below.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache

import numpy as np

from .audio_io import AudioClip, resample
from .exceptions import ConfigError, DegenerateInputError
from .melspec import MelSpectrogram, power_to_db

# Pipeline constants; the CLI overrides SILENCE_THRESHOLD, PEAK_RATIO and
# MAX_CHUNKS.
MIN_CLIP_SECONDS = 2.0
SILENCE_THRESHOLD = 0.2
ENVELOPE_WINDOW_SECONDS = 0.05
CHUNK_SECONDS = 2.0
PEAK_RATIO = 1.075
PEAK_NEIGHBORHOOD_SECONDS = 0.5
MAX_CHUNKS = 30
# stage 5: the mel conversion
SAMPLE_RATE = 48000
N_MELS = 64
FFT_SIZE = 512
HOP = 384
F_MIN = 150.0
F_MAX = 7500.0


def length_filter(clip: AudioClip) -> bool:
    """Return True if the clip is long enough to process.

    The boundary is inclusive: a clip of exactly MIN_CLIP_SECONDS passes.
    """
    return clip.duration >= MIN_CLIP_SECONDS


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1), got {threshold}")


def _check_screen(peak_ratio: float, max_chunks: int) -> None:
    if not (math.isfinite(peak_ratio) and peak_ratio > 0.0):
        raise ConfigError(f"peak_ratio must be finite and > 0, got {peak_ratio}")
    if max_chunks < 1:
        raise ConfigError(f"max_chunks must be >= 1, got {max_chunks}")


def remove_silence(clip: AudioClip, threshold: float = SILENCE_THRESHOLD) -> AudioClip:
    """Cut silent regions out of a clip and concatenate the rest.

    A sample survives iff its centered ~ENVELOPE_WINDOW_SECONDS (50 ms)
    sliding-max envelope reaches threshold * max |s| of the whole clip.
    The comparison is >=, so regions exactly at the threshold survive. An
    all-zero clip comes back empty. Sample order is preserved; nothing else
    is modified.
    """
    _check_threshold(threshold)
    if len(clip.samples) == 0:
        return AudioClip(samples=clip.samples.copy(), sample_rate=clip.sample_rate)
    # max |s| in float32 is the larger |extreme|: no |s| copy of the clip
    extremes = [clip.samples.min(), clip.samples.max()]
    peak = float(np.abs(extremes, dtype=np.float32).max())
    if not peak > 0.0:  # all zero, or NaN, which no sample reaches
        return AudioClip(
            samples=np.empty(0, dtype=np.float32), sample_rate=clip.sample_rate
        )
    half = int(round(clip.sample_rate * ENVELOPE_WINDOW_SECONDS / 2.0))
    starts, stops = _voiced_runs(clip.samples, np.float32(threshold * peak), half)
    samples = np.concatenate([clip.samples[a:b] for a, b in zip(starts, stops)])
    return AudioClip(samples=samples, sample_rate=clip.sample_rate)


def _voiced_runs(samples: np.ndarray, level: np.float32, half: int):
    """(starts, stops) of the slices remove_silence keeps, from one boolean
    mask of the samples with |s| >= level, compared in float32."""
    f32 = (np.float32, np.float32, np.bool_)
    loud = np.greater_equal(samples, level, signature=f32)
    loud |= np.less_equal(samples, -level, signature=f32)
    # loud runs [start, stop): the mask turns on at a start, off at a stop
    edges = np.flatnonzero(np.diff(loud, prepend=False, append=False))
    del loud
    starts, stops = edges[::2], edges[1::2]
    # The envelope of sample i reaches the level iff a loud sample lies
    # within +-half of i. Runs whose quiet gap is at most 2*half merge, so
    # the merged runs, widened by half on each side, neither overlap nor touch.
    split = np.flatnonzero(starts[1:] - stops[:-1] > 2 * half)
    return (np.maximum(starts[np.r_[0, split + 1]] - half, 0),
            stops[np.r_[split, -1]] + half)


def _window_maxima(chunk: np.ndarray, window: int) -> np.ndarray:
    """Maxima of |chunk| over consecutive windows; the last one may be short.

    Integer chunks are taken to float64 first, so |-32768| is 32768.
    """
    if chunk.dtype.kind in "biu":
        chunk = chunk.astype(np.float64)
    edges = np.arange(0, len(chunk), window)
    return np.maximum.reduceat(np.abs(chunk), edges)


def has_peak(
    chunk: np.ndarray,
    sample_rate: int = SAMPLE_RATE,
    ratio: float = PEAK_RATIO,
) -> bool:
    """Decide whether a chunk contains a local amplitude peak.

    The chunk is tiled into consecutive ~ENVELOPE_WINDOW_SECONDS (50 ms)
    windows and each window's max |s| is compared against the median of
    the window maxima in the surrounding +-PEAK_NEIGHBORHOOD_SECONDS
    (500 ms), the window itself excluded. The chunk has a peak iff some
    window max is nonzero and at least `ratio` times that median.
    The test is scale invariant: has_peak(c) == has_peak(a*c) for a > 0.

    Every window is tested at once, and each median equals np.median of
    that window's neighbours bit for bit: row i of one matrix holds the
    maxima of windows i-span .. i+span without i, padded past either end
    with +inf, which sorts after every real value. Each sorted row's
    middle value, or the mean (low + high) / 2 of its two middle values,
    is taken from its count of real neighbours, and a NaN, which sorts
    last, makes the whole row's median NaN. As in np.median, integer
    chunks are compared in float64, and float maxima keep their dtype, so
    `ratio * median` is a float32 for float32 chunks; the mean is taken in
    float32 for float16 maxima and in their own dtype otherwise. A sum or
    product past the float maximum is inf, without a warning.
    """
    chunk = np.asarray(chunk)
    if len(chunk) == 0:
        return False
    window = max(1, int(round(sample_rate * ENVELOPE_WINDOW_SECONDS)))
    span = max(1, int(round(PEAK_NEIGHBORHOOD_SECONDS / ENVELOPE_WINDOW_SECONDS)))
    maxima = _window_maxima(chunk, window)
    n = len(maxima)
    if n < 2:
        return False
    pad = np.full(span, np.inf, dtype=maxima.dtype)
    index = np.arange(n)
    count = np.minimum(index + span, n - 1) - np.maximum(index - span, 0)
    offsets = np.arange(2 * span)
    offsets[span:] += 1  # skip the window itself
    neighbors = np.concatenate([pad, maxima, pad])[index[:, None] + offsets]
    neighbors.sort(axis=1)
    low = neighbors[index, (count - 1) // 2]
    high = neighbors[index, count // 2]
    mean_dtype = np.promote_types(maxima.dtype, np.float32)  # as np.mean's
    with np.errstate(over="ignore"):
        mean = ((low.astype(mean_dtype) + high) / 2).astype(maxima.dtype)
        median = np.where(count % 2 == 1, low, mean)
        median[np.isnan(neighbors[:, -1])] = np.nan
        return bool(np.any((maxima > 0.0) & (maxima >= ratio * median)))


def split_chunks(
    clip: AudioClip,
    peak_ratio: float = PEAK_RATIO,
    max_chunks: int = MAX_CHUNKS,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Slice a clip into fixed-length chunks and screen them for peaks.

    Returns (chunks, noise): `chunks` are the first max_chunks windows that
    pass has_peak, in order; `noise` collects every rejected window. Chunks
    are views of clip.samples; noise windows are copies, because they
    outlive preprocess_recording and a view would keep the whole clip
    alive. Windows are consecutive, non-overlapping, CHUNK_SECONDS long;
    the trailing remainder shorter than one window is dropped. Chunks
    beyond the cap are discarded entirely (they do not join the noise
    pool).

    Raises ValueError unless peak_ratio is finite and positive and
    max_chunks is at least 1. A NaN or inf ratio, or a cap below 1, would
    keep no chunk at all; a ratio <= 0 would keep every nonzero one.
    """
    _check_screen(peak_ratio, max_chunks)
    chunk_len = int(round(clip.sample_rate * CHUNK_SECONDS))
    n_windows = len(clip.samples) // chunk_len
    chunks: list[np.ndarray] = []
    noise: list[np.ndarray] = []
    for k in range(n_windows):
        window = clip.samples[k * chunk_len : (k + 1) * chunk_len]
        if has_peak(window, sample_rate=clip.sample_rate, ratio=peak_ratio):
            if len(chunks) < max_chunks:
                chunks.append(window)
        else:
            noise.append(window.copy())
    return chunks, noise


def normalize(chunk: np.ndarray) -> np.ndarray:
    """Scale a chunk so its peak magnitude is exactly 1.

    Raises DegenerateInputError on an all-zero chunk or one holding a NaN
    or inf.
    """
    chunk = np.asarray(chunk, dtype=np.float32)
    peak = float(np.abs(chunk).max()) if len(chunk) else 0.0
    if peak == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero chunk")
    if not np.isfinite(peak):
        raise DegenerateInputError("cannot normalize a chunk holding a NaN or inf")
    return chunk / np.float32(peak)


def _hz_to_mel(freq: np.ndarray) -> np.ndarray:
    """Perceptual scale: linear below 1 kHz, logarithmic above."""
    freq = np.asarray(freq, dtype=np.float64)
    return np.where(
        freq >= 1000.0,
        15.0 + 27.0 * np.log(np.maximum(freq, 1e-12) / 1000.0) / np.log(6.4),
        3.0 * freq / 200.0,
    )


def _mel_to_hz(mel: np.ndarray) -> np.ndarray:
    mel = np.asarray(mel, dtype=np.float64)
    return np.where(
        mel >= 15.0, 1000.0 * np.exp(np.log(6.4) / 27.0 * (mel - 15.0)), 200.0 * mel / 3.0
    )


@cache
def mel_band_edges() -> np.ndarray:
    """The N_MELS + 2 band edge frequencies in Hz, equally spaced in mel.

    Built on the first call and returned read-only.
    """
    edges = _mel_to_hz(np.linspace(_hz_to_mel(F_MIN), _hz_to_mel(F_MAX), N_MELS + 2))
    edges.flags.writeable = False
    return edges


@cache
def mel_filterbank() -> np.ndarray:
    """Triangular area-normalized filterbank, shape (N_MELS, FFT_SIZE//2 + 1).

    Band k rises from edge k to edge k+1 (its center) and falls to edge k+2.
    Each triangle is scaled by 2 / (upper - lower) so all bands integrate to
    the same area. Bins outside [F_MIN, F_MAX] get zero weight. The result
    is built on the first call and returned read-only.
    """
    edges = mel_band_edges()
    bin_freqs = np.arange(FFT_SIZE // 2 + 1) * (SAMPLE_RATE / FFT_SIZE)
    weights = np.zeros((N_MELS, len(bin_freqs)), dtype=np.float64)
    for k in range(N_MELS):
        lower, center, upper = edges[k], edges[k + 1], edges[k + 2]
        rising = (bin_freqs - lower) / (center - lower)
        falling = (upper - bin_freqs) / (upper - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        weights[k] = tri * (2.0 / (upper - lower))
    weights.flags.writeable = False
    return weights


@cache
def _frame_tables() -> tuple[np.ndarray, np.ndarray]:
    """(The periodic Hann window of FFT_SIZE samples, mel_filterbank() cut after
    its last weighted FFT bin and transposed), built once and read-only."""
    n = np.arange(FFT_SIZE)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / FFT_SIZE))
    window.flags.writeable = False
    used = int(np.flatnonzero(mel_filterbank().any(axis=0))[-1]) + 1
    return window, mel_filterbank()[:, :used].T


def mel_spectrogram(chunk: np.ndarray) -> MelSpectrogram:
    """Convert a normalized chunk into a log-mel matrix.

    Frames start at multiples of HOP with no padding, each windowed by a
    periodic Hann window of FFT_SIZE samples, so n samples give
    (n - FFT_SIZE) // HOP + 1 frames. Magnitude-squared spectra are
    projected through the filterbank and expressed in dB relative to the
    loudest mel cell of this chunk, floored at -80 dB. The maximum of the
    result is therefore exactly 0 dB.

    Only the FFT bins up to the filterbank's last nonzero column are squared
    and projected. The result equals the product over every bin bit for
    bit: each kept bin keeps its place in each sum, and each dropped bin
    would add 0 * power, an exact zero, because every power is finite. That
    premise is checked: a chunk holding a NaN or inf, or samples so large
    that a power could overflow, raises DegenerateInputError.
    """
    chunk = np.asarray(chunk, dtype=np.float64)
    if len(chunk) < FFT_SIZE:
        raise DegenerateInputError(
            f"chunk of {len(chunk)} samples is shorter than one FFT frame"
        )
    # |bin| <= FFT_SIZE * max |s|, so this bound keeps every power finite
    limit = np.sqrt(np.finfo(np.float64).max) / (2 * FFT_SIZE)
    if not max(chunk.max(), -chunk.min()) <= limit:
        raise DegenerateInputError(
            f"chunk samples must be finite and at most {limit:.3g} in magnitude"
        )
    frames = np.lib.stride_tricks.sliding_window_view(chunk, FFT_SIZE)[::HOP]
    window, bank = _frame_tables()
    spectra = np.fft.rfft(frames * window, axis=1)[:, : len(bank)]
    power = spectra.real**2 + spectra.imag**2
    mel_power = power @ bank  # (n_frames, N_MELS)
    ref = float(mel_power.max())
    if ref <= 0.0:
        raise DegenerateInputError("chunk has no spectral energy")
    db = power_to_db(mel_power, ref)
    return MelSpectrogram(values=db.T.astype(np.float32))


def preprocess_recording(
    clip: AudioClip,
    silence_threshold: float = SILENCE_THRESHOLD,
    peak_ratio: float = PEAK_RATIO,
    max_chunks: int = MAX_CHUNKS,
) -> tuple[list[MelSpectrogram], list[np.ndarray]]:
    """Run the full pipeline on one recording.

    Order: length gate -> silence removal (at the native rate) -> resample
    to SAMPLE_RATE -> chunk + peak screen -> normalize -> mel convert.
    Returns (spectrograms, noise_chunks). A too-short clip, or one whose
    voiced part shrinks below one chunk, yields ([], noise_chunks). A bad
    setting raises ValueError whatever the clip.
    """
    _check_threshold(silence_threshold)
    _check_screen(peak_ratio, max_chunks)
    if not length_filter(clip):
        return [], []
    voiced = remove_silence(clip, threshold=silence_threshold)
    if len(voiced.samples) == 0:
        return [], []
    if voiced.sample_rate != SAMPLE_RATE:
        voiced = resample(voiced, SAMPLE_RATE)
    chunks, noise = split_chunks(
        voiced, peak_ratio=peak_ratio, max_chunks=max_chunks
    )
    spectrograms = [mel_spectrogram(normalize(c)) for c in chunks]
    return spectrograms, noise


def noise_spectrograms(noise: list[np.ndarray]) -> Iterator[MelSpectrogram]:
    """Log-mel matrices of preprocess_recording's noise windows, in order,
    one at a time. An all-zero window, which resampling can leave, has
    nothing to normalize and is left out."""
    return (mel_spectrogram(normalize(window)) for window in noise if np.any(window))
