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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import maximum_filter1d

from .audio_io import AudioClip, resample
from .exceptions import DegenerateInputError
from .melspec import FLOOR_DB, MelConfig, MelSpectrogram

# Pipeline defaults, overridable from the CLI.
MIN_CLIP_SECONDS = 2.0
SILENCE_THRESHOLD = 0.2
ENVELOPE_WINDOW_SECONDS = 0.05
CHUNK_SECONDS = 2.0
PEAK_RATIO = 1.075
PEAK_NEIGHBORHOOD_SECONDS = 0.5
MAX_CHUNKS = 30


def length_filter(clip: AudioClip, min_seconds: float = MIN_CLIP_SECONDS) -> bool:
    """Return True if the clip is long enough to process.

    The boundary is inclusive: a clip of exactly min_seconds passes.
    """
    return clip.duration >= min_seconds


def _sliding_max(abs_samples: np.ndarray, window: int) -> np.ndarray:
    """Centered sliding maximum over `window` samples, edges shrink."""
    # cval=0 cannot win against |s| >= 0, so edge windows reduce to the
    # in-signal part of the window
    return maximum_filter1d(abs_samples, size=window, mode="constant", cval=0.0)


def remove_silence(
    clip: AudioClip,
    threshold: float = SILENCE_THRESHOLD,
    window_seconds: float = ENVELOPE_WINDOW_SECONDS,
) -> AudioClip:
    """Cut silent regions out of a clip and concatenate the rest.

    A sample survives iff its centered ~window_seconds sliding-max envelope
    reaches threshold * max |s| of the whole clip. The comparison is >=, so
    regions exactly at the threshold survive. An all-zero clip comes back
    empty. Sample order is preserved; nothing else is modified.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    abs_samples = np.abs(clip.samples, dtype=np.float32)
    if len(abs_samples) == 0:
        return AudioClip(samples=clip.samples.copy(), sample_rate=clip.sample_rate)
    peak = float(abs_samples.max())
    if peak == 0.0:
        return AudioClip(
            samples=np.empty(0, dtype=np.float32), sample_rate=clip.sample_rate
        )
    half = int(round(clip.sample_rate * window_seconds / 2.0))
    envelope = _sliding_max(abs_samples, 2 * half + 1)
    keep = envelope >= threshold * peak
    return AudioClip(samples=clip.samples[keep], sample_rate=clip.sample_rate)


def _window_maxima(chunk: np.ndarray, window: int) -> np.ndarray:
    """Maxima of |chunk| over consecutive windows; the last one may be short."""
    edges = np.arange(0, len(chunk), window)
    return np.maximum.reduceat(np.abs(chunk), edges)


def has_peak(
    chunk: np.ndarray,
    sample_rate: int = 48000,
    ratio: float = PEAK_RATIO,
    window_seconds: float = ENVELOPE_WINDOW_SECONDS,
    neighborhood_seconds: float = PEAK_NEIGHBORHOOD_SECONDS,
) -> bool:
    """Decide whether a chunk contains a local amplitude peak.

    The chunk is tiled into consecutive ~50 ms windows and each window's
    max |s| is compared against the median of the window maxima in the
    surrounding +-500 ms (the window itself excluded). The chunk has a peak
    iff some window max is nonzero and at least `ratio` times that median.
    The test is scale invariant: has_peak(c) == has_peak(a*c) for a > 0.
    """
    chunk = np.asarray(chunk)
    if len(chunk) == 0:
        return False
    window = max(1, int(round(sample_rate * window_seconds)))
    span = max(1, int(round(neighborhood_seconds / window_seconds)))
    maxima = _window_maxima(chunk, window)
    n = len(maxima)
    if n < 2:
        return False
    for i in range(n):
        lo = max(0, i - span)
        hi = min(n, i + span + 1)
        neighbors = np.concatenate([maxima[lo:i], maxima[i + 1 : hi]])
        if len(neighbors) == 0:
            continue
        if maxima[i] > 0.0 and maxima[i] >= ratio * np.median(neighbors):
            return True
    return False


def split_chunks(
    clip: AudioClip,
    chunk_seconds: float = CHUNK_SECONDS,
    peak_ratio: float = PEAK_RATIO,
    max_chunks: int = MAX_CHUNKS,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Slice a clip into fixed-length chunks and screen them for peaks.

    Returns (chunks, noise): `chunks` are the first max_chunks windows that
    pass has_peak, in order; `noise` collects every rejected window. Windows
    are consecutive, non-overlapping, chunk_seconds long; the trailing
    remainder shorter than one window is dropped. Chunks beyond the cap are
    discarded entirely (they do not join the noise pool).
    """
    chunk_len = int(round(clip.sample_rate * chunk_seconds))
    n_windows = len(clip.samples) // chunk_len
    chunks: list[np.ndarray] = []
    noise: list[np.ndarray] = []
    for k in range(n_windows):
        window = clip.samples[k * chunk_len : (k + 1) * chunk_len]
        if has_peak(window, sample_rate=clip.sample_rate, ratio=peak_ratio):
            if len(chunks) < max_chunks:
                chunks.append(window.copy())
        else:
            noise.append(window.copy())
    return chunks, noise


def normalize(chunk: np.ndarray) -> np.ndarray:
    """Scale a chunk so its peak magnitude is exactly 1.

    Raises DegenerateInputError on an all-zero chunk.
    """
    chunk = np.asarray(chunk, dtype=np.float32)
    peak = float(np.abs(chunk).max()) if len(chunk) else 0.0
    if peak == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero chunk")
    return chunk / np.float32(peak)


def _hz_to_mel(freq: np.ndarray) -> np.ndarray:
    """Perceptual scale: linear below 1 kHz, logarithmic above."""
    freq = np.asarray(freq, dtype=np.float64)
    mel = 3.0 * freq / 200.0
    log_region = freq >= 1000.0
    if np.any(log_region):
        mel = np.where(
            log_region,
            15.0 + 27.0 * np.log(np.maximum(freq, 1e-12) / 1000.0) / np.log(6.4),
            mel,
        )
    return mel


def _mel_to_hz(mel: np.ndarray) -> np.ndarray:
    mel = np.asarray(mel, dtype=np.float64)
    freq = 200.0 * mel / 3.0
    log_region = mel >= 15.0
    if np.any(log_region):
        freq = np.where(
            log_region, 1000.0 * np.exp(np.log(6.4) / 27.0 * (mel - 15.0)), freq
        )
    return freq


def mel_band_edges(cfg: MelConfig) -> np.ndarray:
    """The n_mels + 2 band edge frequencies in Hz, equally spaced in mel."""
    mel_pts = np.linspace(
        _hz_to_mel(cfg.f_min), _hz_to_mel(cfg.f_max), cfg.n_mels + 2
    )
    return _mel_to_hz(mel_pts)


@lru_cache(maxsize=16)
def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular area-normalized filterbank, shape (n_mels, fft_size//2 + 1).

    Band k rises from edge k to edge k+1 (its center) and falls to edge k+2.
    Each triangle is scaled by 2 / (upper - lower) so all bands integrate to
    the same area. Bins outside [f_min, f_max] get zero weight. The result
    is cached per config and returned read-only.
    """
    cfg.validate()
    edges = mel_band_edges(cfg)
    bin_freqs = np.arange(cfg.fft_size // 2 + 1) * (cfg.sample_rate / cfg.fft_size)
    weights = np.zeros((cfg.n_mels, len(bin_freqs)), dtype=np.float64)
    for k in range(cfg.n_mels):
        lower, center, upper = edges[k], edges[k + 1], edges[k + 2]
        rising = (bin_freqs - lower) / (center - lower)
        falling = (upper - bin_freqs) / (upper - center)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        weights[k] = tri * (2.0 / (upper - lower))
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=16)
def _hann_window(fft_size: int) -> np.ndarray:
    """Periodic Hann window of fft_size samples, cached and read-only."""
    n = np.arange(fft_size)
    window = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / fft_size))
    window.flags.writeable = False
    return window


def mel_spectrogram(chunk: np.ndarray, cfg: MelConfig = MelConfig()) -> MelSpectrogram:
    """Convert a normalized chunk into a log-mel matrix.

    Frames start at multiples of cfg.hop with no padding, each windowed by a
    periodic Hann window of cfg.fft_size samples. Magnitude-squared spectra
    are projected through the filterbank and expressed in dB relative to
    the loudest mel cell of this chunk, floored at -80 dB. The maximum of
    the result is therefore exactly 0 dB.
    """
    cfg.validate()
    chunk = np.asarray(chunk, dtype=np.float64)
    n_frames = cfg.frame_count(len(chunk))
    if n_frames < 1:
        raise ValueError(
            f"chunk of {len(chunk)} samples is shorter than one FFT frame"
        )
    frames = np.lib.stride_tricks.sliding_window_view(chunk, cfg.fft_size)[:: cfg.hop]
    frames = frames[:n_frames]
    spectra = np.fft.rfft(frames * _hann_window(cfg.fft_size), axis=1)
    power = spectra.real**2 + spectra.imag**2
    mel_power = power @ mel_filterbank(cfg).T  # (n_frames, n_mels)
    ref = float(mel_power.max())
    if ref <= 0.0:
        raise DegenerateInputError("chunk has no spectral energy")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(mel_power / ref)
    db = np.maximum(db, FLOOR_DB)
    return MelSpectrogram(values=db.T.astype(np.float32), config=cfg)


def preprocess_recording(
    clip: AudioClip,
    cfg: MelConfig = MelConfig(),
    silence_threshold: float = SILENCE_THRESHOLD,
    peak_ratio: float = PEAK_RATIO,
    max_chunks: int = MAX_CHUNKS,
) -> tuple[list[MelSpectrogram], list[np.ndarray]]:
    """Run the full pipeline on one recording.

    Order: length gate -> silence removal (at the native rate) -> resample
    to cfg.sample_rate -> chunk + peak screen -> normalize -> mel convert.
    Returns (spectrograms, noise_chunks). A too-short clip, or one whose
    voiced part shrinks below one chunk, yields ([], noise_chunks).
    """
    if not length_filter(clip):
        return [], []
    voiced = remove_silence(clip, threshold=silence_threshold)
    if len(voiced.samples) == 0:
        return [], []
    if voiced.sample_rate != cfg.sample_rate:
        voiced = resample(voiced, cfg.sample_rate)
    chunks, noise = split_chunks(
        voiced, peak_ratio=peak_ratio, max_chunks=max_chunks
    )
    spectrograms = [mel_spectrogram(normalize(c), cfg) for c in chunks]
    return spectrograms, noise
