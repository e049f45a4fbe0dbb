"""Preprocessing pipeline tests.

Silence removal is checked against a naive per-sample sliding-max oracle
and against the scipy maximum_filter1d formula it replaced, and the mel
frequency mapping against a from-scratch reimplementation of the piecewise
linear/log scale using only the math module.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter1d

from birdedge.audio_io import AudioClip
from birdedge.exceptions import ConfigError, DegenerateInputError
from birdedge.melspec import MelConfig
from birdedge.preprocess import (
    CHUNK_SECONDS,
    MAX_CHUNKS,
    MIN_CLIP_SECONDS,
    PEAK_RATIO,
    SILENCE_THRESHOLD,
    has_peak,
    length_filter,
    mel_band_edges,
    mel_filterbank,
    mel_spectrogram,
    normalize,
    preprocess_recording,
    remove_silence,
    split_chunks,
)

RATE = 48000


def clip_of(samples, rate=RATE):
    return AudioClip(np.asarray(samples, dtype=np.float32), rate)


# independent mapping: linear below 1 kHz, log above, from-scratch in math
def _hz_to_mel(f):
    if f < 1000.0:
        return 3.0 * f / 200.0
    return 15.0 + 27.0 * math.log(f / 1000.0) / math.log(6.4)


def _mel_to_hz(m):
    if m < 15.0:
        return 200.0 * m / 3.0
    return 1000.0 * math.exp(math.log(6.4) / 27.0 * (m - 15.0))


def reference_band_centers(n_mels=64, f_min=150.0, f_max=7500.0):
    lo, hi = _hz_to_mel(f_min), _hz_to_mel(f_max)
    return [_mel_to_hz(lo + (hi - lo) * (k + 1) / (n_mels + 1)) for k in range(n_mels)]


class TestLengthFilter:
    def test_short_clip_rejected(self):
        assert not length_filter(clip_of(np.zeros(int(RATE * 1.99))))

    def test_exact_minimum_accepted(self):
        assert length_filter(clip_of(np.zeros(int(RATE * MIN_CLIP_SECONDS))))

    def test_longer_accepted(self):
        assert length_filter(clip_of(np.zeros(int(RATE * 2.01))))

    def test_rate_dependence(self):
        # same sample count, lower rate, longer duration
        samples = np.zeros(int(16000 * 2.5))
        assert not length_filter(clip_of(samples, rate=48000))
        assert length_filter(clip_of(samples, rate=16000))


class TestRemoveSilence:
    def naive(self, samples, rate, threshold=SILENCE_THRESHOLD):
        envelope_abs = np.abs(samples)
        peak = envelope_abs.max() if len(samples) else 0.0
        if peak == 0.0:
            return np.empty(0, dtype=samples.dtype)
        half = int(round(rate * 0.05 / 2))
        kept = []
        for i in range(len(samples)):
            lo = max(0, i - half)
            hi = min(len(samples), i + half + 1)
            if envelope_abs[lo:hi].max() >= threshold * peak:
                kept.append(samples[i])
        return np.asarray(kept, dtype=samples.dtype)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        samples = np.zeros(3000, dtype=np.float32)
        spikes = rng.choice(3000, size=25, replace=False)
        samples[spikes] = rng.uniform(-1, 1, size=25).astype(np.float32)
        samples += rng.uniform(-0.01, 0.01, size=3000).astype(np.float32)
        # at 1100 Hz the half window rounds up: round(27.5) is 28, not 27
        for rate in (1000, 1100):
            out = remove_silence(clip_of(samples, rate=rate))
            expect = self.naive(samples, rate)
            assert np.array_equal(out.samples, expect), rate

    def test_matches_naive_on_dense_signal(self):
        rng = np.random.default_rng(7)
        rate = 500
        samples = (rng.uniform(-1, 1, 4000) * rng.uniform(0, 1, 4000) ** 4).astype(np.float32)
        out = remove_silence(clip_of(samples, rate=rate))
        expect = self.naive(samples, rate)
        assert np.array_equal(out.samples, expect)

    def test_loud_quiet_loud(self):
        # 1 s at 0.5, 1 s at 0.05, 1 s at 0.5: quiet middle removed except
        # for the half-window margins that still see a loud neighbor
        samples = np.concatenate([
            np.full(RATE, 0.5), np.full(RATE, 0.05), np.full(RATE, 0.5),
        ]).astype(np.float32)
        out = remove_silence(clip_of(samples))
        half = int(round(RATE * 0.05 / 2))
        assert len(out.samples) == 2 * RATE + 2 * half
        assert abs(len(out.samples) / RATE - 2.0) < 0.1

    def test_all_zero_becomes_empty(self):
        out = remove_silence(clip_of(np.zeros(RATE * 3)))
        assert len(out.samples) == 0

    def test_uniformly_loud_unchanged(self):
        samples = np.full(RATE, 0.3, dtype=np.float32)
        out = remove_silence(clip_of(samples))
        assert np.array_equal(out.samples, samples)

    def test_sign_insensitive(self):
        samples = np.concatenate([
            np.full(RATE, -0.5), np.full(RATE, 0.01), np.full(RATE, 0.5),
        ]).astype(np.float32)
        out = remove_silence(clip_of(samples))
        assert len(out.samples) < len(samples)
        assert len(out.samples) >= 2 * RATE

    def test_rate_preserved(self):
        out = remove_silence(clip_of(np.full(100, 0.2), rate=8000))
        assert out.sample_rate == 8000


def filter_remove_silence(clip, threshold=SILENCE_THRESHOLD):
    """The sliding-max formula remove_silence had before it cut by runs."""
    abs_samples = np.abs(clip.samples, dtype=np.float32)
    if len(abs_samples) == 0:
        return clip.samples.copy()
    peak = float(abs_samples.max())
    if peak == 0.0:
        return np.empty(0, dtype=np.float32)
    half = int(round(clip.sample_rate * 0.05 / 2.0))
    envelope = maximum_filter1d(
        abs_samples, size=2 * half + 1, mode="constant", cval=0.0
    )
    return clip.samples[envelope >= threshold * peak]


class TestRemoveSilenceAgainstFilter:
    """Bit-exact agreement, dtype included, with the maximum_filter1d formula."""

    def check(self, samples, rate, threshold=SILENCE_THRESHOLD):
        clip = AudioClip(samples, rate)
        got = remove_silence(clip, threshold=threshold).samples
        want = filter_remove_silence(clip, threshold)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        samples=arrays(
            st.sampled_from([np.float32, np.float64]),
            st.integers(0, 400),
            elements=st.one_of(
                st.just(0.0),
                st.floats(-1 / 32, 1 / 32, width=32),
                st.floats(-1.0, 1.0, width=32),
            ),
        ),
        rate=st.integers(1, 1200),
        threshold=st.floats(0.01, 0.99),
    )
    def test_matches_filter(self, samples, rate, threshold):
        self.check(samples, rate, threshold)

    @pytest.mark.parametrize("n", [1, 2, 5, 2400, 2401])
    def test_clip_shorter_than_window(self, n):
        # at 48 kHz the window is 2401 samples
        samples = np.full(n, 0.01, dtype=np.float32)
        samples[n // 2] = 0.5
        assert len(self.check(samples, RATE)) == n

    @pytest.mark.parametrize("where", [0, -1])
    def test_loud_sample_at_either_end(self, where):
        samples = np.full(1000, 0.01, dtype=np.float32)
        samples[where] = 0.9
        got = self.check(samples, 1000)  # half = 25
        assert len(got) == 26

    @pytest.mark.parametrize("extra", [-2, -1, 0, 1, 2, 3])
    def test_run_split_boundary(self, extra):
        # two loud samples 2*half + 1 + extra apart: at distance 2*half + 1
        # their widened runs touch, one further a single sample separates them
        rate, half = 1000, 25
        distance = 2 * half + 1 + extra
        samples = np.zeros(400, dtype=np.float32)
        samples[100] = samples[100 + distance] = 1.0
        got = self.check(samples, rate)
        assert len(got) == min(2 * (2 * half + 1), distance + 2 * half + 1)

    def test_sample_exactly_at_threshold_survives(self):
        # float32(0.7) < 0.7, so a float64 comparison would drop it
        level = np.float32(0.7)
        assert float(level) < 0.7
        samples = np.zeros(300, dtype=np.float32)
        samples[0] = 1.0
        samples[200] = level
        samples[100] = np.nextafter(level, np.float32(0))
        got = self.check(samples, 1000, threshold=0.7)
        assert len(got) == 26 + 51  # [0, 25] and [175, 225]

    def test_float64_clip_keeps_dtype(self):
        rng = np.random.default_rng(3)
        samples = rng.uniform(-1, 1, 5000) * rng.uniform(0, 1, 5000) ** 6
        got = self.check(samples, 200)
        assert got.dtype == np.float64
        assert 0 < len(got) < len(samples)

    def test_nan_clip_comes_back_empty(self):
        samples = np.array([0.1, np.nan, 0.5] * 10, dtype=np.float32)
        assert len(self.check(samples, 100)) == 0


class TestHasPeak:
    def test_flat_chunk_is_noise(self):
        assert not has_peak(np.full(RATE * 2, 0.4, dtype=np.float32), RATE)

    def test_spike_over_background(self):
        chunk = np.full(RATE * 2, 0.1, dtype=np.float32)
        chunk[RATE] = 0.9
        assert has_peak(chunk, RATE)

    def test_all_zero_is_noise(self):
        assert not has_peak(np.zeros(RATE * 2, dtype=np.float32), RATE)

    def test_threshold_ratio(self):
        # single window raised to just under / just over the ratio
        window = round(RATE * 0.05)
        chunk = np.full(RATE * 2, 0.4, dtype=np.float32)
        lo = 20 * window
        chunk[lo:lo + window] = 0.4 * (PEAK_RATIO - 0.01)
        assert not has_peak(chunk, RATE)
        chunk[lo:lo + window] = 0.4 * (PEAK_RATIO + 0.01)
        assert has_peak(chunk, RATE)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.01, 50.0))
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        chunk = rng.uniform(-1, 1, RATE * 2).astype(np.float32)
        chunk *= rng.uniform(0, 1, RATE * 2).astype(np.float32) ** 3
        assert has_peak(chunk, RATE) == has_peak(chunk * np.float32(scale), RATE)


def peaked_chunk(seed=0):
    """A 2 s chunk with a clear transient, quiet elsewhere."""
    rng = np.random.default_rng(seed)
    chunk = 0.02 * rng.uniform(-1, 1, RATE * 2).astype(np.float32)
    at = RATE // 2 + int(rng.integers(0, RATE))
    chunk[at:at + 400] += np.float32(0.8)
    return chunk


class TestSplitChunks:
    def test_remainder_dropped(self):
        samples = np.concatenate([peaked_chunk(i) for i in range(3)] + [np.full(500, 0.5, np.float32)])
        chunks, noise = split_chunks(clip_of(samples))
        assert len(chunks) == 3
        assert all(len(c) == RATE * 2 for c in chunks)

    def test_noise_windows_separated(self):
        samples = np.concatenate([peaked_chunk(1), np.full(RATE * 2, 0.3, np.float32)])
        chunks, noise = split_chunks(clip_of(samples))
        assert len(chunks) == 1
        assert len(noise) == 1
        assert np.array_equal(noise[0], np.full(RATE * 2, 0.3, np.float32))

    def test_cap_applies_to_survivors(self):
        samples = np.concatenate([peaked_chunk(i) for i in range(MAX_CHUNKS + 5)])
        chunks, noise = split_chunks(clip_of(samples))
        assert len(chunks) == MAX_CHUNKS
        assert len(noise) == 0

    def test_sub_chunk_clip_yields_nothing(self):
        chunks, noise = split_chunks(clip_of(np.full(RATE, 0.5)))
        assert chunks == [] and noise == []

    def test_order_preserved(self):
        first, second = peaked_chunk(10), peaked_chunk(11)
        chunks, _ = split_chunks(clip_of(np.concatenate([first, second])))
        assert np.array_equal(chunks[0], first)
        assert np.array_equal(chunks[1], second)


class TestNormalize:
    def test_peak_hits_one(self):
        out = normalize(np.array([0.1, -0.6, 0.2], dtype=np.float32))
        assert float(np.abs(out).max()) == 1.0

    def test_zero_chunk_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(np.zeros(10, dtype=np.float32))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_shape_and_sign_preserved(self, seed):
        rng = np.random.default_rng(seed)
        chunk = rng.uniform(-0.5, 0.5, 100).astype(np.float32)
        chunk[0] = 0.25
        out = normalize(chunk)
        assert out.shape == chunk.shape
        assert np.all(np.sign(out) == np.sign(chunk))


class TestMelSpectrogram:
    def test_canonical_shape(self):
        spec = mel_spectrogram(np.random.default_rng(0).uniform(-1, 1, RATE * 2).astype(np.float32))
        assert spec.values.shape == (64, 249)
        assert spec.values.dtype == np.float32

    def test_frame_count_law(self):
        cfg = MelConfig()
        for n in (512, 513, 96000, 96383, 96384, 200000):
            rng = np.random.default_rng(n)
            spec = mel_spectrogram(rng.uniform(-1, 1, n).astype(np.float32))
            assert spec.values.shape[1] == (n - cfg.fft_size) // cfg.hop + 1
        assert cfg.frame_count(96000) == 249
        assert cfg.frame_count(96384) == 250

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            mel_spectrogram(np.ones(511, dtype=np.float32))

    def test_db_range(self):
        spec = mel_spectrogram(np.random.default_rng(3).uniform(-1, 1, RATE * 2).astype(np.float32))
        assert float(spec.values.max()) == 0.0
        assert float(spec.values.min()) >= -80.0

    def test_pure_tone_band_assignment(self):
        centers = reference_band_centers()
        for freq in (500.0, 1000.0, 3000.0, 6000.0):
            t = np.arange(RATE * 2) / RATE
            tone = np.sin(2 * np.pi * freq * t).astype(np.float32)
            spec = mel_spectrogram(tone)
            band = int(np.argmax(spec.values.mean(axis=1)))
            expect = int(np.argmin([abs(c - freq) for c in centers]))
            assert abs(band - expect) <= 1, (freq, band, expect)

    def test_1khz_tone_exact_band(self):
        t = np.arange(RATE * 2) / RATE
        tone = np.sin(2 * np.pi * 1000.0 * t).astype(np.float32)
        spec = mel_spectrogram(tone)
        centers = reference_band_centers()
        assert int(np.argmax(spec.values.mean(axis=1))) == int(
            np.argmin([abs(c - 1000.0) for c in centers])
        )

    def test_impulse_peaks_at_zero_db(self):
        chunk = np.zeros(RATE * 2, dtype=np.float32)
        chunk[RATE] = 1.0
        spec = mel_spectrogram(chunk)
        assert float(spec.values.max()) == 0.0

    def test_silent_chunk_rejected(self):
        with pytest.raises(DegenerateInputError):
            mel_spectrogram(np.zeros(RATE * 2, dtype=np.float32))

    def test_band_edges_match_reference(self):
        edges = mel_band_edges(MelConfig())
        lo, hi = _hz_to_mel(150.0), _hz_to_mel(7500.0)
        expect = [_mel_to_hz(lo + (hi - lo) * k / 65) for k in range(66)]
        assert np.allclose(edges, expect, rtol=1e-9)
        assert edges[0] == pytest.approx(150.0)
        assert edges[-1] == pytest.approx(7500.0)

    def test_filterbank_support(self):
        cfg = MelConfig()
        bank = mel_filterbank(cfg)
        assert bank.shape == (64, cfg.fft_size // 2 + 1)
        freqs = np.arange(cfg.fft_size // 2 + 1) * cfg.sample_rate / cfg.fft_size
        edges = mel_band_edges(cfg)
        for k in (0, 20, 63):
            row = bank[k]
            nz = np.nonzero(row)[0]
            assert len(nz) > 0
            assert freqs[nz].min() > edges[k]
            assert freqs[nz].max() < edges[k + 2]

    def test_filterbank_is_cached_read_only(self):
        bank = mel_filterbank(MelConfig())
        assert mel_filterbank(MelConfig()) is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0

    def test_filterbank_matches_analytic_triangles(self):
        # weight[k, j] is the triangle over (lower, center, upper) sampled
        # at bin j, scaled by 2 / (upper - lower)
        cfg = MelConfig()
        bank = mel_filterbank(cfg)
        edges = mel_band_edges(cfg)
        freqs = np.arange(cfg.fft_size // 2 + 1) * cfg.sample_rate / cfg.fft_size
        expect = np.zeros_like(bank, dtype=np.float64)
        for k in range(cfg.n_mels):
            lo, mid, hi = edges[k], edges[k + 1], edges[k + 2]
            for j, f in enumerate(freqs):
                tri = min((f - lo) / (mid - lo), (hi - f) / (hi - mid))
                expect[k, j] = max(0.0, tri) * 2.0 / (hi - lo)
        assert np.allclose(bank, expect, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(f_min=7500.0, f_max=150.0),
            dict(f_min=-1.0),
            dict(f_max=30000.0),
            dict(hop=1024),
            dict(n_mels=0),
            dict(fft_size=0),
        ],
    )
    def test_bad_configs(self, kwargs):
        with pytest.raises(ConfigError):
            mel_spectrogram(np.ones(4096, dtype=np.float32), MelConfig(**kwargs))


def loud_peaked_chunk(seed=0):
    """Like peaked_chunk but with a background loud enough to survive
    the silence gate (>= 20% of the transient amplitude)."""
    rng = np.random.default_rng(seed)
    chunk = 0.25 * rng.uniform(-1, 1, RATE * 2).astype(np.float32)
    at = RATE // 2 + int(rng.integers(0, RATE))
    chunk[at:at + 400] = np.float32(1.0)
    return chunk


class TestPipeline:
    def test_short_recording_rejected(self):
        specs, noise = preprocess_recording(clip_of(np.full(int(RATE * 1.5), 0.5)))
        assert specs == [] and noise == []

    def test_peaked_recording(self):
        samples = np.concatenate([loud_peaked_chunk(i) for i in range(3)])
        specs, noise = preprocess_recording(clip_of(samples))
        assert len(specs) == 3
        assert all(s.values.shape == (64, 249) for s in specs)
        assert noise == []

    def test_unpeaked_recording_feeds_noise_pool(self):
        rng = np.random.default_rng(9)
        samples = (0.5 * rng.uniform(-1, 1, RATE * 6)).astype(np.float32)
        specs, noise = preprocess_recording(clip_of(samples))
        assert specs == []
        assert len(noise) == 3
        assert all(n.shape == (RATE * 2,) for n in noise)

    def test_low_rate_input_is_resampled(self):
        rng = np.random.default_rng(11)
        base = 0.3 * rng.uniform(-1, 1, 16000 * 5).astype(np.float32)
        for k in range(5):
            at = 16000 * k + 8000
            base[at:at + 200] = np.float32(1.0)
        specs, noise = preprocess_recording(clip_of(base, rate=16000))
        for s in specs:
            assert s.values.shape == (64, 249)
        for n in noise:
            assert n.shape == (RATE * 2,)
        assert len(specs) >= 1

    def test_deterministic(self):
        samples = np.concatenate([loud_peaked_chunk(21), loud_peaked_chunk(22)])
        a, _ = preprocess_recording(clip_of(samples))
        b, _ = preprocess_recording(clip_of(samples))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.values.tobytes() == y.values.tobytes()
