"""Preprocessing pipeline tests.

Silence removal is checked against a naive per-sample sliding-max oracle
and against the scipy maximum_filter1d formula it replaced, and the mel
frequency mapping against a from-scratch reimplementation of the piecewise
linear/log scale using only the math module. The peak screen is checked
against a loop with one np.median per window, and the mel projection
against the product over every FFT bin.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter1d

from birdedge.audio_io import AudioClip
from birdedge.exceptions import ConfigError, DegenerateInputError, UnsupportedError
from birdedge.melspec import power_to_db
from birdedge.preprocess import (
    CHUNK_SECONDS,
    ENVELOPE_WINDOW_SECONDS,
    FFT_SIZE,
    HOP,
    MAX_CHUNKS,
    MIN_CLIP_SECONDS,
    MIN_SAMPLE_RATE,
    N_MELS,
    PEAK_NEIGHBORHOOD_SECONDS,
    PEAK_RATIO,
    SAMPLE_RATE,
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

    def test_peak_memory_stays_near_one_clip(self):
        # 20 s at 48 kHz, 32 % of it loud in 100 ms bursts of +-0.5 over
        # +-0.001 noise: no float32 |s| copy of the clip and no int64 index
        # of its loud samples, only a boolean mask and the kept samples
        rng = np.random.default_rng(5)
        samples = rng.uniform(-0.001, 0.001, 20 * RATE).astype(np.float32)
        for burst in rng.choice(200, size=64, replace=False):
            samples[burst * 4800:(burst + 1) * 4800] = np.where(
                rng.random(4800) < 0.5, -0.5, 0.5)
        clip = clip_of(samples)
        tracemalloc.start()
        try:
            out = remove_silence(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.32 <= len(out.samples) / len(samples) < 0.5
        assert peak <= 1.5 * samples.nbytes


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


def naive_has_peak(chunk, sample_rate=48000, ratio=PEAK_RATIO):
    """The peak screen as a loop over windows, one np.median each."""
    chunk = np.asarray(chunk)
    if len(chunk) == 0:
        return False
    window = max(1, int(round(sample_rate * ENVELOPE_WINDOW_SECONDS)))
    span = max(1, int(round(PEAK_NEIGHBORHOOD_SECONDS / ENVELOPE_WINDOW_SECONDS)))
    if chunk.dtype.kind in "iu":
        chunk = chunk.astype(np.float64)  # in int16, |-32768| wraps to -32768
    maxima = np.maximum.reduceat(np.abs(chunk), np.arange(0, len(chunk), window))
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


# 10-sample windows keep drawn chunks small; the span stays 10 windows
SMALL_RATE = 200
SMALL_WINDOW = 10
F32_MAX = float(np.finfo(np.float32).max)
LEVELS = {
    np.float16: [0.0, 0.25, 0.5, 1.0, 2.0, 32768.0, 49152.0, 65504.0, math.nan],
    np.float32: [0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 2.0, 0.75 * F32_MAX, F32_MAX, math.nan],
    np.float64: [0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 2.0, 0.75 * F32_MAX, F32_MAX,
                 float(np.finfo(np.float64).max), math.nan],
    np.int16: [0, 1, 2, 3, 100, 1000, -1000, 32767, -32768],
}


@st.composite
def peak_screen_cases(draw):
    """(chunk, ratio): float16, float32, float64 or int16 per-window levels
    from a small pool, so medians tie, even neighbour counts average two
    equal or unequal values, and sums pass the float maximum."""
    dtype = draw(st.sampled_from(list(LEVELS)))
    n = draw(st.one_of(st.integers(0, 3), st.integers(4, 45)))
    levels = np.array(
        draw(st.lists(st.sampled_from(LEVELS[dtype]), min_size=n, max_size=n)),
        dtype=dtype,
    )
    ratio = draw(st.one_of(
        st.sampled_from([1.0, PEAK_RATIO, 1.5, 2.0]), st.floats(0.5, 4.0)
    ))
    if n >= 2 and dtype is not np.int16 and draw(st.booleans()):
        # one window exactly ratio times its neighbours' median
        i = draw(st.integers(0, n - 1))
        neighbors = np.concatenate([levels[max(0, i - 10):i], levels[i + 1:i + 11]])
        with np.errstate(over="ignore"):
            levels[i] = ratio * np.median(np.abs(neighbors))
    chunk = np.repeat(levels, SMALL_WINDOW)
    if n and draw(st.booleans()):
        chunk = chunk[:len(chunk) - draw(st.integers(1, SMALL_WINDOW - 1))]
    return chunk, ratio


class TestHasPeakAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(case=peak_screen_cases())
    def test_matches_loop(self, case):
        chunk, ratio = case
        with np.errstate(over="ignore"):  # np.median warns where a sum overflows
            expect = naive_has_peak(chunk, SMALL_RATE, ratio)
        assert has_peak(chunk, SMALL_RATE, ratio) == expect

    @pytest.mark.parametrize("dtype", list(LEVELS))
    def test_all_zero(self, dtype):
        for n in (0, 1, SMALL_WINDOW, 2 * SMALL_WINDOW, 45 * SMALL_WINDOW - 3):
            chunk = np.zeros(n, dtype=dtype)
            assert not has_peak(chunk, SMALL_RATE)
            assert not naive_has_peak(chunk, SMALL_RATE)

    def test_float16_pairs_are_averaged_in_float32(self):
        # 32768 + 32768 is past the float16 maximum, and np.median averages
        # float16 values in float32, so the first window's median is 32768
        chunk = np.repeat(np.array([65504, 32768, 32768], dtype=np.float16), SMALL_WINDOW)
        assert naive_has_peak(chunk, SMALL_RATE)
        assert has_peak(chunk, SMALL_RATE)

    def test_matches_loop_on_random_chunks(self):
        rng = np.random.default_rng(12)
        for k in range(60):
            chunk = rng.uniform(-1, 1, RATE * 2).astype(np.float32)
            chunk *= rng.uniform(0, 1, RATE * 2).astype(np.float32) ** (1 + k % 5)
            assert has_peak(chunk, RATE) == naive_has_peak(chunk, RATE)


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

    @pytest.mark.parametrize("ratio, level", [(1.5, 0.25), (PEAK_RATIO, 0.4)])
    def test_max_exactly_ratio_times_median_is_a_peak(self, ratio, level):
        # "at least ratio times that median": equality counts. The median of
        # float32 maxima is a float32, and so is ratio times it.
        window = round(RATE * 0.05)
        level = np.float32(level)
        chunk = np.full(RATE * 2, level, dtype=np.float32)
        lo = 20 * window
        chunk[lo:lo + window] = np.float32(ratio) * level
        assert has_peak(chunk, RATE, ratio=ratio)

    def test_window_is_left_out_of_its_own_median(self):
        # a trill: 50 ms notes and 50 ms gaps in turn, ending on a note. An
        # inner note's neighbours, itself excluded, are half notes and half
        # gaps, so their median lies halfway and the note is a peak. Counted
        # in its own median, each note would make notes the majority there.
        window = round(RATE * 0.05)
        levels = np.where(np.arange(40) % 2 == 0, 0.5, 0.05).astype(np.float32)
        levels[-1] = 0.5
        assert has_peak(np.repeat(levels, window), RATE)

    def test_window_is_not_sorted_in_with_its_neighbours(self):
        # a step from 1.0 to 1.3 with one 1.2 window on it. That window's
        # neighbours are ten 1.0s and ten 1.3s, median 1.15, and 1.2 is
        # less than 1.075 * 1.15, so no window is a peak. Sorted in among
        # its own neighbours, the 1.2 would become their upper middle
        # value, and 1.2 >= 1.075 * (1.0 + 1.2) / 2 would make it one.
        window = round(RATE * 0.05)
        levels = np.array([1.0] * 20 + [1.2] + [1.3] * 19, dtype=np.float32)
        assert not has_peak(np.repeat(levels, window), RATE)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), scale=st.floats(0.01, 50.0))
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        chunk = rng.uniform(-1, 1, RATE * 2).astype(np.float32)
        chunk *= rng.uniform(0, 1, RATE * 2).astype(np.float32) ** 3
        assert has_peak(chunk, RATE) == has_peak(chunk * np.float32(scale), RATE)

    def test_int16_full_scale_negative_window_is_a_peak(self):
        # |-32768| is 32768 only outside int16, where np.abs wraps it
        window = round(RATE * 0.05)
        chunk = np.full(RATE * 2, 100, dtype=np.int16)
        chunk[20 * window:21 * window] = -32768
        assert has_peak(chunk.astype(np.float32), RATE)
        assert has_peak(chunk, RATE)


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

    def test_chunks_are_views_and_noise_windows_copies(self):
        samples = np.concatenate([peaked_chunk(2), np.full(RATE * 2, 0.3, np.float32)])
        clip = clip_of(samples)
        chunks, noise = split_chunks(clip)
        assert len(chunks) == 1 and len(noise) == 1
        assert np.shares_memory(chunks[0], clip.samples)
        assert not np.shares_memory(noise[0], clip.samples)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_ratio_must_be_finite_and_positive(self, ratio):
        with pytest.raises(ValueError, match="peak_ratio"):
            split_chunks(clip_of(peaked_chunk()), peak_ratio=ratio)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_must_be_at_least_one(self, cap):
        with pytest.raises(ValueError, match="max_chunks"):
            split_chunks(clip_of(peaked_chunk()), max_chunks=cap)

    def test_cap_must_be_an_integer(self):
        samples = np.concatenate([peaked_chunk(i) for i in range(3)])
        with pytest.raises(ConfigError, match="max_chunks must be an integer, got 2.5"):
            split_chunks(clip_of(samples), max_chunks=2.5)
        with pytest.raises(ConfigError, match="max_chunks must be an integer"):
            preprocess_recording(clip_of(samples), max_chunks=2.5)
        # a numpy integer is one
        chunks, noise = split_chunks(clip_of(samples), max_chunks=np.int64(2))
        assert len(chunks) == 2 and noise == []


class TestNormalize:
    def test_peak_hits_one(self):
        out = normalize(np.array([0.1, -0.6, 0.2], dtype=np.float32))
        assert float(np.abs(out).max()) == 1.0

    def test_zero_chunk_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(np.zeros(10, dtype=np.float32))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_chunk_rejected(self, bad):
        chunk = np.full(10, 0.5, dtype=np.float32)
        chunk[3] = bad
        with pytest.raises(DegenerateInputError):
            normalize(chunk)

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
    @pytest.mark.parametrize("ref", [0.0, -1.0])
    def test_power_to_db_needs_a_positive_reference(self, ref):
        with pytest.raises(DegenerateInputError, match="reference power must be positive"):
            power_to_db(np.ones((2, 2)), ref)

    def test_canonical_shape(self):
        spec = mel_spectrogram(np.random.default_rng(0).uniform(-1, 1, RATE * 2).astype(np.float32))
        assert spec.values.shape == (64, 249)
        assert spec.values.dtype == np.float32

    def test_frame_count_law(self):
        frames = {}
        for n in (512, 513, 96000, 96383, 96384, 200000):
            rng = np.random.default_rng(n)
            spec = mel_spectrogram(rng.uniform(-1, 1, n).astype(np.float32))
            frames[n] = spec.values.shape[1]
            assert frames[n] == (n - FFT_SIZE) // HOP + 1
        assert frames[96000] == 249
        assert frames[96384] == 250

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
        with pytest.raises(DegenerateInputError, match="no spectral energy"):
            mel_spectrogram(np.zeros(RATE * 2, dtype=np.float32))

    # the last sample lies in no frame: 248 * 384 + 512 = 95744 < 96000
    @pytest.mark.parametrize("bad, at", [
        (math.nan, 1000), (math.inf, 1000), (-math.inf, 1000),
        (math.nan, RATE * 2 - 1), (1e200, 1000),
    ])
    def test_non_finite_or_overflowing_chunk_rejected(self, bad, at):
        chunk = np.random.default_rng(5).uniform(-1, 1, RATE * 2)
        chunk[at] = bad
        with pytest.raises(DegenerateInputError):
            mel_spectrogram(chunk)

    def test_band_edges_match_reference(self):
        edges = mel_band_edges()
        lo, hi = _hz_to_mel(150.0), _hz_to_mel(7500.0)
        expect = [_mel_to_hz(lo + (hi - lo) * k / 65) for k in range(66)]
        assert np.allclose(edges, expect, rtol=1e-9)
        assert edges[0] == pytest.approx(150.0)
        assert edges[-1] == pytest.approx(7500.0)

    def test_filterbank_support(self):
        bank = mel_filterbank()
        assert bank.shape == (64, FFT_SIZE // 2 + 1)
        freqs = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE
        edges = mel_band_edges()
        for k in (0, 20, 63):
            row = bank[k]
            nz = np.nonzero(row)[0]
            assert len(nz) > 0
            assert freqs[nz].min() > edges[k]
            assert freqs[nz].max() < edges[k + 2]

    def test_filterbank_is_cached_read_only(self):
        bank = mel_filterbank()
        assert mel_filterbank() is bank
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        with pytest.raises(ValueError):
            mel_band_edges()[0] = 1.0

    def test_filterbank_matches_analytic_triangles(self):
        # weight[k, j] is the triangle over (lower, center, upper) sampled
        # at bin j, scaled by 2 / (upper - lower)
        bank = mel_filterbank()
        edges = mel_band_edges()
        freqs = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE
        expect = np.zeros_like(bank, dtype=np.float64)
        for k in range(N_MELS):
            lo, mid, hi = edges[k], edges[k + 1], edges[k + 2]
            for j, f in enumerate(freqs):
                tri = min((f - lo) / (mid - lo), (hi - f) / (hi - mid))
                expect[k, j] = max(0.0, tri) * 2.0 / (hi - lo)
        assert np.allclose(bank, expect, rtol=1e-9, atol=1e-15)


def full_product_mel(chunk):
    """mel_spectrogram projecting every FFT bin through the filterbank."""
    chunk = np.asarray(chunk, dtype=np.float64)
    n = np.arange(FFT_SIZE)
    hann = 0.5 * (1.0 - np.cos(2.0 * np.pi * n / FFT_SIZE))
    frames = np.lib.stride_tricks.sliding_window_view(chunk, FFT_SIZE)[::HOP]
    spectra = np.fft.rfft(frames[: (len(chunk) - FFT_SIZE) // HOP + 1] * hann, axis=1)
    power = spectra.real**2 + spectra.imag**2
    mel_power = power @ mel_filterbank().T
    return power_to_db(mel_power, float(mel_power.max())).T.astype(np.float32)


# FFT bins the filterbank weights, of FFT_SIZE // 2 + 1 = 257
WEIGHTED_BINS = 80


class TestMelBinCut:
    def test_filterbank_is_zero_past_the_weighted_bins(self):
        bank = mel_filterbank()
        assert bank[:, WEIGHTED_BINS - 1].any()
        assert not bank[:, WEIGHTED_BINS:].any()

    def test_matches_full_product_bytewise(self):
        rng = np.random.default_rng(WEIGHTED_BINS)
        for _ in range(8):
            n = int(rng.integers(FFT_SIZE, 3 * SAMPLE_RATE))
            chunk = rng.uniform(-1, 1, n).astype(np.float32)
            chunk *= rng.uniform(0, 1, n).astype(np.float32) ** int(rng.integers(1, 5))
            got = mel_spectrogram(chunk).values
            assert got.tobytes() == full_product_mel(chunk).tobytes()


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

    @pytest.mark.parametrize("setting, value", [
        ("silence_threshold", 2.0), ("silence_threshold", math.nan),
        ("peak_ratio", math.nan), ("max_chunks", 0),
    ])
    @pytest.mark.parametrize("samples", [np.full(RATE, 0.5), np.zeros(RATE * 4)],
                             ids=["short", "silent"])
    def test_bad_setting_raises_whatever_the_clip(self, setting, value, samples):
        name = "threshold" if setting == "silence_threshold" else setting
        with pytest.raises(ValueError, match=name):
            preprocess_recording(clip_of(samples), **{setting: value})

    @pytest.mark.parametrize("rate, seconds", [(1, 5000), (MIN_SAMPLE_RATE - 1, 1.0),
                                               (MIN_SAMPLE_RATE - 1, 4.0)],
                             ids=["1-hz", "short", "long"])
    def test_rate_below_the_floor_is_unsupported_whatever_the_length(self, rate, seconds):
        # resampling a clip at 1 Hz to 48 kHz would grow it 48000-fold
        samples = np.resize(np.float32([0.0, 0.5, 0.0, -0.5]), int(rate * seconds))
        with pytest.raises(UnsupportedError, match=f"sample rate {rate} Hz is below"):
            preprocess_recording(clip_of(samples, rate=rate))

    def test_bad_setting_is_reported_before_the_rate(self):
        clip = clip_of(np.zeros(100), rate=MIN_SAMPLE_RATE - 1)
        with pytest.raises(ConfigError, match="max_chunks"):
            preprocess_recording(clip, max_chunks=0)

    def test_rate_at_the_floor_is_resampled(self):
        rng = np.random.default_rng(12)
        base = 0.3 * rng.uniform(-1, 1, MIN_SAMPLE_RATE * 5).astype(np.float32)
        for k in range(5):
            at = MIN_SAMPLE_RATE * k + MIN_SAMPLE_RATE // 2
            base[at:at + 100] = np.float32(1.0)
        specs, noise = preprocess_recording(clip_of(base, rate=MIN_SAMPLE_RATE))
        assert len(specs) >= 1
        assert all(s.values.shape == (64, 249) for s in specs)
        assert all(n.shape == (RATE * 2,) for n in noise)

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

    def test_peak_memory_bounded_by_clip_size(self):
        # 64 s of calls at 44.1 kHz, so the clip is resampled to 48 kHz;
        # whole-clip float64 resample temporaries would take about 11x the
        # decoded bytes
        rate = 44100
        rng = np.random.default_rng(17)
        samples = 0.25 * rng.uniform(-1, 1, rate * 64)
        for at in range(rate // 4, len(samples) - 400, int(0.45 * rate)):
            samples[at:at + 400] = 1.0
        clip = clip_of(samples, rate=rate)
        tracemalloc.start()
        try:
            specs, _ = preprocess_recording(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(specs) == MAX_CHUNKS
        assert peak <= 3 * clip.samples.nbytes

    def test_deterministic(self):
        samples = np.concatenate([loud_peaked_chunk(21), loud_peaked_chunk(22)])
        a, _ = preprocess_recording(clip_of(samples))
        b, _ = preprocess_recording(clip_of(samples))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.values.tobytes() == y.values.tobytes()
