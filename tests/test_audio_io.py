"""WAV decoding, resampling, and spectrogram container tests.

Decode expectations come from an independent encoder (scipy.io.wavfile),
from containers assembled by hand with struct, or from the mean /
nan_to_num / clip payload formula the decoder used before it decoded in
place, never from this package's own writer.
"""

import io
import re
import struct

import numpy as np
import pytest
import scipy.io.wavfile as wavfile
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from birdedge.audio_io import AudioClip, decode_wav, read_spectrogram, resample, write_spectrogram
from birdedge.exceptions import (
    BirdEdgeError,
    ConfigError,
    FormatError,
    ShapeError,
    UnsupportedError,
)
from birdedge.melspec import MelSpectrogram
from birdedge.preprocess import MAX_CHUNKS, preprocess_recording


def wav_container(fmt_code, channels, rate, bits, payload, *, data_size=None):
    """Assemble a single fmt+data RIFF container by hand."""
    fmt = struct.pack(
        "<HHIIHH",
        fmt_code,
        channels,
        rate,
        rate * channels * bits // 8,
        channels * bits // 8,
        bits,
    )
    if data_size is None:
        data_size = len(payload)
    chunks = (
        b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", data_size) + payload
    )
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestDecode:
    def test_sine_roundtrip_against_reference_writer(self):
        t = np.arange(48000) / 48000.0
        sine = 0.8 * np.sin(2 * np.pi * 440.0 * t)
        buf = io.BytesIO()
        wavfile.write(buf, 48000, np.round(sine * 32767).astype(np.int16))
        clip = decode_wav(buf.getvalue())
        assert clip.sample_rate == 48000
        assert len(clip.samples) == 48000
        assert abs(float(np.abs(clip.samples).max()) - 0.8) < 1e-4

    def test_full_scale_pcm16(self):
        payload = struct.pack("<hh", 32767, -32768)
        clip = decode_wav(wav_container(1, 1, 48000, 16, payload))
        assert clip.samples[0] == pytest.approx(32767 / 32768)
        assert clip.samples[0] == pytest.approx(0.99997, abs=5e-6)
        assert clip.samples[1] == -1.0

    def test_stereo_folds_to_mean(self):
        payload = struct.pack("<hh", 16384, -16384)  # one frame: L=0.5, R=-0.5
        clip = decode_wav(wav_container(1, 2, 44100, 16, payload))
        assert len(clip.samples) == 1
        assert clip.samples[0] == 0.0

    def test_float32_payload(self):
        values = np.array([0.25, -0.5, 1.0, -1.0], dtype="<f4")
        clip = decode_wav(wav_container(3, 1, 22050, 32, values.tobytes()))
        assert np.allclose(clip.samples, [0.25, -0.5, 1.0, -1.0])

    def test_float32_out_of_range_is_clipped(self):
        values = np.array([2.0, -3.0, np.nan, np.inf], dtype="<f4")
        clip = decode_wav(wav_container(3, 1, 22050, 32, values.tobytes()))
        assert np.all(clip.samples <= 1.0)
        assert np.all(clip.samples >= -1.0)
        assert np.all(np.isfinite(clip.samples))

    def test_reference_float_writer(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(-1, 1, 1000).astype(np.float32)
        buf = io.BytesIO()
        wavfile.write(buf, 32000, data)
        clip = decode_wav(buf.getvalue())
        assert clip.sample_rate == 32000
        assert np.array_equal(clip.samples, data)

    @pytest.mark.parametrize(
        "blob",
        [
            b"",
            b"RIF",
            b"OGGS" + b"\x00" * 20,
            b"RIFF\x10\x00\x00\x00WAXE" + b"\x00" * 8,
        ],
    )
    def test_bad_container_magic(self, blob):
        with pytest.raises(FormatError):
            decode_wav(blob)

    def test_missing_data_chunk(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 48000, 96000, 2, 16)
        blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE"
        blob += b"fmt " + struct.pack("<I", len(fmt)) + fmt
        with pytest.raises(FormatError):
            decode_wav(blob)

    def test_truncated_payload(self):
        payload = struct.pack("<hh", 100, 200)
        blob = wav_container(1, 1, 48000, 16, payload, data_size=100)
        with pytest.raises(FormatError):
            decode_wav(blob)

    def test_ragged_frame_boundary(self):
        blob = wav_container(1, 2, 48000, 16, b"\x00\x00")  # half a stereo frame
        with pytest.raises(FormatError):
            decode_wav(blob)

    @pytest.mark.parametrize(
        "fmt_code,channels,bits",
        [
            (7, 1, 8),     # mu-law
            (6, 1, 8),     # a-law
            (0xFFFE, 1, 16),  # extensible
            (1, 1, 24),
            (1, 1, 8),
            (3, 1, 64),
            (1, 3, 16),
            (1, 0, 16),
        ],
    )
    def test_unsupported_encodings(self, fmt_code, channels, bits):
        with pytest.raises(UnsupportedError):
            decode_wav(wav_container(fmt_code, channels, bits=bits, rate=8000, payload=b"\x00" * 48))

    def test_zero_sample_rate(self):
        with pytest.raises(FormatError):
            decode_wav(wav_container(1, 1, 0, 16, b"\x00\x00"))

    def test_short_fmt_chunk(self):
        fmt = struct.pack("<HHIIH", 1, 1, 48000, 96000, 2)  # no bits field
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data\x00\x00\x00\x00"
        blob = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        with pytest.raises(FormatError, match="fmt chunk too short: 14 bytes"):
            decode_wav(blob)

    def test_extra_chunks_are_skipped(self):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        payload = struct.pack("<h", 1000)
        chunks = (
            b"LIST" + struct.pack("<I", 5) + b"INFOx" + b"\x00"  # odd size, padded
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"fact" + struct.pack("<I", 4) + b"\x01\x00\x00\x00"
            + b"data" + struct.pack("<I", len(payload)) + payload
        )
        blob = b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
        clip = decode_wav(blob)
        assert len(clip.samples) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        fmt_code=st.sampled_from([0, 1, 2, 3, 6, 7, 0xFFFE, 0x1234]),
        channels=st.integers(0, 4),
        rate=st.integers(0, 200000),
        bits=st.sampled_from([0, 8, 16, 24, 32, 64]),
        payload=st.binary(max_size=64),
        declared=st.integers(0, 300),
    )
    def test_decode_is_total(self, fmt_code, channels, rate, bits, payload, declared):
        """Any header-valid byte stream either decodes or raises our errors."""
        blob = wav_container(fmt_code, channels, rate, bits, payload, data_size=declared)
        try:
            clip = decode_wav(blob)
        except (FormatError, UnsupportedError):
            return
        assert isinstance(clip, AudioClip)
        assert np.all(np.abs(clip.samples) <= 1.0)

    @settings(max_examples=100, deadline=None)
    @given(garbage=st.binary(max_size=200))
    def test_decode_is_total_on_garbage_interior(self, garbage):
        blob = b"RIFF" + struct.pack("<I", len(garbage) + 4) + b"WAVE" + garbage
        try:
            decode_wav(blob)
        except (FormatError, UnsupportedError):
            pass


def mean_decode(payload, pcm, channels):
    """Payload formula of decode_wav before it folded and sanitised in place."""
    if pcm:
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float32) / 32768.0
    else:
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float32)
    if channels == 2:
        with np.errstate(over="ignore", invalid="ignore"):  # 3e38 + 3e38, inf + -inf
            samples = samples.reshape(-1, 2).mean(axis=1)
    if not pcm:
        samples = np.nan_to_num(samples, nan=0.0, posinf=1.0, neginf=-1.0)
        samples = np.clip(samples, -1.0, 1.0)
    return samples.astype(np.float32)


class TestDecodeAgainstMean:
    """Bit-exact agreement, signed zeros included, with mean_decode."""

    def check(self, values, channels):
        pcm = values.dtype == np.int16
        payload = values.astype("<i2" if pcm else "<f4").tobytes()
        blob = wav_container(1 if pcm else 3, channels, 8000, 16 if pcm else 32, payload)
        got = decode_wav(blob).samples
        want = mean_decode(payload, pcm, channels)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            arrays(np.float32, st.integers(0, 64).map(lambda n: 2 * n),
                   elements=st.floats(width=32)),
            arrays(np.int16, st.integers(0, 64).map(lambda n: 2 * n)),
        ),
        channels=st.sampled_from([1, 2]),
    )
    def test_matches_mean(self, values, channels):
        self.check(values, channels)

    def test_float_stereo_nonfinite_and_out_of_range(self):
        inf, nan = np.inf, np.nan
        frames = [
            (inf, 0.5), (-inf, 0.5), (nan, 0.5), (0.25, nan), (inf, -inf),
            (nan, inf), (3.0, -1.0), (-5.0, 0.2), (3e38, 3e38), (-3e38, -3e38),
            (1.5, 0.0), (-0.0, -0.0), (0.25, 0.5), (1e-45, 0.0),
        ]
        got = self.check(np.array(frames, dtype=np.float32).reshape(-1), 2)
        # the channels are summed first and sanitised after: inf + 0.5 is
        # still inf, so 1, where sanitising each channel would give 0.75
        want = [1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 0.75, 0, 0.375, 0]
        np.testing.assert_array_equal(got, want)
        assert not np.signbit(got[11])  # the mean of -0 and -0 is +0

    def test_float_mono_beyond_one(self):
        values = np.array([1.0, 1.0000001, -1.0000001, 7.5, -1e30, 0.999], np.float32)
        got = self.check(values, 1)
        np.testing.assert_array_equal(got, [1.0, 1.0, -1.0, 1.0, -1.0, values[5]])

    def test_pcm16_stereo_extremes(self):
        frames = [(32767, 32767), (-32768, -32768), (32767, -32768),
                  (-32768, 32767), (-32768, 0), (1, 0), (-1, 1)]
        got = self.check(np.array(frames, dtype=np.int16).reshape(-1), 2)
        np.testing.assert_array_equal(
            got, [32767 / 32768, -1.0, -1 / 65536, -1 / 65536, -0.5, 1 / 65536, 0.0]
        )


def signal_of(style, frames, channels, rng):
    """A (frames, channels) float64 test signal of the given style."""
    shape = (frames, channels)
    if style == "silence":
        return np.zeros(shape)
    if style == "constant":
        return np.full(shape, rng.uniform(-1, 1))
    signal = rng.uniform(-1, 1, shape) * rng.uniform(0, 1, shape) ** 4
    if style == "bursts":
        for start in rng.integers(0, frames, size=min(frames, 8)):
            signal[start:start + max(1, frames // 50)] *= 20
    if style == "loud":
        signal *= 4
    return signal


class TestDecodeThenPreprocess:
    """Totality: a WAV decode_wav accepts either preprocesses to the
    documented result or raises a BirdEdgeError, never anything else."""

    @settings(max_examples=80, deadline=None)
    @given(
        rate=st.one_of(
            st.sampled_from([1, 7, 19, 21, 8000, 16000, 44100, 48000, 192000]),
            st.integers(1, 192000),
        ),
        channels=st.sampled_from([1, 2]),
        pcm=st.booleans(),
        seconds=st.floats(0.0, 6.0),
        style=st.sampled_from(["silence", "constant", "noise", "bursts", "loud"]),
        nonfinite=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**16),
    )
    def test_decoded_wav_preprocesses_or_raises(
        self, rate, channels, pcm, seconds, style, nonfinite, seed
    ):
        rng = np.random.default_rng(seed)
        signal = signal_of(style, int(seconds * rate), channels, rng)
        if pcm:
            values = np.clip(np.rint(signal * 32767), -32768, 32767).astype("<i2")
        else:
            values = signal.astype("<f4")
            values[rng.uniform(0, 1, values.shape) < nonfinite] = np.nan
            values[rng.uniform(0, 1, values.shape) < nonfinite / 4] = np.inf
            values[rng.uniform(0, 1, values.shape) < nonfinite / 4] = -np.inf
        blob = wav_container(
            1 if pcm else 3, channels, rate, 16 if pcm else 32, values.tobytes()
        )
        clip = decode_wav(blob)
        try:
            specs, noise = preprocess_recording(clip)
        except BirdEdgeError:
            return
        assert len(specs) <= MAX_CHUNKS
        for spec in specs:
            assert spec.values.shape == (64, 249)
            assert spec.values.dtype == np.float32
            assert np.isfinite(spec.values).all()
            assert spec.values.max() == 0.0 and spec.values.min() >= -80.0
        for chunk in noise:
            assert chunk.shape == (96000,) and np.isfinite(chunk).all()


class TestAudioClip:
    @pytest.mark.parametrize("rate", [0, -48000, float("nan")])
    def test_sample_rate_below_1_rejected(self, rate):
        # unchecked, 0 made resample, split_chunks and preprocess_recording
        # divide by zero, -48000 ran through all three, and NaN made
        # resample raise a ValueError outside BirdEdgeError
        with pytest.raises(ConfigError, match=f"sample_rate must be >= 1, got {rate}"):
            AudioClip(np.zeros(10, dtype=np.float32), rate)

    @pytest.mark.parametrize("shape", [(2, 144000), (), (144000, 1)])
    def test_samples_must_be_1d(self, shape):
        # len() of a (2, n) array is 2, so preprocess_recording's length gate
        # would drop the whole clip without an error
        message = re.escape(f"samples must be 1-D, got shape {shape}")
        with pytest.raises(ShapeError, match=message):
            AudioClip(np.zeros(shape, dtype=np.float32), 48000)

    def test_list_samples_are_held_as_an_array(self):
        clip = AudioClip([0.0, 0.5, -0.25], 48000)
        assert isinstance(clip.samples, np.ndarray)
        assert clip.samples.tolist() == [0.0, 0.5, -0.25]


class TestResample:
    def test_441_to_48k_length(self):
        clip = AudioClip(np.zeros(44100, dtype=np.float32), 44100)
        out = resample(clip, 48000)
        assert len(out.samples) == 48000
        assert out.sample_rate == 48000

    def test_equal_rates_identity(self):
        clip = AudioClip(np.arange(10, dtype=np.float32) / 10, 48000)
        out = resample(clip, 48000)
        assert np.array_equal(out.samples, clip.samples)

    def test_constant_signal_exact(self):
        clip = AudioClip(np.full(1000, 0.37, dtype=np.float32), 32000)
        out = resample(clip, 48000)
        assert np.all(out.samples == np.float32(0.37))

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            resample(AudioClip(np.empty(0, dtype=np.float32), 48000), 44100)

    def test_output_that_rounds_to_no_samples_keeps_one(self):
        # 1 sample at 48 kHz is 1/6 of a sample at 8 kHz, which rounds to 0
        out = resample(AudioClip(np.full(1, 0.5, dtype=np.float32), 48000), 8000)
        assert out.samples.tolist() == [0.5]
        assert out.sample_rate == 8000

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            resample(AudioClip(np.zeros(10, dtype=np.float32), 48000), 0)

    def test_nan_target_is_a_config_error(self):
        with pytest.raises(ConfigError, match="target_rate must be an integer, got nan"):
            resample(AudioClip(np.zeros(10, dtype=np.float32), 48000), float("nan"))

    def test_fractional_target_is_a_config_error(self):
        # 44100.5 would interpolate at 48000 / 44100.5 and be labelled
        # 44100 Hz; a numpy integer resamples as the same int
        clip = AudioClip(np.linspace(-1, 1, 480, dtype=np.float32), 48000)
        with pytest.raises(ConfigError, match="target_rate must be an integer, got 44100.5"):
            resample(clip, 44100.5)
        out = resample(clip, np.int64(44100))
        assert out.sample_rate == 44100 and type(out.sample_rate) is int
        assert out.samples.tobytes() == resample(clip, 44100).samples.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 5000),
        source=st.sampled_from([8000, 16000, 22050, 44100, 48000]),
        target=st.sampled_from([8000, 16000, 22050, 44100, 48000]),
    )
    def test_duration_preserved_within_one_period(self, n, source, target):
        clip = AudioClip(np.zeros(n, dtype=np.float32), source)
        out = resample(clip, target)
        assert len(out.samples) == round(n * target / source) or len(out.samples) == 1
        assert abs(len(out.samples) / target - n / source) <= 1.0 / target + 1e-12


def whole_clip_resample(samples, source, target):
    """Reference resample: one np.interp over every output position of the
    whole clip, cast to float32 at the end."""
    n_out = max(1, int(round(len(samples) * target / source)))
    positions = np.arange(n_out, dtype=np.float64) * (source / target)
    grid = np.arange(len(samples), dtype=np.float64)
    return np.interp(positions, grid, samples).astype(np.float32)


BLOCK_EDGES = [1, 2**16 - 1, 2**16, 2**16 + 1]


@st.composite
def resample_cases(draw):
    """(samples, source, target) with rates from 1 Hz to 192 kHz either way
    and a source length aimed at a block edge or at a random output length."""
    source = draw(st.integers(1, 192_000))
    target = draw(st.integers(1, 192_000).filter(lambda rate: rate != source))
    aim = draw(st.sampled_from(BLOCK_EDGES) | st.integers(1, 3 * 2**16))
    n_in = round(aim * source / target) + draw(st.integers(-1, 1))
    n_in = min(max(n_in, 1), 2**18)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(-1, 1, n_in).astype(dtype), source, target


class TestResampleMatchesWholeClip:
    @settings(max_examples=60, deadline=None)
    @given(case=resample_cases())
    def test_byte_identical(self, case):
        samples, source, target = case
        out = resample(AudioClip(samples, source), target)
        assert out.samples.dtype == np.float32
        assert out.samples.tobytes() == whole_clip_resample(samples, source, target).tobytes()

    @pytest.mark.parametrize("n_out", BLOCK_EDGES)
    @pytest.mark.parametrize("source, target", [(44100, 48000), (48000, 44100)])
    def test_block_edge_lengths(self, n_out, source, target):
        # the shortest source that resamples to exactly n_out samples
        n_in = next(
            n for n in range(1, 2**17) if max(1, round(n * target / source)) == n_out
        )
        samples = np.random.default_rng(n_out).uniform(-1, 1, n_in).astype(np.float32)
        out = resample(AudioClip(samples, source), target).samples
        assert len(out) == n_out
        assert out.tobytes() == whole_clip_resample(samples, source, target).tobytes()

    @pytest.mark.parametrize("n_in", [1, 2, 3])
    def test_positions_past_the_end_clamp(self, n_in):
        # 1 Hz -> 192 kHz puts most of the last second past sample n_in - 1,
        # over several blocks
        samples = np.linspace(-0.5, 0.75, n_in, dtype=np.float32)
        out = resample(AudioClip(samples, 1), 192_000).samples
        assert len(out) == 192_000 * n_in
        assert out.tobytes() == whole_clip_resample(samples, 1, 192_000).tobytes()
        assert np.all(out[-96_000:] == samples[-1])


class TestSpectrogramContainer:
    def test_roundtrip_via_path(self, tmp_path):
        values = np.random.default_rng(1).normal(size=(3, 5)).astype(np.float32)
        path = tmp_path / "x.mels"
        write_spectrogram(MelSpectrogram(values), path)
        back = read_spectrogram(path)
        assert back.values.tobytes() == values.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        n_mels=st.integers(1, 16),
        n_frames=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_random_matrices(self, n_mels, n_frames, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(scale=40.0, size=(n_mels, n_frames)).astype(np.float32)
        buf = io.BytesIO()
        write_spectrogram(MelSpectrogram(values), buf)
        back = read_spectrogram(buf.getvalue())
        assert back.values.tobytes() == values.tobytes()

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_spectrogram(b"MELX" + struct.pack("<II", 1, 1) + b"\x00" * 4)

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            read_spectrogram(b"MELS\x01\x00")

    def test_truncated_payload(self):
        blob = b"MELS" + struct.pack("<II", 4, 4) + b"\x00" * 10
        with pytest.raises(FormatError):
            read_spectrogram(blob)

    def test_trailing_bytes_rejected(self):
        buf = io.BytesIO()
        write_spectrogram(MelSpectrogram(np.zeros((2, 2), dtype=np.float32)), buf)
        with pytest.raises(FormatError):
            read_spectrogram(buf.getvalue() + b"\x00")

    def test_zero_dimension_rejected(self):
        with pytest.raises(FormatError):
            read_spectrogram(b"MELS" + struct.pack("<II", 0, 5))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_write_rejects_values_that_are_not_2d(self, shape):
        values = np.zeros(shape, dtype=np.float32)
        with pytest.raises(ShapeError, match="spectrogram must be 2-D"):
            write_spectrogram(MelSpectrogram(values), io.BytesIO())

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_a_spectrogram_is_2d_when_built(self, shape):
        # augment_chunk, freq_roll and time_warp index two axes
        message = re.escape(f"spectrogram must be 2-D, got shape {shape}")
        with pytest.raises(ShapeError, match=message):
            MelSpectrogram(np.zeros(shape, dtype=np.float32))

    def test_list_values_are_held_as_an_array(self):
        spec = MelSpectrogram([[0.0, -1.0], [-2.0, -3.0]])
        assert isinstance(spec.values, np.ndarray)
        assert (spec.n_mels, spec.n_frames) == (2, 2)

    def test_nonfinite_write_rejected(self):
        # float64 1e300 is finite, but the float32 file would hold it as inf
        for values in (np.array([[np.nan, 0.0]], dtype=np.float32), np.full((2, 3), 1e300)):
            with pytest.raises(ValueError):
                write_spectrogram(MelSpectrogram(values), io.BytesIO())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload_rejected(self, bad):
        values = np.array([[0.0, -3.0], [bad, -80.0]], dtype="<f4")
        blob = b"MELS" + struct.pack("<II", 2, 2) + values.tobytes()
        with pytest.raises(FormatError):
            read_spectrogram(blob)
