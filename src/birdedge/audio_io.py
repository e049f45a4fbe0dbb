"""WAV decoding, resampling, and the binary spectrogram container.

The WAV reader is deliberately hand-rolled: it must accept both PCM16 and
IEEE float32 payloads, fold stereo to mono, and fail with a controlled
error on any malformed or unsupported input instead of crashing. Python's
stdlib wave module cannot read float WAVs, so it is not used here.

Spectrograms persist in a little-endian container:

    magic   4 bytes  b"MELS"
    n_mels  u32
    n_frames u32
    values  n_mels * n_frames * f32, row major (mel band is the outer axis)

Round-trips through write_spectrogram/read_spectrogram are bitwise exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateInputError,
    EmptyError,
    FormatError,
    ShapeError,
    UnsupportedError,
    check_integer,
)
from .melspec import MelSpectrogram

SPECTROGRAM_MAGIC = b"MELS"

# WAVE fmt codes we recognise. Everything else is a valid-but-unsupported file.
_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003

# Output samples resample interpolates per np.interp call.
_RESAMPLE_BLOCK = 1 << 16


@dataclass
class AudioClip:
    """Mono waveform with its sample rate.

    samples: 1-D float32, every value in [-1.0, 1.0]; held as
        np.asarray(samples), and a ShapeError unless 1-D when built.
    sample_rate: at least 1 Hz, else a ConfigError when the clip is built.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise ShapeError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not self.sample_rate >= 1:  # NaN too
            raise ConfigError(f"sample_rate must be >= 1, got {self.sample_rate}")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string into a mono AudioClip.

    Accepts PCM 16-bit and IEEE float 32-bit payloads with 1 or 2 channels.
    Stereo is folded to mono by the arithmetic mean of the channels. PCM16
    samples are scaled by 1/32768 so +32767 maps just below 1.0; float
    samples are sanitised (non-finite -> 0) and clipped to [-1, 1].

    Raises:
        FormatError: the container is malformed (bad magic, missing chunks,
            truncated payload, inconsistent header fields).
        UnsupportedError: valid container, but an encoding outside the
            supported PCM16/float32 mono/stereo envelope.
    """
    if len(data) < 12:
        raise FormatError("file too short for a RIFF header")
    if data[0:4] != b"RIFF":
        raise FormatError("missing RIFF magic")
    if data[8:12] != b"WAVE":
        raise FormatError("missing WAVE form type")

    fmt_chunk: bytes | None = None
    data_chunk: memoryview | None = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        body_end = body_start + chunk_size
        if body_end > len(data):
            raise FormatError(
                f"chunk {chunk_id!r} declares {chunk_size} bytes but file ends early"
            )
        if chunk_id == b"fmt " and fmt_chunk is None:
            fmt_chunk = data[body_start:body_end]
        elif chunk_id == b"data" and data_chunk is None:
            data_chunk = memoryview(data)[body_start:body_end]  # no copy
        # chunks are word aligned; odd sizes carry a pad byte
        offset = body_end + (chunk_size & 1)
    if fmt_chunk is None:
        raise FormatError("no fmt chunk")
    if data_chunk is None:
        raise FormatError("no data chunk")
    if len(fmt_chunk) < 16:
        raise FormatError(f"fmt chunk too short: {len(fmt_chunk)} bytes")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = (
        struct.unpack_from("<HHIIHH", fmt_chunk, 0)
    )
    if sample_rate <= 0:
        raise FormatError(f"invalid sample rate {sample_rate}")
    if channels not in (1, 2):
        raise UnsupportedError(f"{channels} channels not supported, need 1 or 2")

    if audio_format == _WAVE_FORMAT_PCM:
        if bits != 16:
            raise UnsupportedError(f"{bits}-bit PCM not supported, need 16")
        bytes_per_sample = 2
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedError(f"{bits}-bit float not supported, need 32")
        bytes_per_sample = 4
    else:
        raise UnsupportedError(f"audio format 0x{audio_format:04x} not supported")

    frame_size = bytes_per_sample * channels
    if len(data_chunk) % frame_size != 0:
        raise FormatError(
            f"data chunk of {len(data_chunk)} bytes is not a whole number of "
            f"{frame_size}-byte frames"
        )

    pcm = audio_format == _WAVE_FORMAT_PCM
    raw = np.frombuffer(data_chunk, dtype="<i2" if pcm else "<f4")
    if channels == 2:
        # numpy's float32 mean, (0 + L + R) / 2: the 0 makes -0 + -0 be +0.
        # A float sum may overflow to inf or meet inf + -inf; the clip and
        # NaN fix below handle both, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            samples = np.add(raw[0::2], raw[1::2], dtype=np.float32)
        samples += np.float32(0)
        samples /= np.float32(2)
    else:
        samples = raw.astype(np.float32)
    if pcm:
        samples /= np.float32(32768)
    else:
        # float files may legally carry out-of-range or non-finite values;
        # clip takes +-inf to +-1 and keeps NaN, which then becomes 0
        np.clip(samples, -1.0, 1.0, out=samples)
        samples[np.isnan(samples)] = 0.0
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linearly resample a clip to target_rate.

    Output length is round(n * target / source), so duration is preserved
    within one sample period. Equal rates return the clip unchanged. A
    constant signal stays exactly constant. Positions past the last sample
    take the last sample's value. A target_rate that is not an integer
    >= 1 is a ConfigError.

    The float32 output is filled in blocks of _RESAMPLE_BLOCK samples, each
    interpolated over only the source samples it spans, so the float64
    temporaries take O(block) extra memory (times source/target when
    downsampling) rather than several copies of the whole clip. Every
    value is the one a single whole-clip np.interp gives, bit for bit.
    """
    check_integer(target_rate, "target_rate")
    if target_rate <= 0:
        raise ConfigError(f"target_rate must be positive, got {target_rate}")
    if len(clip.samples) == 0:
        raise EmptyError("cannot resample an empty clip")
    if target_rate == clip.sample_rate:
        return clip

    n_in = len(clip.samples)
    n_out = int(round(n_in * target_rate / clip.sample_rate))
    if n_out < 1:
        n_out = 1
    step = clip.sample_rate / target_rate
    out = np.empty(n_out, dtype=np.float32)
    for start in range(0, n_out, _RESAMPLE_BLOCK):
        stop = min(start + _RESAMPLE_BLOCK, n_out)
        # output sample j sits at source position j * source/target
        positions = np.arange(start, stop, dtype=np.float64) * step
        # the grid points around these positions, with the same integer
        # values np.interp would see on the whole clip
        lo = min(int(positions[0]), n_in - 1)
        hi = min(int(positions[-1]) + 2, n_in)
        out[start:stop] = np.interp(
            positions, np.arange(lo, hi, dtype=np.float64), clip.samples[lo:hi]
        )
    return AudioClip(samples=out, sample_rate=int(target_rate))


def write_spectrogram(spec: MelSpectrogram, sink) -> None:
    """Serialise a spectrogram to a path or binary file object.

    Raises DegenerateInputError if the matrix contains non-finite values,
    or values beyond the float32 range, which the file would hold as inf.
    """
    with np.errstate(over="ignore"):
        cells = np.ascontiguousarray(spec.values, dtype="<f4")
    if not np.isfinite(cells).all():
        raise DegenerateInputError("spectrogram contains non-finite values")
    n_mels, n_frames = cells.shape
    payload = SPECTROGRAM_MAGIC + struct.pack("<II", n_mels, n_frames) + cells.tobytes()
    if hasattr(sink, "write"):
        sink.write(payload)
    else:
        Path(sink).write_bytes(payload)


def read_spectrogram(source) -> MelSpectrogram:
    """Read a spectrogram from a path or bytes.

    Raises:
        FormatError: bad magic, truncated header or payload, non-finite
            values, or trailing garbage after the payload.
    """
    data = source if isinstance(source, (bytes, bytearray)) else Path(source).read_bytes()
    if len(data) < 12:
        raise FormatError("truncated spectrogram header")
    if data[0:4] != SPECTROGRAM_MAGIC:
        raise FormatError(f"bad spectrogram magic {bytes(data[0:4])!r}")
    n_mels, n_frames = struct.unpack_from("<II", data, 4)
    if n_mels == 0 or n_frames == 0:
        raise FormatError(f"degenerate dimensions {n_mels}x{n_frames}")
    count = n_mels * n_frames
    if len(data) - 12 < count * 4:
        raise FormatError(
            f"payload truncated: expected {count * 4} bytes, got {len(data) - 12}"
        )
    if len(data) - 12 > count * 4:
        raise FormatError("trailing bytes after spectrogram payload")
    values = np.frombuffer(data, dtype="<f4", count=count, offset=12)
    values = values.reshape(n_mels, n_frames).copy()
    if not np.isfinite(values).all():
        raise FormatError("spectrogram contains non-finite values")
    return MelSpectrogram(values=values)
