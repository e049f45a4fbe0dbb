"""Seeded benchmark inputs: WAV recordings, .mels chunks and trial CSVs.

Everything is synthesised with numpy and the standard library only. The
program under test never generates its own inputs: it receives finished
bytes and files, so a change to the program cannot change what it is fed.

Every generator takes the seed explicitly and draws each item from its own
substream ``default_rng([seed, tag, index])``, so one seed always yields
the same inputs and the inputs of one workload never depend on another's.

Recordings are built from three kinds of segment:

- call: uniform background noise with short frequency sweeps every
  0.35-0.6 s, so every 2 s window holds a local amplitude peak;
- noise: louder structureless uniform noise that survives silence removal
  but holds no local peak, so its windows land in the noise pool;
- quiet: near-silent hiss far below 20 % of the clip peak, which silence
  removal cuts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# (WAVE format code, channels, sample rate)
PCM16_48K_MONO = (1, 1, 48000)
FLOAT32_44K1_STEREO = (3, 2, 44100)
PCM16_44K1_STEREO = (1, 2, 44100)
FLOAT32_48K_MONO = (3, 1, 48000)

_TAG_RECORDING = 1
_TAG_CORPUS = 2
_TAG_CHUNK = 3
_TAG_TRIALS = 4

N_MELS = 64
N_FRAMES = 249
FLOOR_DB = -80.0


@dataclass(frozen=True)
class Recording:
    """One synthesised WAV file and what went into it."""

    name: str
    data: bytes
    seconds: float
    has_calls: bool


def wav_bytes(samples: np.ndarray, rate: int, fmt_code: int) -> bytes:
    """Encode a (frames, channels) float32 array in [-1, 1] as RIFF/WAVE.

    fmt_code 1 writes PCM16, fmt_code 3 writes IEEE float32.
    """
    frames, channels = samples.shape
    if fmt_code == 1:
        scaled = samples * np.float32(32767)
        np.rint(scaled, out=scaled)
        payload = scaled.astype("<i2").tobytes()
        bits = 16
    else:
        payload = samples.astype("<f4", copy=False).tobytes()
        bits = 32
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * block, block, bits)
    riff_size = 4 + 8 + len(fmt) + 8 + len(payload)
    return b"".join([
        b"RIFF", struct.pack("<I", riff_size), b"WAVE",
        b"fmt ", struct.pack("<I", len(fmt)), fmt,
        b"data", struct.pack("<I", len(payload)), payload,
    ])


def _uniform(rng: np.random.Generator, amplitude: float, n: int) -> np.ndarray:
    """float32 noise in [-amplitude, amplitude), built in place to stay lean."""
    x = rng.random(n, dtype=np.float32)
    x *= np.float32(2 * amplitude)
    x -= np.float32(amplitude)
    return x


def _sweep(rng: np.random.Generator, rate: int) -> np.ndarray:
    seconds = rng.uniform(0.08, 0.15)
    f0 = rng.uniform(1500.0, 3000.0)
    f1 = f0 + rng.uniform(500.0, 2500.0)
    t = np.arange(int(rate * seconds)) / rate
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * seconds))
    return np.sin(phase) * np.sin(np.pi * t / seconds) ** 2


def _call_segment(rng: np.random.Generator, rate: int, seconds: float) -> np.ndarray:
    signal = _uniform(rng, 0.35, int(rate * seconds))
    pos = rng.uniform(0.05, 0.3)
    while pos + 0.2 < seconds:
        sweep = _sweep(rng, rate)
        start = int(pos * rate)
        signal[start : start + len(sweep)] += sweep
        pos += rng.uniform(0.35, 0.6)
    return signal


def _noise_segment(rng: np.random.Generator, rate: int, seconds: float) -> np.ndarray:
    return _uniform(rng, 0.45, int(rate * seconds))


def _quiet_segment(rng: np.random.Generator, rate: int, seconds: float) -> np.ndarray:
    return _uniform(rng, 0.002, int(rate * seconds))


def _encode(
    rng: np.random.Generator, mono: np.ndarray, encoding: tuple
) -> bytes:
    """Scale to a 0.9 peak in place and encode; stereo adds a delayed,
    slightly noisier right channel."""
    fmt_code, channels, rate = encoding
    mono *= np.float32(0.9) / np.abs(mono).max()
    samples = np.empty((len(mono), channels), dtype=np.float32)
    samples[:, 0] = mono
    if channels == 2:
        samples[:, 1] = np.roll(mono, 3)
        samples[:, 1] += _uniform(rng, 0.01, len(mono))
        np.clip(samples[:, 1], -1.0, 1.0, out=samples[:, 1])
    return wav_bytes(samples, rate, fmt_code)


def _recording(
    rng: np.random.Generator,
    name: str,
    seconds: float,
    encoding: tuple,
    quiet_share: float,
    noise_seconds: float,
) -> Recording:
    """Calls, one noise stretch and two quiet stretches, in seeded order."""
    rate = encoding[2]
    quiet = quiet_share * seconds
    calls = seconds - quiet - noise_seconds
    split = rng.dirichlet([4.0, 4.0, 4.0]) * calls
    parts = [
        _call_segment(rng, rate, split[0]),
        _quiet_segment(rng, rate, quiet / 2),
        _noise_segment(rng, rate, noise_seconds),
        _call_segment(rng, rate, split[1]),
        _quiet_segment(rng, rate, quiet / 2),
        _call_segment(rng, rate, split[2]),
    ]
    mono = np.concatenate(parts)
    data = _encode(rng, mono, encoding)
    return Recording(name, data, len(mono) / rate, True)


def recording_pool(seed: int, count: int = 6) -> list[Recording]:
    """Field recordings of 30-80 s, most long enough to hit the 30-chunk cap.

    Items are stratified so every seed gives the same mix: encodings
    alternate PCM16 48 kHz mono / float32 44.1 kHz stereo, every third item
    is short (30-50 s, under the cap) and the rest are 75-80 s with
    3-6 % quiet time, which leaves at least 64 s of calls (over the cap).
    The seed moves lengths, shares and the content within those strata.
    """
    pool = []
    long_items = [i for i in range(count) if i % 3 != 0]
    for i in range(count):
        rng = np.random.default_rng([seed, _TAG_RECORDING, i])
        encoding = (PCM16_48K_MONO, FLOAT32_44K1_STEREO)[i % 2]
        if i % 3 == 0:
            seconds = rng.uniform(30.0, 50.0)
            quiet_share = rng.uniform(0.1, 0.25)
        else:
            rank = long_items.index(i)
            seconds = 75.0 + 5.0 * (rank + rng.uniform()) / len(long_items)
            quiet_share = rng.uniform(0.03, 0.06)
        noise_seconds = rng.uniform(4.5, 5.5)
        pool.append(
            _recording(rng, f"rec{i:02d}", seconds, encoding, quiet_share, noise_seconds)
        )
    return pool


def corpus(seed: int) -> list[Recording]:
    """A training-data directory: four call recordings and two noise ones.

    Call recordings use all four encodings; noise recordings are loud
    structureless noise whose windows all fail the peak screen. Noise
    recordings are mono at 48 kHz, so they reach the peak screen unchanged:
    every 50 ms window of uniform noise then peaks within a fraction of a
    percent of the full amplitude, far below the screen's 7.5 % margin.
    Stereo downmix or resampling would shape the noise (triangular sums,
    band-limited overshoot) and let a seeded window peak past that margin
    on a few percent of seeds. Lengths and shares vary only a little with
    the seed, so every seed's directory costs about the same to process.
    """
    encodings = (PCM16_48K_MONO, FLOAT32_44K1_STEREO, PCM16_44K1_STEREO, FLOAT32_48K_MONO)
    items = []
    for i, encoding in enumerate(encodings):
        rng = np.random.default_rng([seed, _TAG_CORPUS, i])
        seconds = rng.uniform(11.0, 12.0)
        quiet_share = rng.uniform(0.08, 0.12)
        noise_seconds = rng.uniform(4.5, 5.0)
        items.append(
            _recording(rng, f"calls{i}", seconds, encoding, quiet_share, noise_seconds)
        )
    for i, encoding in enumerate((PCM16_48K_MONO, FLOAT32_48K_MONO)):
        rng = np.random.default_rng([seed, _TAG_CORPUS, 10 + i])
        rate = encoding[2]
        mono = _noise_segment(rng, rate, rng.uniform(7.5, 8.5))
        data = _encode(rng, mono, encoding)
        items.append(Recording(f"noise{i}", data, len(mono) / rate, False))
    return items


def mels_bytes(values: np.ndarray) -> bytes:
    """The .mels container: b"MELS", u32 n_mels, u32 n_frames, f32 payload."""
    n_mels, n_frames = values.shape
    return (
        b"MELS"
        + struct.pack("<II", n_mels, n_frames)
        + np.ascontiguousarray(values, dtype="<f4").tobytes()
    )


def read_mels(data: bytes) -> np.ndarray:
    """Parse a .mels container; the benchmark's own reader for output checks."""
    if data[:4] != b"MELS" or len(data) < 12:
        raise ValueError("not a .mels container")
    n_mels, n_frames = struct.unpack_from("<II", data, 4)
    if len(data) != 12 + 4 * n_mels * n_frames:
        raise ValueError("payload length does not match the header")
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(n_mels, n_frames)


def chunk_pool(seed: int, count: int = 48) -> list[bytes]:
    """Log-mel chunks as .mels bytes: coloured noise plus a few call tracks.

    Each chunk is a 64x249 dB matrix referenced to its own maximum (exactly
    0 dB) and floored at -80 dB, like the preprocessing output.
    """
    chunks = []
    bands = np.arange(N_MELS)[:, None]
    frames = np.arange(N_FRAMES)[None, :]
    for i in range(count):
        rng = np.random.default_rng([seed, _TAG_CHUNK, i])
        tilt = np.exp(-bands / rng.uniform(10.0, 40.0))
        power = tilt * rng.exponential(1.0, (N_MELS, N_FRAMES)) * 1e-3
        for _ in range(int(rng.integers(2, 8))):
            start = rng.uniform(0, N_FRAMES - 20)
            length = rng.uniform(8, 20)
            band0 = rng.uniform(15, 45)
            slope = rng.uniform(-0.8, 0.8)
            track = band0 + slope * (frames - start)
            inside = (frames >= start) & (frames < start + length)
            power += inside * rng.uniform(0.5, 1.0) * np.exp(-((bands - track) ** 2) / 4.0)
        db = 10.0 * np.log10(power / power.max())
        chunks.append(mels_bytes(np.maximum(db, FLOOR_DB).astype(np.float32)))
    return chunks


def trials_csv(seed: int, rows: int = 300) -> tuple[str, str]:
    """A compression-trial table and its one-row baseline, as CSV text.

    Accuracy rises with resource use plus noise, so the Pareto front is a
    proper subset; the baseline costs more than any trial on every axis.
    """
    rng = np.random.default_rng([seed, _TAG_TRIALS])
    size = rng.uniform(0.0, 1.0, rows)
    acc = np.clip(0.55 + 0.4 * size**0.5 + rng.normal(0.0, 0.03, rows), 0.0, 1.0)
    ram = 20e3 + 480e3 * size * rng.uniform(0.7, 1.3, rows)
    rom = 50e3 + 950e3 * size * rng.uniform(0.7, 1.3, rows)
    flops = 1e6 + 49e6 * size * rng.uniform(0.7, 1.3, rows)
    lines = ["id,acc,ram,rom,flops"]
    for i in range(rows):
        lines.append(f"t{i:04d},{acc[i]:.6g},{ram[i]:.6g},{rom[i]:.6g},{flops[i]:.6g}")
    baseline = "id,acc,ram,rom,flops\nbaseline,0.97,900000,2000000,90000000\n"
    return "\n".join(lines) + "\n", baseline
