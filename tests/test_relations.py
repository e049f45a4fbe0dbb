"""Relations the preprocessing chain keeps between two inputs, exactly.

Each recording is a wavgen call signal followed by wavgen hum, so it
yields both call chunks and noise windows, written as a PCM16 mono WAV by
scipy's encoder. A relation transforms the recording in a way the chain
must not see, and compares the call-chunk counts, noise-window counts and
one SHA-256 over preprocess_recording's call-chunk spectrograms and noise
windows, byte for byte, at 48, 44.1 and 22.05 kHz:

  * a float32 WAV of the PCM16 values x / 32768 is the same recording;
  * two equal channels are the mono recording;
  * a gain of 0.5 or 2**-6, in a float32 WAV, changes only the noise
    windows, by that gain: every stage is scale invariant, and scaling by
    a power of two rounds nothing while no value leaves float32's normal
    range.

Only exact relations are tests here. Relations that fail by design are
written down and not forced:

  * a gain that is not a power of two rounds the samples, and the
    normalized chunks may differ in their last bits;
  * leading silence may move the cut (untested): remove_silence keeps half
    a 50 ms window around loud samples.
"""

import hashlib
import io

import numpy as np
import pytest
import scipy.io.wavfile as wavfile

from birdedge.audio_io import decode_wav
from birdedge.preprocess import preprocess_recording

from wavgen import _calls_signal, _hum_signal

RATES = (48000, 44100, 22050)
SEEDS = (1, 2)


def wav_bytes(rate: int, data: np.ndarray) -> bytes:
    sink = io.BytesIO()
    wavfile.write(sink, rate, data)
    return sink.getvalue()


def chain_digest(wav: bytes, gain: float = 1.0) -> tuple[int, int, str]:
    """(call chunks, noise windows, SHA-256 over the chunks' spectrograms
    and the noise windows divided by gain) of preprocess_recording on wav."""
    chunks, noise = preprocess_recording(decode_wav(wav))
    digest = hashlib.sha256()
    for spec in chunks:
        digest.update(spec.values.tobytes())
    for window in noise:
        digest.update((window / np.float32(gain)).tobytes())
    return len(chunks), len(noise), digest.hexdigest()


@pytest.fixture(scope="module", params=[(rate, seed) for rate in RATES for seed in SEEDS],
                ids=lambda param: f"{param[0]}Hz-seed{param[1]}")
def recording(request):
    """(rate, PCM16 samples, chain_digest of their mono PCM16 WAV)."""
    rate, seed = request.param
    rng = np.random.default_rng(seed)
    signal = np.concatenate([_calls_signal(rate, rng), _hum_signal(rate, rng)])
    samples = np.round(signal * 32767).astype(np.int16)
    want = chain_digest(wav_bytes(rate, samples))
    assert want[0] >= 1 and want[1] >= 1  # neither half of the digest is empty
    return rate, samples, want


def test_a_float32_wav_of_the_pcm16_values_is_the_same_recording(recording):
    rate, samples, want = recording
    assert chain_digest(wav_bytes(rate, (samples / 32768).astype(np.float32))) == want


def test_two_equal_channels_are_the_mono_recording(recording):
    rate, samples, want = recording
    assert chain_digest(wav_bytes(rate, np.stack([samples, samples], axis=1))) == want


@pytest.mark.parametrize("gain", [0.5, 2.0**-6], ids=["half", "2**-6"])
def test_a_power_of_two_gain_scales_only_the_noise_windows(recording, gain):
    rate, samples, want = recording
    scaled = (samples * gain / 32768).astype(np.float32)
    assert chain_digest(wav_bytes(rate, scaled), gain) == want
