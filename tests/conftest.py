import struct

import numpy as np
import pytest

from birdedge.melspec import MelSpectrogram
from birdedge.nnrt import generate_fixture_model, load_model

from wavgen import make_fixture_recordings

FIXTURE_CLASSES = 31
FIXTURE_SEED = 7


@pytest.fixture(scope="session")
def fixture_model():
    """One shared fixture classifier; generation is deterministic."""
    return generate_fixture_model(FIXTURE_CLASSES, FIXTURE_SEED)


@pytest.fixture(scope="session")
def recordings_dir(tmp_path_factory):
    """Directory holding the synthesized three-recording fixture set."""
    directory = tmp_path_factory.mktemp("recordings")
    make_fixture_recordings(directory)
    return directory


def random_spec(seed: int, shape=(64, 249)) -> MelSpectrogram:
    """A well-formed random spectrogram: floored noise with max 0 dB."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-80.0, 0.0, size=shape).astype(np.float32)
    values.flat[int(rng.integers(values.size))] = 0.0
    return MelSpectrogram(values)


def with_linear_geometry(blob: bytes, kernel=(1, 1), stride=1, padding=0) -> bytes:
    """An .enm blob whose final (linear) record carries the given geometry.

    The last record is kind u8, in_ch, out_ch, k_h, k_w, stride, padding
    (u32 each), the scales and zero points, has_bias, then the weights and
    the optional bias; the four geometry fields are overwritten in place.
    """
    last = load_model(blob).layers[-1]
    tail = struct.calcsize("<BIIIIIIfifiB") + last.weight.size
    if last.bias is not None:
        tail += 4 * last.out_ch
    start = len(blob) - tail + struct.calcsize("<BII")
    patched = bytearray(blob)
    patched[start:start + 16] = struct.pack("<IIII", *kernel, stride, padding)
    return bytes(patched)
