import struct

import numpy as np
import pytest
from hypothesis import Phase, settings

from birdedge.melspec import MelSpectrogram
from birdedge.nnrt import generate_fixture_model, load_model

from wavgen import make_fixture_recordings

FIXTURE_CLASSES = 31
FIXTURE_SEED = 7

# tests/mutants.py runs under this profile: a mutant is killed by the first
# failing example, so the shrink phase, most of a kill's time, is skipped
settings.register_profile("mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate])


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


def sweep_trials_csv(rows: int = 300, seed: int = 2024) -> str:
    """A seeded trials CSV whose costs rise together with accuracy.

    Every cost grows with one hidden model size, and accuracy with its
    square root plus noise, so the Pareto front is a proper subset: 55 of
    the 300 default trials with accuracy, 2 without.
    """
    rng = np.random.default_rng(seed)
    size = rng.uniform(0.0, 1.0, rows)
    acc = np.clip(0.55 + 0.4 * size**0.5 + rng.normal(0.0, 0.03, rows), 0.0, 1.0)
    ram = 20e3 + 480e3 * size * rng.uniform(0.7, 1.3, rows)
    rom = 50e3 + 950e3 * size * rng.uniform(0.7, 1.3, rows)
    flops = 1e6 + 49e6 * size * rng.uniform(0.7, 1.3, rows)
    lines = ["id,acc,ram,rom,flops"]
    for i in range(rows):
        lines.append(f"t{i:04d},{acc[i]:.6g},{ram[i]:.6g},{rom[i]:.6g},{flops[i]:.6g}")
    return "\n".join(lines) + "\n"


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
