"""A seeded, bounded format fuzzer over the CLI's binary inputs.

Four seed files, a short PCM16 WAV, a float32 stereo WAV, a `.mels`
spectrogram and a fixture `.enm` model, are edited in fixed ways: random
byte flips, truncations and appended bytes drawn from a fixed seed, and
every header count or size field set to 0, 1 and the largest signed and
unsigned values of its width. Each edited file runs in process through
`cli.main` under every subcommand that reads that format. A run passes if
it ends in exit 0 with its outputs, or in exit 1 with one
`birdedge <cmd>: ` message on stderr; any other exit, any exception and any
warning fail it. Every invocation makes the same edits and the same runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import struct
import warnings

import numpy as np
import pytest

from birdedge.audio_io import write_spectrogram
from birdedge.cli import main
from birdedge.nnrt import WEIGHTED_KINDS, generate_fixture_model, save_model

from conftest import random_spec

SEED = 2026
FLIPS, TRUNCATIONS, APPENDS = 24, 6, 6  # random edits per seed file


def wav(fmt_code: int, channels: int, rate: int, payload: bytes) -> bytes:
    """A 44-byte-header RIFF/WAVE file: fmt then data, nothing else."""
    bits = 16 if fmt_code == 1 else 32
    block = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        fmt_code, channels, rate, rate * block, block, bits, b"data", len(payload),
    ) + payload


# Every header field of the WAV layout above, as (name, offset, width).
# 64 frames keep even a 1 Hz rate small: 64 s, resampled to 3 M samples.
WAV_FIELDS = (("riff-size", 4, 4), ("fmt-size", 16, 4), ("format", 20, 2),
              ("channels", 22, 2), ("rate", 24, 4), ("byte-rate", 28, 4),
              ("block-align", 32, 2), ("bits", 34, 2), ("data-size", 40, 4))
MELS_FIELDS = (("bands", 4, 4), ("frames", 8, 4))
ENM_HEADER_FIELDS = (("layer-count", 8, 4), ("class-count", 12, 4),
                     ("input-c", 16, 4), ("input-h", 20, 4), ("input-w", 24, 4))


def enm_record_fields(model) -> list[tuple[str, int, int]]:
    """in_ch, out_ch, k_h and k_w of every weighted record, walking the
    documented layout: the 36-byte header, then per layer its kind byte,
    its fields, and a weighted record's weights and optional bias."""
    fields, offset = [], 36
    for i, layer in enumerate(model.layers):
        if layer.kind in WEIGHTED_KINDS:
            for k, name in enumerate(("in_ch", "out_ch", "k_h", "k_w")):
                fields.append((f"layer{i}-{name}", offset + 1 + 4 * k, 4))
            offset += 1 + struct.calcsize("<IIIIIIfifiB") + layer.weight.size
            offset += 0 if layer.bias is None else 4 * layer.out_ch
        else:
            offset += 1 + struct.calcsize("<ifi" if layer.kind == "residual_add" else "<fi")
    return fields


def mutants(name: str, blob: bytes, fields) -> dict[str, bytes]:
    """The edited copies of one seed file by id; edits that leave the file
    as it was are dropped."""
    rng = random.Random(f"{SEED}-{name}")
    edits = {}
    for k in range(FLIPS):
        edited = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            edited[rng.randrange(len(blob))] ^= rng.randint(1, 255)
        edits[f"flip{k}"] = bytes(edited)
    for k in range(TRUNCATIONS):
        edits[f"cut{k}"] = blob[:rng.randrange(len(blob))]
    for k in range(APPENDS):
        edits[f"append{k}"] = blob + rng.randbytes(rng.randint(1, 16))
    for field, offset, width in fields:
        bits = 8 * width
        for value in (0, 1, 2 ** (bits - 1) - 1, 2**bits - 1):
            edited = bytearray(blob)
            edited[offset:offset + width] = value.to_bytes(width, "little")
            edits[f"{field}={value}"] = bytes(edited)
    return {key: edit for key, edit in edits.items() if edit != blob}


def seed_files() -> dict[str, tuple[bytes, tuple]]:
    """Each seed file by name, with the header fields its edits set."""
    model = generate_fixture_model(2, 0)
    sink = io.BytesIO()
    write_spectrogram(random_spec(0), sink)
    rng = np.random.default_rng(SEED)
    pcm = rng.integers(-20000, 20000, size=64).astype("<i2").tobytes()
    stereo = rng.uniform(-0.9, 0.9, size=(64, 2)).astype("<f4").tobytes()
    return {
        "pcm16": (wav(1, 1, 8000, pcm), WAV_FIELDS),
        "float-stereo": (wav(3, 2, 44100, stereo), WAV_FIELDS),
        "mels": (sink.getvalue(), MELS_FIELDS),
        "enm": (save_model(model), ENM_HEADER_FIELDS + tuple(enm_record_fields(model))),
    }


# The subcommands that read each format, as (argv, the file the mutant is
# written to, what exit 0 must leave behind). Other inputs are the seeds.
RUNS = {
    "wav": [(["preprocess", "--in", "a.wav", "--out", "out"], "a.wav", "out/manifest.json")],
    "mels": [
        (["infer", "--model", "m.enm", "--spec", "in/a.mels"], "in/a.mels", "stdout"),
        (["augment", "--seed", "1", "--in", "in", "--out", "out", "--noise-pool", "in",
          "--p-apply", "1"], "in/a.mels", "out/manifest.json"),
        (["bench", "--model", "m.enm", "--spec-dir", "in", "--repetitions", "1"],
         "in/a.mels", "stdout"),
    ],
    "enm": [
        (["infer", "--model", "m.enm", "--spec", "in/a.mels"], "m.enm", "stdout"),
        (["bench", "--model", "m.enm", "--spec-dir", "in", "--repetitions", "1"],
         "m.enm", "stdout"),
    ],
}


@pytest.fixture(scope="module")
def seeds():
    return seed_files()


def run_once(argv, leaves) -> str | None:
    """None if the run kept the error contract, else what went wrong."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # any exception is an escape
            return f"{type(exc).__name__}: {exc}"
    if caught:
        return f"warning: {caught[0].message}"
    if code == 1 and err.getvalue().startswith(f"birdedge {argv[0]}: "):
        return None
    if code == 0 and (out.getvalue() if leaves == "stdout" else os.path.exists(leaves)):
        return None
    return f"exit {code}, stderr {err.getvalue()[:200]!r}"


@pytest.mark.parametrize("seed_name, kind", [
    ("pcm16", "wav"), ("float-stereo", "wav"), ("mels", "mels"), ("enm", "enm"),
])
def test_every_mutant_keeps_the_error_contract(seeds, tmp_path, monkeypatch, seed_name, kind):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in").mkdir()
    (tmp_path / "m.enm").write_bytes(seeds["enm"][0])
    (tmp_path / "in/a.mels").write_bytes(seeds["mels"][0])
    blob, fields = seeds[seed_name]
    escapes = []
    for key, edited in mutants(seed_name, blob, fields).items():
        for argv, target, leaves in RUNS[kind]:
            (tmp_path / target).write_bytes(edited)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            failure = run_once(argv, leaves)
            if failure:
                escapes.append(f"{seed_name} {key} {argv[0]}: {failure}")
        (tmp_path / target).write_bytes(blob)
    assert escapes == []


# sha256 over every seed's edits, in order, each as "name key length\n"
# and its bytes: the fuzzer runs the same files on every invocation
MUTANTS_DIGEST = "57a15593a72037d05e66713de5fbaebe3d42bc6ac6f4f01d35258763ca697f48"


def test_the_edits_are_the_same_on_every_invocation(seeds):
    digest = hashlib.sha256()
    for name, (blob, fields) in seeds.items():
        for key, edited in mutants(name, blob, fields).items():
            digest.update(f"{name} {key} {len(edited)}\n".encode())
            digest.update(edited)
    assert digest.hexdigest() == MUTANTS_DIGEST
