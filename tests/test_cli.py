"""Command line tests.

The end-to-end chain runs on three synthesized recordings; output digests
were frozen from a reference run and double as regression anchors for the
whole numeric stack. Determinism is additionally checked by rerunning into
a fresh directory.
"""

import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import birdedge
from birdedge import __version__
from birdedge.audio_io import read_spectrogram, write_spectrogram
from birdedge.cli import main

from conftest import (
    FIXTURE_CLASSES,
    FIXTURE_SEED,
    random_spec,
    sweep_trials_csv,
    with_linear_geometry,
)

PREPROCESS_GOLDEN = {
    "calls_48k_chunk000.mels": "a3296ee94b37b53f",
    "calls_48k_chunk001.mels": "e0b1f7f4085c1655",
    "calls_48k_chunk002.mels": "7a79d8d859492a95",
    "noise/hum_48k_noise000.mels": "192d6d36250403d9",
    "noise/hum_48k_noise001.mels": "3930b14fad001152",
    "stereo_441_chunk000.mels": "f06c8c475569d96e",
    "stereo_441_chunk001.mels": "0f73dfac045f29ab",
}
AUGMENT_GOLDEN = {
    "calls_48k_chunk000.mels": "66d5d560795c7ea2",
    "calls_48k_chunk001.mels": "fdbc37c3b77b2e04",
    "calls_48k_chunk002.mels": "6073117a6ae31632",
    "stereo_441_chunk000.mels": "d38fe8adf60256e3",
    "stereo_441_chunk001.mels": "d7f0cb9445f6ee0d",
}
AUGMENT_LOG_DIGEST = "5a52552211d716df"
MODEL_DIGEST = "7cb7670f08b147ee"
INFER_DIGEST = "01cb028ce20cc0ba"

TRIALS_CSV = (
    "id,acc,ram,rom,flops\n"
    "a,0.9,100,200,1000\n"
    "b,0.8,50,100,500\n"
)
BASELINE_CSV = "id,acc,ram,rom,flops\nfull,0.93,400,1000,1000\n"
# stdout of each command on sweep_trials_csv() (300 rows), SWEEP_BASELINE_CSV
SWEEP_GOLDEN = {
    "compress": "076f2686c1107ea9",
    "pareto": "a20f75442f007d68",
    "pareto --resources-only": "6c4f95d176bd7daa",
}
SWEEP_BASELINE_CSV = "id,acc,ram,rom,flops\nbaseline,0.97,900000,2000000,90000000\n"


# the measurements of profile_m7.cfg
PROFILE_CFG = (
    "e_infer_mj = 83\nt_infer_ms = 237\ne_dsp_mj = 55\nt_dsp_ms = 170\np_sleep_mw = 116\n"
)

# stdout of `energy --profile src/birdedge/data/profile_m7.cfg`, with the
# bundled irradiance table and with CUSTOM_IRRADIANCE
ENERGY_GOLDEN = {"bundled": "b9e11d119d88fc3b", "custom": "44565af62bdb769d"}
CUSTOM_IRRADIANCE = "month,s_rad_w_m2\n" + "".join(
    f"{month},{value}\n"
    for month, value in zip(
        ("Jan", "feb", "3", "apr", "May", "jun", "7", "aug", "sep", "10", "nov", "dec"),
        (31.5, 57.25, 101, 149.9, 192.3, 203, 198.75, 166, 118.4, 69, 35.1, 22.8),
    )
)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def pcm16_wav(samples, rate: int) -> bytes:
    """A mono PCM16 WAV file holding the given int16 samples."""
    samples = np.asarray(samples, dtype="<i2")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + samples.nbytes, b"WAVE", b"fmt ",
        16, 1, 1, rate, 2 * rate, 2, 16, b"data", samples.nbytes,
    )
    return header + samples.tobytes()


def fresh_runs(argvs, cwd):
    """Run each argv as `birdedge` in a process of its own, all at once.

    Returns (exit code, stdout, stderr) per argv, in order.
    """
    src = str(Path(birdedge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "birdedge.cli", *argv], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in argvs
    ]
    results = []
    for child in children:
        out, err = child.communicate(timeout=60)
        results.append((child.returncode, out, err))
    return results


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, recordings_dir):
    """One preprocess run plus a generated model, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "chunks"
    assert main(["preprocess", "--in", str(recordings_dir), "--out", str(out)]) == 0
    model = root / "model.enm"
    assert main([
        "gen-fixture", "--classes", str(FIXTURE_CLASSES),
        "--seed", str(FIXTURE_SEED), "--out", str(model),
    ]) == 0
    return {"root": root, "chunks": out, "model": model}


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "preprocess" in capsys.readouterr().out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["rank", "--bogus"]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self):
        assert main(["preprocess"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2

    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only; importing scipy.ndimage alone
        # would add about 0.4 s to every cold start
        src = str(Path(birdedge.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, birdedge.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=60, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestPreprocess:
    def test_golden_digests(self, pipeline):
        out = pipeline["chunks"]
        found = {
            str(p.relative_to(out)): digest(p) for p in sorted(out.rglob("*.mels"))
        }
        assert found == PREPROCESS_GOLDEN

    def test_stderr_summary(self, recordings_dir, tmp_path, capsys):
        assert main(["preprocess", "--in", str(recordings_dir), "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert "calls_48k.wav: 3 chunks, 0 noise windows" in err
        assert "stereo_441.wav: 2 chunks, 0 noise windows" in err
        assert "hum_48k.wav: 0 chunks, 2 noise windows" in err

    def test_rerun_is_bitwise_identical(self, pipeline, recordings_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["preprocess", "--in", str(recordings_dir), "--out", str(again)]) == 0
        for name, want in PREPROCESS_GOLDEN.items():
            assert digest(again / name) == want

    def test_single_file_input(self, recordings_dir, tmp_path):
        out = tmp_path / "single"
        wav = recordings_dir / "calls_48k.wav"
        assert main(["preprocess", "--in", str(wav), "--out", str(out)]) == 0
        assert len(list(out.glob("*.mels"))) == 3

    def test_manifest(self, pipeline):
        manifest = json.loads((pipeline["chunks"] / "manifest.json").read_text())
        assert manifest["tool"] == "birdedge"
        assert manifest["version"] == __version__
        assert manifest["subcommand"] == "preprocess"
        assert len(manifest["outputs"]) == len(PREPROCESS_GOLDEN)
        assert manifest["outputs"] == sorted(manifest["outputs"])

    def test_chunks_decode(self, pipeline):
        spec = read_spectrogram(pipeline["chunks"] / "calls_48k_chunk000.mels")
        assert spec.values.shape == (64, 249)
        assert float(spec.values.max()) == 0.0

    def test_no_temp_files_left(self, pipeline):
        leftovers = [p for p in pipeline["chunks"].rglob(".*") if p.is_file()]
        assert leftovers == []

    def test_missing_input(self, tmp_path, capsys):
        assert main(["preprocess", "--in", str(tmp_path / "void"), "--out", str(tmp_path / "o")]) == 1
        assert "birdedge preprocess" in capsys.readouterr().err

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["preprocess", "--in", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert "no .wav files" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--max-chunks", "-1"), ("--max-chunks", "0"),
        ("--peak-ratio", "nan"), ("--peak-ratio", "inf"),
    ])
    def test_screen_that_keeps_no_chunk_exits_1(self, recordings_dir, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        wav = recordings_dir / "calls_48k.wav"
        assert main(["preprocess", "--in", str(wav), "--out", str(out), flag, value]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not list(out.rglob("*.mels"))

    @pytest.mark.parametrize("flag, value, name", [
        ("--max-chunks", "0", "max_chunks"),
        ("--peak-ratio", "nan", "peak_ratio"),
        ("--silence-threshold", "2", "threshold"),
    ])
    def test_bad_setting_exits_1_on_a_too_short_clip(self, tmp_path, capsys, flag, value, name):
        # the length gate drops this clip before any screen would see it
        recordings = tmp_path / "short"
        recordings.mkdir()
        (recordings / "a.wav").write_bytes(pcm16_wav(np.full(48000, 1000), 48000))
        out = tmp_path / "o"
        assert main(["preprocess", "--in", str(recordings), "--out", str(out), flag, value]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_all_zero_noise_window_is_skipped(self, tmp_path, capsys):
        # every sample is loud, so silence removal keeps all 3 s; halving
        # the rate keeps the even samples, which are 0, so the one window
        # is all zero: no peak, and nothing to normalize into a noise file
        samples = np.zeros(3 * 96000, dtype="<i2")
        samples[1::2] = np.resize([8000, -8000, -8000, 8000], samples[1::2].size)
        wav = tmp_path / "zeros.wav"
        wav.write_bytes(pcm16_wav(samples, 96000))
        out = tmp_path / "o"
        assert main(["preprocess", "--in", str(wav), "--out", str(out)]) == 0
        assert "zeros.wav: 0 chunks, 0 noise windows" in capsys.readouterr().err
        assert not list(out.rglob("*.mels"))
        assert json.loads((out / "manifest.json").read_text())["outputs"] == []

    def test_rerun_leaves_only_the_manifests_files(self, recordings_dir, tmp_path):
        out = tmp_path / "o"
        assert main(["preprocess", "--in", str(recordings_dir), "--out", str(out)]) == 0
        assert len(list(out.rglob("*.mels"))) == len(PREPROCESS_GOLDEN)
        stale_noise = out / "noise" / "hum_48k_noise007.mels"
        stale_noise.write_bytes(mels_bytes(249))
        argv = ["preprocess", "--in", str(recordings_dir), "--out", str(out), "--max-chunks", "1"]
        assert main(argv) == 0
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(map(str, out.rglob("*.mels"))) == listed
        assert len(listed) == 4 and not stale_noise.exists()
        chunks = [name for name in listed if "_chunk" in name]
        assert main(["augment", "--seed", "1", "--in", str(out), "--out", str(tmp_path / "a")]) == 0
        assert len(list((tmp_path / "a").glob("*.mels"))) == len(chunks) == 2

    def test_stale_removal_spares_other_stems(self, recordings_dir, tmp_path):
        # x_chunk5.wav writes x_chunk5_chunk000.mels, which a "x_chunk*"
        # pattern for stem x would take for one of x's stale chunks
        recordings = tmp_path / "stems"
        recordings.mkdir()
        for stem, source in (("x", "calls_48k"), ("x_chunk5", "calls_48k"),
                             ("h", "hum_48k"), ("h_noise5", "hum_48k")):
            (recordings / f"{stem}.wav").write_bytes((recordings_dir / f"{source}.wav").read_bytes())
        out = tmp_path / "o"
        assert main(["preprocess", "--in", str(recordings), "--out", str(out)]) == 0
        before = sorted(p.name for p in out.rglob("*.mels"))
        assert len(before) == 10
        for stem in ("x", "h"):
            argv = ["preprocess", "--in", str(recordings / f"{stem}.wav"), "--out", str(out)]
            assert main(argv) == 0
        assert sorted(p.name for p in out.rglob("*.mels")) == before

    def test_two_inputs_with_one_stem_exit_1(self, recordings_dir, tmp_path, capsys):
        # both would write x_chunk000.mels, and the second would win
        recordings = tmp_path / "clash"
        recordings.mkdir()
        (recordings / "x.wav").write_bytes((recordings_dir / "calls_48k.wav").read_bytes())
        (recordings / "x.WAV").write_bytes((recordings_dir / "stereo_441.wav").read_bytes())
        out = tmp_path / "o"
        assert main(["preprocess", "--in", str(recordings), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "x.WAV" in err and "x.wav" in err
        assert not out.exists()


class TestAugment:
    def run_augment(self, pipeline, dest):
        return main([
            "augment", "--seed", "11",
            "--in", str(pipeline["chunks"]),
            "--out", str(dest),
            "--noise-pool", str(pipeline["chunks"] / "noise"),
        ])

    @pytest.mark.parametrize("flag", ["--p-apply", "--max-augs"])
    def test_short_spectrogram_passes_when_nothing_can_run(self, tmp_path, flag):
        # a 20-frame input is under the warp minimum of 25 frames, but at
        # 0 no augmentation can run, so it is copied through unchanged
        (tmp_path / "in").mkdir()
        (tmp_path / "in/a.mels").write_bytes(mels_bytes(20))
        argv = ["augment", "--seed", "1", "--in", str(tmp_path / "in"),
                "--out", str(tmp_path / "out"), flag, "0"]
        assert main(argv) == 0
        assert (tmp_path / "out/a.mels").read_bytes() == mels_bytes(20)

    def test_golden_digests(self, pipeline, tmp_path):
        out = tmp_path / "aug"
        assert self.run_augment(pipeline, out) == 0
        found = {p.name: digest(p) for p in sorted(out.glob("*.mels"))}
        assert found == AUGMENT_GOLDEN
        assert digest(out / "augment_log.txt") == AUGMENT_LOG_DIGEST

    def test_log_lists_every_chunk(self, pipeline, tmp_path):
        out = tmp_path / "aug"
        assert self.run_augment(pipeline, out) == 0
        lines = (out / "augment_log.txt").read_text().splitlines()
        assert len(lines) == len(AUGMENT_GOLDEN)
        assert all(":" in line for line in lines)

    def test_seed_changes_output(self, pipeline, tmp_path):
        out = tmp_path / "aug13"
        assert main([
            "augment", "--seed", "13",
            "--in", str(pipeline["chunks"]), "--out", str(out),
            "--noise-pool", str(pipeline["chunks"] / "noise"),
        ]) == 0
        found = {p.name: digest(p) for p in sorted(out.glob("*.mels"))}
        assert found != AUGMENT_GOLDEN

    def test_without_pool_logs_skips_or_rolls(self, pipeline, tmp_path):
        out = tmp_path / "nopool"
        assert main([
            "augment", "--seed", "11", "--p-apply", "1.0", "--max-augs", "4",
            "--in", str(pipeline["chunks"]), "--out", str(out),
        ]) == 0
        log = (out / "augment_log.txt").read_text()
        assert "add_noise(skipped: empty noise pool)" in log

    def test_missing_noise_pool_exits_1(self, pipeline, tmp_path, capsys):
        out = tmp_path / "aug"
        assert main([
            "augment", "--seed", "11", "--p-apply", "1",
            "--in", str(pipeline["chunks"]), "--out", str(out),
            "--noise-pool", str(tmp_path / "no_such_dir"),
        ]) == 1
        assert "no_such_dir" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_pool_without_mels_is_an_empty_pool(self, pipeline, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "aug"
        assert main([
            "augment", "--seed", "11", "--p-apply", "1", "--max-augs", "4",
            "--in", str(pipeline["chunks"]), "--out", str(out),
            "--noise-pool", str(empty),
        ]) == 0
        log = (out / "augment_log.txt").read_text()
        assert "add_noise(skipped: empty noise pool)" in log

    def test_outputs_stay_in_range(self, pipeline, tmp_path):
        out = tmp_path / "aug"
        assert self.run_augment(pipeline, out) == 0
        for p in out.glob("*.mels"):
            values = read_spectrogram(p).values
            assert values.min() >= -80.0
            assert values.max() <= 0.0


class TestInfer:
    def test_golden_report(self, pipeline, tmp_path):
        report = tmp_path / "infer.csv"
        assert main([
            "infer", "--model", str(pipeline["model"]),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
            "--out", str(report),
        ]) == 0
        assert digest(report) == INFER_DIGEST

    def test_model_digest(self, pipeline):
        assert digest(pipeline["model"]) == MODEL_DIGEST

    def test_report_contents(self, pipeline, capsys):
        assert main([
            "infer", "--model", str(pipeline["model"]),
            "--spec", str(pipeline["chunks"] / "stereo_441_chunk000.mels"),
        ]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "class,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:1 + FIXTURE_CLASSES]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert lines[-2] == "flops,ram_bytes,rom_bytes"
        assert lines[-1] == "5315248,96000,22803"

    def test_out_manifest(self, pipeline, tmp_path):
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(pipeline["model"]),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk001.mels"),
            "--out", str(report),
        ]) == 0
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "infer"
        assert manifest["outputs"] == [str(report)]

    def test_nonfinite_spec_exits_1(self, pipeline, tmp_path, capsys):
        values = read_spectrogram(
            pipeline["chunks"] / "calls_48k_chunk000.mels"
        ).values
        values[10, 20] = np.nan
        spec = tmp_path / "nan.mels"
        spec.write_bytes(
            b"MELS" + struct.pack("<II", *values.shape) + values.astype("<f4").tobytes()
        )
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(pipeline["model"]),
            "--spec", str(spec), "--out", str(report),
        ]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not report.exists()

    def test_nan_scale_model_exits_1(self, pipeline, tmp_path, capsys):
        blob = bytearray(pipeline["model"].read_bytes())
        # the stem conv's output scale: after the 36-byte header, its kind
        # byte, six u32 dims, weight scale and weight zero point
        offset = 36 + struct.calcsize("<BIIIIIIfi")
        blob[offset:offset + 4] = struct.pack("<f", float("nan"))
        model = tmp_path / "nan.enm"
        model.write_bytes(bytes(blob))
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(model),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
            "--out", str(report),
        ]) == 1
        assert "output scale" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("offset, value, where", [
        (28, 1e-40, "input scale"),  # after magic, version and five u32
        # the stem conv's weight scale, after its kind byte and six u32 dims
        (36 + struct.calcsize("<BIIIIII"), 2.0**-33, "layer 0: weight scale"),
        # the stem conv's output scale, after its weight zero point
        (36 + struct.calcsize("<BIIIIIIfi"), 1e-40, "layer 0: output scale"),
        # the first relu6's output scale: the stem conv's record, its 72
        # weights and 8 int32 biases, then the relu6 kind byte
        (36 + struct.calcsize("<BIIIIIIfifiB") + 72 + 32 + 1, 3e38,
         "layer 1: output scale"),
    ])
    def test_scale_outside_range_exits_1(
        self, pipeline, tmp_path, capsys, offset, value, where
    ):
        blob = bytearray(pipeline["model"].read_bytes())
        blob[offset:offset + 4] = struct.pack("<f", value)
        model = tmp_path / "scale.enm"
        model.write_bytes(bytes(blob))
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(model),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
            "--out", str(report),
        ]) == 1
        assert f"{where} must be in [2**-32, 2**32]" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("offset, where", [
        (32, "input zero point"),  # the header's last field
        # the stem conv's output zero point, right after its output scale
        (36 + struct.calcsize("<BIIIIIIfif"), "layer 0: output zero point"),
    ])
    def test_zero_point_outside_int8_exits_1(
        self, pipeline, tmp_path, capsys, offset, where
    ):
        blob = bytearray(pipeline["model"].read_bytes())
        blob[offset:offset + 4] = struct.pack("<i", 255)
        model = tmp_path / "zp.enm"
        model.write_bytes(bytes(blob))
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(model),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
            "--out", str(report),
        ]) == 1
        assert where in capsys.readouterr().err
        assert not report.exists()

    def test_linear_geometry_model_exits_1(self, pipeline, tmp_path, capsys):
        model = tmp_path / "geometry.enm"
        model.write_bytes(
            with_linear_geometry(pipeline["model"].read_bytes(), (3, 3), 2, 1)
        )
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(model),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
            "--out", str(report),
        ]) == 1
        assert "linear needs kernel 1x1" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("offset, value, where", [
        # the final linear's bias is the file's last field
        (-4, struct.pack("<i", 2**31 - 1), "layer 96: linear worst-case accumulator"),
        # the stem conv's padding, after its kind byte and five u32 fields
        (36 + struct.calcsize("<BIIIII"), struct.pack("<I", 4000),
         "layer 0: conv2d padded input"),
    ], ids=["int32-bias", "padding-4000"])
    def test_unbounded_model_exits_1(
        self, pipeline, tmp_path, capsys, offset, value, where
    ):
        blob = bytearray(pipeline["model"].read_bytes())
        start = offset % len(blob)  # a negative offset counts from the end
        blob[start:start + 4] = value
        model = tmp_path / "unbounded.enm"
        model.write_bytes(bytes(blob))
        report = tmp_path / "r.csv"
        assert main([
            "infer", "--model", str(model),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
            "--out", str(report),
        ]) == 1
        assert where in capsys.readouterr().err
        assert not report.exists()

    def test_missing_model(self, pipeline, tmp_path, capsys):
        assert main([
            "infer", "--model", str(tmp_path / "nope.enm"),
            "--spec", str(pipeline["chunks"] / "calls_48k_chunk000.mels"),
        ]) == 1
        assert "birdedge infer" in capsys.readouterr().err


class TestTrialTools:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_rank_output(self, tmp_path, capsys):
        trials = self.write(tmp_path, "t.csv", TRIALS_CSV)
        assert main(["rank", "--trials", str(trials)]) == 0
        out = capsys.readouterr().out
        expect = (
            "id,acc_score,mem_score,rank,selected\n"
            f"a,1,0,1,0\n"
            f"b,{8 / 9:.10g},0.5,{8 / 9 + 0.5:.10g},1\n"
        )
        assert out == expect

    def test_pareto_flags(self, tmp_path, capsys):
        trials = self.write(tmp_path, "t.csv", TRIALS_CSV)
        assert main(["pareto", "--trials", str(trials)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "id,acc,ram,rom,flops,pareto"
        assert out.splitlines()[1].endswith(",1")  # a stays: best accuracy
        assert out.splitlines()[2].endswith(",1")

    def test_pareto_resources_only(self, tmp_path, capsys):
        trials = self.write(tmp_path, "t.csv", TRIALS_CSV)
        assert main(["pareto", "--trials", str(trials), "--resources-only"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("a,") and lines[1].endswith(",0")
        assert lines[2].startswith("b,") and lines[2].endswith(",1")

    def test_compress_report(self, tmp_path, capsys):
        baseline = self.write(tmp_path, "b.csv", BASELINE_CSV)
        trials = self.write(
            tmp_path, "t.csv", "id,acc,ram,rom,flops\nt,0.9,100,100,400\n"
        )
        assert main([
            "compress", "--baseline", str(baseline), "--trials", str(trials),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,cr_ram,cr_rom,cr_flops,cr_overall,pareto"
        assert lines[1] == "t,0.75,0.9,0.6,0.75,1"
        assert lines[2] == "pareto_mean,,,,0.75,"

    def test_compress_rejects_summary_row_id(self, tmp_path, capsys):
        baseline = self.write(tmp_path, "b.csv", BASELINE_CSV)
        trials = self.write(
            tmp_path, "t.csv",
            "id,acc,ram,rom,flops\npareto_mean,0.9,100,100,400\nb,0.8,50,50,200\n",
        )
        assert main([
            "compress", "--baseline", str(baseline), "--trials", str(trials),
        ]) == 1
        captured = capsys.readouterr()
        assert "'pareto_mean'" in captured.err
        assert captured.out == ""
        for command in ("rank", "pareto"):
            assert main([command, "--trials", str(trials)]) == 0
            assert capsys.readouterr().out.splitlines()[1].startswith("pareto_mean,")

    @pytest.mark.parametrize("flags", [[], ["--resources-only"]])
    def test_compress_computes_front_once(self, tmp_path, capsys, monkeypatch, flags):
        rows = [
            (f"t{i}", 0.5 + 0.04 * (i % 7), 40 + 13 * i % 90, 300 - 17 * i % 250,
             200 + 31 * i % 700)
            for i in range(40)
        ]
        text = "id,acc,ram,rom,flops\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows
        )
        baseline_path = self.write(tmp_path, "b.csv", BASELINE_CSV)
        trials_path = self.write(tmp_path, "t.csv", text)
        expect = birdedge.trials.avg_overall_compression(
            birdedge.trials.read_baseline_csv(baseline_path),
            birdedge.trials.read_trials_csv(trials_path),
            include_accuracy=not flags,
        )
        calls = []
        pareto_front = birdedge.trials.pareto_front

        def counting(*args, **kwargs):
            calls.append(args)
            return pareto_front(*args, **kwargs)

        monkeypatch.setattr(birdedge.trials, "pareto_front", counting)
        assert main([
            "compress", "--baseline", str(baseline_path),
            "--trials", str(trials_path), *flags,
        ]) == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 42
        assert lines[-1] == f"pareto_mean,,,,{expect:.10g},"

    @pytest.mark.parametrize("command", sorted(SWEEP_GOLDEN))
    def test_sweep_golden(self, tmp_path, capsys, command):
        trials = self.write(tmp_path, "t.csv", sweep_trials_csv())
        baseline = self.write(tmp_path, "b.csv", SWEEP_BASELINE_CSV)
        name, *flags = command.split()
        if name == "compress":
            flags += ["--baseline", str(baseline)]
        assert main([name, "--trials", str(trials), *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == SWEEP_GOLDEN[command]

    @pytest.mark.parametrize("command", ["rank", "pareto"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,0.5,10,10,10", "duplicate trial ids: a"),
            ('"a,b",0.5,1,2,3', "trial id 'a,b'"),
            (",0.5,1,2,3", "trial id ''"),
            ("c,0.5,nan,10,10", "ram nan must be finite"),
            ("c,0.5,10,10,inf", "flops inf must be finite"),
        ],
    )
    def test_bad_trial_set_exits_1(self, tmp_path, capsys, command, row, message):
        trials = self.write(tmp_path, "t.csv", TRIALS_CSV + row + "\n")
        assert main([command, "--trials", str(trials)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, oversized", [
        ("rank", "trials"), ("pareto", "trials"),
        ("compress", "trials"), ("compress", "baseline"),
    ])
    def test_oversized_csv_field_exits_1(self, tmp_path, capsys, command, oversized):
        # the csv module refuses fields over 131072 characters
        files = {"trials": TRIALS_CSV, "baseline": BASELINE_CSV}
        files[oversized] += "x" * 200_000 + ",0.5,1,1,1\n"
        paths = {name: self.write(tmp_path, f"{name}.csv", text) for name, text in files.items()}
        argv = [command, "--trials", str(paths["trials"])]
        if command == "compress":
            argv += ["--baseline", str(paths["baseline"])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"birdedge {command}: line ")
        assert "field larger than field limit" in captured.err
        assert captured.out == ""

    def test_bad_trials_file(self, tmp_path, capsys):
        trials = self.write(tmp_path, "bad.csv", "nope\n")
        assert main(["rank", "--trials", str(trials)]) == 1
        assert "birdedge rank" in capsys.readouterr().err


class TestEnergy:
    def profile(self, tmp_path):
        path = tmp_path / "m7.cfg"
        path.write_text(PROFILE_CFG)
        return path

    def test_bundled_irradiance_report(self, tmp_path, capsys):
        assert main(["energy", "--profile", str(self.profile(tmp_path))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("month,s_rad_w_m2,")
        dec = lines[12].split(",")
        assert dec[0] == "dec"
        assert dec[1] == "22.8"
        assert float(dec[3]) == pytest.approx(6.6387, abs=1e-3)
        assert float(dec[5]) == pytest.approx(0.0674, abs=1e-3)
        assert dec[6] == "1"
        assert [line.split(",")[6] for line in lines[1:]].count("1") == 1

    def test_custom_irradiance(self, tmp_path, capsys):
        table = tmp_path / "sun.csv"
        table.write_text(
            "month,s_rad_w_m2\n" + "".join(f"{i},100\n" for i in range(1, 13))
        )
        assert main([
            "energy", "--profile", str(self.profile(tmp_path)),
            "--irradiance", str(table),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        areas = {line.split(",")[5] for line in lines}
        assert len(areas) == 1  # flat irradiance, identical areas

    @pytest.mark.parametrize("table", sorted(ENERGY_GOLDEN))
    def test_report_golden(self, tmp_path, capsys, table):
        profile = Path(birdedge.__file__).parent / "data" / "profile_m7.cfg"
        argv = ["energy", "--profile", str(profile)]
        if table == "custom":
            sun = tmp_path / "sun.csv"
            sun.write_text(CUSTOM_IRRADIANCE)
            argv += ["--irradiance", str(sun)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == ENERGY_GOLDEN[table]

    def test_oversized_irradiance_field_exits_1(self, tmp_path, capsys):
        table = tmp_path / "sun.csv"
        table.write_text("month,s_rad_w_m2\n" + "x" * 200_000 + ",50\n")
        assert main([
            "energy", "--profile", str(self.profile(tmp_path)),
            "--irradiance", str(table),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("birdedge energy: irradiance line 2: ")
        assert captured.out == ""

    def test_bad_profile(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("e_infer_mj = 83\n")
        assert main(["energy", "--profile", str(bad)]) == 1
        assert "missing required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, june",
        [
            (("e_infer_mj = 83", "e_infer_mj = nan"), "100"),
            (("p_sleep_mw = 116", "p_sleep_mw = 116\nautonomy_hours = inf"), "100"),
            (("", ""), "nan"),
        ],
    )
    def test_nonfinite_inputs_exit_1(self, tmp_path, capsys, edit, june):
        profile = self.profile(tmp_path)
        profile.write_text(profile.read_text().replace(*edit))
        table = tmp_path / "sun.csv"
        table.write_text(
            "month,s_rad_w_m2\n"
            + "".join(f"{i},{june if i == 6 else 100}\n" for i in range(1, 13))
        )
        assert main([
            "energy", "--profile", str(profile), "--irradiance", str(table),
        ]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "line, field",
        [
            ("e_infer_mj = nan", "e_infer_j"),
            ("e_infer_mj = -1", "e_infer_j"),
            ("t_infer_ms = inf", "t_infer_s"),
            ("e_dsp_mj = -0.5", "e_dsp_j"),
            ("t_dsp_ms = -170", "t_dsp_s"),
            ("p_sleep_mw = -inf", "p_sleep_w"),
            ("duty_percent = 150", "duty"),
            ("eta_bat_percent = 0", "eta_bat"),
        ],
    )
    def test_profile_error_names_profile_key(self, tmp_path, capsys, line, field):
        profile = self.profile(tmp_path)
        key = line.split(" = ")[0]
        kept = [row for row in profile.read_text().splitlines() if not row.startswith(key)]
        profile.write_text("\n".join(kept + [line]) + "\n")
        assert main(["energy", "--profile", str(profile)]) == 1
        captured = capsys.readouterr()
        assert f"{key} must be" in captured.err
        assert not re.search(rf"\b{field}\b", captured.err)
        assert captured.out == ""


class TestBench:
    def test_statistics_fields(self, pipeline, tmp_path, capsys):
        assert main([
            "bench", "--model", str(pipeline["model"]),
            "--spec-dir", str(pipeline["chunks"]),
            "--repetitions", "5",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "repetitions,mean_ms,std_ms,min_ms,max_ms"
        reps, mean, std, lo, hi = lines[1].split(",")
        assert reps == "5"
        assert float(lo) <= float(mean) <= float(hi)
        assert float(std) >= 0.0
        assert float(lo) > 0.0

    def test_single_repetition_has_zero_std(self, pipeline, capsys):
        assert main([
            "bench", "--model", str(pipeline["model"]),
            "--spec-dir", str(pipeline["chunks"]),
            "--repetitions", "1",
        ]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split(",")[2] == "0"

    def test_the_plan_is_built_before_the_timed_loop(self, pipeline, capsys,
                                                      monkeypatch):
        calls, infer = [], birdedge.nnrt.infer

        def counting(model, spec):
            calls.append(spec)
            return infer(model, spec)

        monkeypatch.setattr(birdedge.nnrt, "infer", counting)
        assert main([
            "bench", "--model", str(pipeline["model"]),
            "--spec-dir", str(pipeline["chunks"]), "--repetitions", "3",
        ]) == 0
        assert len(calls) == 3 + 1
        capsys.readouterr()

    @pytest.mark.parametrize("repetitions", ["0", "-1"])
    def test_repetitions_below_1_exit_1(self, pipeline, tmp_path, capsys, repetitions):
        # checked before the model is read: this one does not exist
        assert main([
            "bench", "--model", str(tmp_path / "absent.enm"),
            "--spec-dir", str(pipeline["chunks"]), "--repetitions", repetitions,
        ]) == 1
        err = capsys.readouterr().err
        assert f"repetitions must be >= 1, got {repetitions}" in err

    def test_empty_spec_dir(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main([
            "bench", "--model", str(pipeline["model"]), "--spec-dir", str(empty),
        ]) == 1
        assert "no .mels files" in capsys.readouterr().err


class TestGenFixture:
    def test_writes_model_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "m.enm"
        assert main([
            "gen-fixture", "--classes", "8", "--seed", "3", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert "layers" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "m.enm.manifest.json").read_text())
        assert manifest["subcommand"] == "gen-fixture"
        from birdedge.nnrt import load_model

        model = load_model(out.read_bytes())
        assert model.class_count == 8

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.enm", tmp_path / "b.enm"
        for path in (a, b):
            assert main([
                "gen-fixture", "--classes", "8", "--seed", "3", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestAtomicWrite:
    def test_failed_replace_removes_the_temp_file_and_reraises(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "out" / "report.csv"
        with pytest.raises(PermissionError, match="cannot replace"):
            birdedge.cli._atomic_write(target, b"id\n")
        assert list(target.parent.iterdir()) == []


class TestRepeatedCalls:
    """main called again and again in one process shares one parser, and
    each call behaves as it would in a process of its own."""

    def test_pareto_flag_does_not_carry_over(self, tmp_path, monkeypatch):
        argvs = [
            ["pareto", "--trials", "t.csv", "--resources-only", "--out", "res.csv"],
            ["pareto", "--trials", "t.csv", "--out", "all.csv"],
        ]
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        for directory in (here, fresh):
            directory.mkdir()
            (directory / "t.csv").write_text(TRIALS_CSV)
        monkeypatch.chdir(here)
        assert [main(argv) for argv in argvs] == [0, 0]
        assert fresh_runs(argvs, fresh) == [(0, "", ""), (0, "", "")]

        def files(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir()}

        outputs = files(here)
        assert sorted(outputs) == [
            "all.csv", "all.csv.manifest.json", "res.csv", "res.csv.manifest.json",
            "t.csv",
        ]
        assert outputs["all.csv"] != outputs["res.csv"]
        assert outputs == files(fresh)

    def test_usage_error_then_version_then_command(self, tmp_path, monkeypatch, capsys):
        argvs = [["rank", "--bogus"], ["--version"], ["rank", "--trials", "t.csv"]]
        (tmp_path / "t.csv").write_text(TRIALS_CSV)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        here = []
        for argv in argvs:
            code = main(argv)
            here.append((code, *capsys.readouterr()))
        assert [code for code, _, _ in here] == [2, 0, 0]
        assert here == fresh_runs(argvs, tmp_path)

    def test_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        build_parser = birdedge.cli.build_parser

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(birdedge.cli, "build_parser", counting)
        birdedge.cli._parser.cache_clear()
        trials = tmp_path / "t.csv"
        trials.write_text(TRIALS_CSV)
        codes = [
            main(argv)
            for argv in (
                ["rank", "--trials", str(trials)],
                ["frobnicate"],
                ["--version"],
                ["pareto", "--trials", str(trials)],
            )
        ]
        assert codes == [0, 2, 0, 0]
        assert len(built) == 1


FLAT_IRRADIANCE = "month,s_rad_w_m2\n" + "".join(f"{m},100\n" for m in range(1, 13))
RANK = ["rank", "--trials", "t.csv"]
COMPRESS = ["compress", "--baseline", "b.csv", "--trials", "t.csv"]
ENERGY = ["energy", "--profile", "p.cfg", "--irradiance", "sun.csv"]


def mels_bytes(frames: int) -> bytes:
    sink = io.BytesIO()
    write_spectrogram(random_spec(0, shape=(64, frames)), sink)
    return sink.getvalue()


def contract_case(name, argv, message, files=None):
    """One input error: argv runs in a directory holding files (name: text
    or bytes; "in/a.mels" makes the directory), and must exit 1 with
    message in its `birdedge <cmd>: ` line."""
    return pytest.param(argv, files or {}, message, id=name)


def text_inputs(name=None, content=None):
    """The valid text inputs, the file name holding content instead."""
    files = {"t.csv": TRIALS_CSV, "b.csv": BASELINE_CSV, "p.cfg": PROFILE_CFG,
             "sun.csv": FLAT_IRRADIANCE}
    if name is not None:
        files[name] = content
    return files


CONTRACT_CASES = [
    # a file that is not UTF-8, a value out of range, a number that
    # overflows or underflows
    contract_case("trials-not-utf8", RANK, "codec can't decode",
                  text_inputs("t.csv", TRIALS_CSV.encode() + b"\xff,0.5,1,1,1\n")),
    contract_case("trials-not-a-number", RANK,
                  "line 4: could not convert string to float: 'abc'",
                  text_inputs("t.csv", TRIALS_CSV + "c,0.5,abc,1,1\n")),
    contract_case("compress-pareto-mean-id", COMPRESS, "reserved for the summary row",
                  text_inputs("t.csv", TRIALS_CSV + "pareto_mean,0.5,1,1,1\n")),
    contract_case("zero-active-time", ENERGY, "t_infer_ms + t_dsp_ms must be > 0",
                  text_inputs("p.cfg", PROFILE_CFG.replace("237", "0").replace("170", "0"))),
    contract_case("irradiance-underflow", ENERGY, "sizing underflows",
                  text_inputs("sun.csv", FLAT_IRRADIANCE.replace("1,100", "jan,5e-324", 1))),
    contract_case("profile-not-utf8", ENERGY, "codec can't decode",
                  text_inputs("p.cfg", b"\xff" + PROFILE_CFG.encode())),
    contract_case("gen-fixture-negative-seed",
                  ["gen-fixture", "--classes", "3", "--seed", "-1", "--out", "m.enm"],
                  "seed must be >= 0, got -1"),
    contract_case("augment-negative-seed",
                  ["augment", "--seed", "-1", "--in", "in", "--out", "out"],
                  "seed must be >= 0, got -1", {"in/a.mels": mels_bytes(249)}),
    contract_case("gen-fixture-no-class",
                  ["gen-fixture", "--classes", "0", "--seed", "1", "--out", "m.enm"],
                  "class_count must be in [1, 1048576], got 0"),
    contract_case("augment-short-spectrogram",
                  ["augment", "--seed", "1", "--in", "in", "--out", "out"],
                  "warp limit 12 too large for 20 frames", {"in/a.mels": mels_bytes(20)}),
    contract_case("augment-p-apply-above-1",
                  ["augment", "--seed", "1", "--in", "in", "--out", "out", "--p-apply", "2"],
                  "p_apply must be in [0, 1], got 2.0", {"in/a.mels": mels_bytes(249)}),
    contract_case("bench-no-repetition",
                  ["bench", "--model", "m.enm", "--spec-dir", "in", "--repetitions", "0"],
                  "repetitions must be >= 1, got 0"),
    contract_case("preprocess-silence-threshold-2",
                  ["preprocess", "--in", "a.wav", "--out", "out", "--silence-threshold", "2"],
                  "threshold must be in (0, 1), got 2.0",
                  {"a.wav": pcm16_wav(np.resize([0, 9000, 0, -9000], 3 * 48000), 48000)}),
    # 10 KB of samples under a 1 Hz header, which a resample to 48 kHz would
    # grow to up to 0.9 GB
    contract_case("preprocess-1-hz-header",
                  ["preprocess", "--in", "a.wav", "--out", "out"],
                  "sample rate 1 Hz is below the 8000 Hz minimum",
                  {"a.wav": pcm16_wav(np.resize([0, 9000, 0, -9000], 5000), 1)}),
    contract_case("gen-fixture-classes-over-the-container-limit",
                  ["gen-fixture", "--classes", "1048577", "--seed", "1", "--out", "m.enm"],
                  "class_count must be in [1, 1048576], got 1048577"),
    contract_case("compress-rate-overflow", COMPRESS, "trial a: cr_ram overflows to -inf",
                  text_inputs("b.csv", BASELINE_CSV.replace("400", "5e-324"))),
    contract_case("irradiance-not-utf8", ENERGY, "codec can't decode",
                  text_inputs("sun.csv", FLAT_IRRADIANCE.encode() + b"\xff")),
    # the structure of each text input: a BOM, a NUL byte, a duplicate key
    # and a missing key
    *[
        contract_case(f"{kind}-{edit}", argv, message, text_inputs(name, text))
        for kind, argv, name, cases in [
            ("trials", RANK, "t.csv", [
                ("bom", "\ufeff" + TRIALS_CSV, "expected header"),
                ("nul", TRIALS_CSV.replace("0.8", "0.8\0"), "line 3: "),
                ("duplicate", TRIALS_CSV + "a,0.5,1,1,1\n", "duplicate trial ids: a"),
                ("missing", TRIALS_CSV.replace(",flops", ""), "expected header"),
            ]),
            ("baseline", COMPRESS, "b.csv", [
                ("bom", "\ufeff" + BASELINE_CSV, "expected header"),
                ("nul", BASELINE_CSV.replace("400", "400\0"), "line 2: "),
                ("duplicate", BASELINE_CSV + "full,0.93,400,1000,1000\n",
                 "exactly one row, got 2"),
                ("missing", BASELINE_CSV.splitlines()[0], "exactly one row, got 0"),
            ]),
            ("profile", ENERGY, "p.cfg", [
                ("bom", "\ufeff" + PROFILE_CFG, "unknown key"),
                ("nul", PROFILE_CFG.replace("83", "83\0"), "line 1: bad number"),
                ("duplicate", PROFILE_CFG + "e_dsp_mj = 55\n", "duplicate key 'e_dsp_mj'"),
                ("missing", PROFILE_CFG.replace("p_sleep_mw = 116\n", ""),
                 "missing required keys: p_sleep_mw"),
            ]),
            ("irradiance", ENERGY, "sun.csv", [
                ("bom", "\ufeff" + FLAT_IRRADIANCE, "expected a month,s_rad_w_m2 header"),
                ("nul", FLAT_IRRADIANCE.replace("3,100", "3,100\0"), "bad irradiance value"),
                ("duplicate", FLAT_IRRADIANCE.replace("3,", "2,"), "duplicate month '2'"),
                ("missing", FLAT_IRRADIANCE.replace("12,100\n", ""),
                 "irradiance table has 11 months"),
            ]),
        ]
        for edit, text, message in cases
    ],
]


class TestErrorContract:
    """An input error exits 1 with one `birdedge <cmd>: ` line; anything
    else is a bug and propagates out of main."""

    @staticmethod
    def write(directory, files):
        for name, content in files.items():
            path = directory / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, str):
                path.write_text(content, encoding="utf-8")
            else:
                path.write_bytes(content)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, files, message", CONTRACT_CASES)
    def test_input_error_exits_1(self, tmp_path, monkeypatch, capsys, argv, files, message):
        self.write(tmp_path, files)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"birdedge {argv[0]}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [RANK, COMPRESS, ENERGY], ids=lambda argv: argv[0])
    def test_crlf_reads_as_lf(self, tmp_path, monkeypatch, capsys, argv):
        files = text_inputs()
        for directory, newline in (("lf", "\n"), ("crlf", "\r\n")):
            self.write(tmp_path / directory, {
                name: text.replace("\n", newline) for name, text in files.items()
            })
        outputs = []
        for directory in ("lf", "crlf"):
            monkeypatch.chdir(tmp_path / directory)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    @pytest.mark.parametrize("argv, name", [(RANK, "t.csv"), (ENERGY, "sun.csv")],
                             ids=["rank", "energy"])
    def test_form_feeds_do_not_end_rows(self, tmp_path, monkeypatch, capsys, argv, name):
        files = text_inputs()
        self.write(tmp_path, {**files, name: files[name].replace("\n", "\f")})
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"birdedge {argv[0]}: ")

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_a_bug_is_not_an_input_error(self, tmp_path, monkeypatch, error):
        def broken(trials):
            raise error("not an input error")

        (tmp_path / "t.csv").write_text(TRIALS_CSV)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(birdedge.trials, "score_table", broken)
        with pytest.raises(error, match="not an input error"):
            main(RANK)
