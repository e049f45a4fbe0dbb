"""Command line tests.

The end-to-end chain runs on three synthesized recordings; output digests
were frozen from a reference run and double as regression anchors for the
whole numeric stack. Determinism is additionally checked by rerunning into
a fresh directory.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import birdedge
from birdedge import __version__
from birdedge.audio_io import read_spectrogram
from birdedge.cli import main

from conftest import FIXTURE_CLASSES, FIXTURE_SEED, with_linear_geometry

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


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


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


class TestAugment:
    def run_augment(self, pipeline, dest):
        return main([
            "augment", "--seed", "11",
            "--in", str(pipeline["chunks"]),
            "--out", str(dest),
            "--noise-pool", str(pipeline["chunks"] / "noise"),
        ])

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

    @pytest.mark.parametrize("command", ["rank", "pareto"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,0.5,10,10,10", "duplicate trial ids: a"),
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

    def test_bad_trials_file(self, tmp_path, capsys):
        trials = self.write(tmp_path, "bad.csv", "nope\n")
        assert main(["rank", "--trials", str(trials)]) == 1
        assert "birdedge rank" in capsys.readouterr().err


class TestEnergy:
    def profile(self, tmp_path):
        path = tmp_path / "m7.cfg"
        path.write_text(
            "e_infer_mj = 83\nt_infer_ms = 237\ne_dsp_mj = 55\n"
            "t_dsp_ms = 170\np_sleep_mw = 116\n"
        )
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
