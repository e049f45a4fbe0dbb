"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS or FAIL line (run with -s to see them on success). Time budgets are
enforced where the criterion states one.
"""

import importlib.resources
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from birdedge.audio_io import decode_wav, write_spectrogram
from birdedge.augment import (
    AUGMENTATION_NAMES,
    AugmentConfig,
    augment_chunk,
    chunk_rng,
    draw_schedule,
    freq_roll,
    time_roll,
    time_warp,
)
from birdedge.cli import main
from birdedge.energy import (
    active_power,
    average_power,
    battery_capacity,
    charge_power,
    monthly_report,
    panel_area,
    parse_irradiance,
    parse_profile,
)
from birdedge.nnrt import (
    LayerSpec,
    ModelGraph,
    float_reference_infer,
    infer,
    resource_report,
    save_model,
)
from birdedge.preprocess import (
    F_MAX,
    F_MIN,
    N_MELS,
    SAMPLE_RATE,
    mel_spectrogram,
    preprocess_recording,
)
from birdedge.trials import (
    BaselineRecord,
    TrialRecord,
    avg_overall_compression,
    compression_rate,
    overall_compression,
    pareto_front,
    select_best,
)

from conftest import random_spec


@contextmanager
def criterion(number, label, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"FAIL criterion {number}: {label} "
              f"(runtime {elapsed:.2f} s over the {budget_s} s budget)")
        raise AssertionError(f"criterion {number} exceeded {budget_s} s")
    print(f"PASS criterion {number}: {label} ({elapsed:.2f} s)")


def bundled(name):
    return importlib.resources.files("birdedge").joinpath("data", name).read_text()


def test_criterion_1_energy_chain():
    """Both platform chains reproduce the published sizing figures."""
    with criterion(1, "energy chain reproduction", budget_s=1.0):
        mcu = parse_profile(bundled("profile_m7.cfg"))
        sbc = parse_profile(bundled("profile_pi4.cfg"))
        table = parse_irradiance(bundled("irradiance_de.csv"))

        # microcontroller chain; each stage is fed the figure a reader of
        # the published table would carry forward
        assert abs(active_power(mcu) * 1e3 - 339.0) <= 1.0
        assert abs(average_power(mcu) * 1e3 - 138.3) <= 0.1
        assert abs(battery_capacity(mcu) - 6.6) <= 0.05
        assert abs(charge_power(6.6, 24.0) * 1e3 - 275.0) <= 1.0
        assert abs(panel_area(0.275, 22.8, 0.20, 0.90) - 0.07) <= 0.01

        # single-board computer chain
        assert abs(active_power(sbc) - 6.0) <= 0.1
        assert abs(average_power(sbc) - 3.24) <= 0.01
        assert abs(battery_capacity(sbc) - 155.5) <= 0.5
        assert abs(charge_power(155.5, 24.0) - 6.48) <= 0.01
        assert abs(panel_area(6.48, 22.8, 0.20, 0.90) - 1.58) <= 0.01

        # the full-precision chain lands on the same figures and flags
        # December, the irradiance minimum, as the sizing month
        report = monthly_report(mcu, table)
        december = report[11]
        assert december.worst
        assert abs(december.panel_area_m2 - 0.07) <= 0.01
        sbc_report = monthly_report(sbc, table)
        assert abs(sbc_report[11].panel_area_m2 - 1.58) <= 0.01


def test_criterion_2_pareto_oracle():
    """Front and rank winner match brute force on 200 random 50-trial sets."""

    def oracle_front(trials, include_accuracy):
        def dominates(x, y):
            at_least = x.ram <= y.ram and x.rom <= y.rom and x.flops <= y.flops
            strictly = x.ram < y.ram or x.rom < y.rom or x.flops < y.flops
            if include_accuracy:
                at_least = at_least and x.acc >= y.acc
                strictly = strictly or x.acc > y.acc
            return at_least and strictly

        return {
            c.id
            for c in trials
            if not any(dominates(o, c) for o in trials if o is not c)
        }

    def oracle_best(trials):
        best_acc = max(t.acc for t in trials)
        scores = {}
        for t in trials:
            mem = sum(
                1.0 - getattr(t, k) / max(getattr(o, k) for o in trials)
                for k in ("ram", "rom", "flops")
            ) / 3.0
            scores[t.id] = t.acc / best_acc + mem
        return min(trials, key=lambda t: (-scores[t.id], t.flops, t.id)).id

    with criterion(2, "ranking and Pareto front match brute force", budget_s=10.0):
        rng = np.random.default_rng(20260817)
        for round_no in range(200):
            trials = [
                TrialRecord(
                    id=f"t{i:02d}",
                    acc=float(rng.integers(1, 101)) / 100.0,
                    ram=float(rng.integers(1, 16)) * 1024.0,
                    rom=float(rng.integers(1, 16)) * 4096.0,
                    flops=float(rng.integers(1, 16)) * 1.0e6,
                )
                for i in range(50)
            ]
            # exact duplicates under fresh ids keep ties in play
            for j in range(3):
                src = trials[int(rng.integers(50))]
                trials.append(
                    TrialRecord(f"dup{j}", src.acc, src.ram, src.rom, src.flops)
                )
            for flag in (True, False):
                assert pareto_front(trials, include_accuracy=flag) == oracle_front(
                    trials, flag
                ), f"front mismatch in round {round_no}"
            assert select_best(trials) == oracle_best(trials), (
                f"selection mismatch in round {round_no}"
            )


def test_criterion_3_compression_arithmetic():
    """Rate formulas match independent arithmetic to 1e-12 relative."""
    with criterion(3, "compression rates match hand oracles at 1e-12"):
        rng = np.random.default_rng(5150)
        checked = 0
        for _ in range(150):
            base = float(rng.uniform(1.0, 1e9))
            edge = float(rng.uniform(0.0, 2.0 * base))
            expect = 1.0 - edge / base
            assert math.isclose(
                compression_rate(base, edge), expect, rel_tol=1e-12, abs_tol=1e-15
            )
            checked += 1
        assert checked >= 100

        # the worked example: 0.75, 0.9, and 0.6 average to 0.75
        baseline = BaselineRecord(acc=1.0, ram=400.0, rom=1000.0, flops=1000.0)
        trial = TrialRecord("t", 0.9, 100.0, 100.0, 400.0)
        assert math.isclose(
            overall_compression(baseline, trial), 0.75, rel_tol=1e-12
        )

        for _ in range(50):
            base = BaselineRecord(
                acc=1.0,
                ram=float(rng.uniform(1e3, 1e6)),
                rom=float(rng.uniform(1e3, 1e6)),
                flops=float(rng.uniform(1e6, 1e9)),
            )
            trials = [
                TrialRecord(
                    id=f"r{i}",
                    acc=float(rng.uniform(0.1, 1.0)),
                    ram=float(rng.uniform(1.0, 2.0 * base.ram)),
                    rom=float(rng.uniform(1.0, 2.0 * base.rom)),
                    flops=float(rng.uniform(1.0, 2.0 * base.flops)),
                )
                for i in range(12)
            ]
            for t in trials:
                expect = (
                    (1.0 - t.ram / base.ram)
                    + (1.0 - t.rom / base.rom)
                    + (1.0 - t.flops / base.flops)
                ) / 3.0
                assert math.isclose(
                    overall_compression(base, t), expect, rel_tol=1e-12
                )
            front = pareto_front(trials)
            members = [t for t in trials if t.id in front]
            expect_avg = sum(
                overall_compression(base, t) for t in members
            ) / len(members)
            assert math.isclose(
                avg_overall_compression(base, trials), expect_avg, rel_tol=1e-12
            )


def test_criterion_4_preprocessing_shape_law(recordings_dir):
    """64x249 chunks, tone band placement, bitwise determinism."""

    def hz_to_mel(f):
        return 3.0 * f / 200.0 if f < 1000.0 else (
            15.0 + 27.0 * math.log(f / 1000.0) / math.log(6.4)
        )

    def mel_to_hz(m):
        return 200.0 * m / 3.0 if m < 15.0 else (
            1000.0 * math.exp(math.log(6.4) / 27.0 * (m - 15.0))
        )

    with criterion(4, "preprocessing shape law and determinism", budget_s=5.0):
        total_chunks = 0
        for wav in sorted(recordings_dir.glob("*.wav")):
            clip = decode_wav(wav.read_bytes())
            specs_a, noise_a = preprocess_recording(clip)
            specs_b, noise_b = preprocess_recording(clip)
            for spec in specs_a:
                assert spec.values.shape == (64, 249)
            total_chunks += len(specs_a)
            assert len(specs_a) == len(specs_b)
            for a, b in zip(specs_a, specs_b):
                assert a.values.tobytes() == b.values.tobytes()
            assert len(noise_a) == len(noise_b)
            for a, b in zip(noise_a, noise_b):
                assert a.tobytes() == b.tobytes()
        assert total_chunks == 5  # three recordings yield 3 + 2 + 0 chunks

        tone = np.sin(
            2 * np.pi * 1000.0 * np.arange(SAMPLE_RATE * 2) / SAMPLE_RATE
        ).astype(np.float32)
        spec = mel_spectrogram(tone)
        assert spec.values.shape == (64, 249)
        lo, hi = hz_to_mel(F_MIN), hz_to_mel(F_MAX)
        centers = [
            mel_to_hz(lo + (hi - lo) * (k + 1) / (N_MELS + 1))
            for k in range(N_MELS)
        ]
        expected_band = min(range(64), key=lambda k: abs(centers[k] - 1000.0))
        assert int(np.argmax(spec.values.mean(axis=1))) == expected_band


def test_criterion_5_augmentation_contract():
    """Scheduler statistics, exact identities, and the dB range hold."""
    with criterion(5, "augmentation scheduler and range contract"):
        cfg = AugmentConfig()
        rng = np.random.default_rng(424242)
        draws = 100_000
        counts = dict.fromkeys(AUGMENTATION_NAMES, 0)
        for _ in range(draws):
            schedule = draw_schedule(cfg, rng)
            assert len(schedule.order) <= 3
            for name in schedule.selected:
                counts[name] += 1
        for name, count in counts.items():
            rate = count / draws
            assert 0.47 <= rate <= 0.53, (name, rate)

        spec = random_spec(2026)
        assert np.array_equal(freq_roll(spec, 0.0).values, spec.values)
        assert np.array_equal(time_roll(spec, 0.0).values, spec.values)
        assert np.array_equal(time_warp(spec, 0, 124).values, spec.values)

        pool = [random_spec(3000 + i) for i in range(4)]
        busy = AugmentConfig(p_apply=1.0)
        for i in range(300):
            out, log = augment_chunk(spec, pool, busy, chunk_rng(99, i))
            assert len(log) <= 3
            assert out.values.min() >= -80.0
            assert out.values.max() <= 0.0


def test_criterion_6_quantized_runtime(fixture_model):
    """Int8 path tracks the float oracle; FLOPs match hand counts."""
    with criterion(6, "quantized inference fidelity and FLOPs counts"):
        agree = 0
        for seed in range(1000):
            spec = random_spec(seed)
            q_probs = infer(fixture_model, spec)
            f_probs = float_reference_infer(fixture_model, spec)
            assert abs(float(q_probs.sum()) - 1.0) <= 1e-6
            assert abs(float(f_probs.sum()) - 1.0) <= 1e-6
            agree += int(np.argmax(q_probs) == np.argmax(f_probs))
        assert agree >= 950, f"argmax agreement {agree}/1000"

        # hand-derived FLOPs for a five-layer stack plus pool and head
        def w(*shape, seed=0):
            return np.random.default_rng(seed).integers(
                -127, 128, size=shape
            ).astype(np.int8)

        model = ModelGraph(
            layers=[
                LayerSpec(kind="conv2d", in_ch=1, out_ch=8, kernel=(3, 3),
                          stride=1, padding=1, weight=w(8, 1, 3, 3, seed=1),
                          weight_scale=0.25, out_scale=0.5),
                LayerSpec(kind="relu6", out_scale=0.5),
                LayerSpec(kind="depthwise_conv2d", in_ch=8, out_ch=8,
                          kernel=(3, 3), stride=2, padding=1,
                          weight=w(8, 3, 3, seed=2), weight_scale=0.25,
                          out_scale=0.5),
                LayerSpec(kind="pointwise_conv2d", in_ch=8, out_ch=16,
                          kernel=(1, 1), stride=1, padding=0,
                          weight=w(16, 8, 1, 1, seed=3), weight_scale=0.25,
                          out_scale=0.5),
                LayerSpec(kind="global_avg_pool", out_scale=0.5),
                LayerSpec(kind="linear", in_ch=16, out_ch=31,
                          weight=w(31, 16, seed=4), weight_scale=0.25,
                          out_scale=1.0),
            ],
            class_count=31,
            input_shape=(1, 64, 249),
        )
        hand_total = (
            2 * 3 * 3 * 1 * 8 * 64 * 249       # conv2d, stride 1, same pad
            + 8 * 64 * 249                     # relu6
            + 2 * 3 * 3 * 8 * 32 * 125         # depthwise, stride 2
            + 2 * 1 * 1 * 8 * 16 * 32 * 125    # pointwise expansion
            + 16                               # global average pool
            + 2 * 16 * 31                      # classifier
        )
        assert resource_report(model).flops == hand_total == 4023280


def test_criterion_7_latency_methodology(tmp_path, capsys):
    """bench reports mean and std over 1000 wall-clock repetitions."""
    with criterion(7, "latency benchmarking methodology"):
        # a deliberately small model keeps 1000 repetitions quick; the
        # criterion is about the statistics, not the hardware numbers
        rng = np.random.default_rng(8)
        model = ModelGraph(
            layers=[
                LayerSpec(kind="global_avg_pool", out_scale=0.5),
                LayerSpec(kind="linear", in_ch=1, out_ch=4,
                          weight=rng.integers(-127, 128, (4, 1)).astype(np.int8),
                          weight_scale=0.25, out_scale=1.0),
            ],
            class_count=4,
            input_shape=(1, 64, 249),
        )
        model_path = tmp_path / "tiny.enm"
        model_path.write_bytes(save_model(model))
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        write_spectrogram(random_spec(1), spec_dir / "a.mels")
        write_spectrogram(random_spec(2), spec_dir / "b.mels")

        assert main([
            "bench", "--model", str(model_path), "--spec-dir", str(spec_dir),
            "--repetitions", "1000",
        ]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "repetitions,mean_ms,std_ms,min_ms,max_ms"
        reps, mean_ms, std_ms, min_ms, max_ms = lines[1].split(",")
        assert reps == "1000"
        assert float(mean_ms) > 0.0
        assert float(std_ms) >= 0.0
        assert float(min_ms) <= float(mean_ms) <= float(max_ms)
