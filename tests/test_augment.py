"""Augmentation and scheduler tests.

Roll arithmetic, warp column mapping, and the noise power algebra are
checked against hand-computed values; scheduler statistics against
Monte Carlo estimates with generous bounds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birdedge.augment import (
    AUGMENTATION_NAMES,
    FREQ_ROLL_LIMIT,
    NOISE_ALPHA,
    TIME_ROLL_LIMIT,
    WARP_LIMIT,
    AugmentConfig,
    add_noise,
    augment_chunk,
    chunk_rng,
    draw_schedule,
    freq_roll,
    time_roll,
    time_warp,
)
from birdedge.exceptions import ConfigError, DegenerateInputError, ShapeError
from birdedge.melspec import MelSpectrogram

from conftest import random_spec


class TestRolls:
    def test_freq_roll_zero_is_identity(self):
        spec = random_spec(1)
        out = freq_roll(spec, 0.0)
        assert np.array_equal(out.values, spec.values)

    def test_time_roll_zero_is_identity(self):
        spec = random_spec(2)
        out = time_roll(spec, 0.0)
        assert np.array_equal(out.values, spec.values)

    def test_tiny_fraction_rounds_to_identity(self):
        spec = random_spec(3)
        out = freq_roll(spec, 0.007)  # 0.448 bands rounds to 0
        assert np.array_equal(out.values, spec.values)

    def test_freq_roll_up(self):
        spec = random_spec(4)
        out = freq_roll(spec, 0.05)  # 3.2 bands -> 3
        assert np.array_equal(out.values[3:], spec.values[:-3])
        assert np.all(out.values[:3] == -80.0)

    def test_freq_roll_down(self):
        spec = random_spec(5)
        out = freq_roll(spec, -0.05)
        assert np.array_equal(out.values[:-3], spec.values[3:])
        assert np.all(out.values[-3:] == -80.0)

    def test_time_roll_quarter(self):
        spec = random_spec(6)
        out = time_roll(spec, 0.25)  # 62.25 frames -> 62
        assert np.array_equal(out.values[:, 62:], spec.values[:, :-62])
        assert np.all(out.values[:, :62] == -80.0)

    def test_time_roll_negative(self):
        spec = random_spec(7)
        out = time_roll(spec, -0.1)  # -24.9 -> -25
        assert np.array_equal(out.values[:, :-25], spec.values[:, 25:])
        assert np.all(out.values[:, -25:] == -80.0)

    @settings(max_examples=60, deadline=None)
    @given(u=st.floats(-0.05, 0.05), seed=st.integers(0, 2**31))
    def test_roll_forth_and_back(self, u, seed):
        spec = random_spec(seed)
        k = int(np.rint(u * spec.n_mels))
        back = freq_roll(freq_roll(spec, u), -u)
        if k > 0:
            # up then down: the top k rows were pushed out and floored
            assert np.array_equal(back.values[:-k], spec.values[:-k])
            assert np.all(back.values[-k:] == -80.0)
        elif k < 0:
            assert np.array_equal(back.values[-k:], spec.values[-k:])
            assert np.all(back.values[:-k] == -80.0)
        else:
            assert np.array_equal(back.values, spec.values)

    @pytest.mark.parametrize("u", [1.0, -1.0, 1.5, -1.5])
    @pytest.mark.parametrize("roll", [freq_roll, time_roll])
    def test_roll_by_the_full_size_or_more_floors_every_cell(self, roll, u):
        out = roll(random_spec(9), u)
        assert out.values.shape == (64, 249)
        assert np.all(out.values == -80.0)

    def test_shape_preserved(self):
        spec = random_spec(8)
        assert freq_roll(spec, 0.03).values.shape == (64, 249)
        assert time_roll(spec, -0.2).values.shape == (64, 249)


class TestTimeWarp:
    def test_zero_displacement_identity(self):
        spec = random_spec(10)
        out = time_warp(spec, 0, 124)
        assert np.array_equal(out.values, spec.values)
        assert out.values is not spec.values

    def test_bright_column_lands_on_target(self):
        values = np.full((64, 249), -80.0, dtype=np.float32)
        values[:, 120] = 0.0
        spec = MelSpectrogram(values)
        out = time_warp(spec, 5, 120)
        profile = out.values.mean(axis=0)
        assert int(np.argmax(profile)) == 125
        # the displaced column maps back exactly onto the source column
        assert np.array_equal(out.values[:, 125], values[:, 120])

    def test_column_constant_field_unchanged(self):
        grad = np.linspace(-70, 0, 64, dtype=np.float32)
        values = np.repeat(grad[:, None], 249, axis=1)
        spec = MelSpectrogram(values)
        for w in (1, 4, 12):
            out = time_warp(spec, w, 100)
            assert np.array_equal(out.values, values)

    def test_endpoints_pinned(self):
        spec = random_spec(11)
        out = time_warp(spec, 7, 60)
        assert np.array_equal(out.values[:, 0], spec.values[:, 0])
        assert np.allclose(out.values[:, -1], spec.values[:, -1], atol=1e-3)

    def test_left_segment_stretches(self):
        # column j < target samples from j * center / target
        values = np.tile(
            np.arange(249, dtype=np.float32)[None, :] * (-80.0 / 248.0), (64, 1)
        )
        spec = MelSpectrogram(values)
        out = time_warp(spec, 10, 100)
        src = 55 * (100.0 / 110.0)
        expect = src * (-80.0 / 248.0)
        assert out.values[0, 55] == pytest.approx(expect, abs=1e-3)

    @pytest.mark.parametrize(
        "w,center",
        [(-1, 100), (5, 0), (5, 248), (120, 200), (12, 236)],
    )
    def test_domain_errors(self, w, center):
        with pytest.raises(ValueError):
            time_warp(random_spec(12), w, center)

    def test_max_legal_displacement(self):
        spec = random_spec(13)
        out = time_warp(spec, 12, 235)  # 235 + 12 == 247 == n_frames - 2
        assert out.values.shape == (64, 249)

    @settings(max_examples=40, deadline=None)
    @given(w=st.integers(0, 12), center=st.integers(12, 235), seed=st.integers(0, 2**31))
    def test_range_preserved(self, w, center, seed):
        out = time_warp(random_spec(seed), w, center)
        assert out.values.min() >= -80.0
        assert out.values.max() <= 0.0


class TestAddNoise:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add_noise(random_spec(1), MelSpectrogram(np.zeros((64, 100), np.float32)), 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("loud", ["spec", "noise"])
    def test_power_overflow_is_a_degenerate_input(self, loud, alpha):
        # 10 ** (4000 / 10) is past the float64 maximum; numpy used to warn
        # and the result was NaN
        quiet = random_spec(1)
        values = quiet.values.copy()
        values[3, 7] = 4000.0
        spec, noise = (MelSpectrogram(values), quiet) if loud == "spec" else (
            quiet, MelSpectrogram(values))
        with pytest.raises(DegenerateInputError, match="overflows float64"):
            add_noise(spec, noise, alpha)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            add_noise(random_spec(1), random_spec(2), 1.5)

    def test_self_blend_is_neutral(self):
        # P + alpha * P rescales every cell by the same factor, which the
        # re-referencing removes
        spec = random_spec(20)
        out = add_noise(spec, spec, 0.8)
        assert float(out.values.max()) == 0.0
        assert np.allclose(out.values, spec.values, atol=1e-4)

    def test_hand_computed_blend(self):
        spec = MelSpectrogram(np.array([[0.0, -10.0]], dtype=np.float32))
        noise = MelSpectrogram(np.array([[-10.0, 0.0]], dtype=np.float32))
        out = add_noise(spec, noise, 0.5)
        # powers: [1 + 0.05, 0.1 + 0.5] = [1.05, 0.6], ref 1.05
        expect = 10.0 * math.log10(0.6 / 1.05)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == pytest.approx(expect, abs=1e-5)

    def test_floor_holds(self):
        values = np.full((64, 249), -80.0, dtype=np.float32)
        values[0, 0] = 0.0
        spec = MelSpectrogram(values)
        out = add_noise(spec, spec, 0.3)
        assert float(out.values.min()) == -80.0
        assert float(out.values.max()) == 0.0

    def test_silent_noise_near_identity(self):
        spec = random_spec(21)
        floor = MelSpectrogram(np.full((64, 249), -80.0, dtype=np.float32))
        out = add_noise(spec, floor, 0.2)
        # a cell at v dB gains 10*log10(1 + 0.2*10^(-8 - v/10)); above
        # -60 dB that is under 0.01 dB
        loud = spec.values > -60.0
        assert np.allclose(out.values[loud], spec.values[loud], atol=0.01)

    @settings(max_examples=40, deadline=None)
    @given(
        seed_a=st.integers(0, 2**31),
        seed_b=st.integers(0, 2**31),
        alpha=st.floats(0.0, 1.0),
    )
    def test_output_range(self, seed_a, seed_b, alpha):
        out = add_noise(random_spec(seed_a), random_spec(seed_b), alpha)
        assert out.values.shape == (64, 249)
        assert out.values.min() >= -80.0
        assert float(out.values.max()) == 0.0


class TestScheduler:
    def test_deterministic_given_seed(self):
        cfg = AugmentConfig()
        a = draw_schedule(cfg, np.random.default_rng(99))
        b = draw_schedule(cfg, np.random.default_rng(99))
        assert a == b

    def test_never_more_than_cap(self):
        cfg = AugmentConfig(p_apply=1.0)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            s = draw_schedule(cfg, rng)
            assert len(s.selected) == 4
            assert len(s.order) == 3

    def test_probability_zero_selects_nothing(self):
        cfg = AugmentConfig(p_apply=0.0)
        s = draw_schedule(cfg, np.random.default_rng(1))
        assert s.selected == () and s.order == ()

    def test_nothing_selected_draws_nothing_past_the_coins(self):
        rng, coins_only = np.random.default_rng(1), np.random.default_rng(1)
        assert draw_schedule(AugmentConfig(p_apply=0.0), rng).order == ()
        coins_only.random(len(AUGMENTATION_NAMES))
        assert rng.bit_generator.state == coins_only.bit_generator.state

    def test_selection_rates(self):
        cfg = AugmentConfig()
        rng = np.random.default_rng(7)
        counts = {name: 0 for name in AUGMENTATION_NAMES}
        n = 20000
        for _ in range(n):
            for name in draw_schedule(cfg, rng).selected:
                counts[name] += 1
        for name, c in counts.items():
            assert 0.47 < c / n < 0.53, (name, c / n)

    def test_cap_drops_uniformly(self):
        # with every coin forced on, each augmentation survives 3/4 of the
        # time and leads the order 1/4 of the time
        cfg = AugmentConfig(p_apply=1.0)
        rng = np.random.default_rng(8)
        kept = {name: 0 for name in AUGMENTATION_NAMES}
        first = {name: 0 for name in AUGMENTATION_NAMES}
        n = 20000
        for _ in range(n):
            order = draw_schedule(cfg, rng).order
            for name in order:
                kept[name] += 1
            first[order[0]] += 1
        for name in AUGMENTATION_NAMES:
            assert abs(kept[name] / n - 0.75) < 0.03
            assert abs(first[name] / n - 0.25) < 0.03

    def test_order_varies(self):
        cfg = AugmentConfig(p_apply=1.0)
        rng = np.random.default_rng(9)
        orders = {draw_schedule(cfg, rng).order for _ in range(200)}
        assert len(orders) > 10


class TestAugmentChunk:
    def pool(self, n=3):
        return [random_spec(1000 + i) for i in range(n)]

    def test_bitwise_reproducible(self):
        spec = random_spec(30)
        pool = self.pool()
        cfg = AugmentConfig()
        out1, log1 = augment_chunk(spec, pool, cfg, chunk_rng(5, 2))
        out2, log2 = augment_chunk(spec, pool, cfg, chunk_rng(5, 2))
        assert out1.values.tobytes() == out2.values.tobytes()
        assert [(e.name, e.params) for e in log1] == [(e.name, e.params) for e in log2]

    def test_substreams_differ(self):
        spec = random_spec(31)
        pool = self.pool()
        cfg = AugmentConfig(p_apply=1.0)
        out_a, _ = augment_chunk(spec, pool, cfg, chunk_rng(5, 0))
        out_b, _ = augment_chunk(spec, pool, cfg, chunk_rng(5, 1))
        assert out_a.values.tobytes() != out_b.values.tobytes()

    def test_no_augmentations_no_change(self):
        spec = random_spec(32)
        out, log = augment_chunk(spec, self.pool(), AugmentConfig(p_apply=0.0), chunk_rng(0, 0))
        assert log == []
        assert np.array_equal(out.values, spec.values)

    @pytest.mark.parametrize("cfg", [AugmentConfig(p_apply=0.0),
                                     AugmentConfig(p_apply=1.0, max_augs=0)],
                             ids=["p_apply-0", "max_augs-0"])
    def test_short_spectrogram_passes_when_nothing_can_run(self, cfg):
        spec = random_spec(33, shape=(64, 2 * WARP_LIMIT - 4))
        out, log = augment_chunk(spec, self.pool(), cfg, chunk_rng(0, 0))
        assert log == []
        assert out.values.tobytes() == spec.values.tobytes()

    def test_short_spectrogram_is_refused_when_an_augmentation_can_run(self):
        spec = random_spec(33, shape=(64, 2 * WARP_LIMIT))
        with pytest.raises(ShapeError, match="warp limit 12 too large for 24 frames"):
            augment_chunk(spec, self.pool(), AugmentConfig(p_apply=1e-9, max_augs=1),
                          chunk_rng(0, 0))

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            chunk_rng(-1, 0)

    def test_a_bad_seed_or_chunk_index_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
            chunk_rng(1.5, 0)
        with pytest.raises(ConfigError, match="chunk_index must be an integer, got 0.5"):
            chunk_rng(1, 0.5)
        # numpy's own error for a negative entry names neither argument
        with pytest.raises(ConfigError, match="chunk_index must be >= 0, got -1"):
            chunk_rng(1, -1)
        # numpy integers are integers, and draw the same substream
        same = chunk_rng(np.int64(42), np.int32(3)).random(8)
        assert np.array_equal(same, chunk_rng(42, 3).random(8))

    def test_empty_pool_skips_noise(self):
        spec = random_spec(33)
        cfg = AugmentConfig(p_apply=1.0, max_augs=4)
        out, log = augment_chunk(spec, [], cfg, chunk_rng(1, 0))
        assert len(log) == 4
        skipped = [e for e in log if e.skipped]
        assert len(skipped) == 1
        assert skipped[0].name == "add_noise"
        assert skipped[0].params == {}

    def test_log_length_capped(self):
        spec = random_spec(34)
        cfg = AugmentConfig(p_apply=1.0)
        for i in range(50):
            _, log = augment_chunk(spec, self.pool(), cfg, chunk_rng(2, i))
            assert len(log) <= 3

    def test_parameter_ranges_and_output_range(self):
        spec = random_spec(35)
        pool = self.pool(5)
        cfg = AugmentConfig(p_apply=1.0)
        assert (FREQ_ROLL_LIMIT, TIME_ROLL_LIMIT, WARP_LIMIT, NOISE_ALPHA) == (
            0.05, 0.25, 12, (0.2, 0.8)
        )
        for i in range(300):
            out, log = augment_chunk(spec, pool, cfg, chunk_rng(3, i))
            assert out.values.min() >= -80.0
            assert out.values.max() <= 0.0
            for entry in log:
                if entry.name == "freq_roll":
                    assert abs(entry.params["u"]) <= FREQ_ROLL_LIMIT
                elif entry.name == "time_roll":
                    assert abs(entry.params["u"]) <= TIME_ROLL_LIMIT
                elif entry.name == "time_warp":
                    w, c = entry.params["w"], entry.params["center"]
                    assert 0 <= w <= WARP_LIMIT
                    assert WARP_LIMIT <= c <= spec.n_frames - WARP_LIMIT
                    assert c + w <= spec.n_frames - 2
                elif entry.name == "add_noise":
                    assert NOISE_ALPHA[0] <= entry.params["alpha"] <= NOISE_ALPHA[1]
                    assert 0 <= entry.params["noise_index"] < len(pool)

    def test_applied_names_follow_schedule(self):
        spec = random_spec(36)
        cfg = AugmentConfig(p_apply=1.0)
        rng_sched = chunk_rng(4, 7)
        expect = draw_schedule(cfg, rng_sched).order
        _, log = augment_chunk(spec, self.pool(), cfg, chunk_rng(4, 7))
        assert tuple(e.name for e in log) == expect


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p_apply=1.5),
            dict(p_apply=-0.1),
            dict(max_augs=-1),
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            AugmentConfig(**kwargs)

    def test_max_augs_must_be_an_integer(self):
        with pytest.raises(ConfigError, match="max_augs must be an integer, got 1.5"):
            AugmentConfig(p_apply=1.0, max_augs=1.5)
        # a numpy integer is one, and schedules as the int it equals
        spec, pool = random_spec(35), [random_spec(1000 + i) for i in range(3)]
        got = augment_chunk(spec, pool, AugmentConfig(p_apply=1.0, max_augs=np.int64(2)),
                            chunk_rng(6, 0))
        want = augment_chunk(spec, pool, AugmentConfig(p_apply=1.0, max_augs=2),
                             chunk_rng(6, 0))
        assert got[0].values.tobytes() == want[0].values.tobytes()
        assert got[1] == want[1] and len(got[1]) == 2

    def test_warp_limit_vs_frames(self):
        # the warp limit of 12 frames must stay under half the frame count
        augment_chunk(random_spec(34, shape=(64, 25)), [], AugmentConfig(), chunk_rng(0, 0))
        with pytest.raises(ValueError):
            augment_chunk(random_spec(34, shape=(64, 24)), [], AugmentConfig(), chunk_rng(0, 0))

    def test_chunk_rng_reproducible(self):
        a = chunk_rng(42, 3).random(8)
        b = chunk_rng(42, 3).random(8)
        assert np.array_equal(a, b)
        c = chunk_rng(42, 4).random(8)
        assert not np.array_equal(a, c)
