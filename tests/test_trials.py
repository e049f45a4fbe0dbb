"""Trial ranking, Pareto analysis, and compression arithmetic tests.

The Pareto front and the rank winner are verified against brute-force
reimplementations written here from the definitions.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import birdedge.trials
from birdedge.exceptions import DegenerateInputError, EmptyError, FormatError
from birdedge.trials import (
    CSV_HEADER,
    BaselineRecord,
    TrialRecord,
    acc_score,
    avg_overall_compression,
    compression_rate,
    compression_table,
    mem_score,
    overall_compression,
    pareto_front,
    rank,
    read_baseline_csv,
    read_trials_csv,
    select_best,
)

from conftest import sweep_trials_csv


def trial(tid, acc, ram, rom, flops):
    return TrialRecord(id=tid, acc=acc, ram=ram, rom=rom, flops=flops)


PAIR = [
    trial("a", 0.9, 100.0, 200.0, 1000.0),
    trial("b", 0.8, 50.0, 100.0, 500.0),
]


def oracle_front(trials, include_accuracy=True):
    """O(n^2) domination scan straight from the definition."""
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


ACC_GRID = (0.0, 0.5, 1.0)
COST_GRID = (1.0, 2.0, 3.0)


@st.composite
def grid_trial_sets(draw):
    """Trial sets on a grid of 2-3 values per field, plus exact duplicates.

    So few distinct values make ties on every prefix of (ram, rom, flops,
    -acc) common, and ACC_GRID holds acc = 0.0.
    """
    grids = [
        draw(st.lists(st.sampled_from(grid), min_size=2, max_size=3, unique=True))
        for grid in (ACC_GRID, COST_GRID, COST_GRID, COST_GRID)
    ]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, grids)), min_size=1, max_size=24))
    ts = [trial(f"t{i:02d}", *row) for i, row in enumerate(rows)]
    copies = draw(st.lists(st.sampled_from(ts), max_size=4))
    return ts + [trial(f"d{j}", t.acc, t.ram, t.rom, t.flops) for j, t in enumerate(copies)]


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


class TestScores:
    def test_acc_score_relative_to_best(self):
        assert acc_score(PAIR, "a") == 1.0
        assert acc_score(PAIR, "b") == pytest.approx(8.0 / 9.0, rel=1e-12)

    def test_mem_score_hand_values(self):
        assert mem_score(PAIR, "a") == 0.0
        assert mem_score(PAIR, "b") == pytest.approx(0.5, rel=1e-12)

    def test_rank_is_the_sum(self):
        for tid in ("a", "b"):
            assert rank(PAIR, tid) == acc_score(PAIR, tid) + mem_score(PAIR, tid)

    def test_select_best_hand_example(self):
        # a ranks 1.0, b ranks 8/9 + 0.5
        assert select_best(PAIR) == "b"

    def test_single_trial(self):
        only = [trial("solo", 0.4, 1.0, 1.0, 1.0)]
        assert acc_score(only, "solo") == 1.0
        assert mem_score(only, "solo") == 0.0
        assert select_best(only) == "solo"
        assert pareto_front(only) == {"solo"}

    def test_empty_set(self):
        for fn in (lambda: acc_score([], "x"), lambda: select_best([]),
                   lambda: pareto_front([])):
            with pytest.raises(EmptyError):
                fn()

    def test_all_zero_accuracy(self):
        ts = [trial("a", 0.0, 1.0, 1.0, 1.0), trial("b", 0.0, 2.0, 2.0, 2.0)]
        with pytest.raises(DegenerateInputError):
            acc_score(ts, "a")
        with pytest.raises(DegenerateInputError):
            select_best(ts)
        # resource-only analyses still work
        assert pareto_front(ts, include_accuracy=False) == {"a"}

    def test_mem_score_without_accuracy(self):
        # mem_score needs no accuracy, so it stays defined where rank is not
        ts = [trial("a", 0.0, 1.0, 1.0, 1.0), trial("b", 0.0, 2.0, 4.0, 2.0)]
        assert mem_score(ts, "a") == (0.5 + 0.75 + 0.5) / 3.0
        assert mem_score(ts, "b") == 0.0
        with pytest.raises(DegenerateInputError):
            rank(ts, "b")

    def test_duplicate_ids_rejected(self):
        ts = PAIR + [trial("b", 0.5, 10.0, 10.0, 10.0), trial("a", 0.1, 1.0, 1.0, 1.0)]
        baseline = BaselineRecord(acc=1.0, ram=400.0, rom=400.0, flops=4000.0)
        for fn in (
            lambda: acc_score(ts, "a"),
            lambda: mem_score(ts, "a"),
            lambda: rank(ts, "b"),
            lambda: select_best(ts),
            lambda: pareto_front(ts),
            lambda: avg_overall_compression(baseline, ts),
        ):
            with pytest.raises(ValueError, match="duplicate trial ids: a, b"):
                fn()

    @pytest.mark.parametrize("name", ["ram", "rom", "flops"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_costs_rejected(self, name, value):
        costs = dict(ram=1.0, rom=1.0, flops=1.0)
        costs[name] = value
        with pytest.raises(ValueError, match=f"{name} .* must be finite"):
            TrialRecord(id="bad", acc=0.5, **costs)

    @pytest.mark.parametrize("bad_id", ["", "a,b", 'say "hi"', "a\rb", "a\nb"])
    def test_unsafe_ids_rejected(self, bad_id):
        # each would break the id,... rows that rank, pareto and compress print
        with pytest.raises(ValueError, match=re.escape(f"trial id {bad_id!r}")):
            trial(bad_id, 0.5, 1.0, 1.0, 1.0)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            acc_score(PAIR, "nope")

    def test_invalid_records(self):
        with pytest.raises(ValueError):
            trial("bad", 1.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            trial("bad", 0.5, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            trial("bad", 0.5, 1.0, -2.0, 1.0)

    def test_mem_score_scale_invariant(self):
        rng = np.random.default_rng(0)
        ts = [
            trial(f"t{i}", float(rng.uniform(0, 1)), float(rng.uniform(1, 9)),
                  float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))
            for i in range(8)
        ]
        scaled = [
            trial(t.id, t.acc, t.ram * 2.0, t.rom * 4.0, t.flops * 0.5) for t in ts
        ]
        for t in ts:
            assert mem_score(scaled, t.id) == pytest.approx(
                mem_score(ts, t.id), rel=1e-12
            )


class TestTieBreaking:
    def test_equal_rank_prefers_lower_flops(self):
        # both rank 1 + 1/6 exactly; "b" has fewer flops and must win even
        # though "a" sorts first lexicographically
        ts = [
            trial("a", 0.5, 50.0, 100.0, 400.0),
            trial("b", 0.5, 100.0, 100.0, 200.0),
        ]
        assert rank(ts, "a") == rank(ts, "b")
        assert select_best(ts) == "b"

    def test_full_tie_prefers_lower_id(self):
        ts = [
            trial("y", 0.7, 10.0, 10.0, 10.0),
            trial("x", 0.7, 10.0, 10.0, 10.0),
        ]
        assert select_best(ts) == "x"

    def test_duplicates_share_the_front(self):
        ts = [
            trial("x", 0.7, 10.0, 10.0, 10.0),
            trial("y", 0.7, 10.0, 10.0, 10.0),
            trial("z", 0.6, 20.0, 20.0, 20.0),
        ]
        assert pareto_front(ts) == {"x", "y"}


class TestParetoFront:
    def test_hand_example(self):
        # b is cheaper, a is more accurate: both survive with accuracy in
        # play, only b without it
        assert pareto_front(PAIR) == {"a", "b"}
        assert pareto_front(PAIR, include_accuracy=False) == {"b"}

    def test_strict_dominance_removes(self):
        ts = PAIR + [trial("c", 0.7, 120.0, 220.0, 1200.0)]
        assert "c" not in pareto_front(ts)

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(1234)
        for round_no in range(30):
            n = int(rng.integers(2, 40))
            ts = [
                trial(
                    f"t{i:02d}",
                    float(rng.integers(0, 11)) / 10.0,
                    float(rng.integers(1, 6)),
                    float(rng.integers(1, 6)),
                    float(rng.integers(1, 6)),
                )
                for i in range(n)
            ]
            # clone a few records under new ids to force exact duplicates
            for j in range(int(rng.integers(0, 3))):
                src = ts[int(rng.integers(n))]
                ts.append(trial(f"d{j}", src.acc, src.ram, src.rom, src.flops))
            for flag in (True, False):
                assert pareto_front(ts, include_accuracy=flag) == oracle_front(
                    ts, include_accuracy=flag
                ), round_no

    @settings(max_examples=150, deadline=None)
    @given(ts=grid_trial_sets())
    def test_matches_oracle_on_grids(self, ts):
        for flag in (True, False):
            assert pareto_front(ts, include_accuracy=flag) == oracle_front(
                ts, include_accuracy=flag
            )

    def test_dominance_tests_bounded_by_front(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.csv"
        path.write_text(sweep_trials_csv())
        ts = read_trials_csv(path)
        calls = []
        dominates = birdedge.trials._dominates

        def counting(a, b, include_accuracy):
            calls.append(None)
            return dominates(a, b, include_accuracy)

        monkeypatch.setattr(birdedge.trials, "_dominates", counting)
        front = pareto_front(ts)
        assert front == oracle_front(ts)
        assert 1 < len(front) < len(ts)
        # each trial is tested against the front members found before it
        assert len(calls) <= len(ts) * len(front)

    def test_front_is_scanned_newest_first(self, tmp_path, monkeypatch):
        # the latest front members are the nearest in cost, so they find a
        # dominator soonest: 2331 tests here, 6449 scanning oldest first
        path = tmp_path / "sweep.csv"
        path.write_text(sweep_trials_csv())
        ts = read_trials_csv(path)
        calls = []
        dominates = birdedge.trials._dominates

        def counting(a, b, include_accuracy):
            calls.append(None)
            return dominates(a, b, include_accuracy)

        monkeypatch.setattr(birdedge.trials, "_dominates", counting)
        assert pareto_front(ts) == oracle_front(ts)
        assert len(calls) <= 2331

    def test_select_best_matches_oracle(self):
        rng = np.random.default_rng(4321)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            ts = [
                trial(
                    f"t{i:02d}",
                    float(rng.integers(1, 11)) / 10.0,
                    float(rng.integers(1, 6)),
                    float(rng.integers(1, 6)),
                    float(rng.integers(1, 6)),
                )
                for i in range(n)
            ]
            assert select_best(ts) == oracle_best(ts)


class TestCompression:
    def test_rate_hand_values(self):
        assert compression_rate(100.0, 25.0) == 0.75
        assert compression_rate(512000.0, 128000.0) == 0.75
        assert compression_rate(10.0, 10.0) == 0.0

    def test_rate_can_go_negative(self):
        assert compression_rate(100.0, 150.0) == -0.5

    def test_zero_baseline(self):
        with pytest.raises(ZeroDivisionError):
            compression_rate(0.0, 10.0)

    def test_overall_is_mean_of_three(self):
        baseline = BaselineRecord(acc=1.0, ram=400.0, rom=1000.0, flops=1000.0)
        t = trial("t", 0.9, 100.0, 100.0, 400.0)
        # rates 0.75, 0.9, 0.6
        assert overall_compression(baseline, t) == pytest.approx(0.75, rel=1e-12)

    def test_avg_over_front_only(self):
        baseline = BaselineRecord(acc=1.0, ram=100.0, rom=100.0, flops=100.0)
        ts = [
            trial("a", 0.9, 50.0, 50.0, 50.0),
            trial("b", 0.95, 80.0, 80.0, 80.0),
            trial("c", 0.5, 90.0, 90.0, 90.0),  # dominated by a
        ]
        assert pareto_front(ts) == {"a", "b"}
        expect = ((1 - 50 / 100) + (1 - 80 / 100)) / 2
        assert avg_overall_compression(baseline, ts) == pytest.approx(
            expect, rel=1e-12
        )

    def test_avg_respects_accuracy_flag(self):
        baseline = BaselineRecord(acc=1.0, ram=100.0, rom=100.0, flops=100.0)
        ts = [
            trial("a", 0.9, 50.0, 50.0, 50.0),
            trial("b", 0.95, 80.0, 80.0, 80.0),
        ]
        without = avg_overall_compression(baseline, ts, include_accuracy=False)
        assert without == pytest.approx(0.5, rel=1e-12)  # front shrinks to {a}

    def test_table_rows_in_input_order(self):
        baseline = BaselineRecord(acc=1.0, ram=400.0, rom=1000.0, flops=1000.0)
        ts = [
            trial("z", 0.5, 200.0, 500.0, 900.0),  # dominated by t
            trial("t", 0.9, 100.0, 100.0, 400.0),
        ]
        rows, mean = compression_table(baseline, ts)
        assert list(rows) == ["z", "t"]
        assert rows["t"] == (0.75, 0.9, 0.6, overall_compression(baseline, ts[1]), True)
        assert rows["z"][3:] == (overall_compression(baseline, ts[0]), False)
        assert mean == rows["t"][3] == avg_overall_compression(baseline, ts)

    def test_mean_sums_the_front_in_input_order(self):
        # three front members whose float sum depends on the order
        baseline = BaselineRecord(acc=1.0, ram=10.0, rom=10.0, flops=10.0)
        ts = [
            trial("a", 0.9, 3.6, 5.3, 0.1),
            trial("b", 0.8, 5.7, 3.2, 5.0),
            trial("c", 0.7, 9.6, 1.4, 5.0),
        ]
        rows, mean = compression_table(baseline, ts)
        a, b, c = (row[3] for row in rows.values())
        assert all(row[4] for row in rows.values())
        assert mean == (a + b + c) / 3 != (c + b + a) / 3

    @pytest.mark.parametrize("base, costs, message", [
        # edge/baseline overflows to inf, so the rate is -inf
        ((1e-300, 1.0, 1.0), (1e10, 1.0, 1.0), "trial t: cr_ram overflows to -inf"),
        ((1.0, 1.0, 1e-300), (1.0, 1.0, 1e10), "trial t: cr_flops overflows to -inf"),
        # each rate is -1e308, their sum is not finite
        ((1e-300,) * 3, (1e8,) * 3, "trial t: cr_overall overflows to -inf"),
    ])
    def test_rate_overflow_is_rejected(self, base, costs, message):
        baseline = BaselineRecord(1.0, *base)
        ts = [trial("a", 0.5, 1.0, 1.0, 1.0), trial("t", 0.9, *costs)]
        with pytest.raises(DegenerateInputError, match=re.escape(message)):
            compression_table(baseline, ts)

    def test_front_mean_overflow_is_rejected(self):
        # every cr_overall is -5.9e307; four of them sum past the float range
        baseline = BaselineRecord(acc=1.0, ram=1e-300, rom=1e-300, flops=1e-300)
        ts = [trial(f"t{i}", 0.1 * (i + 1), *[5.9e7 + i] * 3) for i in range(4)]
        with pytest.raises(DegenerateInputError, match="pareto_mean: cr_overall overflows"):
            compression_table(baseline, ts)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n"
            "m7-int8,0.914,310000,880000,5315248\n"
            "m7-pruned,0.88,1.5e5,440000.0,2650000\n"
        )
        assert read_trials_csv(path) == [
            trial("m7-int8", 0.914, 310000.0, 880000.0, 5315248.0),
            trial("m7-pruned", 0.88, 150000.0, 440000.0, 2650000.0),
        ]

    @pytest.mark.parametrize("reader", [read_trials_csv, read_baseline_csv])
    def test_oversized_field_is_a_format_error(self, tmp_path, reader):
        # the csv module refuses fields over 131072 characters
        path = tmp_path / "big.csv"
        path.write_text("id,acc,ram,rom,flops\n" + "x" * 200_000 + ",0.5,1,1,1\n")
        with pytest.raises(FormatError, match="line 2: field larger than field limit"):
            reader(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,acc,ram,rom,flops\nx,0.5,1,1,1\n")
        with pytest.raises(ValueError):
            read_trials_csv(path)

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,acc,ram,rom,flops\nx,0.5,1,1\n")
        with pytest.raises(ValueError):
            read_trials_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,acc,ram,rom,flops\nx,zero,1,1,1\n")
        with pytest.raises(ValueError):
            read_trials_csv(path)

    def test_non_numeric_field_is_a_format_error_naming_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,acc,ram,rom,flops\nx,0.5,1,1,1\n\ny,0.5,1,x,1\n")
        with pytest.raises(FormatError, match="line 4: could not convert string to float: 'x'"):
            read_trials_csv(path)

    @pytest.mark.parametrize("reader", [read_trials_csv, read_baseline_csv])
    def test_bytes_that_are_not_utf8_are_a_format_error(self, tmp_path, reader):
        path = tmp_path / "latin1.csv"
        path.write_bytes("id,acc,ram,rom,flops\nmüller,0.5,1,1,1\n".encode("latin-1"))
        with pytest.raises(FormatError, match="codec can't decode"):
            reader(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("id,acc,ram,rom,flops\n\nx,0.5,1,2,3\n\n")
        assert len(read_trials_csv(path)) == 1

    def test_baseline_single_row(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("id,acc,ram,rom,flops\nfull,0.93,512000,1048576,127000000\n")
        base = read_baseline_csv(path)
        assert base == BaselineRecord(
            acc=0.93, ram=512000.0, rom=1048576.0, flops=127000000.0
        )

    def test_baseline_rejects_extra_rows(self, tmp_path):
        path = tmp_path / "base.csv"
        path.write_text("id,acc,ram,rom,flops\na,0.9,1,1,1\nb,0.8,1,1,1\n")
        with pytest.raises(ValueError):
            read_baseline_csv(path)
