"""Ranking and Pareto analysis of compression trials.

A trial is a candidate compressed model described by its measured accuracy
and resource footprint. Scores normalise against the best value inside the
trial set itself:

    acc_score(x)  = acc(x) / max acc
    mem_score(x)  = mean over {ram, rom, flops} of (1 - metric(x) / max metric)
    rank(x)       = acc_score(x) + mem_score(x)

Compression rates compare an edge trial against an uncompressed baseline:
cr = 1 - edge/baseline per metric, and the overall rate is the mean of the
ram, rom, and flops rates.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .exceptions import DegenerateInputError, EmptyError

CSV_HEADER = ("id", "acc", "ram", "rom", "flops")
_COSTS = ("ram", "rom", "flops")


@dataclass(frozen=True)
class TrialRecord:
    """One compression trial: accuracy in [0, 1], finite positive costs."""

    id: str
    acc: float
    ram: float
    rom: float
    flops: float

    def __post_init__(self):
        if not 0.0 <= self.acc <= 1.0:
            raise ValueError(f"trial {self.id}: acc {self.acc} outside [0, 1]")
        for name in _COSTS:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"trial {self.id}: {name} {value} must be finite and positive")


@dataclass(frozen=True)
class BaselineRecord:
    """The uncompressed reference point for compression rates."""

    acc: float
    ram: float
    rom: float
    flops: float


def _require(trials) -> list[TrialRecord]:
    trials = list(trials)
    if not trials:
        raise EmptyError("trial set is empty")
    counts = Counter(t.id for t in trials)
    duplicates = sorted(trial_id for trial_id, n in counts.items() if n > 1)
    if duplicates:
        raise ValueError(f"duplicate trial ids: {', '.join(duplicates)}")
    return trials


def _mem_scores(trials: list[TrialRecord]) -> dict[str, float]:
    worst = [max(getattr(t, name) for t in trials) for name in _COSTS]
    scores = {}
    for t in trials:
        total = 0.0
        for name, cost in zip(_COSTS, worst):
            total += 1.0 - getattr(t, name) / cost
        scores[t.id] = total / 3.0
    return scores


def score_table(trials) -> dict[str, tuple[float, float, float, bool]]:
    """Every trial's (acc_score, mem_score, rank, selected), keyed by id.

    The set's extremes are found once; selected marks the select_best winner.
    """
    trials = _require(trials)
    best = max(t.acc for t in trials)
    if best == 0.0:
        raise DegenerateInputError("all trial accuracies are zero")
    mem = _mem_scores(trials)
    ranks = {t.id: t.acc / best + mem[t.id] for t in trials}
    winner = min(trials, key=lambda t: (-ranks[t.id], t.flops, t.id)).id
    return {t.id: (t.acc / best, mem[t.id], ranks[t.id], t.id == winner) for t in trials}


def acc_score(trials, trial_id: str) -> float:
    """Accuracy of one trial relative to the best accuracy in the set."""
    return score_table(trials)[trial_id][0]


def mem_score(trials, trial_id: str) -> float:
    """Mean relative saving across ram, rom, and flops, each in [0, 1]."""
    # not a score_table lookup: it stays defined when every accuracy is zero
    return _mem_scores(_require(trials))[trial_id]


def rank(trials, trial_id: str) -> float:
    """Combined score: acc_score + mem_score."""
    return score_table(trials)[trial_id][2]


def select_best(trials) -> str:
    """Id of the trial with the highest rank.

    Ties break toward lower flops, then lexicographically lower id.
    """
    return next(trial_id for trial_id, row in score_table(trials).items() if row[3])


def _dominates(a: TrialRecord, b: TrialRecord, include_accuracy: bool) -> bool:
    """True iff a is at least as good everywhere and strictly better once."""
    at_least = a.ram <= b.ram and a.rom <= b.rom and a.flops <= b.flops
    strictly = a.ram < b.ram or a.rom < b.rom or a.flops < b.flops
    if include_accuracy:
        at_least = at_least and a.acc >= b.acc
        strictly = strictly or a.acc > b.acc
    return at_least and strictly


def pareto_front(trials, include_accuracy: bool = True) -> set[str]:
    """Ids of trials no other trial dominates.

    Objectives are maximise accuracy and minimise ram, rom, and flops;
    include_accuracy=False restricts them to the three resource costs.
    Exact duplicates do not dominate each other, so both stay on the front.
    """
    trials = _require(trials)
    front = set()
    for candidate in trials:
        if not any(
            _dominates(other, candidate, include_accuracy)
            for other in trials
            if other is not candidate
        ):
            front.add(candidate.id)
    return front


def compression_rate(baseline_value: float, edge_value: float) -> float:
    """Fractional saving of one metric: 1 - edge/baseline."""
    if baseline_value == 0:
        raise ZeroDivisionError("baseline metric is zero")
    return 1.0 - edge_value / baseline_value


def overall_compression(baseline: BaselineRecord, trial: TrialRecord) -> float:
    """Mean of the ram, rom, and flops compression rates."""
    return (
        compression_rate(baseline.ram, trial.ram)
        + compression_rate(baseline.rom, trial.rom)
        + compression_rate(baseline.flops, trial.flops)
    ) / 3.0


def avg_overall_compression(
    baseline: BaselineRecord, trials, include_accuracy: bool = True
) -> float:
    """Mean overall compression across the Pareto-optimal trials only."""
    trials = _require(trials)
    front = pareto_front(trials, include_accuracy=include_accuracy)
    members = [t for t in trials if t.id in front]
    return sum(overall_compression(baseline, t) for t in members) / len(members)


def read_trials_csv(path) -> list[TrialRecord]:
    """Load trials from a CSV with header id,acc,ram,rom,flops."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(
                f"expected header {','.join(CSV_HEADER)}, got {header}"
            )
        trials = []
        for row in reader:
            if not row:
                continue
            if len(row) != 5:
                raise ValueError(f"bad row {row}")
            trials.append(
                TrialRecord(
                    id=row[0].strip(),
                    acc=float(row[1]),
                    ram=float(row[2]),
                    rom=float(row[3]),
                    flops=float(row[4]),
                )
            )
    return trials


def read_baseline_csv(path) -> BaselineRecord:
    """Load the single baseline row from a CSV with the trial header."""
    rows = read_trials_csv(path)
    if len(rows) != 1:
        raise ValueError(f"baseline file must hold exactly one row, got {len(rows)}")
    b = rows[0]
    return BaselineRecord(acc=b.acc, ram=b.ram, rom=b.rom, flops=b.flops)


def write_trials_csv(trials, path) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for t in trials:
            writer.writerow([t.id, t.acc, t.ram, t.rom, t.flops])
