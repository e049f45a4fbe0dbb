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
import io
import math
from collections import Counter
from dataclasses import dataclass

from .exceptions import DegenerateInputError, EmptyError, FormatError

CSV_HEADER = ("id", "acc", "ram", "rom", "flops")
_COSTS = ("ram", "rom", "flops")
_RATES = ("cr_ram", "cr_rom", "cr_flops", "cr_overall")
# ids are printed unquoted as the first field of CSV rows
_UNSAFE_ID_CHARS = frozenset(',"\r\n')


@dataclass(frozen=True)
class TrialRecord:
    """One compression trial: accuracy in [0, 1], finite positive costs."""

    id: str
    acc: float
    ram: float
    rom: float
    flops: float

    def __post_init__(self):
        if not self.id or not _UNSAFE_ID_CHARS.isdisjoint(self.id):
            raise FormatError(
                f"trial id {self.id!r} must be non-empty and hold no comma, quote, CR or LF"
            )
        _check_measures(self, f"trial {self.id}")


@dataclass(frozen=True)
class BaselineRecord:
    """The uncompressed reference point for compression rates, under the
    trial rule: accuracy in [0, 1], finite positive costs."""

    acc: float
    ram: float
    rom: float
    flops: float

    def __post_init__(self):
        _check_measures(self, "baseline")


def _check_measures(record, where: str) -> None:
    """The rule of a trial and of the baseline, or a FormatError naming where."""
    if not 0.0 <= record.acc <= 1.0:
        raise FormatError(f"{where}: acc {record.acc} outside [0, 1]")
    for name in _COSTS:
        value = getattr(record, name)
        if not 0.0 < value < math.inf:
            raise FormatError(f"{where}: {name} {value} must be finite and positive")


def _require(trials) -> list[TrialRecord]:
    trials = list(trials)
    if not trials:
        raise EmptyError("trial set is empty")
    counts = Counter(t.id for t in trials)
    duplicates = sorted(trial_id for trial_id, n in counts.items() if n > 1)
    if duplicates:
        raise FormatError(f"duplicate trial ids: {', '.join(duplicates)}")
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

    The trials are sorted once by (ram, rom, flops, -acc). A trial that
    dominates another sorts strictly before it, with or without accuracy,
    so each candidate is tested only against the front members accepted
    before it: an earlier trial that dominates it is either a front member
    or dominated by one, and dominance is transitive. The cost is
    O(n log n) for the sort plus at most n * |front| dominance tests, not
    n * (n - 1). The front is scanned newest first: its latest members are
    the nearest in cost, and so the likeliest to dominate the candidate.
    """
    front: list[TrialRecord] = []
    for candidate in sorted(_require(trials), key=lambda t: (t.ram, t.rom, t.flops, -t.acc)):
        if not any(
            _dominates(member, candidate, include_accuracy) for member in reversed(front)
        ):
            front.append(candidate)
    return {t.id for t in front}


def compression_rate(baseline_value: float, edge_value: float) -> float:
    """Fractional saving of one metric: 1 - edge/baseline."""
    return 1.0 - edge_value / baseline_value


def _rates(baseline: BaselineRecord, trial: TrialRecord) -> tuple[float, float, float, float]:
    """The ram, rom, flops and overall compression rates of one trial."""
    ram = compression_rate(baseline.ram, trial.ram)
    rom = compression_rate(baseline.rom, trial.rom)
    flops = compression_rate(baseline.flops, trial.flops)
    return ram, rom, flops, (ram + rom + flops) / 3.0


def overall_compression(baseline: BaselineRecord, trial: TrialRecord) -> float:
    """Mean of the ram, rom, and flops compression rates."""
    return _rates(baseline, trial)[3]


def compression_table(
    baseline: BaselineRecord, trials, include_accuracy: bool = True
) -> tuple[dict[str, tuple[float, float, float, float, bool]], float]:
    """Every trial's (cr_ram, cr_rom, cr_flops, cr_overall, on_front), keyed
    by id in input order, and the mean cr_overall of the Pareto front, summed
    in that order. The front is computed once.

    Finite costs can still overflow a rate (an edge cost over a tiny
    baseline one); that is a DegenerateInputError naming the trial and the
    rate, never a -inf in the table.
    """
    trials = _require(trials)
    front = pareto_front(trials, include_accuracy=include_accuracy)
    rows = {t.id: (*_rates(baseline, t), t.id in front) for t in trials}
    for trial_id, row in rows.items():
        # a rate that overflows makes cr_overall overflow too
        if not math.isfinite(row[3]):
            name, rate = next((n, r) for n, r in zip(_RATES, row) if not math.isfinite(r))
            raise DegenerateInputError(f"trial {trial_id}: {name} overflows to {rate}")
    front_overall = [row[3] for row in rows.values() if row[4]]
    mean = sum(front_overall) / len(front_overall)
    if not math.isfinite(mean):
        raise DegenerateInputError(f"pareto_mean: cr_overall overflows to {mean}")
    return rows, mean


def avg_overall_compression(
    baseline: BaselineRecord, trials, include_accuracy: bool = True
) -> float:
    """Mean overall compression across the Pareto-optimal trials only."""
    return compression_table(baseline, trials, include_accuracy)[1]


def read_trials_csv(path) -> list[TrialRecord]:
    """Load trials from a UTF-8 CSV with header id,acc,ram,rom,flops.

    A row the csv module cannot read, such as an over-long field, or a
    field that is not a number is a FormatError naming its line; bytes that
    are not UTF-8 are a FormatError naming the file and their offset.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()  # one decode, so an error gives the file offset
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: {err}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as err:
        raise FormatError(f"line {reader.line_num}: {err}") from None
    header = rows[0][1] if rows else None
    if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
        raise FormatError(
            f"expected header {','.join(CSV_HEADER)}, got {header}"
        )
    trials = []
    for line, row in rows[1:]:
        if not row:
            continue
        if len(row) != 5:
            raise FormatError(f"bad row {row}")
        try:
            values = [float(field) for field in row[1:]]
        except ValueError as err:
            raise FormatError(f"line {line}: {err}") from None
        trials.append(TrialRecord(row[0].strip(), *values))
    return trials


def read_baseline_csv(path) -> BaselineRecord:
    """Load the single baseline row from a CSV with the trial header."""
    rows = read_trials_csv(path)
    if len(rows) != 1:
        raise FormatError(f"baseline file must hold exactly one row, got {len(rows)}")
    b = rows[0]
    return BaselineRecord(acc=b.acc, ram=b.ram, rom=b.rom, flops=b.flops)
