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
    """The rule of a trial and of the baseline, or a FormatError naming where;
    NaN fails every comparison."""
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
    """Each trial's mem_score, its three terms summed ram, rom, flops."""
    worst_ram = max(t.ram for t in trials)
    worst_rom = max(t.rom for t in trials)
    worst_flops = max(t.flops for t in trials)
    return {
        t.id: ((1.0 - t.ram / worst_ram) + (1.0 - t.rom / worst_rom)
               + (1.0 - t.flops / worst_flops)) / 3.0
        for t in trials
    }


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


def _dominates(a: tuple, b: tuple, include_accuracy: bool) -> bool:
    """True iff objectives a = (ram, rom, flops, acc) dominate b: at least
    as good everywhere and strictly better once.

    Precondition: a sorts no later than b by (ram, rom, flops, -acc), so
    a's ram is already at most b's. Given the other at-least tests,
    "strictly better once" is then "the tuples differ", with accuracy
    excluded their first three entries.
    """
    if include_accuracy:
        return a[1] <= b[1] and a[2] <= b[2] and a[3] >= b[3] and a != b
    return a[1] <= b[1] and a[2] <= b[2] and a[:3] != b[:3]


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
    front: list[tuple] = []  # the members' objective tuples, in sort order
    ids = set()
    for t in sorted(_require(trials), key=lambda t: (t.ram, t.rom, t.flops, -t.acc)):
        candidate = (t.ram, t.rom, t.flops, t.acc)
        for member in reversed(front):
            if _dominates(member, candidate, include_accuracy):
                break
        else:
            front.append(candidate)
            ids.add(t.id)
    return ids


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
        trial_id, acc, ram, rom, flops = row
        try:
            acc, ram, rom, flops = float(acc), float(ram), float(rom), float(flops)
        except ValueError as err:
            raise FormatError(f"line {line}: {err}") from None
        trials.append(TrialRecord(trial_id.strip(), acc, ram, rom, flops))
    return trials


def read_baseline_csv(path) -> BaselineRecord:
    """Load the single baseline row from a CSV with the trial header."""
    rows = read_trials_csv(path)
    if len(rows) != 1:
        raise FormatError(f"baseline file must hold exactly one row, got {len(rows)}")
    b = rows[0]
    return BaselineRecord(acc=b.acc, ram=b.ram, rom=b.rom, flops=b.flops)
