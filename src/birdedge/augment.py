"""Stochastic spectrogram augmentations and their scheduler.

Four augmentations operate directly on log-mel matrices: a frequency roll,
a time roll, a piecewise-linear time warp, and noise admixture from a pool
of rejected chunks. Each is applied with probability 0.5 per chunk; when
more than three are selected, a uniformly random subset of three survives,
and the survivors run in uniformly random order. AugmentConfig sets those
two knobs; the parameter ranges are module constants.

All randomness flows through a numpy Generator handed in by the caller.
The substream rule for batch runs: chunk number i of a run seeded with S
uses numpy.random.default_rng([S, i]). Given the same seed, pool, and
config, results are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, DegenerateInputError, ShapeError, check_integer
from .melspec import FLOOR_DB, MelSpectrogram, db_to_power, power_to_db

# Canonical order in which selection coins are flipped. Fixed so a seed
# always maps to the same schedule.
AUGMENTATION_NAMES = ("freq_roll", "time_roll", "time_warp", "add_noise")

# Parameter ranges, each drawn uniformly.
FREQ_ROLL_LIMIT = 0.05   # fraction of mel bands, drawn in [-x, x]
TIME_ROLL_LIMIT = 0.25   # fraction of frames, drawn in [-x, x]
WARP_LIMIT = 12          # max control point displacement, frames
NOISE_ALPHA = (0.2, 0.8)  # weight of the noise power, drawn in [lo, hi]


@dataclass(frozen=True)
class AugmentConfig:
    """Scheduler knobs for one augmentation run, checked when it is built."""

    p_apply: float = 0.5
    max_augs: int = 3

    def __post_init__(self):
        if not 0.0 <= self.p_apply <= 1.0:
            raise ConfigError(f"p_apply must be in [0, 1], got {self.p_apply}")
        check_integer(self.max_augs, "max_augs")
        if self.max_augs < 0:
            raise ConfigError(f"max_augs must be >= 0, got {self.max_augs}")


@dataclass
class AppliedAugmentation:
    """One scheduler decision: which augmentation ran and with what draw."""

    name: str
    params: dict = field(default_factory=dict)
    skipped: bool = False


def _rolled(values: np.ndarray, u: float, axis: int) -> np.ndarray:
    """Shift along axis by round(u * its length), vacated entries set to the
    dB floor; a ConfigError unless that product is finite."""
    with np.errstate(over="ignore"):
        shift = np.rint(u * values.shape[axis])
    if not np.isfinite(shift):  # NaN too
        raise ConfigError(f"u * {values.shape[axis]} must be finite, got u = {u}")
    shift = int(shift)
    out = np.roll(values, shift, axis=axis)
    vacated = [slice(None), slice(None)]
    vacated[axis] = slice(0, shift) if shift >= 0 else slice(shift, None)
    out[tuple(vacated)] = FLOOR_DB
    return out


def freq_roll(spec: MelSpectrogram, u: float) -> MelSpectrogram:
    """Shift all energy up (u > 0) or down (u < 0) by round(u * n_mels) bands.

    Vacated bands are set to the floor; u == 0 is an exact identity.
    """
    return MelSpectrogram(_rolled(spec.values, u, axis=0))


def time_roll(spec: MelSpectrogram, u: float) -> MelSpectrogram:
    """Shift all energy later (u > 0) or earlier by round(u * n_frames) frames."""
    return MelSpectrogram(_rolled(spec.values, u, axis=1))


def time_warp(spec: MelSpectrogram, w: int, center: int) -> MelSpectrogram:
    """Displace the column at `center` by w frames to the right and
    piecewise-linearly resample both sides so the endpoints stay fixed.

    w == 0 is an exact identity (the input is copied verbatim). A
    column-constant spectrogram is unchanged for any legal w. Requires
    0 < center and center + w <= n_frames - 2 so both segments keep at
    least one column of room; w and center are integers.
    """
    values = spec.values
    n_frames = spec.n_frames
    check_integer(w, "w")
    check_integer(center, "center")
    if w < 0:
        raise ConfigError(f"displacement must be >= 0, got {w}")
    if not 0 < center < n_frames - 1:
        raise ConfigError(f"center {center} outside (0, {n_frames - 1})")
    if center + w > n_frames - 2:
        raise ConfigError(
            f"center {center} + w {w} exceeds last movable column {n_frames - 2}"
        )
    if w == 0:
        return MelSpectrogram(values.copy())

    target = center + w
    out_cols = np.arange(n_frames, dtype=np.float64)
    src_cols = np.empty(n_frames, dtype=np.float64)
    left = out_cols[: target + 1]
    src_cols[: target + 1] = left * (center / target)
    right = out_cols[target + 1 :]
    tail = n_frames - 1  # fixed right endpoint
    src_cols[target + 1 :] = center + (right - target) * (
        (tail - center) / (tail - target)
    )

    lo = np.floor(src_cols).astype(np.int64)
    lo = np.clip(lo, 0, n_frames - 2)
    frac = (src_cols - lo).astype(np.float32)
    left_cols = values[:, lo]
    right_cols = values[:, lo + 1]
    # written as a + f*(b - a) so equal columns interpolate exactly
    warped = left_cols + frac[None, :] * (right_cols - left_cols)
    return MelSpectrogram(warped.astype(np.float32))


def add_noise(
    spec: MelSpectrogram, noise: MelSpectrogram, alpha: float
) -> MelSpectrogram:
    """Blend a noise spectrogram into spec in the linear power domain.

    Powers add as P_out = P_spec + alpha * P_noise with P = 10^(dB/10);
    the sum is re-referenced so its maximum is 0 dB and floored at -80.
    Raises ShapeError when the two matrices disagree in shape, and
    DegenerateInputError when a power overflows float64, which takes a
    value above about +3000 dB.
    """
    if spec.values.shape != noise.values.shape:
        raise ShapeError(
            f"spectrogram {spec.values.shape} vs noise {noise.values.shape}"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):
        power = db_to_power(spec.values) + alpha * db_to_power(noise.values)
    ref = float(power.max())
    if not ref < np.inf:  # inf, or NaN from 0 * inf
        raise DegenerateInputError("linear power overflows float64: a dB value is too large")
    db = power_to_db(power, ref=ref)
    return MelSpectrogram(db.astype(np.float32))


@dataclass
class Schedule:
    """Outcome of the per-chunk coin flips, before parameters are drawn."""

    selected: tuple[str, ...]  # every augmentation whose coin came up, pre cap
    order: tuple[str, ...]     # capped survivors in application order


def draw_schedule(cfg: AugmentConfig, rng: np.random.Generator) -> Schedule:
    """Flip the four selection coins and settle the application order.

    Selection is an independent Bernoulli(p_apply) per augmentation, flipped
    in AUGMENTATION_NAMES order. A single random permutation of the selected
    names then serves double duty: its first max_augs entries are the
    uniformly chosen survivors, already in uniformly random order.
    """
    coins = rng.random(len(AUGMENTATION_NAMES)) < cfg.p_apply
    selected = tuple(
        name for name, hit in zip(AUGMENTATION_NAMES, coins) if hit
    )
    perm = rng.permutation(len(selected))
    order = tuple(selected[i] for i in perm[: cfg.max_augs])
    return Schedule(selected=selected, order=order)


def augment_chunk(
    spec: MelSpectrogram,
    noise_pool: list[MelSpectrogram],
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> tuple[MelSpectrogram, list[AppliedAugmentation]]:
    """Apply a randomly drawn subset of augmentations to one chunk.

    Parameters are drawn uniformly from the module's ranges, in application
    order, after the schedule is settled. If add_noise is scheduled but the
    pool is empty, it is skipped and recorded with skipped=True; no draws
    are consumed for it. The returned log always has at most max_augs
    entries. Output values stay inside [-80, 0] dB. The spectrogram must
    have more than 2 * WARP_LIMIT frames (25 or more) unless p_apply or
    max_augs is 0, when no augmentation can run.
    """
    if cfg.p_apply > 0 and cfg.max_augs > 0 and WARP_LIMIT >= spec.n_frames / 2:
        raise ShapeError(f"warp limit {WARP_LIMIT} too large for {spec.n_frames} frames")
    schedule = draw_schedule(cfg, rng)
    out = spec
    log: list[AppliedAugmentation] = []
    for name in schedule.order:
        if name == "freq_roll":
            u = float(rng.uniform(-FREQ_ROLL_LIMIT, FREQ_ROLL_LIMIT))
            out = freq_roll(out, u)
            log.append(AppliedAugmentation("freq_roll", {"u": u}))
        elif name == "time_roll":
            u = float(rng.uniform(-TIME_ROLL_LIMIT, TIME_ROLL_LIMIT))
            out = time_roll(out, u)
            log.append(AppliedAugmentation("time_roll", {"u": u}))
        elif name == "time_warp":
            w = int(rng.integers(0, WARP_LIMIT + 1))
            center = int(rng.integers(WARP_LIMIT, spec.n_frames - WARP_LIMIT + 1))
            # keep the displaced column inside the movable range
            w = min(w, spec.n_frames - 2 - center)
            out = time_warp(out, w, center)
            log.append(AppliedAugmentation("time_warp", {"w": w, "center": center}))
        elif name == "add_noise":
            if not noise_pool:
                log.append(AppliedAugmentation("add_noise", {}, skipped=True))
                continue
            idx = int(rng.integers(len(noise_pool)))
            alpha = float(rng.uniform(*NOISE_ALPHA))
            out = add_noise(out, noise_pool[idx], alpha)
            log.append(
                AppliedAugmentation("add_noise", {"alpha": alpha, "noise_index": idx})
            )
    return out, log


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The documented substream rule: one child generator per chunk index."""
    check_integer(seed, "seed")
    check_integer(chunk_index, "chunk_index")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if chunk_index < 0:
        raise ConfigError(f"chunk_index must be >= 0, got {chunk_index}")
    return np.random.default_rng([seed, chunk_index])
