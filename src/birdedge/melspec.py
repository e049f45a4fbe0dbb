"""Log-mel spectrogram value types and the dB conventions used everywhere.

Every spectrogram handled by this package is a (n_mels, n_frames) float32
matrix in dB, referenced so that the loudest cell of a chunk sits at exactly
0 dB, with a hard floor at FLOOR_DB. Silence is the floor value, never -inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError

# Hard lower bound of the dB scale. Cells at or below this value carry no
# usable energy and augmentations treat it as "empty".
FLOOR_DB = -80.0


@dataclass
class MelSpectrogram:
    """A log-mel matrix.

    values: float32 array of shape (n_mels, n_frames), dB in [FLOOR_DB, 0].
    """

    values: np.ndarray

    @property
    def n_mels(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_frames(self) -> int:
        return int(self.values.shape[1])


def db_to_power(db: np.ndarray) -> np.ndarray:
    """Map dB values to linear power, 0 dB -> 1.0."""
    return np.power(10.0, np.asarray(db, dtype=np.float64) / 10.0)


def power_to_db(power: np.ndarray, ref: float) -> np.ndarray:
    """Map linear power to dB relative to ref, floored at FLOOR_DB.

    ref must be the maximum power of the matrix so the loudest cell lands
    exactly on 0 dB. Zero power maps to the floor, not -inf.
    """
    if ref <= 0.0:
        raise DegenerateInputError(f"reference power must be positive, got {ref}")
    power = np.asarray(power, dtype=np.float64)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(power / ref)
    return np.maximum(db, FLOOR_DB)
