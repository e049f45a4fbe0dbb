"""Time one cold set-up of the program and print it in seconds.

Set-up is: importing birdedge (numpy and scipy with it), building the
seed-7 31-class fixture model, a save_model -> load_model round trip, and
one warm-up inference. run.py starts this script in fresh interpreters and
reports the median as setup_s.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import birdedge.cli  # noqa: E402,F401  (imports every module the workloads use)
from birdedge import nnrt  # noqa: E402
from birdedge.melspec import MelSpectrogram  # noqa: E402


def main() -> None:
    model = nnrt.load_model(nnrt.save_model(nnrt.generate_fixture_model(31, 7)))
    values = np.full((64, 249), -40.0, dtype=np.float32)
    values[0, 0] = 0.0
    nnrt.infer(model, MelSpectrogram(values))
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
