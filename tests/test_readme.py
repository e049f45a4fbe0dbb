"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile as wavfile

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)


# calls_48k yields call chunks only; appending hum_48k adds noise windows,
# so the example's noise pool reaches add_noise
@pytest.mark.parametrize("parts", [["calls_48k.wav"], ["calls_48k.wav", "hum_48k.wav"]])
def test_library_example_runs(recordings_dir, tmp_path, monkeypatch, parts):
    rates, payloads = zip(*(wavfile.read(recordings_dir / name) for name in parts))
    wavfile.write(tmp_path / "dawn_chorus.wav", rates[0], np.concatenate(payloads))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(library_example(), namespace)
    assert namespace["probs"].sum() == pytest.approx(1.0)
    assert len(namespace["noise_pool"]) == len(parts) - 1
    noise_applied = any(
        entry.name == "add_noise" and not entry.skipped for entry in namespace["log"]
    )
    assert noise_applied == (len(parts) > 1)
