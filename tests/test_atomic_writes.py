"""Written files (JSON/CSV artifacts, the resolved config, gen-data's EEG and
WAV files, the spectrogram CSV and PGM) are replaced whole or not at all.

Each writer is made to fail halfway through its first write; the previous
file must keep its bytes and no temporary file may be left beside it.
"""

import numpy as np
import pytest

from eegspeech import dataio, dsp, nn, serialize
from eegspeech.config import RunConfig, echo_config
from eegspeech.errors import DataError
from eegspeech.evaluate import MetricsReport, spectrogram_export


def _report(rmse):
    return MetricsReport("synthesis", [{"subject": 1, "condition": "spoken", "rmse": rmse, "n_trials": 2}],
                         {"seed": 1})


def _history(loss):
    return nn.TrainHistory([{"epoch": 1, "train_loss": loss, "val_loss": None}])


def _manifest(trial_id):
    return dataio.DatasetManifest(None, [dataio.TrialRef(trial_id, 1, "spoken", "a.csv", "a.wav")])


def _eeg(seed):
    return dataio.EegRecording(np.random.default_rng(seed).standard_normal((31, 40)))


def _wav(seed):
    return dataio.AudioClip(16000, np.random.default_rng(seed).uniform(-1.0, 1.0, 400))


WRITERS = {
    "resolved_config.ini": lambda seed, path: echo_config(RunConfig(seed=seed), path.parent),
    "eeg.csv": lambda seed, path: dataio.write_eeg(path, _eeg(seed)),
    "eeg.f32": lambda seed, path: dataio.write_eeg(path, _eeg(seed)),
    "trial.wav": lambda seed, path: dataio.write_wav(path, _wav(seed)),
    "split.json": lambda seed, path: dataio.save_split(
        dataio.make_split([f"t{i:02d}" for i in range(20)], (0.8, 0.1, 0.1), seed=seed), path),
    "manifest.json": lambda seed, path: dataio.save_manifest(_manifest(f"t{seed}"), path),
    "metrics.json": lambda seed, path: _report(float(seed)).to_json(path),
    "metrics.csv": lambda seed, path: _report(float(seed)).to_csv(path),
    "history.csv": lambda seed, path: _history(float(seed)).to_csv(path, {"seed": seed}),
}


class HalfWrittenFile:
    """Writes the first half of the first chunk it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(name, tmp_path, monkeypatch):
    write = WRITERS[name]
    path = tmp_path / name
    write(1, path)
    before = path.read_bytes()
    real_open = open
    monkeypatch.setattr(serialize, "open", lambda *a, **k: HalfWrittenFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(2, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]



@pytest.mark.parametrize("suffix", [".csv", ".pgm"])
def test_failed_spectrogram_export_keeps_previous_file(suffix, tmp_path, monkeypatch):
    """Whichever of the two files fails, the CSV and the PGM both keep their old bytes."""
    prefix = tmp_path / "spec"
    grid = dsp.frame_grid_for_rate(15000, 31.0)
    spectrogram_export(np.random.default_rng(1).standard_normal(3000), prefix, grid)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_open = open

    def failing_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return HalfWrittenFile(fh) if file.name.startswith(f".spec{suffix}.") else fh

    monkeypatch.setattr(serialize, "open", failing_open, raising=False)
    with pytest.raises(DataError, match="disk full"):
        spectrogram_export(np.random.default_rng(2).standard_normal(3000), prefix, grid)
    for other in (".csv", ".pgm"):
        target = prefix.with_suffix(other)
        assert target.read_bytes() == before[target.name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)
