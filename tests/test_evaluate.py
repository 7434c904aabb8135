import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegspeech import acoustic, dataio, dsp, eeg, pipeline
from eegspeech.config import RunConfig
from eegspeech.errors import DataError
from eegspeech.evaluate import (
    MetricsReport,
    evaluate_acoustic,
    evaluate_synthesis,
    rmse,
    spectrogram_export,
)

from conftest import mean_baseline_rmse


class TestRmse:
    def test_identical_sequences(self, rng):
        x = rng.standard_normal(100)
        assert rmse(x, x) == 0.0

    def test_zero_vs_ones(self):
        assert rmse(np.zeros(50), np.ones(50)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            rmse(np.array([]), np.array([]))

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shape mismatch"):
            rmse(np.zeros(3), np.zeros(4))

    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-10, 10), scale=st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_shift_scale_properties(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal(32), rng.standard_normal(32)
        assert rmse(a, b) == pytest.approx(rmse(b, a))
        assert rmse(a + shift, b + shift) == pytest.approx(rmse(a, b), abs=1e-9)
        assert rmse(scale * a, scale * b) == pytest.approx(abs(scale) * rmse(a, b), abs=1e-9)


def _synth_trials(rng, n=6):
    trials = []
    for i in range(n):
        x = rng.standard_normal((10, 31))
        y = rng.standard_normal(150)
        trials.append(
            {"id": f"t{i}", "subject": (i % 2) + 1, "condition": ("spoken", "listen")[i % 2],
             "x": x, "y": y}
        )
    return trials


class TestEvaluateSynthesis:
    def test_oracle_predictor_scores_zero(self, rng):
        trials = _synth_trials(rng)
        answers = {t["id"]: t["y"] for t in trials}
        by_key = {id(t["x"]): t["id"] for t in trials}
        report = evaluate_synthesis(lambda x: answers[by_key[id(x)]], trials)
        assert all(row["rmse"] == 0.0 for row in report.rows)

    def test_zero_predictor_on_unit_rms_targets(self, rng):
        trials = _synth_trials(rng)
        for t in trials:
            t["y"] = t["y"] / np.sqrt(np.mean(t["y"] ** 2))
        report = evaluate_synthesis(lambda x: np.zeros(150), trials)
        for row in report.rows:
            assert row["rmse"] == pytest.approx(1.0, abs=1e-9)

    def test_one_row_per_subject_condition(self, rng):
        trials = _synth_trials(rng, n=8)
        report = evaluate_synthesis(lambda x: np.zeros(150), trials)
        keys = {(r["subject"], r["condition"]) for r in report.rows}
        assert keys == {(1, "spoken"), (2, "listen")}
        assert all(r["n_trials"] == 4 for r in report.rows)

    def test_prediction_of_another_length_rejected(self, rng):
        trials = _synth_trials(rng, n=2)
        with pytest.raises(DataError, match="shape mismatch"):
            evaluate_synthesis(lambda x: np.zeros(150 - 15), trials)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_synthesis(lambda x: x, [])

    def test_reads_synthesis_example_records(self, tmp_path):
        cfg = RunConfig()
        manifest = dataio.generate_synthetic_dataset(1, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        trial = manifest.load_trial(manifest.trials[0])
        example = pipeline.synthesis_example(
            trial, eeg.preprocess_eeg(trial.eeg, pipeline.preprocess_options(cfg)), cfg)
        report = evaluate_synthesis(lambda x: np.zeros((15 * len(x), 1)), [example])
        assert [(r["subject"], r["condition"], r["n_trials"]) for r in report.rows] == [(1, "spoken", 1)]
        assert report.rows[0]["rmse"] == pytest.approx(float(np.sqrt(np.mean(example["y"] ** 2))), rel=1e-12)


def _acoustic_trials(rng, n=4):
    trials = []
    for i in range(n):
        targets = {k: rng.standard_normal((9, acoustic.FEATURE_DIMS[k])) for k in acoustic.FEATURE_ORDER}
        trials.append(
            {"id": f"t{i}", "subject": 1, "condition": "spoken",
             "features": rng.standard_normal((9, 30)), "targets": targets}
        )
    return trials


class TestEvaluateAcoustic:
    def test_16_rows_per_subject_condition(self, rng):
        trials = _acoustic_trials(rng)
        fns = {k: (lambda x, d=acoustic.FEATURE_DIMS[k]: np.zeros((len(x), d))) for k in acoustic.FEATURE_ORDER}
        report = evaluate_acoustic(fns, trials)
        assert len(report.rows) == 16
        assert [r["label"] for r in report.rows] == [f"f{i}" for i in range(1, 17)]

    def test_f10_is_rolloff(self, rng):
        trials = _acoustic_trials(rng, n=1)
        fns = {k: (lambda x, d=acoustic.FEATURE_DIMS[k]: np.zeros((len(x), d))) for k in acoustic.FEATURE_ORDER}
        report = evaluate_acoustic(fns, trials)
        f10 = [r for r in report.rows if r["label"] == "f10"][0]
        assert f10["kind"] == "rolloff"

    def test_oracle_models_score_zero(self, rng):
        trials = _acoustic_trials(rng, n=2)
        lookup = {}
        for t in trials:
            lookup[id(t["features"])] = t["targets"]
        fns = {k: (lambda x, kk=k: lookup[id(x)][kk]) for k in acoustic.FEATURE_ORDER}
        report = evaluate_acoustic(fns, trials)
        assert all(r["rmse"] == 0.0 for r in report.rows)

    def test_missing_kind_rejected(self, rng):
        trials = _acoustic_trials(rng, n=1)
        fns = {k: (lambda x: x) for k in acoustic.FEATURE_ORDER[:-1]}
        with pytest.raises(DataError, match="missing"):
            evaluate_acoustic(fns, trials)


class TestMeanBaseline:
    def test_constant_targets_zero_baseline(self):
        train = [np.full((5, 2), 3.0)]
        test = [np.full((4, 2), 3.0)]
        assert mean_baseline_rmse(train, test) == 0.0

    def test_matches_direct_computation(self, rng):
        train = [rng.standard_normal((6, 3)) for _ in range(3)]
        test = [rng.standard_normal((4, 3)) for _ in range(2)]
        mean = np.vstack(train).mean(axis=0)
        direct = np.sqrt(np.mean([(t - mean) ** 2 for t in np.vstack(test)]))
        assert mean_baseline_rmse(train, test) == pytest.approx(float(direct))


class TestReport:
    def test_json_round_trip(self, tmp_path, rng):
        trials = _synth_trials(rng, n=2)
        report = evaluate_synthesis(lambda x: np.zeros(150), trials)
        report.metadata = {"seed": 1, "config_hash": "abc"}
        path = tmp_path / "m.json"
        report.to_json(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        back = MetricsReport(doc["scope"], doc["rows"], doc["metadata"])
        assert back.rows == report.rows
        assert back.metadata == report.metadata

    def test_negative_rmse_rejected(self):
        with pytest.raises(ValueError):
            MetricsReport("synthesis", [{"subject": 1, "condition": "spoken", "rmse": -1.0}])

    def test_csv_export(self, tmp_path, rng):
        trials = _synth_trials(rng, n=2)
        report = evaluate_synthesis(lambda x: np.zeros(150), trials)
        path = tmp_path / "m.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("subject,condition")
        assert len(lines) == 1 + len(report.rows)

    @pytest.mark.parametrize("scope, text", [
        ("synthesis", "subject,condition,rmse,n_trials\n1,spoken,0.25,2\n2,listen,0.1,1\n"),
        ("acoustic", "subject,condition,kind,label,rmse,n_trials\n1,spoken,rms,f1,0.25,2\n2,listen,zcr,f2,0.1,1\n"),
    ])
    def test_csv_bytes(self, tmp_path, scope, text):
        rows = [{"subject": 1, "condition": "spoken", "kind": "rms", "label": "f1", "rmse": 0.25, "n_trials": 2},
                {"subject": 2, "condition": "listen", "kind": "zcr", "label": "f2", "rmse": 0.1, "n_trials": 1}]
        path = tmp_path / "m.csv"
        MetricsReport(scope, rows).to_csv(path)
        assert path.read_text(encoding="utf-8") == text


GRID = dsp.frame_grid_for_rate(15000, 31.0)


class TestSpectrogramExport:
    def test_silence_uniform_minimum_image(self, tmp_path):
        csv_path, pgm_path = spectrogram_export(np.zeros(15000), tmp_path / "silent", GRID)
        matrix = np.loadtxt(csv_path, delimiter=",")
        assert np.all(matrix == -80.0)
        raw = pgm_path.read_bytes()
        assert raw.startswith(b"P5\n")
        payload = raw.split(b"\n", 3)[3]
        assert set(payload) == {0}

    def test_chirp_ridge_rises(self, tmp_path):
        fs = 15000
        t = np.arange(2 * fs) / fs
        f0, f1 = 100.0, 5000.0
        chirp = np.sin(2 * np.pi * (f0 * t + (f1 - f0) / (2 * t[-1]) * t**2))
        csv_path, _ = spectrogram_export(chirp, tmp_path / "chirp", GRID)
        matrix = np.loadtxt(csv_path, delimiter=",")
        ridge = np.argmax(matrix, axis=1)
        inner = ridge[2:-2]
        assert np.all(np.diff(inner) >= -2)
        assert inner[-1] > inner[0] + 50

    def test_csv_dimensions_match_frame_formula(self, tmp_path, rng):
        n = 20000
        csv_path, _ = spectrogram_export(rng.standard_normal(n), tmp_path / "noise", GRID)
        matrix = np.loadtxt(csv_path, delimiter=",")
        assert matrix.shape == (1 + n // GRID.hop, acoustic.FFT_SIZE // 2 + 1)

    def test_uses_the_acoustic_stft_size(self, tmp_path, monkeypatch):
        monkeypatch.setattr(acoustic, "FFT_SIZE", 512)
        csv_path, pgm_path = spectrogram_export(np.ones(3000), tmp_path / "ones", GRID)
        assert np.loadtxt(csv_path, delimiter=",").shape == (1 + 3000 // GRID.hop, 512 // 2 + 1)
        assert pgm_path.read_bytes().startswith(b"P5\n257 7\n255\n")
