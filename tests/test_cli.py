"""Exercise every subcommand end to end on a tiny synthetic dataset."""

import json

import numpy as np
import pytest

from eegspeech import cli, dataio, eeg, nn, pipeline
from eegspeech.config import parse_config
from eegspeech.serialize import load_container


def run_cli(*args) -> tuple[int, str]:
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    config = root / "run.ini"
    config.write_text(
        "[paths]\n"
        f"data_root = {root / 'data'}\n"
        f"out_dir = {root / 'out'}\n"
        "[run]\nseed = 9\n"
        "[dataset]\nn_trials = 12\nduration_s = 0.5\n"
        "[kpca]\nscope = pooled\n"
        "[synthesis]\nfilters1 = 8\nfilters2 = 4\n"
        "[regression]\nhidden = 8\n"
        "[training]\nbatch_size = 4\nlearning_rate = 0.003\n"
    )
    return root, config


def summary_of(output: str) -> dict:
    lines = [ln for ln in output.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


class TestPipelineCommands:
    """Stages run in definition order against one shared workspace."""
    def test_01_gen_data(self, workspace):
        root, config = workspace
        code, out = run_cli("gen-data", "--config", str(config))
        assert code == 0
        assert summary_of(out)["n_trials"] == 12
        assert (root / "data" / "manifest.json").exists()
        assert (root / "out" / "resolved_config.ini").exists()

    def test_02_split(self, workspace):
        root, config = workspace
        code, out = run_cli("split", "--config", str(config))
        assert code == 0
        summary = summary_of(out)
        assert (summary["train"], summary["val"], summary["test"]) == (10, 1, 1)

    def test_03_preprocess(self, workspace):
        root, config = workspace
        code, out = run_cli("preprocess", "--config", str(config))
        assert code == 0
        flags = json.loads((root / "out" / "clean" / "preprocess.json").read_text())
        assert len(flags) == 12
        assert all(v["bandpassed"] and v["notched"] and v["zscored"] for v in flags.values())

    def test_04_extract_eeg_feats(self, workspace):
        root, config = workspace
        code, out = run_cli("extract-eeg-feats", "--config", str(config))
        assert code == 0
        _, _, arrays = load_container(root / "out" / "feats_eeg" / "trial_0001.feats", expect_kind="eeg-features")
        assert arrays["values"].shape[1] == 155

    def test_05_fit_kpca(self, workspace):
        root, config = workspace
        code, out = run_cli("fit-kpca", "--config", str(config))
        assert code == 0
        assert (root / "out" / "kpca" / "pooled.kpca").exists()
        curve = (root / "out" / "kpca" / "explained_variance.csv").read_text().splitlines()
        assert curve[0] == "scope,component,cumulative_fraction"
        assert len(curve) == 1 + 30

    def test_07_train_synth(self, workspace):
        root, config = workspace
        code, out = run_cli("train-synth", "--config", str(config), "--epochs", "2")
        assert code == 0
        assert (root / "out" / "models" / "synthesis.ckpt").exists()
        history = (root / "out" / "models" / "synthesis_history.csv").read_text().splitlines()
        assert history[0].startswith("#") and "epochs=2" in history[0]
        assert history[1] == "epoch,train_loss,val_loss"
        assert len(history) == 4

    def test_08_train_regress_single_kind(self, workspace):
        root, config = workspace
        code, out = run_cli("train-regress", "--config", str(config), "--kind", "f5", "--epochs", "2")
        assert code == 0
        assert (root / "out" / "models" / "regress_rms.ckpt").exists()

    def test_09_train_regress_all(self, workspace):
        root, config = workspace
        code, out = run_cli("train-regress", "--config", str(config), "--epochs", "1")
        assert code == 0
        assert len(summary_of(out)["kinds"]) == 16

    def test_10_eval_synth(self, workspace):
        root, config = workspace
        code, out = run_cli("eval-synth", "--config", str(config))
        assert code == 0
        report = json.loads((root / "out" / "metrics" / "synthesis.json").read_text())
        assert report["scope"] == "synthesis"
        assert all(row["rmse"] >= 0 for row in report["rows"])

    def test_11_eval_regress(self, workspace):
        root, config = workspace
        code, out = run_cli("eval-regress", "--config", str(config))
        assert code == 0
        report = json.loads((root / "out" / "metrics" / "acoustic.json").read_text())
        labels = {row["label"] for row in report["rows"]}
        assert labels == {f"f{i}" for i in range(1, 17)}

    def test_12_export_spectrogram_actual(self, workspace):
        root, config = workspace
        code, out = run_cli("export-spectrogram", "--config", str(config), "--trial", "trial_0001")
        assert code == 0
        summary = summary_of(out)
        assert summary["csv"].endswith(".csv") and summary["pgm"].endswith(".pgm")

    def test_13_export_spectrogram_predicted(self, workspace):
        root, config = workspace
        code, out = run_cli(
            "export-spectrogram", "--config", str(config), "--trial", "trial_0001", "--source", "predicted"
        )
        assert code == 0

    def test_14_idempotent_rerun(self, workspace):
        root, config = workspace
        metrics = root / "out" / "metrics" / "synthesis.json"
        before = metrics.read_bytes()
        code, _ = run_cli("eval-synth", "--config", str(config))
        assert code == 0
        assert metrics.read_bytes() == before

    def test_15_condition_filter_restricts_rows(self, workspace):
        root, config = workspace
        split = json.loads((root / "out" / "split.json").read_text())
        manifest = {t["id"]: t for t in json.loads((root / "data" / "manifest.json").read_text())}
        present = manifest[split["test_ids"][0]]["condition"]
        absent = "listen" if present == "spoken" else "spoken"

        code, _ = run_cli("eval-synth", "--config", str(config), "--condition", present)
        assert code == 0
        report = json.loads((root / "out" / "metrics" / "synthesis.json").read_text())
        assert report["rows"]
        assert all(row["condition"] == present for row in report["rows"])

        # filtering the only test trial away leaves nothing to evaluate
        assert run_cli("eval-synth", "--config", str(config), "--condition", absent)[0] == 2
        # restore the unfiltered report for any later reruns
        assert run_cli("eval-synth", "--config", str(config))[0] == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_16_diverging_training_exits_3(self, workspace):
        root, config = workspace
        blowup = root / "blowup.ini"
        blowup.write_text(config.read_text().replace("learning_rate = 0.003", "learning_rate = 1e18"))
        code, _ = run_cli("train-synth", "--config", str(blowup), "--epochs", "50")
        assert code == 3


class TestGradCheckCommand:
    def test_summary_and_exit_code(self, tmp_path):
        code, out = run_cli("grad-check", "--out", str(tmp_path))
        assert code == 0
        summary = summary_of(out)
        assert summary["max_rel_err"] < 1e-4


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == 1

    def test_bad_config_value_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.ini"
        config.write_text("[synthesis]\nepochs = -1\n")
        assert cli.main(["split", "--config", str(config)]) == 1

    def test_audio_rate_not_matching_synthesis_is_usage_error(self, workspace, tmp_path):
        _, base = workspace
        config = tmp_path / "rate.ini"
        config.write_text(base.read_text() + "[features]\naudio_rate_hz = 16000\n")
        out = tmp_path / "o"
        code = cli.main(["train-synth", "--config", str(config), "--out", str(out),
                         "--data-root", str(tmp_path / "d")])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-synth", "--epochs", "0"], ["train-synth", "--epochs", "-1"],
        ["train-regress", "--epochs", "0"],
        ["gen-data", "--n-trials", "0"], ["gen-data", "--duration", "0"],
    ])
    def test_non_positive_count_override_is_usage_error(self, workspace, tmp_path, argv):
        _, config = workspace
        out = tmp_path / "o"
        assert cli.main(argv + ["--config", str(config), "--out", str(out), "--data-root", str(tmp_path / "d")]) == 1
        assert not out.exists() and not (tmp_path / "d").exists()

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert cli.main(["split", "--data-root", str(tmp_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, literal", [
        ("subject", "1e400"), ("subject", "1.7"), ("subject", "true"), ("id", "7"), ("condition", '"sing"'),
    ])
    def test_malformed_manifest_entry_is_data_error(self, tmp_path, capsys, field, literal):
        manifest = dataio.generate_synthetic_dataset(10, 0.5, seed=0, out_dir=tmp_path / "data")
        path = manifest.root / "manifest.json"
        items = json.loads(path.read_text())
        items[0][field] = "@@"
        path.write_text(json.dumps(items).replace('"@@"', literal))
        assert cli.main(["split", "--data-root", str(tmp_path / "data"), "--out", str(tmp_path / "o")]) == 2
        assert "manifest entry 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "split.json").exists()

    def test_missing_split_is_data_error(self, tmp_path):
        from eegspeech import dataio
        dataio.generate_synthetic_dataset(10, 0.5, seed=0, out_dir=tmp_path / "data")
        code = cli.main(["train-synth", "--data-root", str(tmp_path / "data"), "--out", str(tmp_path / "o")])
        assert code == 2


class TestIntermediates:
    @pytest.mark.parametrize("eeg_format", ["csv", "f32"])
    def test_file_driven_features_equal_in_memory(self, tmp_path, eeg_format):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[paths]\ndata_root = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\n"
            f"[dataset]\nn_trials = 3\nduration_s = 0.5\neeg_format = {eeg_format}\n"
        )
        for step in ("gen-data", "preprocess", "extract-eeg-feats"):
            assert cli.main([step, "--config", str(config)]) == 0
        cfg = parse_config(config)
        manifest = dataio.load_manifest(tmp_path / "data" / "manifest.json")
        for trial_id in manifest.ids():
            clean = eeg.preprocess_eeg(manifest.load_trial(trial_id).eeg, pipeline.preprocess_options(cfg))
            expected = eeg.extract_stat_features(clean, pipeline.eeg_grid(cfg)).values
            kind, _, arrays = load_container(tmp_path / "out" / "feats_eeg" / f"{trial_id}.feats")
            assert kind == "eeg-features"
            assert np.array_equal(arrays["values"], expected)
            assert np.array_equal(cli._load_clean(cfg, trial_id).data, clean.data)

    @pytest.mark.parametrize("use_ica", ["false", "true"])
    def test_preprocess_record_follows_options(self, tmp_path, use_ica):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[paths]\ndata_root = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\n"
            f"[dataset]\nn_trials = 2\nduration_s = 0.5\n[preprocess]\nuse_ica = {use_ica}\n"
        )
        for step in ("gen-data", "preprocess"):
            assert cli.main([step, "--config", str(config)]) == 0
        record = json.loads((tmp_path / "out" / "clean" / "preprocess.json").read_text())
        steps = {"bandpassed": True, "notched": True, "ica_cleaned": use_ica == "true", "zscored": True}
        assert record == {"trial_0001": steps, "trial_0002": steps}

    def test_clean_eeg_of_another_kind_is_data_error(self, tmp_path, capsys):
        dataio.generate_synthetic_dataset(1, 0.5, seed=0, out_dir=tmp_path / "data")
        (tmp_path / "o" / "clean").mkdir(parents=True)
        nn.build_regression_model(out_dim=1, seed=0, hidden=4).save(tmp_path / "o" / "clean" / "trial_0001.clean")
        code = cli.main(["extract-eeg-feats", "--out", str(tmp_path / "o"), "--data-root", str(tmp_path / "data")])
        assert code == 2
        assert "expected 'clean-eeg' container" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '{"train_ids": []}', '{"train_ids": 3, "val_ids": [], "test_ids": [], "seed": 0}', "not json",
    ])
    def test_malformed_split_exits_2(self, tmp_path, capsys, content):
        dataio.generate_synthetic_dataset(10, 0.5, seed=0, out_dir=tmp_path / "data")
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "split.json").write_text(content)
        code = cli.main(["fit-kpca", "--out", str(tmp_path / "o"), "--data-root", str(tmp_path / "data")])
        assert code == 2
        assert "split" in capsys.readouterr().err
