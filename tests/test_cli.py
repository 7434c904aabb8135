"""Exercise every subcommand end to end on a tiny synthetic dataset."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eegspeech
from eegspeech import cli, dataio, eeg, nn, pipeline, serialize
from eegspeech.config import parse_config
from eegspeech.serialize import load_container


# The commands that take --subject/--condition.
FILTERED = ("preprocess", "extract-eeg-feats", "fit-kpca", "train-synth", "train-regress", "eval-synth",
            "eval-regress")


def run_cli(*args) -> tuple[int, str]:
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def _workspace(root: Path) -> tuple[Path, Path]:
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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A config and an empty run directory, which tests 01-16 fill stage by stage."""
    return _workspace(tmp_path_factory.mktemp("cliws"))


# The stages tests 01-11 run, in their order and with their flags.
STAGES = (["gen-data"], ["split"], ["preprocess"], ["extract-eeg-feats"], ["fit-kpca"],
          ["train-synth", "--epochs", "2"], ["train-regress", "--epochs", "1"], ["eval-synth"], ["eval-regress"])


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A run directory of its own, through every stage up to eval-regress, so
    that a test which reads or copies one also runs alone."""
    root, config = _workspace(tmp_path_factory.mktemp("clirun"))
    for stage in STAGES:
        assert run_cli(*stage, "--config", str(config))[0] == 0, stage
    return root, config


def _tree_bytes(root) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def summary_of(output: str) -> dict:
    lines = [ln for ln in output.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


class TestPipelineCommands:
    """Tests 01-16 run the stages in definition order against one shared
    workspace; tests 17-28 read or copy a finished run of their own."""
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
        summary = summary_of(out)
        model = eeg.load_kpca(root / "out" / "kpca" / "pooled.kpca")
        assert summary["effective_rank"] == {"pooled": model.effective_rank}
        assert summary["effective_rank"]["pooled"] == 30
        assert summary["explained_variance"] == {"pooled": float(eeg.explained_variance_curve(model)[-1])}
        assert f"{summary['explained_variance']['pooled']:.9g}" == curve[-1].split(",")[2]
        assert 0.0 < summary["explained_variance"]["pooled"] <= 1.0

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

    @pytest.mark.parametrize("command", FILTERED)
    def test_17_empty_selection_keeps_every_output(self, finished_run, capsys, command):
        # gen-data cycles subjects 1..4, so subject 9 selects no trial
        root, config = finished_run
        before = _tree_bytes(root / "out")
        code, _ = run_cli(command, "--config", str(config), "--subject", "9")
        assert code == 2
        assert "after filtering" in capsys.readouterr().err
        assert _tree_bytes(root / "out") == before

    @pytest.mark.parametrize("command, missing, stage", [
        ("extract-eeg-feats", "clean", "preprocess"),
        ("fit-kpca", "split.json", "split"),
        ("fit-kpca", "feats_eeg", "extract-eeg-feats"),
        ("train-synth", "clean", "preprocess"),
        ("train-regress", "kpca", "fit-kpca"),
        ("train-regress", "kpca/pooled.kpca", "fit-kpca"),
        ("train-regress", "feats_eeg", "extract-eeg-feats"),
        ("eval-synth", "models/synthesis.ckpt", "train-synth"),
        ("eval-regress", "models/regress_rms.ckpt", "train-regress"),
        ("export-spectrogram --trial trial_0001 --source predicted", "models/synthesis.ckpt", "train-synth"),
    ])
    def test_18_missing_input_names_its_stage(self, finished_run, tmp_path, capsys, command, missing, stage):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        target = out / missing
        if target.is_dir():
            shutil.rmtree(target)
        else:
            target.unlink()
        code, _ = run_cli(*command.split(), "--config", str(config), "--out", str(out))
        assert code == 2
        assert f"run {stage} first" in capsys.readouterr().err

    def test_19_emptied_clean_eeg_is_data_error(self, finished_run, tmp_path, capsys):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        test_id = json.loads((out / "split.json").read_text())["test_ids"][0]
        serialize.save_container(out / "clean" / f"{test_id}.clean", cli.CLEAN_KIND, {},
                                 {"values": np.zeros((31, 0))})
        code, _ = run_cli("eval-synth", "--config", str(config), "--out", str(out))
        assert code == 2
        assert "0 samples" in capsys.readouterr().err

    def test_20_swapped_regressors_name_the_file(self, finished_run, tmp_path, capsys):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        # both kinds are 1-dim, so each file is a consistent bundle under the wrong name
        rms, zcr = out / "models" / "regress_rms.ckpt", out / "models" / "regress_zcr.ckpt"
        rms_bytes = rms.read_bytes()
        rms.write_bytes(zcr.read_bytes())
        zcr.write_bytes(rms_bytes)
        before = _tree_bytes(out)
        code, _ = run_cli("eval-regress", "--config", str(config), "--out", str(out))
        assert code == 2
        assert "regress_rms.ckpt: holds the zcr regressor, not rms" in capsys.readouterr().err
        assert _tree_bytes(out) == before


    def test_21_misfit_checkpoint_names_the_file(self, finished_run, tmp_path, capsys):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        # the arrays stay those of an 8-unit GRU, the saved config now says 9
        path = out / "models" / "regress_rms.ckpt"
        kind, meta, arrays = load_container(path)
        meta["model"]["hidden"] = 9
        serialize.save_container(path, kind, meta, arrays)
        before = _tree_bytes(out)
        code, _ = run_cli("eval-regress", "--config", str(config), "--out", str(out))
        assert code == 2
        assert f"{path}: checkpoint shape mismatch at layer 0" in capsys.readouterr().err
        assert _tree_bytes(out) == before

    def test_22_moved_run_writes_the_same_metrics(self, finished_run, tmp_path):
        # config_hash leaves out [paths], so only the echoed config names the new out_dir
        root, config = finished_run
        moved = tmp_path / "moved"
        shutil.copytree(root / "out", moved)
        for command in ("eval-synth", "eval-regress"):
            assert run_cli(command, "--config", str(config), "--out", str(moved))[0] == 0
        after, before = _tree_bytes(moved), _tree_bytes(root / "out")
        assert {Path("metrics", "synthesis.json"), Path("metrics", "acoustic.json")} <= after.keys()
        assert after.pop(Path("resolved_config.ini")) != before.pop(Path("resolved_config.ini"))
        assert after == before

    @pytest.mark.parametrize("command, ckpt, name", [
        ("eval-synth", "synthesis.ckpt", "layer00_p0"),
        ("eval-regress", "regress_rms.ckpt", "in_std"),
    ])
    def test_23_non_finite_checkpoint_is_data_error(self, finished_run, tmp_path, capsys, command, ckpt, name):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        path = out / "models" / ckpt
        kind, meta, arrays = load_container(path)
        arrays[name].flat[0] = np.nan
        serialize.save_container(path, kind, meta, arrays)
        before = _tree_bytes(out)
        code, _ = run_cli(command, "--config", str(config), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and f"{name}" in err and "NaN or inf" in err
        assert _tree_bytes(out) == before

    def test_24_regression_stages_read_no_raw_eeg(self, finished_run, tmp_path):
        # after extract-eeg-feats the regression stages need the features and the WAVs only
        root, config = finished_run
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(root / "data", data)
        shutil.copytree(root / "out", out)
        for csv in data.glob("*.csv"):
            csv.write_bytes(csv.read_bytes()[: csv.stat().st_size // 2])
        paths = ("--config", str(config), "--data-root", str(data), "--out", str(out))
        assert run_cli("train-regress", *paths, "--epochs", "1")[0] == 0
        assert run_cli("eval-regress", *paths)[0] == 0
        after, before = _tree_bytes(out), _tree_bytes(root / "out")
        assert after.pop(Path("resolved_config.ini")) != before.pop(Path("resolved_config.ini"))
        assert after == before

    @pytest.mark.parametrize("command, relpath, name, message", [
        ("eval-regress", "kpca/pooled.kpca", "coefficients", "KPCA 'coefficients' holds NaN or inf"),
        ("eval-synth", "clean/{test_id}.clean", "values", "clean EEG contains non-finite values"),
        ("eval-regress", "feats_eeg/{test_id}.feats", "values", "non-finite stat feature value"),
    ], ids=["kpca", "clean-eeg", "features"])
    def test_25_non_finite_intermediate_is_data_error(self, finished_run, tmp_path, capsys, command, relpath, name,
                                                         message):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        test_id = json.loads((out / "split.json").read_text())["test_ids"][0]
        path = out / relpath.format(test_id=test_id)
        kind, meta, arrays = load_container(path)
        arrays[name].flat[7] = np.nan
        serialize.save_container(path, kind, meta, arrays)
        before = _tree_bytes(out)
        code, _ = run_cli(command, "--config", str(config), "--out", str(out))
        assert code == 2
        assert f"{path}: {message}" in capsys.readouterr().err
        assert _tree_bytes(out) == before


    @pytest.mark.parametrize("command, role", [
        ("fit-kpca", "train_ids"), ("train-regress", "train_ids"), ("eval-regress", "test_ids"),
    ])
    def test_26_zero_frame_features_are_data_error(self, finished_run, tmp_path, capsys, command, role):
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        trial_id = json.loads((out / "split.json").read_text())[role][0]
        path = out / "feats_eeg" / f"{trial_id}.feats"
        serialize.save_container(path, cli.FEATURES_KIND, {}, {"values": np.zeros((0, eeg.STAT_FEATURE_DIM))})
        before = _tree_bytes(out)
        epochs = ["--epochs", "1"] if command == "train-regress" else []
        code, _ = run_cli(command, "--config", str(config), "--out", str(out), *epochs)
        assert code == 2
        assert f"{path}: stat features have 0 frames" in capsys.readouterr().err
        assert _tree_bytes(out) == before

    def test_27_kpca_of_another_scope_names_fit_kpca(self, finished_run, tmp_path, capsys):
        # the finished_run fits one pooled model; a per-subject run needs one per subject
        root, config = finished_run
        out = tmp_path / "out"
        shutil.copytree(root / "out", out)
        per_subject = tmp_path / "per_subject.ini"
        per_subject.write_text(config.read_text().replace("scope = pooled", "scope = per-subject"))
        before = _tree_bytes(out)
        code, _ = run_cli("train-regress", "--config", str(per_subject), "--out", str(out), "--epochs", "1")
        assert code == 2
        assert "kpca/subject_1.kpca; run fit-kpca first" in capsys.readouterr().err
        assert _tree_bytes(out) == before

    def test_28_synthesis_stages_read_no_raw_eeg(self, finished_run, tmp_path):
        # after preprocess the synthesis stages need the clean EEG and the WAVs only
        root, config = finished_run
        trial_id = json.loads((root / "out" / "split.json").read_text())["test_ids"][0]

        def run(tag: str, cut: bool) -> Path:
            data, out = tmp_path / tag / "data", tmp_path / tag / "out"
            shutil.copytree(root / "data", data)
            shutil.copytree(root / "out", out)
            for csv in data.glob("*.csv") if cut else ():
                csv.write_bytes(csv.read_bytes()[: csv.stat().st_size // 2])
            paths = ("--config", str(config), "--data-root", str(data), "--out", str(out))
            for command in (("train-synth", "--epochs", "2"), ("eval-synth",),
                            ("export-spectrogram", "--trial", trial_id),
                            ("export-spectrogram", "--trial", trial_id, "--source", "predicted")):
                assert run_cli(*command, *paths)[0] == 0, command
            return out

        cut, whole = _tree_bytes(run("cut", True)), _tree_bytes(run("whole", False))
        assert len([p for p in cut if p.parts[0] == "spectrograms"]) == 4
        assert cut.pop(Path("resolved_config.ini")) != whole.pop(Path("resolved_config.ini"))
        assert cut == whole


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

    def test_non_utf8_config_is_usage_error(self, tmp_path):
        config = tmp_path / "latin1.ini"
        config.write_bytes(b"[paths]\nout_dir = \xe9t\xe9\n")
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

    def test_hop_under_the_moving_average_window_is_usage_error(self, tmp_path, capsys):
        """At 125 Hz the EEG hop is 8 samples, the moving window average's
        length, and features extract. At 142.86 Hz it is 7: gen-data and
        extract-eeg-feats are exit 1 before any work, naming the key."""
        root, config = _workspace(tmp_path)
        base = config.read_text().replace("n_trials = 12", "n_trials = 10")
        config.write_text(base + "[features]\nframe_rate_hz = 125\n")
        for step in ("gen-data", "split", "preprocess", "extract-eeg-feats"):
            assert run_cli(step, "--config", str(config))[0] == 0, step
        feats = sorted((root / "out" / "feats_eeg").glob("*.feats"))
        assert feats and load_container(feats[0])[2]["values"].shape[0] == 1 + 500 // 8
        before = [_tree_bytes(root / "data"), _tree_bytes(root / "out")]
        config.write_text(base + "[features]\nframe_rate_hz = 142.86\n")
        capsys.readouterr()
        for step in ("gen-data", "extract-eeg-feats"):
            assert run_cli(step, "--config", str(config))[0] == 1, step
            assert "frame_rate_hz = 142.86 gives an EEG hop of 7 samples" in capsys.readouterr().err
        assert [_tree_bytes(root / "data"), _tree_bytes(root / "out")] == before

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_multi_line_path_is_usage_error(self, tmp_path, capsys, source):
        """A continuation line in the config file, or a line break in --out, is exit 1 before any work."""
        run = tmp_path / "run"
        run.mkdir()
        config = run / "multi.ini"
        if source == "file":
            config.write_text(f"[paths]\ndata_root = {run / 'd'}\nout_dir = {run / 'o'}\n  sub\n")
            flags = []
        else:
            config.write_text(f"[paths]\ndata_root = {run / 'd'}\n")
            flags = ["--out", f"{run / 'o'}\nsub"]
        code = cli.main(["gen-data", "--config", str(config), "--n-trials", "2", *flags])
        assert code == 1
        assert "out_dir must be one line without surrounding whitespace" in capsys.readouterr().err
        assert [p.name for p in run.iterdir()] == ["multi.ini"]

    def test_duration_outside_the_generator_range_is_usage_error(self, workspace, tmp_path, capsys):
        _, config = workspace
        out, data = tmp_path / "o", tmp_path / "d"
        code = cli.main(["gen-data", "--duration", "20", "--config", str(config), "--out", str(out),
                         "--data-root", str(data)])
        assert code == 1
        assert "duration_s must be in [0.5, 10], got 20.0" in capsys.readouterr().err
        assert not out.exists() and not data.exists()

    @pytest.mark.parametrize("command, lines", [
        ("extract-eeg-feats", "[features]\nframe_rate_hz = 0"),
        ("extract-eeg-feats", "[features]\nframe_rate_hz = -5"),
        ("extract-eeg-feats", "[features]\nframe_rate_hz = 400"),
        ("extract-eeg-feats", "[features]\nframe_rate_hz = 1e-308"),
        ("preprocess", "[preprocess]\nnotch_q = 0"),
        ("preprocess", "[preprocess]\nnotch_q = -3"),
        ("preprocess", "[preprocess]\nnotch_hz = 700"),
        ("preprocess", "[preprocess]\nbandpass_hi_hz = 500"),
        ("preprocess", "[preprocess]\nbandpass_hi_hz = 600"),
    ])
    def test_bad_filter_or_grid_is_usage_error(self, tmp_path, capsys, command, lines):
        config = tmp_path / "bad.ini"
        config.write_text(lines + "\n")
        out = tmp_path / "o"
        code = cli.main([command, "--config", str(config), "--out", str(out), "--data-root", str(tmp_path / "d")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 5\nbogus = 1\n", "[kpca]\ngamma = 0.5\n[DEFAULT]\nx = 1\n"])
    def test_default_section_keys_are_usage_error(self, tmp_path, capsys, text):
        config = tmp_path / "default.ini"
        config.write_text(text)
        out, data = tmp_path / "o", tmp_path / "d"
        code = cli.main(["gen-data", "--n-trials", "1", "--duration", "0.5", "--config", str(config),
                         "--out", str(out), "--data-root", str(data)])
        assert code == 1
        assert "[DEFAULT]" in capsys.readouterr().err
        assert not out.exists() and not data.exists()

    @pytest.mark.parametrize("out_dir, flags", [("", []), ("o", ["--out", ""]), ("o", ["--data-root", ""])])
    def test_empty_path_is_usage_error(self, tmp_path, monkeypatch, capsys, out_dir, flags):
        # an empty out_dir would put split.json and resolved_config.ini into the working directory
        dataio.generate_synthetic_dataset(2, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        config = tmp_path / "run.ini"
        config.write_text(f"[paths]\ndata_root = data\nout_dir = {out_dir}\n")
        monkeypatch.chdir(tmp_path)
        before = _tree_bytes(tmp_path)
        assert cli.main(["split", "--config", str(config), *flags]) == 1
        assert "must not be empty" in capsys.readouterr().err
        assert _tree_bytes(tmp_path) == before

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["train-regress", "--kind", "f99", "--out", str(out), "--data-root", str(tmp_path / "d")])
        assert code == 1
        assert "f99" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--wav", "a.wav", "--trial", "trial_0001"], []])
    def test_export_spectrogram_needs_exactly_one_source(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli.main(["export-spectrogram", *argv, "--out", str(out)]) == 1
        assert "--wav" in capsys.readouterr().err
        assert not out.exists()

    def test_predicted_spectrogram_of_a_wav_is_usage_error(self, tmp_path, capsys):
        dataio.generate_synthetic_dataset(1, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        out = tmp_path / "o"
        code = cli.main(["export-spectrogram", "--wav", str(tmp_path / "data" / "trial_0001.wav"),
                         "--source", "predicted", "--out", str(out)])
        assert code == 1
        assert "a WAV has no EEG to predict from" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert cli.main(["split", "--data-root", str(tmp_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("field, literal", [
        ("subject", "1e400"), ("subject", "1.7"), ("subject", "true"), ("id", "7"), ("condition", '"sing"'),
    ])
    def test_malformed_manifest_entry_is_data_error(self, tmp_path, capsys, field, literal):
        manifest = dataio.generate_synthetic_dataset(10, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        path = manifest.root / "manifest.json"
        items = json.loads(path.read_text())
        items[0][field] = "@@"
        path.write_text(json.dumps(items).replace('"@@"', literal))
        assert cli.main(["split", "--data-root", str(tmp_path / "data"), "--out", str(tmp_path / "o")]) == 2
        assert "manifest entry 0" in capsys.readouterr().err
        assert not (tmp_path / "o" / "split.json").exists()

    def test_missing_split_is_data_error(self, tmp_path):
        from eegspeech import dataio
        dataio.generate_synthetic_dataset(10, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
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
        dataio.generate_synthetic_dataset(1, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        (tmp_path / "o" / "clean").mkdir(parents=True)
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2)
        model.save(tmp_path / "o" / "clean" / "trial_0001.clean")
        code = cli.main(["extract-eeg-feats", "--out", str(tmp_path / "o"), "--data-root", str(tmp_path / "data")])
        assert code == 2
        assert "expected 'clean-eeg' container" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        '{"train_ids": []}', '{"train_ids": 3, "val_ids": [], "test_ids": [], "seed": 0}', "not json",
    ])
    def test_malformed_split_exits_2(self, tmp_path, capsys, content):
        dataio.generate_synthetic_dataset(10, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        (tmp_path / "o").mkdir()
        (tmp_path / "o" / "split.json").write_text(content)
        code = cli.main(["fit-kpca", "--out", str(tmp_path / "o"), "--data-root", str(tmp_path / "data")])
        assert code == 2
        assert "split" in capsys.readouterr().err


class TestSpectrogramFromWav:
    def test_gen_data_wav_gives_csv_and_pgm(self, tmp_path):
        dataio.generate_synthetic_dataset(1, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        code, out = run_cli("export-spectrogram", "--wav", str(tmp_path / "data" / "trial_0001.wav"),
                            "--out", str(tmp_path / "o"))
        assert code == 0
        summary = summary_of(out)
        assert summary["csv"] == str(tmp_path / "o" / "spectrograms" / "trial_0001.csv")
        assert summary["pgm"] == str(tmp_path / "o" / "spectrograms" / "trial_0001.pgm")
        assert all((tmp_path / "o" / "spectrograms" / name).stat().st_size > 0
                   for name in ("trial_0001.csv", "trial_0001.pgm"))

    def test_frame_rate_sets_the_hop(self, tmp_path):
        # 0.5 s at 15 kHz is 7500 samples; a 25 Hz grid hops 600 of them
        dataio.generate_synthetic_dataset(1, 0.5, seed=0, out_dir=tmp_path / "data", eeg_format="csv")
        config = tmp_path / "rate.ini"
        config.write_text("[features]\nframe_rate_hz = 25\n")
        code, _ = run_cli("export-spectrogram", "--config", str(config), "--out", str(tmp_path / "o"),
                          "--wav", str(tmp_path / "data" / "trial_0001.wav"))
        assert code == 0
        matrix = np.loadtxt(tmp_path / "o" / "spectrograms" / "trial_0001.csv", delimiter=",")
        assert matrix.shape[0] == 1 + 7500 // 600


def test_parser_surface():
    """Each subcommand's option strings, so the table-driven parser neither drops nor adds a flag."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    common = {"-h", "--help", "--config", "--seed", "--out", "--data-root"}
    expected = {"gen-data": common | {"--n-trials", "--duration"}, "split": common, "grad-check": common,
                "export-spectrogram": common | {"--wav", "--trial", "--source"}}
    expected.update({name: common | {"--subject", "--condition"} for name in FILTERED})
    expected["train-synth"] |= {"--epochs"}
    expected["train-regress"] |= {"--epochs", "--kind"}
    surface = {name: {opt for action in p._actions for opt in action.option_strings}
               for name, p in sub.choices.items()}
    assert surface == expected
    args = parser.parse_args(["gen-data", "--n-trials", "3", "--duration", "0.25"])
    assert (args.n_trials, args.duration) == (3, 0.25) and type(args.n_trials) is int


def _cli_process(root: Path, threads: str, *steps: list[str]) -> str:
    """Run `steps` through cli.main in one fresh interpreter at `threads` BLAS
    threads; what it printed."""
    paths = [str(Path(eegspeech.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = ("from eegspeech import cli\n"
              f"for step in {[list(step) for step in steps]!r}:\n"
              "    assert cli.main(step + ['--config', 'run.ini']) == 0, step\n")
    return subprocess.run([sys.executable, "-c", script], cwd=root, env=env, check=True, timeout=300,
                          capture_output=True, text=True).stdout


@pytest.fixture(scope="module")
def runs_at_one_and_two_threads(tmp_path_factory) -> dict[str, tuple[Path, str]]:
    """Every stage, gen-data through eval-regress plus a predicted spectrogram,
    in one fresh interpreter at 1 and one at 2 BLAS threads: thread count ->
    (run directory, stdout)."""
    runs = {}
    for threads in ("1", "2"):
        root = tmp_path_factory.mktemp(f"threads{threads}")
        (root / "run.ini").write_text(
            "[paths]\ndata_root = data\nout_dir = out\n[run]\nseed = 9\n"
            "[dataset]\nn_trials = 12\nduration_s = 1\n[kpca]\nscope = pooled\n"
            "[synthesis]\nfilters1 = 8\nfilters2 = 4\nepochs = 2\n[regression]\nhidden = 8\nepochs = 3\n"
        )
        runs[threads] = root, _cli_process(
            root, threads, ["gen-data"], ["split"], ["preprocess"], ["extract-eeg-feats"], ["fit-kpca"],
            ["train-synth"], ["train-regress", "--kind", "all"], ["eval-synth"], ["eval-regress"],
            ["export-spectrogram", "--trial", "trial_0001", "--source", "predicted"])
    return runs


@pytest.mark.parametrize("threads", ["1", "2"])
def test_artifacts_are_byte_identical_across_processes(runs_at_one_and_two_threads, tmp_path, threads):
    """Artifacts depend neither on the BLAS thread count nor on what a process
    computed before: fresh processes at 1 and at 2 BLAS threads write the same
    files and print the same lines, and a fresh process at `threads` whose
    filter and weight caches are cold at a later trial rewrites the other
    count's .clean files byte for byte."""
    (first, printed), (second, printed_again) = runs_at_one_and_two_threads.values()
    assert len(list(first.rglob("*.ckpt"))) == 17
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert [name for name in files if (first / name).read_bytes() != (second / name).read_bytes()] == []
    assert printed == printed_again

    root = tmp_path / "rerun"
    shutil.copytree(runs_at_one_and_two_threads["2" if threads == "1" else "1"][0], root)
    manifest = dataio.load_manifest(root / "data" / "manifest.json")
    subject3 = [t.id for t in manifest.trials if t.subject == 3]
    assert subject3 and subject3[0] != manifest.trials[0].id
    paths = {tid: root / "out" / "clean" / f"{tid}.clean" for tid in subject3}
    cleans = {tid: path.read_bytes() for tid, path in paths.items()}
    for path in paths.values():
        path.unlink()
    _cli_process(root, threads, ["preprocess", "--subject", "3"])
    for tid, path in paths.items():
        assert path.read_bytes() == cleans[tid], f"byte mismatch in {tid}.clean"


def test_odd_hop_on_clips_of_whole_hops_runs_through_eval_regress(tmp_path):
    """At 32.26 Hz the EEG hop is 31 and the 15 kHz hop 15 x 31 = 465, both odd
    windows, and a 0.93 s trial is exactly 30 hops of each: the centered
    framing's last frame reaches past the end."""
    config = tmp_path / "run.ini"
    config.write_text(
        f"[paths]\ndata_root = {tmp_path / 'data'}\nout_dir = {tmp_path / 'out'}\n"
        "[dataset]\nn_trials = 10\nduration_s = 0.93\n[features]\nframe_rate_hz = 32.26\n"
        "[kpca]\nscope = pooled\n[regression]\nhidden = 8\nepochs = 1\n"
    )
    cfg = parse_config(config)
    assert (pipeline.eeg_grid(cfg).hop, pipeline.audio_grid(cfg).hop) == (31, 465)
    for step in ("gen-data", "split", "preprocess", "extract-eeg-feats", "fit-kpca", "train-regress", "eval-regress"):
        assert cli.main([step, "--config", str(config)]) == 0, step
    manifest = dataio.load_manifest(tmp_path / "data" / "manifest.json")
    trial = manifest.load_trial(manifest.ids()[0])
    assert (trial.eeg.n_samples, len(pipeline.clip_at_rate(trial.audio))) == (30 * 31, 30 * 465)
    report = json.loads((tmp_path / "out" / "metrics" / "acoustic.json").read_text())
    assert {row["label"] for row in report["rows"]} == {f"f{i}" for i in range(1, 17)}
