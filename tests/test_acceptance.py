"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. The headline numbers of the
original recordings are not reproducible (private corpus), so acceptance is
property-based plus synthetic end-to-end checks at fixed tolerances.
"""

import time

import numpy as np
import pytest

from eegspeech import acoustic, cli, dataio, dsp, eeg, nn, pipeline
from eegspeech.config import RunConfig
from eegspeech.evaluate import rmse

from conftest import lfilter, mean_baseline_rmse, sine, sine_fit_amplitude
from test_nn_layers import check_layer_grads

FS_AUDIO = 15000


def _report(name: str, detail: str) -> None:
    print(f"[PASS] {name}: {detail}")


# ---------------------------------------------------------------------------

def test_criterion_gradient_suite():
    """Every layer passes central finite differences, <1e-4 relative, 64-bit,
    10 random small shapes each, in under 60 s."""
    start = time.monotonic()
    worst = 0.0

    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        in_dim, out_dim = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        tcn = nn.TcnBlock(in_dim, out_dim, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                          use_residual=bool(rng.integers(0, 2)), rng=rng, dtype=np.float64)
        check_layer_grads(tcn, rng.standard_normal((2, int(rng.integers(3, 7)), in_dim)), rng)

        gru = nn.GruLayer(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng=rng, dtype=np.float64)
        check_layer_grads(gru, rng.standard_normal((2, int(rng.integers(2, 10)), gru.in_dim)), rng)

        dense = nn.TimeDistributedDense(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                                        rng=rng, dtype=np.float64)
        check_layer_grads(dense, rng.standard_normal((2, int(rng.integers(2, 6)), dense.in_dim)), rng)

        up = nn.UpsampleRepeat(int(rng.integers(1, 5)))
        check_layer_grads(up, rng.standard_normal((2, int(rng.integers(2, 5)), 3)), rng)

        drop = nn.Dropout(0.3, seed=trial)  # backward applies the training pass's mask and scale
        x = rng.standard_normal((2, 4, 3))
        y = drop.forward(x, training=True)
        assert np.array_equal(drop.backward(np.ones_like(x)) * x, y)

        pred = rng.standard_normal((2, 5, 3))
        target = rng.standard_normal((2, 5, 3))
        _, grad = nn.mse_loss(pred, target)
        eps = 1e-6
        for _ in range(5):
            idx = tuple(rng.integers(0, s) for s in pred.shape)
            bumped = pred.copy()
            bumped[idx] += eps
            lp, _ = nn.mse_loss(bumped, target)
            bumped[idx] -= 2 * eps
            lm, _ = nn.mse_loss(bumped, target)
            numeric = (lp - lm) / (2 * eps)
            rel = abs(grad[idx] - numeric) / max(abs(grad[idx]), abs(numeric), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4

    # whole-model checks mirror the CLI grad-check command: rate-0 dropout, so
    # the training pass the checker differentiates is deterministic
    rng = np.random.default_rng(0)
    synth = nn.build_synthesis_model(seed=1, filters=(4, 2), kernel_size=3, dropout_rate=0.0,
                                     dtype=np.float64)
    err_s = nn.finite_diff_grad_check(synth, rng.standard_normal((2, 6, 31)),
                                      rng.standard_normal((2, 90, 1)), seed=0)
    regress = nn.build_regression_model(out_dim=7, seed=1, hidden=8, in_dim=30, dropout_rate=0.0,
                                        dtype=np.float64)
    err_r = nn.finite_diff_grad_check(regress, rng.standard_normal((2, 6, 30)),
                                      rng.standard_normal((2, 6, 7)), seed=0)
    assert err_s < 1e-4 and err_r < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("gradient suite", f"max model err {max(err_s, err_r):.2e}, {elapsed:.1f}s")


def test_criterion_architecture_conformance():
    """Full-scale shapes: (T x 31) -> (15T x 1) for 20 random T; all 16
    regression dims (sum 571); 256/32 filters, 128 hidden, dropout 0.2, all
    from the stock RunConfig."""
    rng = np.random.default_rng(42)
    cfg = RunConfig()
    synth = nn.build_synthesis_model(seed=0, filters=(cfg.synth_filters1, cfg.synth_filters2),
                                     kernel_size=cfg.synth_kernel, dropout_rate=cfg.dropout)
    for _ in range(20):
        t = int(rng.integers(2, 30))
        x = rng.standard_normal((1, t, 31)).astype(np.float32)
        assert synth.predict(x).shape == (1, 15 * t, 1)

    tcn1, _, drop, tcn2, dense, _ = synth.layers
    assert tcn1.w.shape == (3 * 31, 256) and tcn1.proj.shape == (31, 256)
    assert tcn2.w.shape == (3 * 256, 32) and tcn2.proj.shape == (256, 32)
    assert dense.w.shape == (32, 1)
    assert drop.rate == 0.2
    # TCN1 taps + bias + 1x1 projection, TCN2 likewise, dense weight + bias
    closed_form = (3 * 31 * 256 + 256 + 31 * 256) + (3 * 256 * 32 + 32 + 256 * 32) + (32 + 1)
    assert sum(p.size for p in synth.params()) == closed_form

    dims = []
    x = rng.standard_normal((1, 5, 30)).astype(np.float32)
    for kind in acoustic.FEATURE_ORDER:
        dim = acoustic.FEATURE_DIMS[kind]
        model = nn.build_regression_model(out_dim=dim, seed=0, hidden=cfg.gru_hidden,
                                          in_dim=cfg.kpca_out_dim, dropout_rate=cfg.dropout)
        assert model.predict(x).shape == (1, 5, dim)
        gru, rdrop, rdense = model.layers
        assert gru.u_z.shape == (128, 128)
        assert rdrop.rate == 0.2
        dims.append(dim)
    assert sum(dims) == 571
    _report("architecture conformance", f"20 length checks, 16 dims sum {sum(dims)}")


def _make_trials(n, duration_s, seed, out_dir):
    manifest = dataio.generate_synthetic_dataset(n, duration_s=duration_s, seed=seed, out_dir=out_dir,
                                                 eeg_format="csv")
    return manifest


def test_criterion_overfit(tmp_path):
    """2 trials: synthesis >=95% train-MSE reduction within <=2000 epochs
    (reduced model, kernel 3); regression (mel) >=95% within <=500 epochs;
    whole check under 10 minutes."""
    start = time.monotonic()
    manifest = _make_trials(2, 0.6, 77, tmp_path / "overfit")

    synth_cfg = RunConfig(bandpass_hi_hz=450.0, seed=3, learning_rate=3e-3, batch_size=2,
                          synth_filters1=16, synth_filters2=8, synth_kernel=3, synth_epochs=1000)
    cleans = {
        tid: eeg.preprocess_eeg(manifest.load_trial(tid).eeg, pipeline.preprocess_options(synth_cfg))
        for tid in manifest.ids()
    }
    examples = pipeline.build_synthesis_dataset(manifest, manifest.ids(), synth_cfg, cleans)
    model, history = pipeline.train_synthesis(examples, synth_cfg)
    first = history.epochs[0]["train_loss"]
    best = min(e["train_loss"] for e in history.epochs)
    synth_ratio = best / first
    assert len(history.epochs) <= 2000
    assert synth_ratio <= 0.05, f"synthesis overfit ratio {synth_ratio:.4f}"

    reg_cfg = RunConfig(seed=3, kpca_scope="pooled", learning_rate=3e-3, batch_size=2)
    reg_cleans = {
        tid: eeg.preprocess_eeg(manifest.load_trial(tid).eeg, pipeline.preprocess_options(reg_cfg))
        for tid in manifest.ids()
    }
    eeg_grid, audio_grid = pipeline.eeg_grid(reg_cfg), pipeline.audio_grid(reg_cfg)
    seqs = {tid: eeg.extract_stat_features(reg_cleans[tid], eeg_grid) for tid in manifest.ids()}
    subjects = {tid: manifest.by_id(tid).subject for tid in manifest.ids()}
    kmods = pipeline.fit_kpca_models(seqs, subjects, manifest.ids(), reg_cfg)
    reg_examples = []
    for tid in manifest.ids():
        ref = manifest.by_id(tid)
        reduced = pipeline.reduce_features(seqs[tid], ref.subject, kmods, reg_cfg)
        audio = pipeline.audio_at_rate(manifest.load_trial(tid), reg_cfg)
        targets = acoustic.extract_acoustic_set(audio, audio_grid)
        reg_examples.append(pipeline.regression_example(tid, ref.subject, ref.condition, reduced, targets))
    _, reg_history = pipeline.train_regression_kind("mel", reg_examples, reg_cfg, epochs=500)
    reg_first = reg_history.epochs[0]["train_loss"]
    reg_best = min(e["train_loss"] for e in reg_history.epochs)
    reg_ratio = reg_best / reg_first
    assert len(reg_history.epochs) <= 500
    assert reg_ratio <= 0.05, f"regression overfit ratio {reg_ratio:.4f}"

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report("overfit", f"synthesis {synth_ratio:.3f}, mel regression {reg_ratio:.3f}, {elapsed:.0f}s")


def test_criterion_end_to_end_synthetic_generalization(tmp_path):
    """50 trials split 80/10/10: synthesis test RMSE < 0.9x mean-predictor
    baseline; regression beats baseline for >= 12 of 16 kinds."""
    start = time.monotonic()
    manifest = _make_trials(50, 1.0, 202, tmp_path / "e2e")
    split = dataio.make_split(manifest, (0.8, 0.1, 0.1), seed=5)
    assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == (40, 5, 5)

    # synthesis path: wide-band preprocessing keeps the carrier coupling
    synth_cfg = RunConfig(bandpass_hi_hz=450.0, seed=11, synth_filters1=32, synth_filters2=16,
                          learning_rate=3e-3, batch_size=10, synth_epochs=30)
    opts = pipeline.preprocess_options(synth_cfg)
    synth_cleans = {tid: eeg.preprocess_eeg(manifest.load_trial(tid).eeg, opts) for tid in manifest.ids()}
    train_ex = pipeline.build_synthesis_dataset(manifest, split.train_ids, synth_cfg, synth_cleans)
    test_ex = pipeline.build_synthesis_dataset(manifest, split.test_ids, synth_cfg, synth_cleans)
    baseline = mean_baseline_rmse([ex["y"][:, 0] for ex in train_ex], [ex["y"][:, 0] for ex in test_ex])
    model, _ = pipeline.train_synthesis(train_ex, synth_cfg)
    per_trial = [
        rmse(model.predict(ex["x"].astype(np.float32)[None, ...])[0][:, 0], ex["y"][:, 0])
        for ex in test_ex
    ]
    synth_rmse = float(np.mean(per_trial))
    assert synth_rmse < 0.9 * baseline, f"synthesis {synth_rmse:.4f} vs baseline {baseline:.4f}"

    # regression path: default band, pooled KPCA over the synthetic subjects
    reg_cfg = RunConfig(seed=11, kpca_scope="pooled", gru_hidden=32,
                        learning_rate=3e-3, batch_size=100)
    reg_opts = pipeline.preprocess_options(reg_cfg)
    eeg_grid, audio_grid = pipeline.eeg_grid(reg_cfg), pipeline.audio_grid(reg_cfg)
    seqs, subjects, targets_all = {}, {}, {}
    for tid in manifest.ids():
        trial = manifest.load_trial(tid)
        seqs[tid] = eeg.extract_stat_features(eeg.preprocess_eeg(trial.eeg, reg_opts), eeg_grid)
        subjects[tid] = trial.subject
        targets_all[tid] = acoustic.extract_acoustic_set(pipeline.audio_at_rate(trial, reg_cfg), audio_grid)
    kmods = pipeline.fit_kpca_models(seqs, subjects, split.train_ids, reg_cfg)

    def examples_for(ids):
        out = []
        for tid in ids:
            ref = manifest.by_id(tid)
            reduced = pipeline.reduce_features(seqs[tid], ref.subject, kmods, reg_cfg)
            out.append(pipeline.regression_example(tid, ref.subject, ref.condition, reduced, targets_all[tid]))
        return out

    reg_train = examples_for(split.train_ids)
    reg_test = examples_for(split.test_ids)
    wins = []
    for kind in acoustic.FEATURE_ORDER:
        bundle, _ = pipeline.train_regression_kind(kind, reg_train, reg_cfg, epochs=80)
        kind_baseline = mean_baseline_rmse([ex["targets"][kind] for ex in reg_train],
                                           [ex["targets"][kind] for ex in reg_test])
        kind_rmse = float(np.mean([rmse(bundle.predict(ex["features"]), ex["targets"][kind])
                                   for ex in reg_test]))
        wins.append(kind_rmse < kind_baseline)
    n_wins = sum(wins)
    assert n_wins >= 12, f"regression beats baseline for only {n_wins}/16 kinds"

    elapsed = time.monotonic() - start
    _report("end-to-end generalization",
            f"synthesis ratio {synth_rmse / baseline:.3f}, regression wins {n_wins}/16, {elapsed:.0f}s")


def test_criterion_kpca_oracle(rng):
    """Fitted 30-dim projection matches a dense eigendecomposition of the
    centered polynomial-kernel matrix on n <= 200 frames, |cos| > 0.999 per
    component; explained-variance curve monotone."""
    x = rng.standard_normal((200, 155))
    model = eeg.kpca_fit(x, out_dim=30, degree=3, gamma=None, coef0=1.0)
    fitted = eeg.kpca_transform(model, x)

    n = len(x)
    k = ((1.0 / 155) * (x @ x.T) + 1.0) ** 3
    j = np.eye(n) - np.ones((n, n)) / n
    kc = j @ k @ j
    vals, vecs = np.linalg.eigh(kc)
    order = np.argsort(vals)[::-1][:30]
    vals = np.maximum(vals[order], 0.0)
    vecs = vecs[:, order]
    oracle = kc @ (vecs / np.sqrt(vals))

    worst = 1.0
    for jcol in range(30):
        cos = abs(float(fitted[:, jcol] @ oracle[:, jcol]))
        cos /= np.linalg.norm(fitted[:, jcol]) * np.linalg.norm(oracle[:, jcol])
        worst = min(worst, cos)
        assert cos > 0.999, f"component {jcol}: |cos|={cos:.6f}"

    curve = eeg.explained_variance_curve(model)
    assert np.all(np.diff(curve) >= -1e-12)
    assert curve[-1] <= 1.0 + 1e-9
    _report("KPCA oracle", f"worst |cos| {worst:.6f}, curve monotone")


def test_criterion_dsp_suite():
    """Band-pass unity +/-0.5 dB at 30 Hz, >=30 dB down at 300 Hz; notch
    >=30 dB at 60 Hz, <=1 dB at 45 Hz; resampler length and tone amplitude
    within 1% (all by sine injection)."""
    fs = 1000.0

    def causal_gain_db(filt, freq):
        x = sine(freq, fs, 3.0)
        y = lfilter(filt, x)[1000:]
        return 20.0 * np.log10(np.sqrt(np.mean(y**2)) / np.sqrt(np.mean(x[1000:] ** 2)) + 1e-300)

    bp = dsp.design_butterworth_bandpass(4, 0.1, 70.0, fs)
    g30 = causal_gain_db(bp, 30.0)
    g300 = causal_gain_db(bp, 300.0)
    assert abs(g30) <= 0.5, f"band-pass gain at 30 Hz: {g30:.3f} dB"
    assert g300 <= -30.0, f"band-pass gain at 300 Hz: {g300:.1f} dB"

    notch = dsp.design_iir_notch(60.0, 30.0, fs)
    g60 = causal_gain_db(notch, 60.0)
    g45 = causal_gain_db(notch, 45.0)
    assert g60 <= -30.0, f"notch gain at 60 Hz: {g60:.1f} dB"
    assert g45 >= -1.0, f"notch gain at 45 Hz: {g45:.2f} dB"

    x = sine(1000.0, 16000.0, 1.0)
    y = dsp.resample_poly(x, 16000, 15000)
    assert len(y) == 15000
    amp = sine_fit_amplitude(y[200:-200], 1000.0, 15000.0)
    assert abs(amp - 1.0) <= 0.01

    _report("DSP suite", f"bp 30Hz {g30:+.2f} dB / 300Hz {g300:.0f} dB, "
                         f"notch 60Hz {g60:.0f} dB / 45Hz {g45:+.2f} dB, tone amp {amp:.4f}")


def test_criterion_feature_golden_suite():
    """440 Hz -> chroma class A; 200 Hz sawtooth pitch within 2 Hz; full-scale
    sine loudness -3.01 +/-0.1 dBFS; alternating +/-1 kurtosis -2; white-noise
    rolloff 6375 Hz +/-5%; 120 BPM clicks -> tempogram lag 15-16; total 571."""
    grid = dsp.frame_grid_for_rate(FS_AUDIO, 31.0)

    def features(x):
        return acoustic.extract_acoustic_set(x, grid).features

    chroma = features(sine(440.0, FS_AUDIO, 0.8))["cqt_chroma"]
    cls = int(np.argmax(chroma.values[chroma.n_frames // 2]))
    assert cls == 9  # A

    t = np.arange(FS_AUDIO) / FS_AUDIO
    saw = 2.0 * ((t * 200.0) % 1.0) - 1.0
    pitch = features(saw)["pitch"]
    voiced = pitch.values[pitch.values[:, 0] > 0, 0]
    pitch_med = float(np.median(voiced))
    assert abs(pitch_med - 200.0) <= 2.0

    scalars = features(sine(1000.0, FS_AUDIO, 1.0))
    loud = float(scalars["loudness"].values[scalars["loudness"].n_frames // 2, 0])
    assert abs(loud - (-3.01)) <= 0.1

    kurt = eeg.excess_kurtosis(np.resize([1.0, -1.0], 64))
    assert kurt == pytest.approx(-2.0, abs=1e-9)

    rng = np.random.default_rng(8)
    noise_scalars = features(rng.standard_normal(2 * FS_AUDIO))
    rolloff = float(np.mean(noise_scalars["rolloff"].values))
    assert abs(rolloff - 6375.0) <= 0.05 * 6375.0

    clicks = np.zeros(4 * FS_AUDIO)
    period = int(round(FS_AUDIO * 60.0 / 120.0))
    for pos in range(0, len(clicks), period):
        clicks[pos : pos + 30] = 1.0
    tempo = features(clicks)["tempogram"]
    mid = tempo.values[tempo.n_frames // 2]
    peak = int(np.argmax(mid[8:])) + 8
    assert peak in (15, 16)

    assert acoustic.TOTAL_DIM == 571

    _report("feature golden suite",
            f"chroma A, pitch {pitch_med:.1f} Hz, loudness {loud:.2f} dBFS, "
            f"kurtosis -2, rolloff {rolloff:.0f} Hz, tempo lag {peak}, dim 571")


def test_criterion_determinism(tmp_path, monkeypatch):
    """Two full pipeline runs with the same config/seed produce byte-identical
    metrics JSON and checkpoints."""
    start = time.monotonic()

    def full_run(tag: str) -> dict:
        # identical resolved configs: relative paths, separate working dirs
        root = tmp_path / tag
        config = root / "run.ini"
        root.mkdir()
        monkeypatch.chdir(root)
        config.write_text(
            "[paths]\n"
            "data_root = data\n"
            "out_dir = out\n"
            "[run]\nseed = 4\n"
            "[dataset]\nn_trials = 12\nduration_s = 0.5\n"
            "[kpca]\nscope = pooled\n"
            "[synthesis]\nfilters1 = 8\nfilters2 = 4\n"
            "[regression]\nhidden = 8\n"
            "[training]\nbatch_size = 4\nlearning_rate = 0.003\n"
        )
        steps = [
            ["gen-data"], ["split"], ["preprocess"], ["extract-eeg-feats"],
            ["fit-kpca"], ["train-synth", "--epochs", "3"],
            ["train-regress", "--epochs", "2"], ["eval-synth"], ["eval-regress"],
        ]
        for step in steps:
            assert cli.main(step + ["--config", str(config)]) == 0, f"{tag}: {step} failed"
        out = root / "out"
        payload = {}
        for path in sorted(out.rglob("*")):
            if path.suffix in (".json", ".ckpt") and path.is_file():
                payload[str(path.relative_to(out))] = path.read_bytes()
        return payload

    first = full_run("run1")
    second = full_run("run2")
    assert first.keys() == second.keys()
    assert any(name.endswith(".ckpt") for name in first)
    assert "metrics/synthesis.json" in first and "metrics/acoustic.json" in first
    for name in first:
        assert first[name] == second[name], f"byte mismatch in {name}"

    elapsed = time.monotonic() - start
    _report("determinism", f"{len(first)} artifacts byte-identical across runs, {elapsed:.0f}s")
