"""Glue between the modules: dataset assembly for the two tasks, KPCA scoping,
and per-kind regression bundles with their scalers.

The CLI drives these functions stage by stage through files; tests can call
them directly on in-memory objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acoustic, dsp, eeg, nn
from .config import RunConfig, stage_seed
from .dataio import AUDIO_RATE_HZ, EEG_SAMPLE_RATE_HZ, AudioClip, DatasetManifest, TrialRecord, read_wav
from .errors import DataError
from .serialize import load_container, save_container


def preprocess_options(cfg: RunConfig) -> eeg.PreprocessOptions:
    return eeg.PreprocessOptions(
        bandpass_lo_hz=cfg.bandpass_lo_hz,
        bandpass_hi_hz=cfg.bandpass_hi_hz,
        bandpass_order=cfg.bandpass_order,
        notch_hz=cfg.notch_hz,
        notch_q=cfg.notch_q,
        run_ica=cfg.use_ica,
        ica_kurtosis_threshold=cfg.ica_kurtosis_threshold,
        ica_seed=stage_seed(cfg.seed, "ica"),
    )


def eeg_grid(cfg: RunConfig) -> dsp.FrameGrid:
    return dsp.frame_grid_for_rate(EEG_SAMPLE_RATE_HZ, cfg.frame_rate_hz)


def audio_grid(cfg: RunConfig) -> dsp.FrameGrid:
    """The EEG grid at AUDIO_RATE_HZ: acoustic frame k is centred on EEG frame k."""
    grid = eeg_grid(cfg)
    return dsp.FrameGrid(AUDIO_RATE_HZ, grid.hop * (AUDIO_RATE_HZ // EEG_SAMPLE_RATE_HZ), grid.target_rate_hz)


def clip_at_rate(clip: AudioClip) -> np.ndarray:
    """The clip resampled to AUDIO_RATE_HZ, the rate of the waveform and acoustic targets."""
    return dsp.resample_poly(clip.samples, clip.sample_rate_hz, AUDIO_RATE_HZ)


def audio_at_rate(trial: TrialRecord, cfg: RunConfig) -> np.ndarray:
    return clip_at_rate(trial.audio)


# ---------------------------------------------------------------------------
# Synthesis task

def synthesis_example(trial: TrialRecord, clean: eeg.CleanEeg, cfg: RunConfig) -> dict:
    """Aligned (EEG input, waveform target) pair for one trial.

    The target is the recorded audio resampled to 15 kHz; both sides are
    truncated so the output is exactly 15x the input length.
    """
    factor = AUDIO_RATE_HZ // EEG_SAMPLE_RATE_HZ
    x = clean.data.T
    y = audio_at_rate(trial, cfg)
    t_in = min(len(x), len(y) // factor)
    if t_in < 1:
        raise DataError(f"trial {trial.id}: too short to align EEG and audio")
    return {
        "id": trial.id,
        "subject": trial.subject,
        "condition": trial.condition,
        "x": x[:t_in],
        "y": y[: factor * t_in, None],
    }


def build_synthesis_dataset(
    manifest: DatasetManifest, ids, cfg: RunConfig, cleans: dict[str, eeg.CleanEeg]
) -> list[dict]:
    """Examples from the trials' clean EEG and WAVs; the raw EEG is not read."""
    return [synthesis_example(TrialRecord(ref.id, ref.subject, ref.condition, cleans[ref.id],
                                          read_wav(manifest.root / ref.wav_path)), cleans[ref.id], cfg)
            for ref in map(manifest.by_id, ids)]


def train_synthesis(examples: list[dict], cfg: RunConfig, val_examples: list[dict] | None = None):
    model = nn.build_synthesis_model(
        seed=stage_seed(cfg.seed, "synthesis-init"),
        filters=(cfg.synth_filters1, cfg.synth_filters2),
        kernel_size=cfg.synth_kernel,
        dropout_rate=cfg.dropout,
    )
    train_cfg = nn.TrainConfig(
        epochs=cfg.synth_epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        seed=stage_seed(cfg.seed, "synthesis-train"),
    )
    pairs = [(ex["x"], ex["y"]) for ex in examples]
    val_pairs = [(ex["x"], ex["y"]) for ex in val_examples] if val_examples else None
    history = nn.train(model, pairs, train_cfg, val_pairs)
    return model, history


# ---------------------------------------------------------------------------
# KPCA stage

def kpca_scope_key(subject: int, cfg: RunConfig) -> str:
    return "pooled" if cfg.kpca_scope == "pooled" else f"subject_{subject}"


def fit_kpca_models(
    feature_seqs: dict[str, eeg.StatFeatureSeq],
    subjects: dict[str, int],
    train_ids,
    cfg: RunConfig,
) -> dict[str, eeg.KpcaModel]:
    """One KPCA model per scope key, fit on training frames only.

    Frame counts above kpca_max_train_frames are subsampled deterministically.
    """
    buckets: dict[str, list[np.ndarray]] = {}
    for trial_id in train_ids:
        key = kpca_scope_key(subjects[trial_id], cfg)
        buckets.setdefault(key, []).append(feature_seqs[trial_id].values)
    models = {}
    rng = np.random.default_rng(stage_seed(cfg.seed, "kpca-subsample"))
    for key in sorted(buckets):
        frames = np.vstack(buckets[key])
        if len(frames) > cfg.kpca_max_train_frames:
            picks = np.sort(rng.choice(len(frames), size=cfg.kpca_max_train_frames, replace=False))
            frames = frames[picks]
        models[key] = eeg.kpca_fit(
            frames, out_dim=cfg.kpca_out_dim, degree=cfg.kpca_degree,
            gamma=cfg.kpca_gamma, coef0=cfg.kpca_coef0,
        )
    return models


def reduce_features(seq: eeg.StatFeatureSeq, subject: int, models: dict[str, eeg.KpcaModel],
                    cfg: RunConfig) -> np.ndarray:
    key = kpca_scope_key(subject, cfg)
    if key not in models:
        raise DataError(f"no fitted KPCA model for scope {key!r}")
    return eeg.kpca_transform(models[key], seq.values)


# ---------------------------------------------------------------------------
# Regression task

@dataclass
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(rows: np.ndarray) -> "Scaler":
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
        return Scaler(mean, np.where(std > 1e-12, std, 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class RegressorBundle:
    """Trained per-kind GRU regressor plus its input/target standardization."""

    kind: str
    model: nn.RegressionModel
    in_scaler: Scaler
    out_scaler: Scaler

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = self.in_scaler.apply(np.asarray(features, dtype=np.float64)).astype(np.float32)
        pred = self.model.predict(z[None, ...])[0].astype(np.float64)
        return self.out_scaler.invert(pred)

    def save(self, path: str | Path) -> None:
        arrays = {
            **self.model.named_params(),
            "in_mean": self.in_scaler.mean,
            "in_std": self.in_scaler.std,
            "out_mean": self.out_scaler.mean,
            "out_std": self.out_scaler.std,
        }
        save_container(path, "regressor-bundle", {"kind": self.kind, "model": self.model.config}, arrays)

    @staticmethod
    def load(path: str | Path) -> "RegressorBundle":
        """The bundle saved at `path`; a DataError naming the file unless its
        kind, model and scalers agree on the feature dimensions and every
        array is finite."""
        _, meta, arrays = load_container(path, expect_kind="regressor-bundle")
        try:
            kind, out_dim = meta["kind"], meta["model"]["out_dim"]
            if not isinstance(kind, str) or kind not in acoustic.FEATURE_DIMS:
                raise DataError(f"{path}: unknown feature kind {kind!r}")
            if acoustic.FEATURE_DIMS[kind] != out_dim:
                raise DataError(f"{path}: kind {kind} has {acoustic.FEATURE_DIMS[kind]} dims, "
                                f"but its model predicts {out_dim}")
            bundle = RegressorBundle(
                kind, nn.restore_model("regression", meta["model"], arrays, path),
                Scaler(arrays["in_mean"], arrays["in_std"]),
                Scaler(arrays["out_mean"], arrays["out_std"]),
            )
        except (KeyError, TypeError) as exc:
            raise DataError(f"{path}: incomplete regressor bundle ({exc!r})") from exc
        for side, scaler, dim in (("in", bundle.in_scaler, bundle.model.in_dim),
                                  ("out", bundle.out_scaler, out_dim)):
            for name, values in (("mean", scaler.mean), ("std", scaler.std)):
                if values.shape != (dim,):
                    raise DataError(f"{path}: {side}_{name} has shape {values.shape}, expected ({dim},)")
                if not np.isfinite(values).all():
                    raise DataError(f"{path}: {side}_{name} holds NaN or inf")
        return bundle


def regression_example(trial_id: str, subject: int, condition: str,
                       reduced: np.ndarray, targets: acoustic.AcousticSet) -> dict:
    """Frame k of the features against frame k of every target, centred on the same moment; the
    `min` keeps the span both cover, as a trial's EEG and audio may differ by 100 ms (TrialRecord)."""
    n = min(len(reduced), targets.n_frames)
    return {
        "id": trial_id,
        "subject": subject,
        "condition": condition,
        "features": reduced[:n],
        "targets": {kind: targets.features[kind].values[:n] for kind in acoustic.FEATURE_ORDER},
    }


def train_regression_kind(
    kind: str, examples: list[dict], cfg: RunConfig, epochs: int | None = None
) -> tuple[RegressorBundle, nn.TrainHistory]:
    in_scaler = Scaler.fit(np.vstack([ex["features"] for ex in examples]))
    out_scaler = Scaler.fit(np.vstack([ex["targets"][kind] for ex in examples]))
    pairs = [
        (in_scaler.apply(ex["features"]), out_scaler.apply(ex["targets"][kind]))
        for ex in examples
    ]
    model = nn.build_regression_model(
        out_dim=acoustic.FEATURE_DIMS[kind],
        seed=stage_seed(cfg.seed, f"regress-init-{kind}"),
        hidden=cfg.gru_hidden,
        in_dim=cfg.kpca_out_dim,
        dropout_rate=cfg.dropout,
    )
    train_cfg = nn.TrainConfig(
        epochs=cfg.regress_epochs if epochs is None else epochs,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        seed=stage_seed(cfg.seed, f"regress-train-{kind}"),
    )
    history = nn.train(model, pairs, train_cfg)
    return RegressorBundle(kind, model, in_scaler, out_scaler), history
