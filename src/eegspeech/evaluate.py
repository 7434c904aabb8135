"""RMSE metrics, per-subject and per-kind report tables, and spectrogram export."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .acoustic import FEATURE_ORDER, label_for_kind
from .errors import DataError
from .serialize import atomic_open

SYNTH_LENGTH_TOLERANCE = 15  # samples; one EEG step of slack before warning


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """sqrt(mean((pred - truth)^2)) over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty input")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


@dataclass
class MetricsReport:
    scope: str  # "synthesis" | "acoustic"
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scope not in ("synthesis", "acoustic"):
            raise ValueError(f"unknown report scope {self.scope!r}")
        for row in self.rows:
            if row["rmse"] < 0:
                raise ValueError("negative RMSE in report")

    def to_json(self, path: str | Path | None = None) -> str:
        doc = json.dumps(
            {"scope": self.scope, "rows": self.rows, "metadata": self.metadata},
            sort_keys=True,
            indent=1,
        ) + "\n"
        if path is not None:
            with atomic_open(path) as fh:
                fh.write(doc)
        return doc

    def to_csv(self, path: str | Path) -> None:
        cols = ["subject", "condition"] + (["kind", "label"] if self.scope == "acoustic" else []) + ["rmse", "n_trials"]
        with atomic_open(path) as fh:
            fh.write(",".join(cols) + "\n")
            for row in self.rows:
                fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")

    @staticmethod
    def from_json(path: str | Path) -> "MetricsReport":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return MetricsReport(doc["scope"], doc["rows"], doc["metadata"])


def _grouped_mean(per_trial: list[dict], keys: tuple[str, ...]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for item in per_trial:
        groups.setdefault(tuple(item[k] for k in keys), []).append(item)
    rows = []
    for gkey in sorted(groups, key=str):
        items = groups[gkey]
        row = dict(zip(keys, gkey))
        row["rmse"] = float(np.mean([i["rmse"] for i in items]))
        row["n_trials"] = len(items)
        rows.append(row)
    return rows


def evaluate_synthesis(predict_fn, test_trials: list[dict], metadata: dict | None = None) -> MetricsReport:
    """Per-trial waveform RMSE, averaged per subject x condition.

    test_trials entries: {id, subject, condition, eeg: (T, 31), audio: (L,)}.
    predict_fn maps (T, 31) -> (15*T,) or (15*T, 1). Length mismatches beyond
    15 samples trigger a warning; the overlap is always what gets scored.
    """
    if not test_trials:
        raise ValueError("empty test set")
    per_trial = []
    for trial in test_trials:
        pred = np.asarray(predict_fn(trial["eeg"]), dtype=np.float64).reshape(-1)
        truth = np.asarray(trial["audio"], dtype=np.float64).reshape(-1)
        if abs(len(pred) - len(truth)) > SYNTH_LENGTH_TOLERANCE:
            warnings.warn(
                f"trial {trial['id']}: prediction length {len(pred)} vs target {len(truth)}; truncating"
            )
        n = min(len(pred), len(truth))
        per_trial.append(
            {
                "subject": trial["subject"],
                "condition": trial["condition"],
                "rmse": rmse(pred[:n], truth[:n]),
            }
        )
    return MetricsReport("synthesis", _grouped_mean(per_trial, ("subject", "condition")), metadata or {})


def evaluate_acoustic(predict_fns: dict, test_trials: list[dict], metadata: dict | None = None) -> MetricsReport:
    """Per-kind RMSE pooled over test frames and dimensions, grouped by
    subject x condition and labeled f1..f16.

    predict_fns maps kind -> callable((T, 30) reduced features) -> (T, dim).
    test_trials entries: {id, subject, condition, features: (T, 30),
    targets: {kind: (T, dim)}}.
    """
    missing = [k for k in FEATURE_ORDER if k not in predict_fns]
    if missing:
        raise DataError(f"missing regression model for kinds: {missing}")
    per_trial = []
    for trial in test_trials:
        for kind in FEATURE_ORDER:
            pred = np.asarray(predict_fns[kind](trial["features"]), dtype=np.float64)
            truth = np.asarray(trial["targets"][kind], dtype=np.float64)
            n = min(len(pred), len(truth))
            per_trial.append(
                {
                    "subject": trial["subject"],
                    "condition": trial["condition"],
                    "kind": kind,
                    "rmse": rmse(pred[:n], truth[:n]),
                }
            )
    rows = _grouped_mean(per_trial, ("subject", "condition", "kind"))
    for row in rows:
        row["label"] = label_for_kind(row["kind"])
    rows.sort(key=lambda r: (r["subject"], r["condition"], FEATURE_ORDER.index(r["kind"])))
    return MetricsReport("acoustic", rows, metadata or {})


def mean_baseline_rmse(train_targets: list[np.ndarray], test_targets: list[np.ndarray]) -> float:
    """RMSE of the constant per-dimension training-mean predictor."""
    stacked = np.vstack([np.atleast_2d(t.reshape(len(t), -1) if t.ndim > 1 else t[:, None]) for t in train_targets])
    mean = stacked.mean(axis=0)
    sq = 0.0
    count = 0
    for t in test_targets:
        t2 = t.reshape(len(t), -1) if t.ndim > 1 else t[:, None]
        sq += float(np.sum((t2 - mean) ** 2))
        count += t2.size
    return float(np.sqrt(sq / count))


# ---------------------------------------------------------------------------
# Spectrogram export (figure analogs)

def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """8-bit binary PGM; image values already in 0..255."""
    img = np.asarray(image)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.astype(np.uint8).tobytes())


def spectrogram_export(
    wave: np.ndarray,
    out_prefix: str | Path,
    fs_hz: int = 15000,
    fft_size: int = 1024,
    hop: int | None = None,
    floor_db: float = -80.0,
) -> tuple[Path, Path]:
    """Write the log-power STFT as CSV and a grayscale PGM (frames x bins).

    Power is scaled to dB relative to the frame-matrix maximum and clipped at
    floor_db; silence maps to a uniform minimum-value image.
    """
    out_prefix = Path(out_prefix)
    if hop is None:
        hop = dsp.frame_grid_for_rate(fs_hz).hop
    spec = dsp.stft_power(np.asarray(wave, dtype=np.float64), fft_size, hop, fs_hz)
    peak = spec.power.max()
    if peak <= 0:
        db = np.full_like(spec.power, floor_db)
    else:
        db = 10.0 * np.log10(np.maximum(spec.power / peak, 10.0 ** (floor_db / 10.0)))
    csv_path = out_prefix.with_suffix(".csv")
    pgm_path = out_prefix.with_suffix(".pgm")
    try:
        with atomic_open(csv_path) as fh:
            np.savetxt(fh, db, fmt="%.6g", delimiter=",")
        image = np.round((db - floor_db) / (-floor_db) * 255.0)
        write_pgm(pgm_path, image)
    except OSError as exc:
        raise DataError(f"cannot write spectrogram to {out_prefix}: {exc}") from exc
    return csv_path, pgm_path
