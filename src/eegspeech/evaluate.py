"""RMSE metrics, per-subject and per-kind report tables, and spectrogram export."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import acoustic, dsp
from .acoustic import FEATURE_ORDER, label_for_kind
from .errors import DataError
from .serialize import atomic_open, write_csv, write_json


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """sqrt(mean((pred - truth)^2)) over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise DataError(f"shape mismatch {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise DataError("empty input")
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

    def to_json(self, path: str | Path) -> None:
        write_json(path, {"scope": self.scope, "rows": self.rows, "metadata": self.metadata})

    def to_csv(self, path: str | Path) -> None:
        cols = ["subject", "condition"] + (["kind", "label"] if self.scope == "acoustic" else []) + ["rmse", "n_trials"]
        write_csv(path, cols, ([str(row.get(c, "")) for c in cols] for row in self.rows))


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


def evaluate_synthesis(predict_fn, test_trials: list[dict]) -> MetricsReport:
    """Per-trial waveform RMSE, averaged per subject x condition.

    test_trials entries are `pipeline.synthesis_example` records: {id, subject,
    condition, x: (T, 31) EEG, y: (15*T, 1) waveform}. predict_fn maps
    (T, 31) -> (15*T,) or (15*T, 1); a prediction of any other length is a
    DataError.
    """
    if not test_trials:
        raise ValueError("empty test set")
    per_trial = []
    for trial in test_trials:
        pred = np.asarray(predict_fn(trial["x"]), dtype=np.float64).reshape(-1)
        truth = np.asarray(trial["y"], dtype=np.float64).reshape(-1)
        per_trial.append(
            {
                "subject": trial["subject"],
                "condition": trial["condition"],
                "rmse": rmse(pred, truth),
            }
        )
    return MetricsReport("synthesis", _grouped_mean(per_trial, ("subject", "condition")))


def evaluate_acoustic(predict_fns: dict, test_trials: list[dict]) -> MetricsReport:
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
            per_trial.append(
                {
                    "subject": trial["subject"],
                    "condition": trial["condition"],
                    "kind": kind,
                    "rmse": rmse(pred, truth),
                }
            )
    rows = _grouped_mean(per_trial, ("subject", "condition", "kind"))
    for row in rows:
        row["label"] = label_for_kind(row["kind"])
    rows.sort(key=lambda r: (r["subject"], r["condition"], FEATURE_ORDER.index(r["kind"])))
    return MetricsReport("acoustic", rows)


# ---------------------------------------------------------------------------
# Spectrogram export (figure analogs)

def pgm_bytes(image: np.ndarray) -> bytes:
    """8-bit binary PGM; image values already in 0..255."""
    img = np.asarray(image)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.astype(np.uint8).tobytes()


# The spectrogram figure's dB floor, relative to its loudest bin.
SPECTROGRAM_FLOOR_DB = -80.0


def spectrogram_export(wave: np.ndarray, out_prefix: str | Path, grid: dsp.FrameGrid) -> tuple[Path, Path]:
    """Write the log-power STFT of `wave` (samples at grid.sample_rate_hz) on
    `grid` as CSV and a grayscale PGM (frames x bins).

    The STFT is the acoustic features' (`acoustic.FFT_SIZE` points). Power is
    scaled to dB relative to the frame-matrix maximum and clipped at
    SPECTROGRAM_FLOOR_DB; silence maps to a uniform minimum-value image. Both
    files are written out whole before either replaces its previous version, so
    a failed export leaves the previous pair as it was.
    """
    out_prefix = Path(out_prefix)
    spec = dsp.stft_power(np.asarray(wave, dtype=np.float64), acoustic.FFT_SIZE, grid.hop, grid.sample_rate_hz)
    peak = spec.power.max()
    if peak <= 0:
        db = np.full_like(spec.power, SPECTROGRAM_FLOOR_DB)
    else:
        db = 10.0 * np.log10(np.maximum(spec.power / peak, 10.0 ** (SPECTROGRAM_FLOOR_DB / 10.0)))
    csv_path = out_prefix.with_suffix(".csv")
    pgm_path = out_prefix.with_suffix(".pgm")
    image = np.round((db - SPECTROGRAM_FLOOR_DB) / -SPECTROGRAM_FLOOR_DB * 255.0)
    try:
        with atomic_open(csv_path) as csv_fh, atomic_open(pgm_path, "wb") as pgm_fh:
            np.savetxt(csv_fh, db, fmt="%.6g", delimiter=",")
            pgm_fh.write(pgm_bytes(image))
    except OSError as exc:
        raise DataError(f"cannot write spectrogram to {out_prefix}: {exc}") from exc
    return csv_path, pgm_path
