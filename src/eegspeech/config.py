"""Run configuration: stock defaults, INI-style config files, seed derivation.

Every field carries the stock pipeline default (0.1/70 Hz band,
60 Hz notch, 31 Hz grid, 155->30 KPCA with degree 3, 256/32 filters, x5 x3
upsampling, dropout 0.2, 128 GRU units, 5000/500 epochs, batch 100). Unknown
keys are rejected; missing keys take the defaults; the resolved config is
echoed next to the outputs for provenance.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from . import dsp
from .dataio import AUDIO_RATE_HZ, EEG_SAMPLE_RATE_HZ, SYNTH_DURATION_RANGE_S
from .errors import ConfigError
from .serialize import atomic_open


@dataclass
class RunConfig:
    # paths
    data_root: str = "data"
    out_dir: str = "out"
    # run
    seed: int = 0
    # dataset (synthetic generator + split)
    n_trials: int = 50
    duration_s: float = 2.0
    train_ratio: float = 0.8
    val_ratio: float = 0.1
    test_ratio: float = 0.1
    eeg_format: str = "csv"  # EEG file format gen-data writes: "csv" or "f32"
    # preprocess
    bandpass_lo_hz: float = 0.1
    bandpass_hi_hz: float = 70.0
    bandpass_order: int = 4
    notch_hz: float = 60.0
    notch_q: float = 30.0
    use_ica: bool = False
    ica_kurtosis_threshold: float = 8.0
    # features
    frame_rate_hz: float = 31.0
    # kpca
    kpca_out_dim: int = 30
    kpca_degree: int = 3
    kpca_gamma: float | None = None  # None = 1/feature_dim
    kpca_coef0: float = 1.0
    kpca_scope: str = "per-subject"  # or "pooled"
    kpca_max_train_frames: int = 4000
    # synthesis model
    synth_filters1: int = 256
    synth_filters2: int = 32
    synth_kernel: int = 3
    synth_epochs: int = 5000
    # regression model
    gru_hidden: int = 128
    regress_epochs: int = 500
    # training
    batch_size: int = 100
    learning_rate: float = 1e-3
    dropout: float = 0.2


# (section, key) -> (field name, type tag)
_SCHEMA: dict[tuple[str, str], tuple[str, str]] = {
    ("paths", "data_root"): ("data_root", "str"),
    ("paths", "out_dir"): ("out_dir", "str"),
    ("run", "seed"): ("seed", "int"),
    ("dataset", "n_trials"): ("n_trials", "int"),
    ("dataset", "duration_s"): ("duration_s", "float"),
    ("dataset", "train_ratio"): ("train_ratio", "float"),
    ("dataset", "val_ratio"): ("val_ratio", "float"),
    ("dataset", "test_ratio"): ("test_ratio", "float"),
    ("dataset", "eeg_format"): ("eeg_format", "str"),
    ("preprocess", "bandpass_lo_hz"): ("bandpass_lo_hz", "float"),
    ("preprocess", "bandpass_hi_hz"): ("bandpass_hi_hz", "float"),
    ("preprocess", "bandpass_order"): ("bandpass_order", "int"),
    ("preprocess", "notch_hz"): ("notch_hz", "float"),
    ("preprocess", "notch_q"): ("notch_q", "float"),
    ("preprocess", "use_ica"): ("use_ica", "bool"),
    ("preprocess", "ica_kurtosis_threshold"): ("ica_kurtosis_threshold", "float"),
    ("features", "frame_rate_hz"): ("frame_rate_hz", "float"),
    ("kpca", "out_dim"): ("kpca_out_dim", "int"),
    ("kpca", "degree"): ("kpca_degree", "int"),
    ("kpca", "gamma"): ("kpca_gamma", "gamma"),
    ("kpca", "coef0"): ("kpca_coef0", "float"),
    ("kpca", "scope"): ("kpca_scope", "str"),
    ("kpca", "max_train_frames"): ("kpca_max_train_frames", "int"),
    ("synthesis", "filters1"): ("synth_filters1", "int"),
    ("synthesis", "filters2"): ("synth_filters2", "int"),
    ("synthesis", "kernel_size"): ("synth_kernel", "int"),
    ("synthesis", "epochs"): ("synth_epochs", "int"),
    ("regression", "hidden"): ("gru_hidden", "int"),
    ("regression", "epochs"): ("regress_epochs", "int"),
    ("training", "batch_size"): ("batch_size", "int"),
    ("training", "learning_rate"): ("learning_rate", "float"),
    ("training", "dropout"): ("dropout", "float"),
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _convert(section: str, key: str, raw: str, tag: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "gamma" and raw.lower() in ("auto", "none", ""):
            return None
        if tag in ("float", "gamma"):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(raw)
            return value
        if tag == "bool":
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {tag}") from exc


def validate_config(cfg: RunConfig) -> None:
    def positive(name, value):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")

    for name in ("n_trials", "bandpass_order", "kpca_out_dim", "kpca_degree",
                 "kpca_max_train_frames", "synth_filters1", "synth_filters2",
                 "synth_kernel", "synth_epochs", "gru_hidden", "regress_epochs",
                 "batch_size"):
        positive(name, getattr(cfg, name))
    positive("learning_rate", cfg.learning_rate)
    lo, hi = SYNTH_DURATION_RANGE_S
    if not (lo <= cfg.duration_s <= hi):
        raise ConfigError(f"duration_s must be in [{lo:g}, {hi:g}], got {cfg.duration_s}")
    # dsp holds the valid ranges: build the filters and grids the stages will build
    try:
        dsp.design_butterworth_bandpass(cfg.bandpass_order, cfg.bandpass_lo_hz, cfg.bandpass_hi_hz,
                                        EEG_SAMPLE_RATE_HZ)
        dsp.design_iir_notch(cfg.notch_hz, cfg.notch_q, EEG_SAMPLE_RATE_HZ)
    except ValueError as exc:
        raise ConfigError(f"[preprocess] {exc}") from exc
    try:
        for fs in (EEG_SAMPLE_RATE_HZ, AUDIO_RATE_HZ):
            dsp.frame_grid_for_rate(fs, cfg.frame_rate_hz)
    except ValueError as exc:
        raise ConfigError(f"[features] {exc}") from exc
    if not (0.0 <= cfg.dropout < 1.0):
        raise ConfigError(f"dropout must be in [0, 1), got {cfg.dropout}")
    ratios = (cfg.train_ratio, cfg.val_ratio, cfg.test_ratio)
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r <= 0 for r in ratios):
        raise ConfigError(f"split ratios must be positive and sum to 1, got {ratios}")
    if cfg.kpca_scope not in ("per-subject", "pooled"):
        raise ConfigError(f"kpca scope must be 'per-subject' or 'pooled', got {cfg.kpca_scope!r}")
    if cfg.eeg_format not in ("csv", "f32"):
        raise ConfigError(f"eeg_format must be 'csv' or 'f32', got {cfg.eeg_format!r}")
    if cfg.kpca_gamma is not None and cfg.kpca_gamma <= 0:
        raise ConfigError(f"kpca gamma must be positive or auto, got {cfg.kpca_gamma}")


def parse_config(path: str | Path | None) -> RunConfig:
    """Read an INI-style config; missing file or empty file means all defaults."""
    cfg = RunConfig()
    if path is None:
        validate_config(cfg)
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown config key [{section}] {key}")
            field_name, tag = _SCHEMA[(section, key)]
            setattr(cfg, field_name, _convert(section, key, raw, tag))
    validate_config(cfg)
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Resolved config as INI text; parse_config(render) is a fixpoint."""
    by_section: dict[str, list[tuple[str, str]]] = {}
    for (section, key), (field_name, tag) in _SCHEMA.items():
        value = getattr(cfg, field_name)
        if tag == "gamma":
            text = "auto" if value is None else repr(value)
        elif tag == "bool":
            text = "true" if value else "false"
        elif tag == "float":
            text = repr(float(value))
        else:
            text = str(value)
        by_section.setdefault(section, []).append((key, text))
    lines = []
    for section in by_section:
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {text}" for key, text in by_section[section])
        lines.append("")
    return "\n".join(lines)


def echo_config(cfg: RunConfig, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved_config.ini"
    with atomic_open(path) as fh:
        fh.write(render_config(cfg))
    return path


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()[:16]


def stage_seed(root_seed: int, stage: str) -> int:
    """Stable per-stage seed so stages are independently reproducible."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
