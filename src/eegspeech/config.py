"""Run configuration: INI-style config files, seed derivation.

Each RunConfig field declares the `[section] key` a config file sets it by
and carries the stock pipeline default. The stock values live only here: the
library functions take each setting as a required argument, so a library call
and the CLI cannot run at different defaults. Unknown keys are rejected;
missing keys take the defaults; the resolved config is echoed next to the
outputs for provenance.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import typing
from pathlib import Path

from . import dsp
from .dataio import EEG_SAMPLE_RATE_HZ, SYNTH_DURATION_RANGE_S
from .eeg import MWA_WINDOW
from .errors import ConfigError
from .serialize import atomic_open


def _key(section: str, key: str, default):
    """A field that a config file sets as `key` under `[section]`."""
    return dataclasses.field(default=default, metadata={"ini": (section, key)})


@dataclasses.dataclass
class RunConfig:
    data_root: str = _key("paths", "data_root", "data")
    out_dir: str = _key("paths", "out_dir", "out")
    seed: int = _key("run", "seed", 0)
    n_trials: int = _key("dataset", "n_trials", 50)
    duration_s: float = _key("dataset", "duration_s", 2.0)
    train_ratio: float = _key("dataset", "train_ratio", 0.8)
    val_ratio: float = _key("dataset", "val_ratio", 0.1)
    test_ratio: float = _key("dataset", "test_ratio", 0.1)
    eeg_format: str = _key("dataset", "eeg_format", "csv")  # EEG file format gen-data writes: "csv" or "f32"
    bandpass_lo_hz: float = _key("preprocess", "bandpass_lo_hz", 0.1)
    bandpass_hi_hz: float = _key("preprocess", "bandpass_hi_hz", 70.0)
    bandpass_order: int = _key("preprocess", "bandpass_order", 4)
    notch_hz: float = _key("preprocess", "notch_hz", 60.0)
    notch_q: float = _key("preprocess", "notch_q", 30.0)
    use_ica: bool = _key("preprocess", "use_ica", False)
    ica_kurtosis_threshold: float = _key("preprocess", "ica_kurtosis_threshold", 8.0)
    frame_rate_hz: float = _key("features", "frame_rate_hz", 31.0)
    kpca_out_dim: int = _key("kpca", "out_dim", 30)
    kpca_degree: int = _key("kpca", "degree", 3)
    kpca_gamma: float | None = _key("kpca", "gamma", None)  # None (auto) = 1/feature_dim
    kpca_coef0: float = _key("kpca", "coef0", 1.0)
    kpca_scope: str = _key("kpca", "scope", "per-subject")  # or "pooled"
    kpca_max_train_frames: int = _key("kpca", "max_train_frames", 4000)
    synth_filters1: int = _key("synthesis", "filters1", 256)
    synth_filters2: int = _key("synthesis", "filters2", 32)
    synth_kernel: int = _key("synthesis", "kernel_size", 3)
    synth_epochs: int = _key("synthesis", "epochs", 5000)
    gru_hidden: int = _key("regression", "hidden", 128)
    regress_epochs: int = _key("regression", "epochs", 500)
    batch_size: int = _key("training", "batch_size", 100)
    learning_rate: float = _key("training", "learning_rate", 1e-3)
    dropout: float = _key("training", "dropout", 0.2)


# field name -> declared type: int, float, bool, str, or float | None (a float or auto)
FIELD_TYPES: dict[str, object] = typing.get_type_hints(RunConfig)
# (section, key) -> (field name, declared type), in field order
_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    f.metadata["ini"]: (f.name, FIELD_TYPES[f.name]) for f in dataclasses.fields(RunConfig)
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _convert(section: str, key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is bool:
            low = raw.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        if kind is str:
            return raw
        if kind is not float and raw.lower() in ("auto", "none", ""):  # float | None
            return None
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
        return value
    except ValueError as exc:
        name = getattr(kind, "__name__", "float or auto")
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {name}") from exc


def validate_config(cfg: RunConfig) -> None:
    # Every count (an int setting other than the seed) is positive and every number finite.
    # A str setting is what a config file line gives back: not empty, one line, no
    # surrounding whitespace.
    for name, kind in FIELD_TYPES.items():
        value = getattr(cfg, name)
        if kind is int and name != "seed" and value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if kind is str and value == "":
            raise ConfigError(f"{name} must not be empty")
        if kind is str and ("\n" in value or "\r" in value or value != value.strip()):
            raise ConfigError(f"{name} must be one line without surrounding whitespace, got {value!r}")
    if cfg.learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {cfg.learning_rate}")
    lo, hi = SYNTH_DURATION_RANGE_S
    if not (lo <= cfg.duration_s <= hi):
        raise ConfigError(f"duration_s must be in [{lo:g}, {hi:g}], got {cfg.duration_s}")
    # dsp holds the valid ranges: build the filters and the EEG grid (the audio grid scales it)
    try:
        dsp.design_butterworth_bandpass(cfg.bandpass_order, cfg.bandpass_lo_hz, cfg.bandpass_hi_hz,
                                        EEG_SAMPLE_RATE_HZ)
        dsp.design_iir_notch(cfg.notch_hz, cfg.notch_q, EEG_SAMPLE_RATE_HZ)
    except ValueError as exc:
        raise ConfigError(f"[preprocess] {exc}") from exc
    try:
        hop = dsp.frame_grid_for_rate(EEG_SAMPLE_RATE_HZ, cfg.frame_rate_hz).hop
    except ValueError as exc:
        raise ConfigError(f"[features] {exc}") from exc
    if hop < MWA_WINDOW:
        raise ConfigError(f"[features] frame_rate_hz = {cfg.frame_rate_hz:g} gives an EEG hop of {hop} samples, "
                          f"under the {MWA_WINDOW}-sample moving window average")
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
    # configparser would copy [DEFAULT] keys into every section, or drop them with no section
    if parser.defaults():
        raise ConfigError(f"config keys under [DEFAULT] are not allowed: {', '.join(parser.defaults())}")
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown config key [{section}] {key}")
            field_name, kind = _SCHEMA[(section, key)]
            setattr(cfg, field_name, _convert(section, key, raw, kind))
    validate_config(cfg)
    return cfg


def _render_value(value, kind) -> str:
    if value is None:
        return "auto"
    if kind is bool:
        return "true" if value else "false"
    if kind in (int, str):
        return str(value)
    return repr(float(value))


def _render_sections(cfg: RunConfig) -> dict[str, str]:
    """section -> its INI text, sections and keys in field order."""
    lines: dict[str, list[str]] = {}
    for (section, key), (field_name, kind) in _SCHEMA.items():
        text = _render_value(getattr(cfg, field_name), kind)
        lines.setdefault(section, [f"[{section}]"]).append(f"{key} = {text}")
    return {section: "\n".join(block) + "\n" for section, block in lines.items()}


def render_config(cfg: RunConfig) -> str:
    """Resolved config as INI text; parse_config(render) is a fixpoint."""
    return "\n".join(_render_sections(cfg).values())


def echo_config(cfg: RunConfig, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "resolved_config.ini"
    with atomic_open(path) as fh:
        fh.write(render_config(cfg))
    return path


def config_hash(cfg: RunConfig) -> str:
    """Hash of the resolved config without [paths]: where a run lives shapes no result."""
    text = "\n".join(block for section, block in _render_sections(cfg).items() if section != "paths")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def stage_seed(root_seed: int, stage: str) -> int:
    """Stable per-stage seed so stages are independently reproducible."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF
