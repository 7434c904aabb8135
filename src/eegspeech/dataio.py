"""Dataset model, on-disk formats, deterministic splitting, and the synthetic
paired EEG/audio generator that stands in for a private recording corpus.

Input layout: 16-bit PCM mono WAV for audio, CSV (header ch01..ch31, one row
per time sample) or a small-header float32 binary (.f32) for EEG, and a JSON
manifest listing {id, subject, condition, eeg_path, wav_path} per trial. These
readers serve input trials only, and gen-data writes its EEG in the format the
config's `eeg_format` names. Intermediates derived from the EEG (cleaned EEG,
feature sequences) are `serialize` containers, not EEG files.
"""

from __future__ import annotations

import struct
import warnings
import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import DataError
from .serialize import atomic_open, read_json, write_json

EEG_SAMPLE_RATE_HZ = 1000
# The synthesis model's x5 x3 upsampling emits 15 audio samples per EEG sample.
AUDIO_RATE_HZ = 15000
EEG_CHANNELS = 31
AUDIO_RECORD_RATE_HZ = 16000
CONDITIONS = ("spoken", "listen")

EEG_BINARY_MAGIC = b"EEGF32\x00\x01"


@dataclass(frozen=True)
class AudioClip:
    sample_rate_hz: int
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate_hz <= 0:
            raise DataError("sample rate must be positive")
        if samples.ndim != 1 or len(samples) < 1:
            raise DataError("audio must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise DataError("audio contains non-finite samples")
        if np.max(np.abs(samples)) > 1.0 + 1e-12:
            raise DataError("audio samples exceed [-1, 1]")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class EegRecording:
    """Channel-major microvolt matrix, 31 channels at EEG_SAMPLE_RATE_HZ."""

    data: np.ndarray
    noun: ClassVar[str] = "EEG"  # what validation errors call the record

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != EEG_CHANNELS:
            raise DataError(f"{self.noun} must have exactly {EEG_CHANNELS} channels, got shape {data.shape}")
        if data.shape[1] < 1:
            raise DataError(f"{self.noun} has 0 samples")
        if not np.all(np.isfinite(data)):
            raise DataError(f"{self.noun} contains non-finite values")
        object.__setattr__(self, "data", data)

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / EEG_SAMPLE_RATE_HZ


@dataclass(frozen=True)
class TrialRecord:
    id: str
    subject: int
    condition: str
    eeg: EegRecording
    audio: AudioClip

    def __post_init__(self):
        if not (1 <= self.subject <= 4):
            raise DataError(f"subject must be 1..4, got {self.subject}")
        if self.condition not in CONDITIONS:
            raise DataError(f"condition must be one of {CONDITIONS}, got {self.condition!r}")
        if abs(self.eeg.duration_s - self.audio.duration_s) > 0.1:
            raise DataError(
                f"trial {self.id}: EEG ({self.eeg.duration_s:.3f}s) and audio "
                f"({self.audio.duration_s:.3f}s) durations differ by more than 100 ms"
            )


@dataclass(frozen=True)
class TrialRef:
    id: str
    subject: int
    condition: str
    eeg_path: str
    wav_path: str


@dataclass
class DatasetManifest:
    root: Path
    trials: list[TrialRef] = field(default_factory=list)

    def ids(self) -> list[str]:
        return [t.id for t in self.trials]

    def by_id(self, trial_id: str) -> TrialRef:
        for t in self.trials:
            if t.id == trial_id:
                return t
        raise DataError(f"unknown trial id {trial_id!r}")

    def load_trial(self, ref: TrialRef | str) -> TrialRecord:
        if isinstance(ref, str):
            ref = self.by_id(ref)
        eeg = read_eeg(self.root / ref.eeg_path)
        audio = read_wav(self.root / ref.wav_path)
        return TrialRecord(ref.id, ref.subject, ref.condition, eeg, audio)


@dataclass(frozen=True)
class SplitAssignment:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    seed: int

    def __post_init__(self):
        sets = [set(self.train_ids), set(self.val_ids), set(self.test_ids)]
        total = len(self.train_ids) + len(self.val_ids) + len(self.test_ids)
        if len(sets[0] | sets[1] | sets[2]) != total:
            raise DataError("split sets are not pairwise disjoint")


# ---------------------------------------------------------------------------
# WAV I/O (RIFF, PCM 16-bit mono)

def read_wav(path: str | Path) -> AudioClip:
    """Read 16-bit PCM mono WAV; samples scaled to [-1, 1) by /32768."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise DataError(f"{path}: expected mono WAV, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
            if fh.getcomptype() != "NONE":
                raise DataError(f"{path}: compressed WAV not supported")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (wave.Error, EOFError) as exc:
        raise DataError(f"{path}: malformed WAV header ({exc})") from exc
    except RuntimeError as exc:  # wave's chunk reader, on a chunk size past the end of the file
        raise DataError(f"{path}: malformed WAV, a chunk runs past the end of the file") from exc
    if len(raw) % 2:
        raise DataError(f"{path}: WAV data is {len(raw)} bytes, not whole 16-bit samples")
    words = np.frombuffer(raw, dtype="<i2")
    if len(words) < 1:
        raise DataError(f"{path}: empty WAV")
    return AudioClip(rate, words.astype(np.float64) / 32768.0)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """16-bit words as written: round(x * 32767) clamped to int16 range."""
    words = np.round(np.asarray(samples, dtype=np.float64) * 32767.0)
    return np.clip(words, -32768, 32767).astype(np.int16)


def write_wav(path: str | Path, clip: AudioClip) -> None:
    words = quantize_pcm16(clip.samples)
    with atomic_open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(clip.sample_rate_hz)
        fh.writeframes(words.astype("<i2").tobytes())


# ---------------------------------------------------------------------------
# EEG input I/O: CSV (ch01..ch31 header) and raw float32 binary

_EEG_CSV_HEADER = ",".join(f"ch{c + 1:02d}" for c in range(EEG_CHANNELS))


def write_eeg_csv(path: str | Path, rec: EegRecording) -> None:
    """One row per time sample, 9 significant digits (lossless to that precision)."""
    with atomic_open(path) as fh:
        np.savetxt(fh, rec.data.T, fmt="%.9g", delimiter=",", header=_EEG_CSV_HEADER, comments="")


def read_eeg_csv(path: str | Path) -> EegRecording:
    """Header line ch01..ch31, then one row of 31 numbers per time sample.

    The file is parsed once by `np.loadtxt`. Only when that fails or gives the
    wrong shape does the line scan of `_scan_eeg_csv` run, to name the fault or
    to read what loadtxt rejects (a whitespace-only or leading blank line).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() == _EEG_CSV_HEADER:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a header-only file reads as (0, 1)
                    rows = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
                if rows.shape[1] == EEG_CHANNELS:
                    return EegRecording(rows.T)
    except ValueError:  # UnicodeDecodeError included
        pass
    return EegRecording(_scan_eeg_csv(path).T)


def _scan_eeg_csv(path: str | Path) -> np.ndarray:
    """Line by line: (samples, 31) rows of a file, or a DataError naming the
    first faulty line; blank and whitespace-only lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    for i, ln in enumerate(lines, start=1):
        n_cells = ln.count(",") + 1
        if n_cells != EEG_CHANNELS:
            raise DataError(f"{path}:{i}: wrong column count ({n_cells}, expected {EEG_CHANNELS})")
        if i == 1 and ln != _EEG_CSV_HEADER:
            raise DataError(f"{path}:1: header must be ch01..ch31")
    if len(lines) < 2:
        raise DataError(f"{path}: no data rows")
    try:
        return np.loadtxt(lines[1:], dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell ({exc})") from exc


def write_eeg_binary(path: str | Path, rec: EegRecording) -> None:
    """Little-endian float32, row-major (time-major rows), small fixed header."""
    with atomic_open(path, "wb") as fh:
        fh.write(EEG_BINARY_MAGIC)
        fh.write(struct.pack("<IQ", EEG_CHANNELS, rec.n_samples))
        fh.write(rec.data.T.astype("<f4").tobytes())


def read_eeg_binary(path: str | Path) -> EegRecording:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20 or raw[:8] != EEG_BINARY_MAGIC:
        raise DataError(f"{path}: not an EEG binary file")
    channels, samples = struct.unpack("<IQ", raw[8:20])
    if channels != EEG_CHANNELS:
        raise DataError(f"{path}: wrong column count ({channels}, expected {EEG_CHANNELS})")
    if len(raw) - 20 != 4 * channels * samples:
        raise DataError(f"{path}: {len(raw) - 20} data bytes, header promises {samples} samples")
    data = np.frombuffer(raw[20:], dtype="<f4")
    return EegRecording(data.reshape(samples, channels).T.astype(np.float64))


def read_eeg(path: str | Path) -> EegRecording:
    return read_eeg_binary(path) if str(path).endswith(".f32") else read_eeg_csv(path)


def write_eeg(path: str | Path, rec: EegRecording) -> None:
    if str(path).endswith(".f32"):
        write_eeg_binary(path, rec)
    else:
        write_eeg_csv(path, rec)


# ---------------------------------------------------------------------------
# Manifest

# A manifest entry's keys, in TrialRef field order.
_MANIFEST_KEYS = ("id", "subject", "condition", "eeg_path", "wav_path")


def save_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    write_json(path, [{key: getattr(t, key) for key in _MANIFEST_KEYS} for t in manifest.trials])


def _manifest_entry(item, n: int, path: Path) -> TrialRef:
    """One manifest entry as a TrialRef; anything but string ids and paths, an
    integer subject 1..4 and a known condition is a DataError."""
    if not isinstance(item, dict) or any(key not in item for key in _MANIFEST_KEYS):
        raise DataError(f"{path}: manifest entry {n} is not a complete trial object")
    ref = TrialRef(*(item[key] for key in _MANIFEST_KEYS))
    if not all(isinstance(v, str) for v in (ref.id, ref.eeg_path, ref.wav_path)):
        raise DataError(f"{path}: manifest entry {n}: id and file paths must be strings")
    if type(ref.subject) is not int or not 1 <= ref.subject <= 4:
        raise DataError(f"{path}: manifest entry {n}: subject must be an integer 1..4, got {ref.subject!r}")
    if ref.condition not in CONDITIONS:
        raise DataError(f"{path}: manifest entry {n}: condition must be one of {CONDITIONS}, "
                        f"got {ref.condition!r}")
    return ref


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    items = read_json(path, "manifest")
    if not isinstance(items, list):
        raise DataError(f"{path}: manifest must be a JSON array")
    root = path.parent
    trials = []
    seen = set()
    for n, item in enumerate(items):
        ref = _manifest_entry(item, n, path)
        if ref.id in seen:
            raise DataError(f"{path}: duplicate trial id {ref.id!r}")
        seen.add(ref.id)
        for rel in (ref.eeg_path, ref.wav_path):
            if not (root / rel).exists():
                raise DataError(f"{path}: referenced file missing: {rel}")
        trials.append(ref)
    return DatasetManifest(root, trials)


# ---------------------------------------------------------------------------
# Splitting

def make_split(
    manifest: DatasetManifest | list[str],
    ratios: tuple[float, float, float],
    seed: int,
) -> SplitAssignment:
    """Deterministic shuffle split at utterance granularity.

    Set sizes are floor(n * ratio) for val and test; the flooring remainder
    goes to the training set.
    """
    ids = sorted(manifest if isinstance(manifest, list) else manifest.ids())
    n = len(ids)
    if n < 10:
        raise DataError(f"need at least 10 trials to split, got {n}")
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r <= 0 for r in ratios):
        raise DataError(f"degenerate split ratios {ratios}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_val - n_test
    shuffled = [ids[i] for i in order]
    return SplitAssignment(
        tuple(shuffled[:n_train]),
        tuple(shuffled[n_train : n_train + n_val]),
        tuple(shuffled[n_train + n_val :]),
        seed,
    )


# A split file's id lists, in SplitAssignment field order.
_SPLIT_ID_KEYS = ("train_ids", "val_ids", "test_ids")


def save_split(split: SplitAssignment, path: str | Path) -> None:
    write_json(path, {**{key: list(getattr(split, key)) for key in _SPLIT_ID_KEYS}, "seed": split.seed})


def load_split(path: str | Path) -> SplitAssignment:
    """Read a split written by save_split; a missing or mistyped field is a DataError."""
    d = read_json(path, "split")
    if not isinstance(d, dict):
        raise DataError(f"{path}: split must be a JSON object")
    sets = []
    for key in _SPLIT_ID_KEYS:
        ids = d.get(key)
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise DataError(f"{path}: {key!r} must be a list of trial ids")
        sets.append(tuple(ids))
    seed = d.get("seed")
    if type(seed) is not int:
        raise DataError(f"{path}: 'seed' must be an integer, got {type(seed).__name__}")
    return SplitAssignment(*sets, seed)


# ---------------------------------------------------------------------------
# Synthetic paired dataset
#
# Each trial shares one smooth positive latent envelope e(t). The audio is a
# 150 Hz harmonic carrier whose amplitude (and harmonic balance) follows e(t);
# the EEG channels carry pink noise, the envelope itself, and a small
# phase-locked copy of the carrier's first three harmonics so that the
# waveform is predictable from the EEG alone.

SYNTH_FUNDAMENTAL_HZ = 150.0
SYNTH_HARMONIC_BASE = np.array([1.0, 0.30, 0.15, 0.08, 0.05])
SYNTH_HARMONIC_TILT = np.array([0.0, 0.8, 1.2, 1.6, 2.0])
SYNTH_AUDIO_SCALE = 0.5
SYNTH_EEG_COUPLED_HARMONICS = 3
SYNTH_MICROVOLT_SCALE = 20.0
# Trial lengths the generator writes; validate_config rejects others up front.
SYNTH_DURATION_RANGE_S = (0.5, 10.0)


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-variance 1/f-shaped noise via spectral shaping of white noise."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n)
    spec = spec / np.sqrt(np.maximum(f, f[1] if n > 1 else 1.0))
    x = np.fft.irfft(spec, n)
    return x / (np.std(x) + 1e-12)


def _latent_envelope(rng: np.random.Generator):
    """Smooth positive envelope in [0.15, 1.0] as a closed-form function of time."""
    n_comp = 4
    freqs = rng.uniform(0.4, 2.5, n_comp)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_comp)
    weights = rng.uniform(0.5, 1.0, n_comp)

    def envelope(t: np.ndarray) -> np.ndarray:
        raw = np.zeros_like(t)
        for fk, pk, wk in zip(freqs, phases, weights):
            raw = raw + wk * np.sin(2.0 * np.pi * fk * t + pk)
        lo, hi = raw.min(), raw.max()
        unit = (raw - lo) / (hi - lo) if hi > lo else np.full_like(raw, 0.5)
        return 0.15 + 0.85 * unit

    return envelope


def _harmonic_carrier(t: np.ndarray, env: np.ndarray, phases: np.ndarray, n_harmonics: int | None = None):
    """Sum of harmonics of 150 Hz with e(t)-dependent amplitude tilt."""
    k = len(SYNTH_HARMONIC_BASE) if n_harmonics is None else n_harmonics
    y = np.zeros_like(t)
    for h in range(k):
        amp = SYNTH_HARMONIC_BASE[h] * (1.0 + SYNTH_HARMONIC_TILT[h] * (env - 0.5))
        y = y + amp * np.sin(2.0 * np.pi * SYNTH_FUNDAMENTAL_HZ * (h + 1) * t + phases[h])
    return y


def synthesize_trial(rng: np.random.Generator, duration_s: float):
    """Return (eeg_data 31xN microvolts, audio_samples at 16 kHz)."""
    n_eeg = int(round(duration_s * EEG_SAMPLE_RATE_HZ))
    n_audio = int(round(duration_s * AUDIO_RECORD_RATE_HZ))
    t_eeg = np.arange(n_eeg) / EEG_SAMPLE_RATE_HZ
    t_audio = np.arange(n_audio) / AUDIO_RECORD_RATE_HZ

    envelope = _latent_envelope(rng)
    phases = rng.uniform(0.0, 2.0 * np.pi, len(SYNTH_HARMONIC_BASE))

    env_audio = envelope(t_audio)
    audio = SYNTH_AUDIO_SCALE * env_audio * _harmonic_carrier(t_audio, env_audio, phases)

    env_eeg = envelope(t_eeg)
    carrier_eeg = _harmonic_carrier(t_eeg, env_eeg, phases, n_harmonics=SYNTH_EEG_COUPLED_HARMONICS)
    gain_env = rng.uniform(0.5, 1.5, EEG_CHANNELS)
    gain_car = rng.uniform(0.5, 1.5, EEG_CHANNELS)
    eeg = np.empty((EEG_CHANNELS, n_eeg))
    for ch in range(EEG_CHANNELS):
        eeg[ch] = (
            _pink_noise(rng, n_eeg)
            + 1.5 * gain_env[ch] * env_eeg
            + 1.2 * gain_car[ch] * env_eeg * carrier_eeg
        )
    eeg *= SYNTH_MICROVOLT_SCALE
    return eeg, np.clip(audio, -1.0, 1.0), envelope


def generate_synthetic_dataset(
    n_trials: int,
    duration_s: float,
    seed: int,
    out_dir: str | Path,
    eeg_format: str,
) -> DatasetManifest:
    """Write n_trials paired EEG/audio files plus manifest.json; deterministic in seed."""
    if n_trials < 1:
        raise DataError("n_trials must be >= 1")
    lo, hi = SYNTH_DURATION_RANGE_S
    if not (lo <= duration_s <= hi):
        raise DataError(f"duration_s must be in [{lo:g}, {hi:g}]")
    if eeg_format not in ("csv", "f32"):
        raise DataError(f"unknown eeg_format {eeg_format!r}")
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out_dir}: {exc}") from exc

    children = np.random.SeedSequence(seed).spawn(n_trials)
    trials = []
    for i in range(n_trials):
        rng = np.random.default_rng(children[i])
        trial_id = f"trial_{i + 1:04d}"
        eeg_data, audio, _ = synthesize_trial(rng, duration_s)
        eeg_path = f"{trial_id}.{eeg_format}"
        wav_path = f"{trial_id}.wav"
        write_eeg(out_dir / eeg_path, EegRecording(eeg_data))
        write_wav(out_dir / wav_path, AudioClip(AUDIO_RECORD_RATE_HZ, audio))
        trials.append(TrialRef(trial_id, (i % 4) + 1, CONDITIONS[i % 2], eeg_path, wav_path))

    manifest = DatasetManifest(out_dir, trials)
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
