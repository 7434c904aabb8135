"""The 16 acoustic feature families on the ~31 Hz grid at 15 kHz.

Kinds and dimensions (571 total, order fixed, labels f1..f16):
band_power:12, cqt_chroma:12, chroma_cens:12, mel:128, rms:1, centroid:1,
bandwidth:1, contrast:7, flatness:1, rolloff:1, poly:2, tonnetz:6, zcr:1,
tempogram:384, loudness:1, pitch:1.

`extract_acoustic_set(audio, grid)` is the one entry point. It computes each
shared analysis once (the power STFT, the 84 constant-Q note energies folded
to 12 pitch classes, the mel spectrogram and the CENS chroma) and hands each
kernel only what it reads:

- the power STFT: `band_power_12`, `mel_spectrogram_128`,
  `spectral_contrast_7`, `poly_coeffs_2`;
- the folded constant-Q chroma: `cqt_chroma_12`, `chroma_cens_12`;
- the CENS chroma: `tonnetz_6`;
- the mel spectrogram: `onset_strength`, `tempogram_384`;
- the samples, STFT and grid: `spectral_scalars` (the seven dim-1 kinds);
- the samples and grid: `pitch_track_1`.

Every analysis uses the centered framing of dsp, so every kind has
1 + len//hop frames.

The constant-Q note energies run on one helper thread, started before the
STFT and joined before the chroma family is built from them; the calling
thread computes the STFT family, mel, tempogram, pitch and the scalar kinds
meanwhile. The note energies are one gather and one GEMM per octave, which run
without the GIL; pitch, with its many small numpy calls, stays on the calling
thread. The helper lives for one call and runs the same function on the same
read-only samples, so no result depends on which thread ran it.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import DataError

FFT_SIZE = 1024
PITCH_WINDOW = 1024
EPS_POWER = 1e-10

FEATURE_DIMS = {
    "band_power": 12,
    "cqt_chroma": 12,
    "chroma_cens": 12,
    "mel": 128,
    "rms": 1,
    "centroid": 1,
    "bandwidth": 1,
    "contrast": 7,
    "flatness": 1,
    "rolloff": 1,
    "poly": 2,
    "tonnetz": 6,
    "zcr": 1,
    "tempogram": 384,
    "loudness": 1,
    "pitch": 1,
}
FEATURE_ORDER = tuple(FEATURE_DIMS)
FEATURE_LABELS = {f"f{i + 1}": kind for i, kind in enumerate(FEATURE_ORDER)}
TOTAL_DIM = sum(FEATURE_DIMS.values())  # 571

def kind_for_label(label: str) -> str:
    if label in FEATURE_DIMS:
        return label
    if label in FEATURE_LABELS:
        return FEATURE_LABELS[label]
    raise DataError(f"unknown feature kind or label {label!r}")


def label_for_kind(kind: str) -> str:
    return f"f{FEATURE_ORDER.index(kind) + 1}"


@dataclass(frozen=True)
class FeatureSequence:
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in FEATURE_DIMS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != FEATURE_DIMS[self.kind]:
            raise DataError(
                f"{self.kind}: expected frames x {FEATURE_DIMS[self.kind]}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError(f"{self.kind}: non-finite feature value")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class AcousticSet:
    """All 16 kinds, equal frame counts, ordered f1..f16."""

    features: dict[str, FeatureSequence]

    def __post_init__(self):
        missing = [k for k in FEATURE_ORDER if k not in self.features]
        if missing:
            raise DataError(f"acoustic set missing kinds: {missing}")
        counts = {seq.n_frames for seq in self.features.values()}
        if len(counts) != 1:
            raise DataError(f"unequal frame counts in acoustic set: {sorted(counts)}")

    @property
    def n_frames(self) -> int:
        return next(iter(self.features.values())).n_frames

    def concatenated(self) -> np.ndarray:
        return np.hstack([self.features[k].values for k in FEATURE_ORDER])


# ---------------------------------------------------------------------------
# Filterbanks

def log_band_edges(n_bands: int = 12, lo_hz: float = 50.0, hi_hz: float = 7500.0) -> np.ndarray:
    return np.geomspace(lo_hz, hi_hz, n_bands + 1)


def _band_weights(freqs: np.ndarray, n_bands: int = 12) -> np.ndarray:
    """Disjoint log-spaced bands, triangular in-band weighting (peak at the
    geometric band center). Rows sum over each band's bins."""
    edges = log_band_edges(n_bands)
    w = np.zeros((n_bands, len(freqs)))
    logf = np.log(np.maximum(freqs, 1e-6))
    for b in range(n_bands):
        lo, hi = np.log(edges[b]), np.log(edges[b + 1])
        center = 0.5 * (lo + hi)
        inside = (logf >= lo) & (logf <= hi)
        up = (logf - lo) / (center - lo)
        down = (hi - logf) / (hi - center)
        w[b, inside] = np.minimum(up, down)[inside]
    return w


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, freqs: np.ndarray, lo_hz: float = 0.0, hi_hz: float = 7500.0) -> np.ndarray:
    """HTK-mel triangular filters with unit peaks, (n_mels, bins)."""
    points = mel_to_hz(np.linspace(hz_to_mel(lo_hz), hz_to_mel(hi_hz), n_mels + 2))
    fb = np.zeros((n_mels, len(freqs)))
    for m in range(n_mels):
        left, center, right = points[m], points[m + 1], points[m + 2]
        up = (freqs - left) / max(center - left, 1e-9)
        down = (right - freqs) / max(right - center, 1e-9)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


@functools.lru_cache(maxsize=4)
def _spectral_weights(fft_size: int, sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (12, bins) band weights and (128, bins) mel filterbank on
    the STFT bins of `dsp.PowerSpectrogram` at this size and rate."""
    freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate_hz)
    weights = (_band_weights(freqs), mel_filterbank(128, freqs))
    for w in weights:
        w.flags.writeable = False
    return weights


# ---------------------------------------------------------------------------
# Spectral families

def band_power_12(spec: dsp.PowerSpectrogram) -> FeatureSequence:
    bands, _ = _spectral_weights(spec.fft_size, spec.sample_rate_hz)
    return FeatureSequence("band_power", spec.power @ bands.T)


def mel_spectrogram_128(spec: dsp.PowerSpectrogram) -> FeatureSequence:
    _, fb = _spectral_weights(spec.fft_size, spec.sample_rate_hz)
    return FeatureSequence("mel", spec.power @ fb.T)


CONTRAST_QUANTILE = 0.2


def spectral_contrast_7(spec: dsp.PowerSpectrogram) -> FeatureSequence:
    """Sub-band below 200 Hz plus six octave bands from 200 Hz; per band the
    log ratio of the top to bottom power quintile."""
    freqs = spec.freqs_hz
    edges = [0.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, freqs[-1] + 1.0]
    out = np.zeros((spec.n_frames, 7))
    for b in range(7):
        cols = (freqs >= edges[b]) & (freqs < edges[b + 1])
        band = np.sort(spec.power[:, cols], axis=1)
        q = max(1, int(round(CONTRAST_QUANTILE * band.shape[1])))
        top = band[:, -q:].mean(axis=1)
        bottom = band[:, :q].mean(axis=1)
        out[:, b] = np.log(top + EPS_POWER) - np.log(bottom + EPS_POWER)
    return FeatureSequence("contrast", out)


def poly_coeffs_2(spec: dsp.PowerSpectrogram) -> FeatureSequence:
    """Least-squares (slope, intercept) of power vs bin frequency in Hz."""
    f = spec.freqs_hz
    fc = f - f.mean()
    denom = np.sum(fc * fc)
    slope = (spec.power @ fc) / denom
    intercept = spec.power.mean(axis=1) - slope * f.mean()
    return FeatureSequence("poly", np.column_stack([slope, intercept]))


# ---------------------------------------------------------------------------
# Chroma families (constant-Q, CENS, tonnetz)

CQT_MIDI_LO = 24   # C1
CQT_MIDI_HI = 107  # B7
CQT_Q = 1.0 / (2.0 ** (1.0 / 12.0) - 1.0)  # ~16.8, semitone resolution


def _midi_to_hz(m) -> np.ndarray:
    return 440.0 * 2.0 ** ((np.asarray(m, dtype=np.float64) - 69.0) / 12.0)


@functools.lru_cache(maxsize=4)
def _cqt_octave_blocks(fs: int) -> tuple[np.ndarray, ...]:
    """Per octave, the 12 note kernels as one zero-padded (2·p, 24) real block.

    Note k's kernel is a Hann window of constant-Q length n_k times a complex
    exponential at its frequency, divided by the window sum. Its real and
    imaginary parts are columns 2k and 2k+1, placed so that sample n_k//2 of
    the kernel sits on row p, where p = max(n_k)//2 + 1 over the octave, so
    one row block lines up with a frame of 2·p samples centred on the hop.
    """
    freqs = _midi_to_hz(np.arange(CQT_MIDI_LO, CQT_MIDI_HI + 1))
    lengths = np.round(CQT_Q * fs / freqs).astype(int)
    blocks = []
    for octave in range(len(freqs) // 12):
        notes = range(12 * octave, 12 * octave + 12)
        p = int(lengths[notes.start] // 2 + 1)  # the lowest note is the longest
        block = np.zeros((2 * p, 24))
        for col, i in enumerate(notes):
            nk = lengths[i]
            n = np.arange(nk)
            window = dsp.hann_periodic(nk)
            kernel = window * np.exp(-2j * np.pi * freqs[i] * n / fs)
            kernel /= window.sum()
            rows = slice(p - nk // 2, p - nk // 2 + nk)
            block[rows, 2 * col] = kernel.real
            block[rows, 2 * col + 1] = kernel.imag
        block.flags.writeable = False
        blocks.append(block)
    return tuple(blocks)


def _cqt_note_energies(x: np.ndarray, grid: dsp.FrameGrid) -> np.ndarray:
    """(frames, 84) per-semitone energies from Goertzel-style windowed kernels.

    Each note uses a Hann-windowed complex exponential of constant-Q length
    centered on the frame position; a unit-amplitude tone at the note frequency
    yields ~0.25 energy regardless of the note. Each octave is one GEMM of its
    centred frames against the octave's kernel block.
    """
    blocks = _cqt_octave_blocks(grid.sample_rate_hz)
    pad = len(blocks[0]) // 2
    xp = np.pad(x, pad)
    centers = grid.hop * np.arange(dsp.frame_count(len(x), grid.hop)) + pad
    energies = np.empty((len(centers), 12 * len(blocks)))
    for octave, block in enumerate(blocks):
        p = len(block) // 2
        # a gather, not a strided view: the GEMM needs contiguous rows
        frames = np.lib.stride_tricks.sliding_window_view(xp, 2 * p)[centers - p]
        reim = frames @ block
        energies[:, 12 * octave:12 * octave + 12] = reim[:, 0::2] ** 2 + reim[:, 1::2] ** 2
    return energies


def _fold_chroma(energies: np.ndarray) -> np.ndarray:
    """Constant-Q semitone energies C1..B7 summed into the 12 pitch classes."""
    midis = np.arange(CQT_MIDI_LO, CQT_MIDI_HI + 1)
    chroma = np.zeros((energies.shape[0], 12))
    for cls in range(12):
        chroma[:, cls] = energies[:, midis % 12 == cls].sum(axis=1)
    return chroma


def cqt_chroma_12(chroma: np.ndarray) -> FeatureSequence:
    """The folded constant-Q chroma, max-normalized."""
    peak = chroma.max(axis=1, keepdims=True)
    values = np.where(peak > 1e-12, chroma / np.where(peak > 1e-12, peak, 1.0), 0.0)
    return FeatureSequence("cqt_chroma", values)


CENS_THRESHOLDS = (0.4, 0.2, 0.1, 0.05)
CENS_WEIGHTS = (4.0, 3.0, 2.0, 1.0)
CENS_SMOOTH_FRAMES = 41


def chroma_cens_12(chroma: np.ndarray) -> FeatureSequence:
    """CENS-style chroma of the folded constant-Q chroma: L1-normalize,
    quantize at 0.4/0.2/0.1/0.05, smooth over 41 frames with a Hann kernel,
    L2-normalize per frame."""
    l1 = chroma.sum(axis=1, keepdims=True)
    chroma = np.where(l1 > 1e-12, chroma / np.where(l1 > 1e-12, l1, 1.0), 0.0)

    quant = np.zeros_like(chroma)
    for thr, wt in zip(CENS_THRESHOLDS, CENS_WEIGHTS):
        quant = np.maximum(quant, np.where(chroma > thr, wt, 0.0))

    kernel = dsp.hann_periodic(CENS_SMOOTH_FRAMES + 1)[1:]
    kernel /= kernel.sum()
    half = CENS_SMOOTH_FRAMES // 2
    smooth = np.empty_like(quant)
    for cls in range(12):
        padded = np.pad(quant[:, cls], (half, CENS_SMOOTH_FRAMES - 1 - half))
        smooth[:, cls] = np.convolve(padded, kernel, mode="valid")

    norm = np.linalg.norm(smooth, axis=1, keepdims=True)
    values = np.where(norm > 1e-12, smooth / np.where(norm > 1e-12, norm, 1.0), 0.0)
    return FeatureSequence("chroma_cens", values)


def tonnetz_matrix() -> np.ndarray:
    """6 x 12 harmonic-network projection: fifths, minor thirds, major thirds
    as sin/cos pairs with radii 1, 1, 0.5."""
    cls = np.arange(12)
    return np.vstack(
        [
            np.sin(cls * 7.0 * np.pi / 6.0),
            np.cos(cls * 7.0 * np.pi / 6.0),
            np.sin(cls * 3.0 * np.pi / 2.0),
            np.cos(cls * 3.0 * np.pi / 2.0),
            0.5 * np.sin(cls * 2.0 * np.pi / 3.0),
            0.5 * np.cos(cls * 2.0 * np.pi / 3.0),
        ]
    )


def tonnetz_6(cens: FeatureSequence) -> FeatureSequence:
    chroma = cens.values
    l1 = chroma.sum(axis=1, keepdims=True)
    chroma = np.where(l1 > 1e-12, chroma / np.where(l1 > 1e-12, l1, 1.0), 0.0)
    return FeatureSequence("tonnetz", chroma @ tonnetz_matrix().T)


# ---------------------------------------------------------------------------
# Scalar families

ROLLOFF_FRACTION = 0.85


def spectral_scalars(x: np.ndarray, spec: dsp.PowerSpectrogram, grid: dsp.FrameGrid) -> dict[str, FeatureSequence]:
    """rms, centroid, bandwidth, flatness, rolloff, zcr, loudness (dim 1 each).

    The spectral kinds read `spec`; rms, zcr and loudness read hop-long frames
    of `x` on `grid`.
    """
    power = spec.power
    freqs = spec.freqs_hz
    total = power.sum(axis=1)
    safe = np.where(total > EPS_POWER, total, 1.0)

    centroid = np.where(total > EPS_POWER, (power @ freqs) / safe, 0.0)
    spread = (power * (freqs[None, :] - centroid[:, None]) ** 2).sum(axis=1)
    bandwidth = np.where(total > EPS_POWER, np.sqrt(spread / safe), 0.0)

    floored = np.maximum(power, EPS_POWER)
    flatness = np.exp(np.mean(np.log(floored), axis=1)) / floored.mean(axis=1)

    cum = np.cumsum(power, axis=1)
    idx = np.argmax(cum >= ROLLOFF_FRACTION * total[:, None], axis=1)
    rolloff = np.where(total > EPS_POWER, freqs[idx], 0.0)

    frames = dsp.frame_signal_centered(x, grid.hop, grid.hop)
    rms = dsp.frame_rms(frames)
    zcr = dsp.frame_zcr(frames)
    loudness = 20.0 * np.log10(rms + 1e-6)

    cols = {
        "rms": rms, "centroid": centroid, "bandwidth": bandwidth, "flatness": flatness,
        "rolloff": rolloff, "zcr": zcr, "loudness": loudness,
    }
    return {k: FeatureSequence(k, v[:, None]) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# Tempogram and pitch

TEMPOGRAM_WINDOW = 384
ONSET_SMOOTH_FRAMES = 5


def onset_strength(mel: FeatureSequence) -> np.ndarray:
    """Half-wave-rectified log-mel flux per frame, smoothed over 5 frames.

    The short Hann smoothing spreads each onset across the fractional frame
    spacing of the ~31 Hz grid so the beat period wins over its double in the
    autocorrelation.
    """
    db = 10.0 * np.log10(mel.values + EPS_POWER)
    flux = np.maximum(0.0, np.diff(db, axis=0)).sum(axis=1)
    env = np.concatenate([[0.0], flux])
    kernel = dsp.hann_periodic(ONSET_SMOOTH_FRAMES + 2)[1:-1]
    kernel /= kernel.sum()
    half = len(kernel) // 2
    padded = np.pad(env, (half, len(kernel) - 1 - half))
    return np.convolve(padded, kernel, mode="valid")


def tempogram_384(mel: FeatureSequence) -> FeatureSequence:
    """Local autocorrelation of the onset envelope over a centered 384-frame
    window; 384 lag coefficients per frame."""
    env = onset_strength(mel)
    w = TEMPOGRAM_WINDOW
    segs = np.lib.stride_tricks.sliding_window_view(np.pad(env, w // 2), w)[: len(env)]
    fft_n = 2 * w
    spec = np.fft.rfft(segs, n=fft_n, axis=1)
    acorr = np.fft.irfft(np.abs(spec) ** 2, n=fft_n, axis=1)[:, :w]
    return FeatureSequence("tempogram", acorr)


PITCH_MIN_HZ = 60.0
PITCH_MAX_HZ = 400.0
PITCH_CLARITY_THRESHOLD = 0.3


def pitch_track_1(x: np.ndarray, grid: dsp.FrameGrid) -> FeatureSequence:
    """Autocorrelation pitch in 60-400 Hz with parabolic peak interpolation;
    frames with peak clarity below 0.3 are reported as 0 (unvoiced)."""
    fs = grid.sample_rate_hz
    frames = dsp.frame_signal_centered(x, PITCH_WINDOW, grid.hop)
    frames = frames - frames.mean(axis=1, keepdims=True)
    k_min = int(np.ceil(fs / PITCH_MAX_HZ))
    k_max = int(np.floor(fs / PITCH_MIN_HZ))

    fft_n = 2 * PITCH_WINDOW
    spec = np.fft.rfft(frames, n=fft_n, axis=1)
    acorr = np.fft.irfft(np.abs(spec) ** 2, n=fft_n, axis=1)[:, : k_max + 2]

    r0 = acorr[:, 0]
    window = acorr[:, k_min : k_max + 1]
    peak_rel = np.argmax(window, axis=1)
    peak = peak_rel + k_min

    rows = np.arange(len(frames))
    r_prev = acorr[rows, peak - 1]
    r_peak = acorr[rows, peak]
    r_next = acorr[rows, peak + 1]
    denom = r_prev - 2.0 * r_peak + r_next
    delta = np.where(np.abs(denom) > 1e-12, 0.5 * (r_prev - r_next) / np.where(np.abs(denom) > 1e-12, denom, 1.0), 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    lag = peak + delta

    clarity = np.where(r0 > 1e-10, r_peak / np.where(r0 > 1e-10, r0, 1.0), 0.0)
    f0 = np.where(clarity >= PITCH_CLARITY_THRESHOLD, fs / lag, 0.0)
    return FeatureSequence("pitch", f0[:, None])


# ---------------------------------------------------------------------------
# Full set

def extract_acoustic_set(audio: np.ndarray, grid: dsp.FrameGrid) -> AcousticSet:
    """All 16 kinds of `audio` (1-D samples at grid.sample_rate_hz) on `grid`."""
    x = np.asarray(audio, dtype=np.float64)
    if x.ndim != 1 or len(x) < 1:
        raise DataError("audio must be a non-empty 1-D sequence")
    with ThreadPoolExecutor(1, thread_name_prefix="acoustic.cqt") as helper:
        note_energies = helper.submit(_cqt_note_energies, x, grid)
        spec = dsp.stft_power(x, FFT_SIZE, grid.hop, grid.sample_rate_hz)
        mel = mel_spectrogram_128(spec)
        seqs = {
            "band_power": band_power_12(spec),
            "mel": mel,
            "contrast": spectral_contrast_7(spec),
            "poly": poly_coeffs_2(spec),
            "tempogram": tempogram_384(mel),
            "pitch": pitch_track_1(x, grid),
            **spectral_scalars(x, spec, grid),
        }
        chroma = _fold_chroma(note_energies.result())
    cens = chroma_cens_12(chroma)
    seqs.update(cqt_chroma=cqt_chroma_12(chroma), chroma_cens=cens, tonnetz=tonnetz_6(cens))
    return AcousticSet({kind: seqs[kind] for kind in FEATURE_ORDER})
