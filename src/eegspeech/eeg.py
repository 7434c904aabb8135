"""EEG preprocessing, ICA artifact rejection, per-channel statistical features
at the ~31 Hz grid, and kernel-PCA reduction of the 155-dim feature vectors.

The preprocessing chain is band-pass -> notch -> optional ICA cleaning ->
per-channel z-score. The five per-frame statistics per channel are RMS, zero
crossing rate, moving window average, excess kurtosis, and power spectral
entropy, giving 31 * 5 = 155 columns in fixed channel-major order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from . import dsp
from .dataio import EEG_CHANNELS, EegRecording
from .errors import DataError
from .serialize import load_container, save_container

STAT_NAMES = ("rms", "zcr", "mwa", "kurtosis", "pse")
STAT_FEATURE_DIM = EEG_CHANNELS * len(STAT_NAMES)  # 155


@dataclass(frozen=True)
class PreprocessOptions:
    bandpass_lo_hz: float = 0.1
    bandpass_hi_hz: float = 70.0
    bandpass_order: int = 4
    notch_hz: float = 60.0
    notch_q: float = 30.0
    zero_phase: bool = True
    run_ica: bool = False
    ica_kurtosis_threshold: float = 8.0
    ica_seed: int = 0
    zscore: bool = True


@dataclass(frozen=True)
class CleanEeg:
    data: np.ndarray
    sample_rate_hz: int = 1000

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] != EEG_CHANNELS:
            raise DataError(f"clean EEG must keep {EEG_CHANNELS} channels, got {data.shape}")
        object.__setattr__(self, "data", data)

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def zscore_channels(data: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Per-channel standardization; zero-variance channels map to zeros."""
    mean = data.mean(axis=1, keepdims=True)
    std = data.std(axis=1, keepdims=True)
    out = np.where(std > eps, (data - mean) / np.where(std > eps, std, 1.0), 0.0)
    return out


def preprocess_eeg(rec: EegRecording, options: PreprocessOptions | None = None) -> CleanEeg:
    """Band-pass + notch (zero-phase by default), optional ICA cleanup, z-score."""
    options = options or PreprocessOptions()
    data = np.asarray(rec.data, dtype=np.float64)
    if data.shape[0] != EEG_CHANNELS:
        raise DataError(f"expected {EEG_CHANNELS} channels, got {data.shape[0]}")
    if not np.all(np.isfinite(data)):
        raise DataError("NaN or inf in EEG input")
    fs = rec.sample_rate_hz

    bp = dsp.design_butterworth_bandpass(
        options.bandpass_order, options.bandpass_lo_hz, options.bandpass_hi_hz, fs
    )
    data = dsp.apply_filter(bp, data, zero_phase=options.zero_phase, axis=1)
    notch = dsp.design_iir_notch(options.notch_hz, options.notch_q, fs)
    data = dsp.apply_filter(notch, data, zero_phase=options.zero_phase, axis=1)

    if options.run_ica:
        result = fast_ica(data, seed=options.ica_seed)
        data, _ = remove_artifact_components(result, options.ica_kurtosis_threshold)

    if options.zscore:
        data = zscore_channels(data)

    return CleanEeg(data, sample_rate_hz=fs)


# ---------------------------------------------------------------------------
# FastICA (symmetric fixed-point, log-cosh contrast)

@dataclass(frozen=True)
class IcaResult:
    mean: np.ndarray          # (channels,)
    whitening: np.ndarray     # (components, channels)
    dewhitening: np.ndarray   # (channels, components)
    unmixing: np.ndarray      # (components, components), orthonormal rows in whitened space
    components: np.ndarray    # (components, samples)
    converged: bool
    n_iter: int

    @property
    def mixing(self) -> np.ndarray:
        """Inverse of unmixing in whitened space (transpose of an orthonormal matrix)."""
        return self.unmixing.T

    def whitened(self) -> np.ndarray:
        return self.mixing @ self.components

    def reconstruct(self, keep: np.ndarray | None = None) -> np.ndarray:
        """Back-project components to signal space, zeroing dropped ones."""
        comps = self.components if keep is None else self.components * np.asarray(keep)[:, None]
        return self.dewhitening @ (self.unmixing.T @ comps) + self.mean[:, None]


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w @ w.T)
    vals = np.maximum(vals, 1e-12)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def fast_ica(
    data: np.ndarray,
    n_components: int | None = None,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-4,
) -> IcaResult:
    """Symmetric fixed-point ICA with tanh (log-cosh) contrast.

    The data is centered and whitened internally; convergence is declared when
    the largest row-angle change drops below tol. On non-convergence the best
    iterate is returned with converged=False and a warning.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be channels x samples")
    n_ch, n_samples = data.shape
    if n_components is None:
        n_components = n_ch
    if n_components > n_ch:
        raise ValueError(f"n_components {n_components} > channels {n_ch}")

    mean = data.mean(axis=1)
    xc = data - mean[:, None]
    cov = (xc @ xc.T) / n_samples
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:n_components]
    vals = np.maximum(vals[order], 1e-18)
    vecs = vecs[:, order]
    whitening = (vecs * (1.0 / np.sqrt(vals))).T
    dewhitening = vecs * np.sqrt(vals)
    z = whitening @ xc

    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.standard_normal((n_components, n_components)))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        wz = w @ z
        g = np.tanh(wz)
        g_prime = 1.0 - g * g
        w_new = (g @ z.T) / n_samples - np.diag(g_prime.mean(axis=1)) @ w
        w_new = _sym_decorrelate(w_new)
        delta = np.max(np.abs(1.0 - np.abs(np.sum(w_new * w, axis=1))))
        w = w_new
        if delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"FastICA did not converge in {max_iter} iterations", RuntimeWarning)

    return IcaResult(mean, whitening, dewhitening, w, w @ z, converged, it)


def excess_kurtosis(x: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """m4 / m2^2 - 3 on central moments; 0 where the variance vanishes."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=axis, keepdims=True)
    d = x - mu
    m2 = np.mean(d * d, axis=axis)
    m4 = np.mean(d ** 4, axis=axis)
    return np.where(m2 > eps, m4 / np.where(m2 > eps, m2 * m2, 1.0) - 3.0, 0.0)


def remove_artifact_components(
    ica: IcaResult, kurtosis_threshold: float = 8.0
) -> tuple[np.ndarray, list[int]]:
    """Zero components with |excess kurtosis| above the threshold, reconstruct.

    Returns (cleaned channels x samples, indices of removed components).
    """
    kurt = excess_kurtosis(ica.components, axis=1)
    keep = np.abs(kurt) <= kurtosis_threshold
    removed = [int(i) for i in np.flatnonzero(~keep)]
    return ica.reconstruct(keep.astype(np.float64)), removed


# ---------------------------------------------------------------------------
# Per-frame statistical features

def frame_stats(frame: np.ndarray, fs_hz: float = 1000.0) -> np.ndarray:
    """(rms, zcr, mwa, kurtosis, pse) for one frame of at least 8 samples."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1 or len(frame) < 8:
        raise ValueError("frame must be 1-D with length >= 8")
    return _stats_block(frame[None, :])[0]


def _stats_block(frames: np.ndarray) -> np.ndarray:
    """Vectorized stats over (n_frames, window) -> (n_frames, 5)."""
    n, w = frames.shape
    rms = np.sqrt(np.mean(frames * frames, axis=1))

    signs = np.where(frames >= 0.0, 1, -1)
    zcr = np.sum(signs[:, 1:] != signs[:, :-1], axis=1) / (w - 1)

    sliding = np.lib.stride_tricks.sliding_window_view(frames, 8, axis=1)
    mwa = sliding.mean(axis=2).mean(axis=1)

    kurt = excess_kurtosis(frames, axis=1)

    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    power = power[:, 1:]  # positive-frequency bins, DC excluded
    total = power.sum(axis=1)
    n_bins = power.shape[1]
    safe_total = np.where(total > 1e-12, total, 1.0)
    p = power / safe_total[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    pse = np.where(total > 1e-12, -plogp.sum(axis=1) / np.log(n_bins), 0.0)

    return np.column_stack([rms, zcr, mwa, kurt, pse])


@dataclass(frozen=True)
class StatFeatureSeq:
    """frames x 155 matrix; columns are channel-major blocks of the 5 stats."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != STAT_FEATURE_DIM:
            raise DataError(f"stat features must have {STAT_FEATURE_DIM} columns, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite stat feature value")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def extract_stat_features(clean: CleanEeg, grid: dsp.FrameGrid) -> StatFeatureSeq:
    """Non-overlapping hop-long valid-mode frames; 5 stats per channel, channel-major."""
    if grid.sample_rate_hz != clean.sample_rate_hz:
        raise ValueError("grid sample rate does not match the recording")
    if clean.n_samples < grid.hop:
        raise ValueError("recording shorter than one frame")
    frames = dsp.frame_signal_valid(clean.data, grid.hop, grid.hop)  # (ch, nf, w)
    n_ch, n_frames, w = frames.shape
    stats = _stats_block(frames.reshape(n_ch * n_frames, w)).reshape(n_ch, n_frames, 5)
    values = np.transpose(stats, (1, 0, 2)).reshape(n_frames, n_ch * 5)
    return StatFeatureSeq(values)


# ---------------------------------------------------------------------------
# Kernel PCA (polynomial kernel)

@dataclass(frozen=True)
class KpcaModel:
    train_vectors: np.ndarray   # (n, d)
    coefficients: np.ndarray    # (n, out_dim), eigenvector / sqrt(eigenvalue)
    eigenvalues: np.ndarray     # (out_dim,), non-negative, non-increasing
    degree: int
    gamma: float
    coef0: float
    row_means: np.ndarray       # (n,), centering statistics of the training kernel
    grand_mean: float
    total_variance: float       # trace of the centered training kernel
    effective_rank: int

    @property
    def out_dim(self) -> int:
        return self.coefficients.shape[1]

    @property
    def in_dim(self) -> int:
        return self.train_vectors.shape[1]


def _poly_kernel(a: np.ndarray, b: np.ndarray, gamma: float, coef0: float, degree: int) -> np.ndarray:
    return (gamma * (a @ b.T) + coef0) ** degree


def kpca_fit(
    train_features: np.ndarray,
    out_dim: int = 30,
    degree: int = 3,
    gamma: float | None = None,
    coef0: float = 1.0,
) -> KpcaModel:
    """Fit polynomial-kernel PCA: double-centered kernel, top-out_dim eigenpairs.

    Coefficients are eigenvectors scaled by 1/sqrt(eigenvalue) so the implicit
    principal directions have unit feature-space norm. Rank deficiency yields
    zero eigenvalues and zero coefficient columns; the effective rank is kept
    on the model.
    """
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("training features must be 2-D")
    n, d = x.shape
    if n < out_dim + 1:
        raise ValueError(f"need at least out_dim+1={out_dim + 1} training rows, got {n}")
    if gamma is None:
        gamma = 1.0 / d

    k = _poly_kernel(x, x, gamma, coef0, degree)
    row_means = k.mean(axis=1)
    grand_mean = float(k.mean())
    kc = k - row_means[:, None] - row_means[None, :] + grand_mean
    total_variance = float(np.trace(kc))

    vals, vecs = scipy.linalg.eigh(kc, subset_by_index=[n - out_dim, n - 1])
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    vals = np.maximum(vals, 0.0)

    # rank cutoff needs an absolute scale: for degenerate data the centered
    # kernel is all rounding noise and its top eigenvalue is no reference
    tol = 1e-10 * max(vals[0], abs(grand_mean))
    effective_rank = int(np.sum(vals > tol))

    coeff = np.zeros((n, out_dim))
    nonzero = vals > tol
    coeff[:, nonzero] = vecs[:, nonzero] / np.sqrt(vals[nonzero])
    # canonical sign: largest-|coefficient| entry positive per component
    for j in range(out_dim):
        col = coeff[:, j]
        if col.any():
            pivot = np.argmax(np.abs(col))
            if col[pivot] < 0:
                coeff[:, j] = -col

    return KpcaModel(
        train_vectors=x.copy(),
        coefficients=coeff,
        eigenvalues=vals,
        degree=degree,
        gamma=float(gamma),
        coef0=float(coef0),
        row_means=row_means,
        grand_mean=grand_mean,
        total_variance=total_variance,
        effective_rank=effective_rank,
    )


def kpca_transform(model: KpcaModel, features: np.ndarray) -> np.ndarray:
    """Project rows onto the fitted components using the stored centering stats."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"expected m x {model.in_dim} features, got {x.shape}")
    kx = _poly_kernel(x, model.train_vectors, model.gamma, model.coef0, model.degree)
    kx_c = kx - kx.mean(axis=1, keepdims=True) - model.row_means[None, :] + model.grand_mean
    return kx_c @ model.coefficients


def explained_variance_curve(model: KpcaModel) -> np.ndarray:
    """Cumulative eigenvalue fractions relative to the full centered-kernel trace."""
    if model.total_variance <= 0:
        return np.zeros(model.out_dim)
    return np.cumsum(model.eigenvalues) / model.total_variance


def save_kpca(model: KpcaModel, path: str | Path) -> None:
    save_container(
        path,
        "kpca",
        {
            "degree": model.degree,
            "gamma": model.gamma,
            "coef0": model.coef0,
            "grand_mean": model.grand_mean,
            "total_variance": model.total_variance,
            "effective_rank": model.effective_rank,
        },
        {
            "train_vectors": model.train_vectors,
            "coefficients": model.coefficients,
            "eigenvalues": model.eigenvalues,
            "row_means": model.row_means,
        },
    )


_KPCA_META_TYPES = {
    "degree": int, "gamma": float, "coef0": float,
    "grand_mean": float, "total_variance": float, "effective_rank": int,
}


def load_kpca(path: str | Path) -> KpcaModel:
    """Read a model written by save_kpca; a missing or mistyped field is a DataError."""
    _, meta, arrays = load_container(path, expect_kind="kpca")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: KPCA meta must be an object")
    fields = {}
    for key, kind in _KPCA_META_TYPES.items():
        value = meta.get(key)
        if type(value) not in ((int,) if kind is int else (int, float)):
            raise DataError(f"{path}: KPCA meta {key!r} must be {kind.__name__}, got {value!r}")
        fields[key] = kind(value)
    try:
        x, coeff = arrays["train_vectors"], arrays["coefficients"]
        vals, row_means = arrays["eigenvalues"], arrays["row_means"]
    except KeyError as exc:
        raise DataError(f"{path}: KPCA model lacks array {exc}") from exc
    n = x.shape[0] if x.ndim == 2 else -1
    if coeff.ndim != 2 or coeff.shape[0] != n or vals.shape != coeff.shape[1:] or row_means.shape != (n,):
        raise DataError(
            f"{path}: inconsistent KPCA array shapes {x.shape}, {coeff.shape}, {vals.shape}, {row_means.shape}"
        )
    return KpcaModel(train_vectors=x, coefficients=coeff, eigenvalues=vals, row_means=row_means, **fields)
