"""EEG preprocessing, ICA artifact rejection, per-channel statistical features
at the ~31 Hz grid, and kernel-PCA reduction of the 155-dim feature vectors.

The preprocessing chain is band-pass -> notch -> optional ICA cleaning ->
per-channel z-score. The five per-frame statistics per channel are RMS, zero
crossing rate, moving window average, excess kurtosis, and power spectral
entropy, giving 31 * 5 = 155 columns in fixed channel-major order.
"""

from __future__ import annotations

import functools
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg.blas
import scipy.sparse.linalg

from . import dsp
from .dataio import EEG_CHANNELS, EEG_SAMPLE_RATE_HZ, EegRecording
from .errors import DataError
from .serialize import load_container, save_container

STAT_NAMES = ("rms", "zcr", "mwa", "kurtosis", "pse")
STAT_FEATURE_DIM = EEG_CHANNELS * len(STAT_NAMES)  # 155
MWA_WINDOW = 8  # samples the moving window average spans: the shortest frame, so the shortest hop


@dataclass(frozen=True)
class PreprocessOptions:
    """One preprocessing setting per field, all required: the stock values live
    in RunConfig, and `pipeline.preprocess_options` maps a config onto these."""

    bandpass_lo_hz: float
    bandpass_hi_hz: float
    bandpass_order: int
    notch_hz: float
    notch_q: float
    run_ica: bool
    ica_kurtosis_threshold: float
    ica_seed: int


class CleanEeg(EegRecording):
    """Preprocessed channel-major EEG at EEG_SAMPLE_RATE_HZ: an EegRecording
    whose validation errors name it clean EEG."""

    noun = "clean EEG"


def zscore_channels(data: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Per-channel standardization; zero-variance channels map to zeros."""
    mean = data.mean(axis=1, keepdims=True)
    std = data.std(axis=1, keepdims=True)
    out = np.where(std > eps, (data - mean) / np.where(std > eps, std, 1.0), 0.0)
    return out


@functools.lru_cache(maxsize=4)
def _preprocess_filters(options: PreprocessOptions) -> tuple[dsp.IirFilter, dsp.IirFilter]:
    """The band-pass and notch of an option set, designed once and shared:
    an IirFilter's coefficients are read-only."""
    bp = dsp.design_butterworth_bandpass(
        options.bandpass_order, options.bandpass_lo_hz, options.bandpass_hi_hz, EEG_SAMPLE_RATE_HZ
    )
    return bp, dsp.design_iir_notch(options.notch_hz, options.notch_q, EEG_SAMPLE_RATE_HZ)


def preprocess_eeg(rec: EegRecording, options: PreprocessOptions) -> CleanEeg:
    """Zero-phase band-pass + notch, optional ICA cleanup, z-score."""
    bp, notch = _preprocess_filters(options)
    data = dsp.apply_filter(bp, rec.data, axis=1)
    data = dsp.apply_filter(notch, data, axis=1)

    if options.run_ica:
        result = fast_ica(data, seed=options.ica_seed)
        data, _ = remove_artifact_components(result, options.ica_kurtosis_threshold)

    return CleanEeg(zscore_channels(data))


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

    def reconstruct(self, keep: np.ndarray) -> np.ndarray:
        """Back-project components to signal space, zeroing dropped ones."""
        comps = self.components * np.asarray(keep)[:, None]
        return self.dewhitening @ (self.unmixing.T @ comps) + self.mean[:, None]


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(w @ w.T)
    vals = np.maximum(vals, 1e-12)
    return (vecs * (1.0 / np.sqrt(vals))) @ vecs.T @ w


def fast_ica(
    data: np.ndarray,
    seed: int,
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

    mean = data.mean(axis=1)
    xc = data - mean[:, None]
    cov = (xc @ xc.T) / n_samples
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = np.maximum(vals[order], 1e-18)
    vecs = vecs[:, order]
    whitening = (vecs * (1.0 / np.sqrt(vals))).T
    dewhitening = vecs * np.sqrt(vals)
    z = whitening @ xc

    rng = np.random.default_rng(seed)
    w = _sym_decorrelate(rng.standard_normal((n_ch, n_ch)))
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
    """m4 / m2^2 - 3 on central moments; 0 where the variance vanishes.

    m4 is the mean of d2·d2 with d2 = d·d, not of d ** 4: numpy sends an
    integer power other than 2 to libm pow, element by element. On a 2418 x 32
    frame block that took 6.1 ms against 0.06 ms for the product (2 vCPU Xeon,
    numpy 2.4).
    """
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=axis, keepdims=True)
    d = x - mu
    d2 = d * d
    m2 = np.mean(d2, axis=axis)
    m4 = np.mean(d2 * d2, axis=axis)
    return np.where(m2 > eps, m4 / np.where(m2 > eps, m2 * m2, 1.0) - 3.0, 0.0)


def remove_artifact_components(
    ica: IcaResult, kurtosis_threshold: float
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

def _stats_block(frames: np.ndarray) -> np.ndarray:
    """Vectorized stats over the frames of the last axis: (..., window) -> (..., 5)."""
    rms = dsp.frame_rms(frames)
    zcr = dsp.frame_zcr(frames)

    sliding = np.lib.stride_tricks.sliding_window_view(frames, MWA_WINDOW, axis=-1)
    mwa = sliding.mean(axis=-1).mean(axis=-1)

    kurt = excess_kurtosis(frames, axis=-1)

    power = np.abs(np.fft.rfft(frames, axis=-1)) ** 2
    power = power[..., 1:]  # positive-frequency bins, DC excluded
    total = power.sum(axis=-1)
    n_bins = power.shape[-1]
    safe_total = np.where(total > 1e-12, total, 1.0)
    p = power / safe_total[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0.0, p * np.log(p), 0.0)
    pse = np.where(total > 1e-12, -plogp.sum(axis=-1) / np.log(n_bins), 0.0)

    return np.stack([rms, zcr, mwa, kurt, pse], axis=-1)


@dataclass(frozen=True)
class StatFeatureSeq:
    """frames x 155 matrix; columns are channel-major blocks of the 5 stats."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != STAT_FEATURE_DIM:
            raise DataError(f"stat features must have {STAT_FEATURE_DIM} columns, got {values.shape}")
        if values.shape[0] == 0:
            raise DataError("stat features have 0 frames")
        if not np.all(np.isfinite(values)):
            raise DataError("non-finite stat feature value")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def extract_stat_features(clean: CleanEeg, grid: dsp.FrameGrid) -> StatFeatureSeq:
    """5 stats per channel, channel-major, on 1 + n // hop hop-long frames centred on every
    hop: the framing of the acoustic rms/zcr (`dsp.frame_signal_centered`)."""
    if grid.sample_rate_hz != EEG_SAMPLE_RATE_HZ:
        raise DataError("grid sample rate does not match the recording")
    stats = _stats_block(dsp.frame_signal_centered(clean.data, grid.hop, grid.hop))  # (channels, frames, 5)
    return StatFeatureSeq(np.transpose(stats, (1, 0, 2)).reshape(stats.shape[1], -1))


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
    """(gamma·a·bᵀ + coef0)^degree, built in place on the GEMM result."""
    k = a @ b.T
    k *= gamma
    k += coef0
    k **= degree
    return k


def kpca_fit(
    train_features: np.ndarray,
    out_dim: int,
    degree: int,
    gamma: float | None,
    coef0: float,
) -> KpcaModel:
    """Fit polynomial-kernel PCA (gamma None: 1/feature dim): double-centered
    kernel, top-out_dim eigenpairs by Lanczos iteration (ARPACK `eigsh`), in
    descending order. The Lanczos operator is the symmetric matrix-vector
    product (BLAS `dsymv`) on one triangle of the centered kernel, read in place.

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
        raise DataError(f"KPCA needs more training frames than out_dim={out_dim}, got {n} frames")
    if gamma is None:
        gamma = 1.0 / d

    kc = _poly_kernel(x, x, gamma, coef0, degree)
    row_means = kc.mean(axis=1)
    grand_mean = float(kc.mean())
    # centered in place: at thousands of frames a second n x n array is the peak
    kc -= row_means[:, None]
    kc -= row_means[None, :]
    kc += grand_mean
    total_variance = float(np.trace(kc))

    # rank cutoff needs an absolute scale: for degenerate data the centered
    # kernel is all rounding noise and its top eigenvalue is no reference
    floor = 1e-10 * abs(grand_mean)
    if np.linalg.norm(kc) <= floor:
        # the Frobenius norm bounds every |eigenvalue|, so no component can
        # clear the cutoff; and Lanczos cannot start on an all-zero kernel
        vals, vecs = np.zeros(out_dim), np.zeros((n, out_dim))
    else:
        # a fixed start vector keeps the fit deterministic; it must not be
        # constant, since the constant vector is in the centered kernel's null space
        v0 = np.random.default_rng(0).standard_normal(n)
        # dsymv reads one triangle per step, so the operator is exactly
        # symmetric; kc.T is the Fortran-order view of the C-order kernel,
        # which BLAS reads in place (handed kc, scipy copies it on every call)
        op = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda v: scipy.linalg.blas.dsymv(1.0, kc.T, v), dtype=np.float64
        )
        vals, vecs = scipy.sparse.linalg.eigsh(op, k=out_dim, which="LA", v0=v0)
        order = np.argsort(vals)[::-1]
        vals, vecs = np.maximum(vals[order], 0.0), vecs[:, order]
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


# field name -> declared type, in field order: np.ndarray fields are a .kpca file's arrays, int/float its meta
_KPCA_FIELD_TYPES: dict[str, type] = typing.get_type_hints(KpcaModel)


def save_kpca(model: KpcaModel, path: str | Path) -> None:
    meta, arrays = {}, {}
    for name, kind in _KPCA_FIELD_TYPES.items():
        (arrays if kind is np.ndarray else meta)[name] = getattr(model, name)
    save_container(path, "kpca", meta, arrays)


def load_kpca(path: str | Path) -> KpcaModel:
    """Read a model written by save_kpca; a missing, mistyped or non-finite
    field is a DataError."""
    _, meta, arrays = load_container(path, expect_kind="kpca")
    if not isinstance(meta, dict):
        raise DataError(f"{path}: KPCA meta must be an object")
    fields = {}
    for name, kind in _KPCA_FIELD_TYPES.items():
        if kind is np.ndarray:
            if name not in arrays:
                raise DataError(f"{path}: KPCA model lacks array {name!r}")
            value = arrays[name]
        else:
            value = meta.get(name)
            if type(value) not in ((int,) if kind is int else (int, float)):
                raise DataError(f"{path}: KPCA meta {name!r} must be {kind.__name__}, got {value!r}")
            value = kind(value)
        if not np.all(np.isfinite(value)):
            raise DataError(f"{path}: KPCA {name!r} holds NaN or inf")
        fields[name] = value
    model = KpcaModel(**fields)
    x, coeff, vals, row_means = model.train_vectors, model.coefficients, model.eigenvalues, model.row_means
    n = x.shape[0] if x.ndim == 2 else -1
    if coeff.ndim != 2 or coeff.shape[0] != n or vals.shape != coeff.shape[1:] or row_means.shape != (n,):
        raise DataError(
            f"{path}: inconsistent KPCA array shapes {x.shape}, {coeff.shape}, {vals.shape}, {row_means.shape}"
        )
    return model
