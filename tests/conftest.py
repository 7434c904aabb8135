import json

import numpy as np
import pytest
import scipy.signal as sps


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def sine(freq_hz: float, fs_hz: float, duration_s: float, amplitude: float = 1.0, phase: float = 0.0):
    t = np.arange(int(round(duration_s * fs_hz))) / fs_hz
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t + phase)


def sine_fit_amplitude(x: np.ndarray, freq_hz: float, fs_hz: float) -> float:
    """Least-squares amplitude of a known-frequency tone (independent oracle)."""
    t = np.arange(len(x)) / fs_hz
    basis = np.column_stack([np.sin(2 * np.pi * freq_hz * t), np.cos(2 * np.pi * freq_hz * t)])
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(coef[0], coef[1]))


def lfilter(filt, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Causal single-pass filtering of a `dsp.IirFilter`: the reference the
    zero-phase tests measure against."""
    return sps.sosfilt(filt.sos.copy(), np.asarray(x, dtype=np.float64), axis=axis)


def with_container_header(path, edit) -> None:
    """Rewrite the header JSON of the container at `path` in place, keeping its
    blobs; json's defaults, so a non-finite value is written as a bare token."""
    raw = path.read_bytes()
    hlen = int(np.frombuffer(raw[12:20], dtype=np.uint64)[0])
    header = json.loads(raw[20 : 20 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(raw[:12] + np.uint64(len(text)).tobytes() + text + raw[20 + hlen :])


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
