"""Shared signal-processing primitives.

IIR design and zero-phase filtering, polyphase resampling, the power STFT, and
the frame grid used by both the EEG and audio feature extractors. Rates and
filter/grid settings have no defaults here: they live in `dataio` and the config.
Filter design and filtering are backed by scipy.signal; the STFT is computed
directly so the frame-count contract is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isinf

import numpy as np
from scipy import signal as sps

from .errors import DataError


@dataclass(frozen=True)
class IirFilter:
    """Cascade of second-order sections, coefficient layout (b0,b1,b2,1,a1,a2).

    `sos` is read-only, so one designed filter can be shared between calls.
    """

    sos: np.ndarray
    description: str = ""

    def __post_init__(self):
        sos = np.atleast_2d(np.asarray(self.sos, dtype=np.float64))
        if sos.shape[1] != 6:
            raise ValueError("sos sections must have 6 coefficients")
        if not np.all(np.isfinite(sos)):
            raise ValueError("non-finite filter coefficients")
        # normalize a0 to 1 per section
        sos = sos / sos[:, 3:4]
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)
        if not self.is_stable():
            raise ValueError(f"unstable filter: {self.description}")

    def pole_magnitudes(self) -> np.ndarray:
        mags = []
        for sec in self.sos:
            poles = np.roots([1.0, sec[4], sec[5]])
            mags.extend(np.abs(poles))
        return np.asarray(mags)

    def is_stable(self) -> bool:
        return bool(np.all(self.pole_magnitudes() < 1.0))


# The design's arrays grow with the order, and at the stock band it overflows
# from order ~240 (near the band's limits, from ~50): a larger order is refused
# before any design.
MAX_BANDPASS_ORDER = 200


def design_butterworth_bandpass(order: int, lo_hz: float, hi_hz: float, fs_hz: float) -> IirFilter:
    """Butterworth band-pass: analog low-pass prototype of `order`, band-transformed.

    The digital filter has 2*order poles (order sections); the -3 dB points sit
    at lo_hz and hi_hz.
    """
    if not (0 < lo_hz < hi_hz < fs_hz / 2):
        raise ValueError(f"invalid band edges lo={lo_hz} hi={hi_hz} for fs={fs_hz}")
    if not (1 <= order <= MAX_BANDPASS_ORDER):
        raise ValueError(f"band-pass order must be in [1, {MAX_BANDPASS_ORDER}], got {order}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            sos = sps.butter(order, [lo_hz, hi_hz], btype="bandpass", fs=fs_hz, output="sos")
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"butterworth band-pass of order {order} overflows in its design "
                         f"for lo={lo_hz}Hz hi={hi_hz}Hz") from exc
    desc = (
        f"butterworth-bandpass order={order} (analog prototype, {2 * order} digital poles) "
        f"lo={lo_hz}Hz hi={hi_hz}Hz fs={fs_hz}Hz"
    )
    return IirFilter(sos, desc)


def design_iir_notch(f0_hz: float, q: float, fs_hz: float) -> IirFilter:
    """Second-order notch with a true zero at f0_hz; -3 dB bandwidth f0/q."""
    if not (0 < f0_hz < fs_hz / 2):
        raise ValueError(f"invalid notch frequency {f0_hz} for fs={fs_hz}")
    if not (q > 0):
        raise ValueError(f"notch quality factor must be positive, got {q}")
    b, a = sps.iirnotch(f0_hz, q, fs=fs_hz)
    sos = np.hstack([b, a])[None, :]
    return IirFilter(sos, f"iir-notch f0={f0_hz}Hz q={q} fs={fs_hz}Hz")


def apply_filter(filt: IirFilter, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Zero-phase forward-backward filtering (squared magnitude response).

    `scipy.signal.sosfiltfilt` at its defaults, on float64; the signal needs
    more than `padlen` samples on `axis`, else DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    # sosfiltfilt pads each end with 3 * ntaps samples and needs more than that;
    # ntaps = 2 * sections + 1, less the smaller of the counts of first-order
    # numerators (b2 = 0) and first-order denominators (a2 = 0).
    sos = filt.sos
    padlen = 3 * (2 * len(sos) + 1 - min(int(np.sum(sos[:, 2] == 0)), int(np.sum(sos[:, 5] == 0))))
    if x.shape[axis] <= padlen:
        raise DataError(f"signal too short for zero-phase filtering: {x.shape[axis]} samples <= padlen {padlen}")
    # scipy's filters reject a read-only sos array, so each call gets a copy.
    return sps.sosfiltfilt(sos.copy(), x, axis=axis)


def resample_poly(x: np.ndarray, from_hz: int, to_hz: int) -> np.ndarray:
    """`scipy.signal.resample_poly` by to/from, trimmed to round(len(x) * to / from).

    scipy reduces the ratio and copies at equal rates; the anti-aliasing
    low-pass is part of the polyphase kernel.
    """
    if int(from_hz) != from_hz or int(to_hz) != to_hz or from_hz <= 0 or to_hz <= 0:
        raise ValueError("sample rates must be positive integers")
    from_hz, to_hz = int(from_hz), int(to_hz)
    x = np.asarray(x, dtype=np.float64)
    return sps.resample_poly(x, to_hz, from_hz)[:int(round(len(x) * to_hz / from_hz))]


@dataclass(frozen=True)
class FrameGrid:
    """Analysis grid realizing a target frame rate (stock ~31 Hz) with an integer hop.

    Frame statistics (the EEG stats, audio rms and zcr) use hop-long windows.
    """

    sample_rate_hz: int
    hop: int
    target_rate_hz: float

    def __post_init__(self):
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if abs(self.sample_rate_hz / self.hop - self.target_rate_hz) >= 0.5:
            raise ValueError(
                f"hop {self.hop} does not realize ~{self.target_rate_hz} Hz at fs={self.sample_rate_hz}"
            )


def frame_grid_for_rate(fs_hz: int, target_rate: float) -> FrameGrid:
    """Integer-hop grid closest to target_rate: hop = round(fs / target)."""
    if not (target_rate > 0) or isinf(fs_hz / target_rate):
        raise ValueError(f"frame rate must be positive and give a finite hop, got {target_rate}")
    if fs_hz < target_rate:
        raise ValueError(f"sample rate {fs_hz} too small for a {target_rate} Hz grid")
    return FrameGrid(int(fs_hz), int(round(fs_hz / target_rate)), target_rate)


def frame_count(n_samples: int, hop: int) -> int:
    """Frame count of the centered STFT / centered framing: 1 + floor(n/hop)."""
    return 1 + n_samples // hop


def frame_rms(frames: np.ndarray) -> np.ndarray:
    """Root mean square of each frame of a (..., window) block."""
    return np.sqrt(np.mean(frames * frames, axis=-1))


def frame_zcr(frames: np.ndarray) -> np.ndarray:
    """Zero-crossing rate of each frame of a (..., window) block; zero counts as positive."""
    positive = frames >= 0.0
    return np.sum(positive[..., 1:] != positive[..., :-1], axis=-1) / (frames.shape[-1] - 1)


def frame_signal_centered(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Centered framing of the last axis: frame k covers samples around k*hop, count 1 + n//hop.

    A read-only strided view of the reflection-padded signal; the padding
    needs n > window - window//2.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    right = window - window // 2
    if n <= right:
        raise DataError(f"signal shorter than one window ({n} samples, window {window})")
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(window // 2, right)], mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(xp, window, axis=-1)[..., ::hop, :]


def hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class PowerSpectrogram:
    """frames x bins non-negative power matrix; bins = fft_size // 2 + 1."""

    power: np.ndarray
    fft_size: int
    hop: int
    sample_rate_hz: int
    freqs_hz: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.power.shape[1] != self.fft_size // 2 + 1:
            raise ValueError("bin count must be fft_size/2 + 1")
        if np.any(self.power < 0):
            raise ValueError("negative spectrogram entry")
        object.__setattr__(
            self, "freqs_hz", np.fft.rfftfreq(self.fft_size, d=1.0 / self.sample_rate_hz)
        )

    @property
    def n_frames(self) -> int:
        return self.power.shape[0]


def stft_power(x: np.ndarray, fft_size: int, hop: int, fs_hz: int) -> PowerSpectrogram:
    """Power STFT |DFT|^2 with periodic Hann window and reflection center-padding.

    Frame count is 1 + floor(len(x)/hop): the signal is padded by fft_size/2 on
    both ends, so frame k is centered on sample k*hop.
    """
    if fft_size < 64 or fft_size & (fft_size - 1) != 0:
        raise ValueError("fft_size must be a power of two >= 64")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    frames = frame_signal_centered(x, fft_size, hop)
    spec = np.fft.rfft(frames * hann_periodic(fft_size)[None, :], axis=1)
    power = np.abs(spec) ** 2
    return PowerSpectrogram(power, fft_size, hop, int(fs_hz))
