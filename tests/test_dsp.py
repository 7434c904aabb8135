import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from eegspeech import dsp
from eegspeech.errors import DataError

from conftest import lfilter, sine, sine_fit_amplitude


def response_magnitude(filt: dsp.IirFilter, freq_hz: float, fs_hz: float) -> float:
    """Independent transfer-function oracle: evaluate each biquad directly."""
    z1 = np.exp(-2j * np.pi * freq_hz / fs_hz)
    h = 1.0 + 0j
    for b0, b1, b2, a0, a1, a2 in filt.sos:
        h *= (b0 + b1 * z1 + b2 * z1**2) / (a0 + a1 * z1 + a2 * z1**2)
    return abs(h)


def to_db(x: float) -> float:
    return 20.0 * np.log10(max(x, 1e-300))


class TestButterworthBandpass:
    def test_midband_gain_within_half_db(self):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        assert abs(to_db(response_magnitude(filt, 30.0, 1000.0))) <= 0.5

    def test_stopband_attenuation_at_300hz(self):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        assert to_db(response_magnitude(filt, 300.0, 1000.0)) <= -30.0

    def test_three_db_points_at_band_edges(self):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        for edge in (0.1, 70.0):
            assert to_db(response_magnitude(filt, edge, 1000.0)) == pytest.approx(-3.01, abs=0.2)

    def test_order_is_eight_digital_poles(self):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        assert 2 * len(filt.sos) == 8
        assert "4" in filt.description

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            dsp.design_butterworth_bandpass(4, 70.0, 70.0, 1000.0)
        with pytest.raises(ValueError):
            dsp.design_butterworth_bandpass(4, 10.0, 600.0, 1000.0)

    def test_all_poles_inside_unit_circle(self):
        for lo, hi, fs in [(0.1, 70, 1000), (1, 40, 250), (50, 7000, 16000)]:
            filt = dsp.design_butterworth_bandpass(4, lo, hi, fs)
            assert np.all(filt.pole_magnitudes() < 1.0)


class TestNotch:
    def test_60hz_sine_suppressed_after_transient(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        x = sine(60.0, 1000.0, 2.0)
        y = lfilter(filt, x)[500:]
        assert np.sqrt(np.mean(y**2)) <= 0.03 * np.sqrt(np.mean(x**2))

    def test_45hz_sine_mostly_preserved(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        x = sine(45.0, 1000.0, 2.0)
        y = lfilter(filt, x)[500:]
        assert np.sqrt(np.mean(y**2)) >= 0.89 * np.sqrt(np.mean(x**2))

    def test_zero_in_zero_out(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        assert np.allclose(lfilter(filt, np.zeros(100)), 0.0)

    def test_notch_depth_and_shoulders(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        assert to_db(response_magnitude(filt, 60.0, 1000.0)) <= -30.0
        for f in (50.0, 70.0):
            assert to_db(response_magnitude(filt, f, 1000.0)) >= -1.0

    def test_invalid_f0(self):
        with pytest.raises(ValueError):
            dsp.design_iir_notch(600.0, 30.0, 1000.0)

    @pytest.mark.parametrize("q", [0.0, -3.0])
    def test_non_positive_q_rejected(self, q):
        with pytest.raises(ValueError, match="quality factor"):
            dsp.design_iir_notch(60.0, q, 1000.0)


STOCK_FILTERS = pytest.mark.parametrize("filt, padlen", [
    (dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0), 27),  # stock: 4 sections
    (dsp.design_iir_notch(60.0, 30.0, 1000.0), 9),  # stock: 1 section
    (dsp.IirFilter(np.array([[1.0, 0, 0, 1.0, 0, 0]]), "identity"), 6),  # first order
], ids=["bandpass", "notch", "identity"])


class TestFiltfilt:
    def test_identity_section_preserves_impulse(self):
        ident = dsp.IirFilter(np.array([[1.0, 0, 0, 1.0, 0, 0]]), "identity")
        x = np.zeros(64)
        x[32] = 1.0
        assert np.allclose(dsp.apply_filter(ident, x), x)

    def test_zero_phase_on_bandlimited_pulse(self):
        # 30 Hz tone burst with a gaussian envelope; xcorr peak must sit at lag 0
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        t = np.arange(2000) / 1000.0
        x = np.exp(-0.5 * ((t - 1.0) / 0.1) ** 2) * np.sin(2 * np.pi * 30.0 * t)
        y = dsp.apply_filter(filt, x)
        xcorr = np.correlate(y, x, mode="full")
        lag = int(np.argmax(xcorr)) - (len(x) - 1)
        assert lag == 0

    def test_double_application_equals_cascaded_filter(self):
        # burst in the middle of zero margins so the padding transients of the
        # two code paths both decay to nothing before the comparison region
        filt = dsp.design_butterworth_bandpass(4, 5.0, 70.0, 1000.0)
        doubled = dsp.IirFilter(np.vstack([filt.sos, filt.sos]), "cascade twice")
        x = np.zeros(5000)
        burst = np.hanning(1000) * sine(30.0, 1000.0, 1.0)
        x[2000:3000] = burst
        twice = dsp.apply_filter(filt, dsp.apply_filter(filt, x))
        once = dsp.apply_filter(doubled, x)
        assert np.sqrt(np.mean((twice - once) ** 2)) < 1e-6

    def test_linearity(self, rng):
        filt = dsp.design_butterworth_bandpass(4, 0.5, 70.0, 1000.0)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        a, b = 1.7, -0.3
        lhs = dsp.apply_filter(filt, a * x + b * y)
        rhs = a * dsp.apply_filter(filt, x) + b * dsp.apply_filter(filt, y)
        assert np.sqrt(np.mean((lhs - rhs) ** 2)) < 1e-9

    def test_too_short_signal_rejected(self):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        with pytest.raises(DataError, match="too short"):
            dsp.apply_filter(filt, np.zeros(10))

    @STOCK_FILTERS
    def test_length_guard_is_scipys_padlen(self, filt, padlen):
        """The last length sosfiltfilt rejects is "too short"; the next one filters."""
        with pytest.raises(DataError, match="too short"):
            dsp.apply_filter(filt, np.ones(padlen))
        assert dsp.apply_filter(filt, np.ones(padlen + 1)).shape == (padlen + 1,)


class TestFilterStartState:
    """apply_filter is bitwise scipy.signal.sosfiltfilt at its defaults, each
    pass started from scipy's step-response state, and leaves the shared
    filter untouched."""

    @STOCK_FILTERS
    def test_filter_leaves_sos_read_only_and_unchanged(self, filt, padlen, rng):
        design = filt.sos.tobytes()
        dsp.apply_filter(filt, rng.standard_normal((3, 2 * padlen + 3)), axis=1)
        assert not filt.sos.flags.writeable
        assert filt.sos.tobytes() == design

    @STOCK_FILTERS
    @pytest.mark.parametrize("n_of", [lambda padlen: padlen + 1, lambda padlen: 2 * padlen + 3,
                                      lambda padlen: 2000, lambda padlen: 10000],
                             ids=["padlen+1", "2padlen+3", "2s", "10s"])
    def test_filter_is_bitwise_sosfiltfilt(self, filt, padlen, n_of, rng):
        n = n_of(padlen)
        for shape, axis in [((n,), -1), ((n,), 0), ((5, n), 1), ((5, n), -1), ((n, 5), 0)]:
            x = rng.standard_normal(shape)
            y = dsp.apply_filter(filt, x, axis=axis)
            ref = sps.sosfiltfilt(filt.sos.copy(), x, axis=axis)
            assert y.shape == ref.shape and y.tobytes() == ref.tobytes(), (shape, axis)

    def test_filter_casts_like_sosfiltfilt(self, rng):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        x = rng.standard_normal((3, 500)).astype(np.float32)
        ref = sps.sosfiltfilt(filt.sos.copy(), x.astype(np.float64))
        assert dsp.apply_filter(filt, x).tobytes() == ref.tobytes()


class TestFrameZcr:
    def test_counts_sign_changes_with_zero_as_positive(self, rng):
        frames = rng.standard_normal((7, 3, 32))
        frames[frames > 1.5] = 0.0
        frames[0, 0, 4] = -0.0
        frames[1, 1, 5] = np.nan
        signs = np.where(frames >= 0.0, 1, -1)
        expected = np.sum(signs[..., 1:] != signs[..., :-1], axis=-1) / 31
        assert dsp.frame_zcr(frames).tobytes() == expected.tobytes()
        assert dsp.frame_zcr(np.array([[1.0, -1.0, 0.0, 2.0, -0.5]]))[0] == 3 / 4


class TestResamplePoly:
    def test_length_ratio_16k_to_15k(self):
        y = dsp.resample_poly(np.zeros(16000), 16000, 15000)
        assert len(y) == 15000

    def test_tone_amplitude_preserved(self):
        x = sine(1000.0, 16000.0, 1.0)
        y = dsp.resample_poly(x, 16000, 15000)
        amp = sine_fit_amplitude(y[200:-200], 1000.0, 15000.0)
        assert amp == pytest.approx(1.0, rel=0.01)

    def test_dc_preserved(self):
        y = dsp.resample_poly(np.full(4000, 0.37), 16000, 15000)
        assert np.max(np.abs(y[50:-50] - 0.37)) < 1e-3

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            dsp.resample_poly(np.zeros(10), 0, 15000)
        with pytest.raises(ValueError):
            dsp.resample_poly(np.zeros(10), 16000.5, 15000)

    def test_round_trip_recovers_bandlimited_signal(self, rng):
        # band-limited: resample noise down to make it smooth relative to 15k
        x = dsp.resample_poly(rng.standard_normal(500), 1000, 16000)
        y = dsp.resample_poly(dsp.resample_poly(x, 16000, 15000), 15000, 16000)
        n = min(len(x), len(y))
        core = slice(400, n - 400)
        err = np.sqrt(np.mean((x[core] - y[core]) ** 2)) / np.sqrt(np.mean(x[core] ** 2))
        assert err < 0.01

    @given(n=st.integers(min_value=100, max_value=50000))
    @settings(max_examples=25, deadline=None)
    def test_output_length_formula(self, n):
        y = dsp.resample_poly(np.zeros(n), 16000, 15000)
        assert len(y) == round(n * 15000 / 16000)


class TestStftPower:
    def test_hann_window_concentrates_in_three_bins(self):
        fft, hop, fs = 256, 64, 1000
        k = 20
        x = sine(k * fs / fft, fs, 2.0)
        spec = dsp.stft_power(x, fft, hop, fs)
        row = spec.power[spec.n_frames // 2]
        assert int(np.argmax(row)) == k
        assert row[k - 1 : k + 2].sum() / row.sum() >= 0.99

    def test_zero_signal_zero_spectrogram(self):
        spec = dsp.stft_power(np.zeros(1000), 256, 64, 1000)
        assert np.all(spec.power == 0.0)

    def test_parseval_identity_per_frame(self, rng):
        fft, hop = 256, 64
        x = rng.standard_normal(2000)
        spec = dsp.stft_power(x, fft, hop, 1000)
        window = dsp.hann_periodic(fft)
        pad = fft // 2
        xp = np.pad(x, pad, mode="reflect")
        for frame_idx in range(spec.n_frames):
            seg = xp[frame_idx * hop : frame_idx * hop + fft] * window
            energy = np.sum(seg * seg)
            row = spec.power[frame_idx]
            onesided = row[0] + 2.0 * row[1:-1].sum() + row[-1]
            assert onesided / fft == pytest.approx(energy, rel=1e-9)

    @given(n=st.integers(min_value=513, max_value=20000), hop=st.sampled_from([64, 128, 256, 484]))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_formula(self, n, hop):
        spec = dsp.stft_power(np.zeros(n), 1024, hop, 15000)
        assert spec.n_frames == 1 + n // hop
        assert spec.power.shape[1] == 513

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dsp.stft_power(np.zeros(1000), 100, 64, 1000)  # not a power of two
        with pytest.raises(ValueError):
            dsp.stft_power(np.zeros(1000), 32, 64, 1000)  # too small
        with pytest.raises(DataError, match="shorter than one window"):
            dsp.stft_power(np.zeros(100), 256, 64, 1000)


def reflect_gather_frames(x: np.ndarray, window: int, hop: int) -> np.ndarray:
    """Centered-framing oracle: frame k holds samples k*hop - window//2 + m,
    m < window, with indices outside [0, n) reflected about the end samples."""
    n = len(x)
    idx = hop * np.arange(1 + n // hop)[:, None] - window // 2 + np.arange(window)[None, :]
    idx = np.where(idx < 0, -idx, idx)
    idx = np.where(idx >= n, 2 * (n - 1) - idx, idx)
    return x[idx]


# (window, hop, n): odd and even windows, hops above and below the window,
# lengths around multiples of the hop that the reflection padding admits
FRAMING_CASES = [
    (window, hop, multiple * hop + offset)
    for window, hop in [(8, 3), (8, 8), (8, 13), (7, 3), (7, 7), (7, 12), (455, 455), (1024, 455), (1024, 484),
                        (32, 32)]
    for multiple, offset in [(1, 0), (1, 1), (3, -1), (3, 0), (3, 1), (30, 0)]
    if multiple * hop + offset > window - window // 2
]


class TestFrameSignalCentered:
    @pytest.mark.parametrize("window, hop, n", FRAMING_CASES)
    def test_matches_reflect_padded_gather(self, rng, window, hop, n):
        x = rng.standard_normal(n)
        frames = dsp.frame_signal_centered(x, window, hop)
        assert frames.shape == (dsp.frame_count(n, hop), window)
        assert np.array_equal(frames, reflect_gather_frames(x, window, hop))

    @pytest.mark.parametrize("window", [7, 8])
    def test_shortest_signal_is_one_past_the_right_padding(self, window):
        n = window - window // 2
        with pytest.raises(DataError, match="shorter than one window"):
            dsp.frame_signal_centered(np.zeros(n), window, 2)
        assert dsp.frame_signal_centered(np.arange(n + 1.0), window, 2).shape == (1 + (n + 1) // 2, window)

    @pytest.mark.parametrize("window, hop", [(32, 32), (31, 31), (64, 16)])
    def test_frames_the_last_axis_of_each_row_alike(self, rng, window, hop):
        x = rng.standard_normal((3, 2, 5 * hop + 3))
        frames = dsp.frame_signal_centered(x, window, hop)
        assert frames.shape == (3, 2, dsp.frame_count(x.shape[-1], hop), window)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(frames[i, j], dsp.frame_signal_centered(x[i, j], window, hop))


class TestFrameGrid:
    def test_eeg_rate(self):
        grid = dsp.frame_grid_for_rate(1000, 31.0)
        assert grid.hop == 32
        assert grid.sample_rate_hz / grid.hop == pytest.approx(31.25)

    def test_audio_rate(self):
        grid = dsp.frame_grid_for_rate(15000, 31.0)
        assert grid.hop == 484
        assert grid.sample_rate_hz / grid.hop == pytest.approx(30.99, abs=0.01)

    def test_identity_rate(self):
        assert dsp.frame_grid_for_rate(31, 31.0).hop == 1

    def test_too_small_rate_rejected(self):
        with pytest.raises(ValueError):
            dsp.frame_grid_for_rate(20, 31.0)

    def test_incompatible_rate_rejected(self):
        with pytest.raises(ValueError):
            dsp.frame_grid_for_rate(100, 31.0)

    @pytest.mark.parametrize("target", [0.0, -5.0])
    def test_non_positive_target_rejected(self, target):
        with pytest.raises(ValueError, match="frame rate must be positive"):
            dsp.frame_grid_for_rate(1000, target)

    def test_rate_whose_hop_overflows_rejected(self):
        # 1000 / 2.2e-308 is inf, which no integer hop holds
        with pytest.raises(ValueError, match="give a finite hop"):
            dsp.frame_grid_for_rate(1000, 2.2250738585072014e-308)


# Parameters that take a rate or a filter/grid setting, per dsp callable.
SETTING_PARAMS = {
    "design_butterworth_bandpass": ("order", "lo_hz", "hi_hz", "fs_hz"),
    "design_iir_notch": ("f0_hz", "q", "fs_hz"),
    "resample_poly": ("from_hz", "to_hz"),
    "stft_power": ("fs_hz",),
    "FrameGrid": ("target_rate_hz",),
    "frame_grid_for_rate": ("target_rate",),
}


@pytest.mark.parametrize("name", SETTING_PARAMS)
def test_rates_and_filter_settings_have_no_stock_default(name):
    """The rates live in dataio and the filter and grid settings in the run
    config; dsp keeps no second, silent copy of them."""
    signature = inspect.signature(getattr(dsp, name)).parameters
    defaults = {param: signature[param].default for param in SETTING_PARAMS[name]}
    assert defaults == dict.fromkeys(SETTING_PARAMS[name], inspect.Parameter.empty)
