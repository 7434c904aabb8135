import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegspeech import dsp

from conftest import sine, sine_fit_amplitude


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
        assert filt.order == 8
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
        y = dsp.lfilter(filt, x)[500:]
        assert np.sqrt(np.mean(y**2)) <= 0.03 * np.sqrt(np.mean(x**2))

    def test_45hz_sine_mostly_preserved(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        x = sine(45.0, 1000.0, 2.0)
        y = dsp.lfilter(filt, x)[500:]
        assert np.sqrt(np.mean(y**2)) >= 0.89 * np.sqrt(np.mean(x**2))

    def test_zero_in_zero_out(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        assert np.allclose(dsp.lfilter(filt, np.zeros(100)), 0.0)

    def test_notch_depth_and_shoulders(self):
        filt = dsp.design_iir_notch(60.0, 30.0, 1000.0)
        assert to_db(response_magnitude(filt, 60.0, 1000.0)) <= -30.0
        for f in (50.0, 70.0):
            assert to_db(response_magnitude(filt, f, 1000.0)) >= -1.0

    def test_invalid_f0(self):
        with pytest.raises(ValueError):
            dsp.design_iir_notch(600.0, 30.0, 1000.0)


class TestFiltfilt:
    def test_identity_section_preserves_impulse(self):
        ident = dsp.IirFilter(np.array([[1.0, 0, 0, 1.0, 0, 0]]), "identity")
        x = np.zeros(64)
        x[32] = 1.0
        assert np.allclose(dsp.filtfilt(ident, x), x)

    def test_zero_phase_on_bandlimited_pulse(self):
        # 30 Hz tone burst with a gaussian envelope; xcorr peak must sit at lag 0
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        t = np.arange(2000) / 1000.0
        x = np.exp(-0.5 * ((t - 1.0) / 0.1) ** 2) * np.sin(2 * np.pi * 30.0 * t)
        y = dsp.filtfilt(filt, x)
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
        twice = dsp.filtfilt(filt, dsp.filtfilt(filt, x))
        once = dsp.filtfilt(doubled, x)
        assert np.sqrt(np.mean((twice - once) ** 2)) < 1e-6

    def test_linearity(self, rng):
        filt = dsp.design_butterworth_bandpass(4, 0.5, 70.0, 1000.0)
        x, y = rng.standard_normal(500), rng.standard_normal(500)
        a, b = 1.7, -0.3
        lhs = dsp.filtfilt(filt, a * x + b * y)
        rhs = a * dsp.filtfilt(filt, x) + b * dsp.filtfilt(filt, y)
        assert np.sqrt(np.mean((lhs - rhs) ** 2)) < 1e-9

    def test_too_short_signal_rejected(self):
        filt = dsp.design_butterworth_bandpass(4, 0.1, 70.0, 1000.0)
        with pytest.raises(ValueError, match="too short"):
            dsp.filtfilt(filt, np.zeros(10))


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
        with pytest.raises(ValueError, match="shorter than one window"):
            dsp.stft_power(np.zeros(100), 256, 64, 1000)


class TestFrameGrid:
    def test_eeg_rate(self):
        grid = dsp.frame_grid_for_rate(1000)
        assert grid.hop == 32
        assert grid.effective_rate_hz == pytest.approx(31.25)

    def test_audio_rate(self):
        grid = dsp.frame_grid_for_rate(15000)
        assert grid.hop == 484
        assert grid.effective_rate_hz == pytest.approx(30.99, abs=0.01)

    def test_identity_rate(self):
        assert dsp.frame_grid_for_rate(31).hop == 1

    def test_too_small_rate_rejected(self):
        with pytest.raises(ValueError):
            dsp.frame_grid_for_rate(20)

    def test_incompatible_rate_rejected(self):
        with pytest.raises(ValueError):
            dsp.frame_grid_for_rate(100)
