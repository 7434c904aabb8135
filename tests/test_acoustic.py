import numpy as np
import pytest

from eegspeech import acoustic, dsp

from conftest import sine

FS = 15000


def sawtooth(freq_hz: float, fs_hz: float, duration_s: float) -> np.ndarray:
    t = np.arange(int(duration_s * fs_hz)) / fs_hz
    return 2.0 * ((t * freq_hz) % 1.0) - 1.0


def clicks(bpm: float, fs_hz: float, duration_s: float) -> np.ndarray:
    x = np.zeros(int(duration_s * fs_hz))
    period = int(round(fs_hz * 60.0 / bpm))
    for pos in range(0, len(x), period):
        x[pos : pos + 30] = 1.0
    return x


@pytest.fixture(scope="module")
def grid():
    return dsp.frame_grid_for_rate(FS, 31.0)


def family(kind, x, grid):
    """One kind of the acoustic set of `x`, through the one entry point."""
    return acoustic.extract_acoustic_set(x, grid).features[kind]


def reference_cqt_note_energies(x: np.ndarray, grid: dsp.FrameGrid) -> np.ndarray:
    """The constant-Q note energies one note at a time: each note's kernel
    applied to frames gathered around every hop center (the oracle for the
    per-octave GEMM in acoustic._cqt_note_energies)."""
    fs = grid.sample_rate_hz
    freqs = acoustic._midi_to_hz(np.arange(acoustic.CQT_MIDI_LO, acoustic.CQT_MIDI_HI + 1))
    lengths = np.round(acoustic.CQT_Q * fs / freqs).astype(int)
    pad = int(lengths.max() // 2 + 1)
    xp = np.pad(x, pad)
    centers = grid.hop * np.arange(dsp.frame_count(len(x), grid.hop)) + pad
    energies = np.empty((len(centers), len(freqs)))
    for i, (fk, nk) in enumerate(zip(freqs, lengths)):
        n = np.arange(nk)
        window = dsp.hann_periodic(nk)
        kernel = window * np.exp(-2j * np.pi * fk * n / fs)
        kernel /= window.sum()
        frames = xp[centers[:, None] + (n - nk // 2)[None, :]]
        energies[:, i] = np.abs(frames @ kernel) ** 2
    return energies


class TestDimensionTable:
    def test_totals(self):
        assert acoustic.TOTAL_DIM == 571
        assert len(acoustic.FEATURE_ORDER) == 16

    def test_kind_dimension_table(self):
        expected = {
            "band_power": 12, "cqt_chroma": 12, "chroma_cens": 12, "mel": 128,
            "rms": 1, "centroid": 1, "bandwidth": 1, "contrast": 7, "flatness": 1,
            "rolloff": 1, "poly": 2, "tonnetz": 6, "zcr": 1, "tempogram": 384,
            "loudness": 1, "pitch": 1,
        }
        assert acoustic.FEATURE_DIMS == expected

    def test_labels(self):
        assert acoustic.FEATURE_LABELS["f1"] == "band_power"
        assert acoustic.FEATURE_LABELS["f10"] == "rolloff"
        assert acoustic.FEATURE_LABELS["f16"] == "pitch"

    def test_wrong_dim_rejected(self, grid):
        with pytest.raises(Exception, match="expected frames x 12"):
            acoustic.FeatureSequence("band_power", np.zeros((4, 11)))


class TestBandPower:
    def test_silence_is_zero(self, grid):
        seq = family("band_power", np.zeros(FS), grid)
        assert seq.values.shape[1] == 12
        assert np.all(seq.values == 0.0)

    def test_1khz_sine_concentrates_in_containing_band(self, grid):
        # band-edge oracle: locate the band containing 1 kHz from the edges
        edges = acoustic.log_band_edges()
        band = int(np.searchsorted(edges, 1000.0) - 1)
        seq = family("band_power", sine(1000.0, FS, 1.0), grid)
        totals = seq.values.sum(axis=0)
        assert totals[band] / totals.sum() >= 0.80


class TestChroma:
    def test_440hz_maps_to_class_a(self, grid):
        seq = family("cqt_chroma", sine(440.0, FS, 0.8), grid)
        mid = seq.values[seq.n_frames // 2]
        assert int(np.argmax(mid)) == 9  # A with C=0

    def test_silence_is_zero(self, grid):
        seq = family("cqt_chroma", np.zeros(FS), grid)
        assert np.all(seq.values == 0.0)

    def test_octave_folding(self, grid):
        low = family("cqt_chroma", sine(440.0, FS, 0.8), grid)
        high = family("cqt_chroma", sine(880.0, FS, 0.8), grid)
        mid = low.n_frames // 2
        assert int(np.argmax(low.values[mid])) == int(np.argmax(high.values[mid]))

    def test_max_normalization(self, grid):
        seq = family("cqt_chroma", sine(261.63, FS, 0.8), grid)
        assert np.max(seq.values) == pytest.approx(1.0)


class TestCqtNoteEnergies:
    # shorter than one hop (484), shorter than the C1 kernel (7716), then 1-4 s
    @pytest.mark.parametrize("n", [1, 100, 483, 485, 3000, 7715, 15000, 30001, 45000, 60000])
    def test_matches_per_note_oracle(self, n, grid):
        rng = np.random.default_rng(n)
        x = 0.3 * rng.standard_normal(n) + sine(261.63, FS, n / FS)[:n] + 0.5 * sine(55.0, FS, n / FS)[:n]
        got = acoustic._cqt_note_energies(x, grid)
        want = reference_cqt_note_energies(x, grid)
        assert got.shape == want.shape == (1 + n // grid.hop, 84)
        peak = want.max(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * peak)

    def test_matches_per_note_oracle_at_another_rate(self, rng):
        grid16k = dsp.frame_grid_for_rate(16000, 31.0)
        x = rng.standard_normal(20000)
        want = reference_cqt_note_energies(x, grid16k)
        got = acoustic._cqt_note_energies(x, grid16k)
        assert np.all(np.abs(got - want) <= 1e-12 * want.max(axis=1, keepdims=True))

    def test_silence_is_exactly_zero(self, grid):
        assert np.all(acoustic._cqt_note_energies(np.zeros(FS), grid) == 0.0)

    def test_note_tone_energy_is_a_quarter(self, grid):
        # a unit-amplitude tone at A4 gives ~0.25 in the A4 column
        energies = acoustic._cqt_note_energies(sine(440.0, FS, 1.0), grid)
        mid = energies[len(energies) // 2]
        assert int(np.argmax(mid)) == 69 - acoustic.CQT_MIDI_LO
        assert mid[69 - acoustic.CQT_MIDI_LO] == pytest.approx(0.25, rel=1e-3)

    def test_kernel_blocks_are_cached_and_small(self):
        blocks = acoustic._cqt_octave_blocks(FS)
        assert acoustic._cqt_octave_blocks(FS) is blocks
        assert [b.shape[1] for b in blocks] == [24] * 7
        assert sum(b.nbytes for b in blocks) <= 3 * 2**20
        assert not any(b.flags.writeable for b in blocks)


class TestSpectralWeightCache:
    def test_weights_are_cached_read_only_and_small(self):
        weights = acoustic._spectral_weights(acoustic.FFT_SIZE, FS)
        assert acoustic._spectral_weights(acoustic.FFT_SIZE, FS) is weights
        bins = acoustic.FFT_SIZE // 2 + 1
        assert [w.shape for w in weights] == [(12, bins), (128, bins)]
        assert sum(w.nbytes for w in weights) < 2**20
        for w in weights:
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 1.0

    @pytest.mark.parametrize("fft_size, fs", [(1024, FS), (512, 16000), (1024, 16000)])
    def test_matches_weights_built_on_the_spectrogram_bins(self, fft_size, fs, rng):
        # the cache key is (fft_size, rate): each pair gets the weights of its own bins
        spec = dsp.stft_power(rng.standard_normal(6000), fft_size, 160, fs)
        bands = acoustic.band_power_12(spec).values
        mel = acoustic.mel_spectrogram_128(spec).values
        assert np.array_equal(bands, spec.power @ acoustic._band_weights(spec.freqs_hz).T)
        assert np.array_equal(mel, spec.power @ acoustic.mel_filterbank(128, spec.freqs_hz).T)


class TestChromaCens:
    def test_sustained_c4_argmax(self, grid):
        seq = family("chroma_cens", sine(261.63, FS, 1.0), grid)
        mid = seq.values[seq.n_frames // 2]
        assert int(np.argmax(mid)) == 0  # C

    def test_frame_norm_is_one_or_zero(self, grid, rng):
        seq = family("chroma_cens", rng.standard_normal(FS) * 0.2, grid)
        norms = np.linalg.norm(seq.values, axis=1)
        assert np.all((np.abs(norms - 1.0) < 1e-9) | (norms < 1e-9))
        silent = family("chroma_cens", np.zeros(FS), grid)
        assert np.all(np.linalg.norm(silent.values, axis=1) < 1e-12)

    def test_robust_to_quiet_noise(self, grid, rng):
        tone = sine(261.63, FS, 1.0)
        noisy = tone + (10 ** (-30 / 20)) * rng.standard_normal(len(tone))
        a = family("chroma_cens", tone, grid)
        b = family("chroma_cens", noisy, grid)
        mid = a.n_frames // 2
        assert int(np.argmax(a.values[mid])) == int(np.argmax(b.values[mid]))


class TestMel:
    def test_dim_and_silence(self, grid):
        seq = family("mel", np.zeros(FS), grid)
        assert seq.values.shape[1] == 128
        assert np.all(seq.values == 0.0)

    def test_energy_close_to_banded_stft_power(self, grid):
        x = sine(1000.0, FS, 1.0) + 0.3 * sine(3000.0, FS, 1.0)
        spec = dsp.stft_power(x, acoustic.FFT_SIZE, grid.hop, FS)
        mel = acoustic.mel_spectrogram_128(spec)
        mid = mel.n_frames // 2
        ratio = mel.values[mid].sum() / spec.power[mid].sum()
        assert ratio == pytest.approx(1.0, rel=0.10)


class TestSpectralScalars:
    def test_full_scale_sine_loudness(self, grid):
        scalars = acoustic.extract_acoustic_set(sine(1000.0, FS, 1.0), grid).features
        mid = scalars["loudness"].n_frames // 2
        assert scalars["loudness"].values[mid, 0] == pytest.approx(20 * np.log10(1 / np.sqrt(2)), abs=0.1)

    def test_sine_centroid_and_bandwidth(self, grid):
        scalars = acoustic.extract_acoustic_set(sine(1000.0, FS, 1.0), grid).features
        bin_width = FS / acoustic.FFT_SIZE
        mid = scalars["centroid"].n_frames // 2
        assert abs(scalars["centroid"].values[mid, 0] - 1000.0) <= bin_width
        assert scalars["bandwidth"].values[mid, 0] < 2 * bin_width

    def test_flatness_extremes(self, grid, rng):
        noise = acoustic.extract_acoustic_set(rng.standard_normal(FS), grid).features
        tone = acoustic.extract_acoustic_set(sine(1000.0, FS, 1.0), grid).features
        mid = noise["flatness"].n_frames // 2
        assert np.mean(noise["flatness"].values) > 0.5
        assert tone["flatness"].values[mid, 0] < 0.05

    def test_white_noise_rolloff(self, grid, rng):
        # statistical oracle over many frames: flat spectrum -> 0.85 * 7500
        scalars = acoustic.extract_acoustic_set(rng.standard_normal(FS * 2), grid).features
        mean_rolloff = float(np.mean(scalars["rolloff"].values))
        assert mean_rolloff == pytest.approx(0.85 * 7500.0, rel=0.05)

    def test_scaling_behavior(self, grid, rng):
        x = rng.standard_normal(FS) * 0.4
        full = acoustic.extract_acoustic_set(x, grid).features
        half = acoustic.extract_acoustic_set(0.5 * x, grid).features
        assert np.allclose(half["rms"].values, 0.5 * full["rms"].values)
        shift = half["loudness"].values - full["loudness"].values
        assert np.allclose(shift, -20 * np.log10(2), atol=0.01)
        for kind in ("centroid", "rolloff", "flatness", "zcr"):
            assert np.allclose(half[kind].values, full[kind].values, rtol=1e-9, atol=1e-9)


class TestContrast:
    def test_dim_and_silence(self, grid):
        seq = family("contrast", np.zeros(FS), grid)
        assert seq.values.shape[1] == 7
        assert np.all(seq.values == 0.0)

    def test_harmonic_tone_has_more_contrast_than_noise(self, grid, rng):
        # harmonics of 220 Hz up to 7.48 kHz so every octave band holds peaks
        t = np.arange(FS) / FS
        harm = sum(np.sin(2 * np.pi * 220.0 * k * t) / np.sqrt(k) for k in range(1, 35))
        tone = family("contrast", harm, grid)
        noise = family("contrast", rng.standard_normal(FS), grid)
        assert np.all(tone.values.mean(axis=0) > noise.values.mean(axis=0))


class TestPoly:
    def test_flat_spectrum_slope_zero(self, grid):
        flat = dsp.PowerSpectrogram(np.full((5, 513), 2.5), 1024, grid.hop, FS)
        seq = acoustic.poly_coeffs_2(flat)
        assert np.allclose(seq.values[:, 0], 0.0, atol=1e-15)
        assert np.allclose(seq.values[:, 1], 2.5)

    def test_recovers_planted_line(self, grid):
        freqs = np.fft.rfftfreq(1024, 1.0 / FS)
        slope, intercept = 3e-4, 1.75
        planted = dsp.PowerSpectrogram(np.tile(slope * freqs + intercept, (4, 1)), 1024, grid.hop, FS)
        seq = acoustic.poly_coeffs_2(planted)
        assert np.allclose(seq.values[:, 0], slope, atol=1e-6)
        assert np.allclose(seq.values[:, 1], intercept, atol=1e-6)


class TestTonnetz:
    def test_dim_and_zero_guard(self, grid):
        seq = family("tonnetz", np.zeros(FS), grid)
        assert seq.values.shape[1] == 6
        assert np.all(seq.values == 0.0)

    def test_major_minor_triads_distinct(self):
        phi = acoustic.tonnetz_matrix()
        c_major = np.zeros(12)
        c_major[[0, 4, 7]] = 1 / 3
        c_minor = np.zeros(12)
        c_minor[[0, 3, 7]] = 1 / 3
        dist = np.linalg.norm(phi @ c_major - phi @ c_minor)
        assert dist > 0.1


class TestTempogram:
    def test_dim_and_lag0_maximum(self, grid, rng):
        seq = family("tempogram", rng.standard_normal(FS) * 0.3, grid)
        assert seq.values.shape[1] == 384
        assert np.all(seq.values[:, 0] >= seq.values.max(axis=1) - 1e-9)

    def test_120bpm_clicks_peak_lag(self, grid):
        seq = family("tempogram", clicks(120.0, FS, 4.0), grid)
        mid = seq.values[seq.n_frames // 2]
        peak = int(np.argmax(mid[8:])) + 8
        assert peak in (15, 16)


class TestPitch:
    def test_200hz_sawtooth(self, grid):
        seq = family("pitch", sawtooth(200.0, FS, 1.0), grid)
        voiced = seq.values[seq.values[:, 0] > 0, 0]
        assert len(voiced) > 0
        assert np.median(voiced) == pytest.approx(200.0, abs=2.0)

    def test_silence_unvoiced(self, grid):
        seq = family("pitch", np.zeros(FS), grid)
        assert np.all(seq.values == 0.0)

    def test_octave_ratio(self, grid):
        low = family("pitch", sine(150.0, FS, 1.0), grid)
        high = family("pitch", sine(300.0, FS, 1.0), grid)
        mid = low.n_frames // 2
        ratio = high.values[mid, 0] / low.values[mid, 0]
        assert ratio == pytest.approx(2.0, rel=0.02)


@pytest.fixture(scope="module")
def aset(grid):
    rng = np.random.default_rng(5)
    t = np.arange(FS) / FS
    x = 0.5 * np.sin(2 * np.pi * 220 * t) * (1 + 0.5 * np.sin(2 * np.pi * 2 * t))
    x += 0.05 * rng.standard_normal(FS)
    return acoustic.extract_acoustic_set(x, grid)


class TestAcousticSet:
    def test_concatenated_dim_571(self, aset):
        assert aset.concatenated().shape[1] == 571

    def test_all_16_present_shared_frames(self, aset):
        assert set(aset.features) == set(acoustic.FEATURE_ORDER)
        counts = {seq.n_frames for seq in aset.features.values()}
        assert len(counts) == 1

    def test_frame_count_matches_stft_formula(self, aset):
        assert aset.n_frames == 1 + FS // 484

    def test_order_is_f1_to_f16(self, aset):
        concat = aset.concatenated()
        offset = 0
        for kind in acoustic.FEATURE_ORDER:
            dim = acoustic.FEATURE_DIMS[kind]
            assert np.array_equal(concat[:, offset : offset + dim], aset.features[kind].values)
            offset += dim

    def test_determinism(self, grid):
        x = sine(330.0, FS, 0.8, amplitude=0.7)
        a = acoustic.extract_acoustic_set(x, grid).concatenated()
        b = acoustic.extract_acoustic_set(x, grid).concatenated()
        assert np.array_equal(a, b)

    def test_amplitude_scaling_invariances(self, grid):
        rng = np.random.default_rng(11)
        t = np.arange(FS) / FS
        x = 0.6 * np.sin(2 * np.pi * 220 * t) + 0.1 * rng.standard_normal(FS)
        a = acoustic.extract_acoustic_set(x, grid)
        b = acoustic.extract_acoustic_set(0.5 * x, grid)
        mid = a.n_frames // 2
        assert int(np.argmax(a.features["cqt_chroma"].values[mid])) == int(
            np.argmax(b.features["cqt_chroma"].values[mid])
        )
        ta, tb = a.features["tonnetz"].values[mid], b.features["tonnetz"].values[mid]
        cos = ta @ tb / (np.linalg.norm(ta) * np.linalg.norm(tb))
        assert cos > 0.999
        for kind in ("flatness", "centroid", "rolloff", "pitch"):
            assert np.allclose(a.features[kind].values, b.features[kind].values, rtol=1e-6, atol=1e-6)
        assert np.allclose(b.features["rms"].values, 0.5 * a.features["rms"].values)
        shift = b.features["loudness"].values - a.features["loudness"].values
        assert np.allclose(shift, -6.02, atol=0.05)

    def test_too_short_clip_rejected(self, grid):
        with pytest.raises(ValueError, match="shorter than one window"):
            acoustic.extract_acoustic_set(np.zeros(100), grid)

    def test_shared_analyses_run_once(self, grid, monkeypatch):
        calls = {}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((dsp, "stft_power"), (acoustic, "_cqt_note_energies"),
                            (acoustic, "mel_spectrogram_128"), (acoustic, "chroma_cens_12")):
            counted(owner, name)
        acoustic.extract_acoustic_set(sine(330.0, FS, 0.5), grid)
        assert calls == {"stft_power": 1, "_cqt_note_energies": 1, "mel_spectrogram_128": 1, "chroma_cens_12": 1}

    @pytest.mark.parametrize("n", [7500, 11111, 20000])
    def test_frame_counts_follow_stft_formula_for_any_length(self, n, grid):
        rng = np.random.default_rng(n)
        aset = acoustic.extract_acoustic_set(0.3 * rng.standard_normal(n), grid)
        expected = 1 + n // 484
        assert aset.n_frames == expected
        assert all(seq.n_frames == expected for seq in aset.features.values())
