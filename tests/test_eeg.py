import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from eegspeech import dataio, dsp, eeg, pipeline, serialize
from eegspeech.config import RunConfig
from eegspeech.dataio import EegRecording
from eegspeech.errors import DataError

from conftest import sine, with_container_header

GRID = dsp.frame_grid_for_rate(1000, 31.0)
# The stock preprocessing and KPCA settings, read from RunConfig, which holds them
STOCK = RunConfig()
OPTIONS = pipeline.preprocess_options(STOCK)
KPCA = {"out_dim": STOCK.kpca_out_dim, "degree": STOCK.kpca_degree, "gamma": STOCK.kpca_gamma,
        "coef0": STOCK.kpca_coef0}
# FastICA on Gaussian input has no independent directions to converge to
GAUSSIAN_ICA = pytest.mark.filterwarnings("ignore:FastICA did not converge")


def periodogram_power_at(x: np.ndarray, freq_hz: float, fs_hz: float) -> float:
    """Independent oracle: power at the bin nearest freq_hz."""
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), 1.0 / fs_hz)
    return float(spec[np.argmin(np.abs(freqs - freq_hz))])


def periodogram_band_power(x: np.ndarray, lo_hz: float, hi_hz: float, fs_hz: float) -> float:
    """Mean periodogram power over the bins in [lo_hz, hi_hz]."""
    spec = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), 1.0 / fs_hz)
    return float(spec[(freqs >= lo_hz) & (freqs <= hi_hz)].mean())


def _frame_stats(frame) -> np.ndarray:
    """(rms, zcr, mwa, kurtosis, pse) of one frame, through the feature kernel."""
    return eeg._stats_block(np.asarray(frame, dtype=np.float64)[None, :])[0]


class TestPreprocess:
    def test_output_keeps_31_channels(self, rng):
        rec = EegRecording(rng.standard_normal((31, 2000)) * 30)
        clean = eeg.preprocess_eeg(rec, OPTIONS)
        assert clean.data.shape == (31, 2000)

    def test_60hz_power_reduced_30db(self, rng):
        data = rng.standard_normal((31, 4000)) * 5
        data[7] += 50.0 * sine(60.0, 1000.0, 4.0)
        clean = eeg.preprocess_eeg(EegRecording(data), OPTIONS)

        # 60 Hz relative to the 20-40 Hz passband, so the z-score scale cancels
        def hum_ratio(x):
            return periodogram_power_at(x, 60.0, 1000.0) / periodogram_band_power(x, 20.0, 40.0, 1000.0)

        assert 10.0 * np.log10(hum_ratio(data[7]) / hum_ratio(clean.data[7])) >= 30.0

    def test_zero_recording_stays_zero(self):
        clean = eeg.preprocess_eeg(EegRecording(np.zeros((31, 1000))), OPTIONS)
        assert np.all(clean.data == 0.0)

    def test_zscore_invariants(self, rng):
        rec = EegRecording(rng.standard_normal((31, 3000)) * 30 + 5)
        clean = eeg.preprocess_eeg(rec, OPTIONS)
        assert np.max(np.abs(clean.data.mean(axis=1))) < 1e-9
        assert np.max(np.abs(clean.data.var(axis=1) - 1.0)) < 1e-6

    def test_nan_input_rejected(self):
        data = np.zeros((31, 1000))
        data[0, 0] = np.nan
        with pytest.raises(Exception, match="non-finite"):
            eeg.preprocess_eeg(EegRecording(data), OPTIONS)

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(Exception, match="channels"):
            EegRecording(np.zeros((30, 1000)))


class TestPreprocessFilterCache:
    """preprocess_eeg designs its filters once per option set and shares them read-only."""

    def test_one_design_per_option_set(self, rng, monkeypatch):
        calls = []
        design = dsp.design_butterworth_bandpass
        monkeypatch.setattr(dsp, "design_butterworth_bandpass", lambda *a: calls.append(a) or design(*a))
        eeg._preprocess_filters.cache_clear()
        for _ in range(3):
            eeg.preprocess_eeg(EegRecording(rng.standard_normal((31, 1000))), OPTIONS)
        assert len(calls) == 1

    def test_second_option_set_matches_a_fresh_design(self, rng):
        data = rng.standard_normal((31, 2000)) * 30
        stock = eeg.preprocess_eeg(EegRecording(data), OPTIONS).data
        narrow = eeg.preprocess_eeg(EegRecording(data), dataclasses.replace(OPTIONS, bandpass_hi_hz=40)).data
        bp = dsp.design_butterworth_bandpass(4, 0.1, 40.0, 1000)
        notch = dsp.design_iir_notch(60.0, 30.0, 1000)
        fresh = eeg.zscore_channels(dsp.apply_filter(notch, dsp.apply_filter(bp, data, axis=1), axis=1))
        assert np.array_equal(narrow, fresh)
        assert not np.array_equal(narrow, stock)

    def test_shared_filters_refuse_writes(self, rng):
        data = rng.standard_normal((31, 2000)) * 30
        before = eeg.preprocess_eeg(EegRecording(data), OPTIONS).data
        for filt in eeg._preprocess_filters(OPTIONS):
            with pytest.raises(ValueError, match="read-only"):
                filt.sos[0, 0] = 0.0
        assert np.array_equal(eeg.preprocess_eeg(EegRecording(data), OPTIONS).data, before)


class TestFastIca:
    def _laplacian_sources(self, rng, n):
        return rng.laplace(size=(2, n))

    def test_recovers_mixed_laplacian_sources(self, rng):
        s = self._laplacian_sources(rng, 20000)
        mixing = rng.uniform(-1, 1, (2, 2)) + np.eye(2)
        x = mixing @ s
        result = eeg.fast_ica(x, seed=3)
        assert result.converged
        corr = np.abs(np.corrcoef(np.vstack([result.components, s]))[:2, 2:])
        # each true source matches one recovered component up to permutation/sign
        best = corr.max(axis=0)
        assert np.all(best > 0.95)

    def test_identity_mixing_of_independent_sources(self, rng):
        s = self._laplacian_sources(rng, 20000)
        s = (s - s.mean(axis=1, keepdims=True)) / s.std(axis=1, keepdims=True)
        result = eeg.fast_ica(s.copy(), seed=1)
        # total transform whitening->unmixing applied to the raw sources
        total = result.unmixing @ result.whitening
        total /= np.abs(total).max(axis=1, keepdims=True)
        # permutation of identity up to sign: one dominant entry per row
        for row in total:
            mags = np.sort(np.abs(row))[::-1]
            assert mags[0] > 0.9
            assert mags[1] < 0.35

    @GAUSSIAN_ICA
    def test_mixing_unmixing_reconstruction(self, rng):
        x = rng.standard_normal((4, 5000))
        result = eeg.fast_ica(x, seed=0)
        whitened = result.whitening @ (x - x.mean(axis=1, keepdims=True))
        recon = result.unmixing.T @ result.components
        rmse = np.sqrt(np.mean((recon - whitened) ** 2))
        assert rmse < 1e-6

    @GAUSSIAN_ICA
    def test_energy_conservation_retained_plus_removed(self, rng):
        x = rng.standard_normal((4, 5000))
        result = eeg.fast_ica(x, seed=0)
        keep = np.array([1.0, 0.0, 1.0, 0.0])
        whitened = result.whitening @ (x - x.mean(axis=1, keepdims=True))
        part1 = result.unmixing.T @ (result.components * keep[:, None])
        part2 = result.unmixing.T @ (result.components * (1.0 - keep)[:, None])
        assert np.sqrt(np.mean((part1 + part2 - whitened) ** 2)) < 1e-9

    def test_non_convergence_warns(self, rng):
        x = rng.standard_normal((3, 500))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            result = eeg.fast_ica(x, seed=0, max_iter=1, tol=1e-12)
        assert not result.converged


class TestRemoveArtifacts:
    def _blink_data(self, rng, n=8000):
        # broadband sources plus one spiky blink-like train mixed across channels
        smooth = rng.standard_normal((3, n))
        blink = np.zeros(n)
        blink[rng.choice(n, 12, replace=False)] = 30.0
        sources = np.vstack([smooth, blink])
        mixing = rng.uniform(0.5, 1.5, (4, 4))
        return mixing @ sources, sources, mixing

    def test_spiky_component_removed_broadband_preserved(self, rng):
        x, sources, mixing = self._blink_data(rng)
        clean_truth = mixing[:, :3] @ sources[:3]
        result = eeg.fast_ica(x, seed=2)
        kurt = eeg.excess_kurtosis(result.components, axis=1)
        assert np.max(np.abs(kurt)) > 8.0
        cleaned, removed = eeg.remove_artifact_components(result, 8.0)
        assert len(removed) >= 1
        for ch in range(4):
            corr = np.corrcoef(cleaned[ch], clean_truth[ch])[0, 1]
            assert corr > 0.9

    def test_infinite_threshold_is_identity_reconstruction(self, rng):
        x, _, _ = self._blink_data(rng)
        result = eeg.fast_ica(x, seed=2)
        cleaned, removed = eeg.remove_artifact_components(result, np.inf)
        assert removed == []
        assert np.sqrt(np.mean((cleaned - x) ** 2)) < 1e-6

    @GAUSSIAN_ICA
    def test_gaussian_components_not_removed(self, rng):
        x = rng.standard_normal((4, 20000))
        result = eeg.fast_ica(x, seed=5)
        _, removed = eeg.remove_artifact_components(result, 8.0)
        assert removed == []


class TestExcessKurtosis:
    """Against scipy's biased Fisher kurtosis, on 32-sample frames as the stats use."""

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_matches_scipy(self, rng, offset):
        frames = rng.standard_normal((200, 32)) * 40.0 + offset
        frames[:100] = rng.laplace(size=(100, 32)) * 40.0 + offset
        want = scipy.stats.kurtosis(frames, axis=1, fisher=True, bias=True)
        np.testing.assert_allclose(eeg.excess_kurtosis(frames, axis=1), want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("value", [0.0, -7.25, 1e3 + 0.1])
    def test_constant_frames_are_exactly_zero(self, value):
        assert np.all(eeg.excess_kurtosis(np.full((4, 32), value), axis=1) == 0.0)


class TestFrameStats:
    def test_constant_frame(self):
        stats = _frame_stats(np.full(64, 0.5))
        rms, zcr, mwa, kurt, pse = stats
        assert rms == pytest.approx(0.5)
        assert zcr == 0.0
        assert mwa == pytest.approx(0.5)
        assert kurt == 0.0  # variance guard
        assert pse == 0.0   # DC-only spectrum guard

    def test_zcr_of_50hz_sine_matches_brute_force(self):
        frame = sine(50.0, 1000.0, 1.0)
        # brute-force oracle with the same >=0 sign convention
        signs = [1 if v >= 0 else -1 for v in frame]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        stats = _frame_stats(frame)
        assert stats[1] == pytest.approx(changes / (len(frame) - 1))
        assert stats[1] == pytest.approx(0.1, abs=0.002)

    def test_alternating_frame_kurtosis(self):
        frame = np.resize([1.0, -1.0], 64)
        assert _frame_stats(frame)[3] == pytest.approx(-2.0)

    def test_entropy_extremes(self, rng):
        white = rng.standard_normal(1024)
        assert _frame_stats(white)[4] > 0.9
        pure = sine(125.0, 1000.0, 1.024)  # bin-centered for 1024 samples
        assert _frame_stats(pure)[4] < 0.2

    def test_sign_flip_invariance(self, rng):
        frame = rng.standard_normal(256)
        a = _frame_stats(frame)
        b = _frame_stats(-frame)
        for idx in (0, 1, 3, 4):  # rms, zcr, kurtosis, pse
            assert a[idx] == pytest.approx(b[idx], abs=1e-12)

    def test_mwa_is_smoothed_mean(self, rng):
        frame = rng.standard_normal(64)
        expected = np.convolve(frame, np.ones(8) / 8.0, mode="valid").mean()
        assert _frame_stats(frame)[2] == pytest.approx(expected)


class TestExtractStatFeatures:
    def test_ten_second_recording_shape(self, rng):
        clean = eeg.CleanEeg(rng.standard_normal((31, 10000)))
        seq = eeg.extract_stat_features(clean, GRID)
        # centred frames: 1 + n // hop, the acoustic families' count
        assert seq.values.shape == (313, 155)

    def test_zero_recording_zero_features(self):
        clean = eeg.CleanEeg(np.zeros((31, 1000)))
        seq = eeg.extract_stat_features(clean, GRID)
        assert np.all(seq.values == 0.0)

    def test_channel_major_ordering(self, rng):
        data = np.zeros((31, 320))
        data[2] = rng.standard_normal(320)
        clean = eeg.CleanEeg(data)
        seq = eeg.extract_stat_features(clean, GRID)
        # only channel 2's 5-column block may be nonzero
        block = seq.values[:, 2 * 5 : 3 * 5]
        rest = np.delete(seq.values, np.s_[2 * 5 : 3 * 5], axis=1)
        assert np.any(block != 0)
        assert np.all(rest == 0)

    def test_grid_at_another_sample_rate_is_a_data_error(self, rng):
        clean = eeg.CleanEeg(rng.standard_normal((31, 1000)))
        with pytest.raises(DataError, match="grid sample rate"):
            eeg.extract_stat_features(clean, dsp.frame_grid_for_rate(500, 31.0))

    def test_determinism(self, rng):
        data = rng.standard_normal((31, 1000))
        a = eeg.extract_stat_features(eeg.CleanEeg(data.copy()), GRID)
        b = eeg.extract_stat_features(eeg.CleanEeg(data.copy()), GRID)
        assert np.array_equal(a.values, b.values)

    def test_frames_are_centred_on_each_hop_with_reflected_edges(self, rng):
        # frame k spans [k*hop - hop//2, k*hop + hop - hop//2); both ends reach into the reflection
        hop = GRID.hop
        data = rng.standard_normal((31, 3 * hop + 7))
        seq = eeg.extract_stat_features(eeg.CleanEeg(data), GRID)
        assert seq.n_frames == 4
        for ch in (0, 13, 30):
            padded = np.pad(data[ch], (hop // 2, hop - hop // 2), mode="reflect")
            for k in range(4):
                frame = padded[k * hop:(k + 1) * hop]
                assert np.allclose(seq.values[k, 5 * ch:5 * ch + 5], _frame_stats(frame), rtol=1e-12, atol=0)

    def test_too_short_recording(self):
        # the centred framing needs more samples than its right padding, hop - hop // 2
        n = GRID.hop - GRID.hop // 2
        with pytest.raises(DataError, match="shorter than one window"):
            eeg.extract_stat_features(eeg.CleanEeg(np.zeros((31, n))), GRID)
        assert eeg.extract_stat_features(eeg.CleanEeg(np.ones((31, n + 1))), GRID).n_frames == 1

    def test_clean_eeg_without_samples_is_data_error(self):
        with pytest.raises(DataError, match="0 samples"):
            eeg.CleanEeg(np.zeros((31, 0)))

    def test_clean_eeg_is_an_eeg_record_named_clean(self):
        assert issubclass(eeg.CleanEeg, EegRecording)
        with pytest.raises(DataError, match="clean EEG must have exactly 31 channels"):
            eeg.CleanEeg(np.zeros((30, 100)))

    def test_features_without_frames_are_data_error(self):
        with pytest.raises(DataError, match="stat features have 0 frames"):
            eeg.StatFeatureSeq(np.zeros((0, eeg.STAT_FEATURE_DIM)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_clean_eeg_is_data_error(self, value):
        data = np.zeros((31, 100))
        data[4, 50] = value
        with pytest.raises(DataError, match="clean EEG contains non-finite values"):
            eeg.CleanEeg(data)


def brute_force_kpca_projection(x: np.ndarray, out_dim: int, gamma: float, coef0: float, degree: int):
    """Dense-eigendecomposition oracle with explicit centering matrices."""
    n = len(x)
    k = (gamma * (x @ x.T) + coef0) ** degree
    j = np.eye(n) - np.ones((n, n)) / n
    kc = j @ k @ j
    vals, vecs = np.linalg.eigh(kc)
    order = np.argsort(vals)[::-1][:out_dim]
    vals = np.maximum(vals[order], 0.0)
    vecs = vecs[:, order]
    proj = np.zeros((n, out_dim))
    nz = vals > vals[0] * 1e-10
    proj[:, nz] = kc @ (vecs[:, nz] / np.sqrt(vals[nz]))
    return proj, vals


class TestKpca:
    def test_output_dimension_30(self, rng):
        x = rng.standard_normal((60, 155))
        model = eeg.kpca_fit(x, **KPCA)
        assert model.out_dim == 30
        assert eeg.kpca_transform(model, x).shape == (60, 30)

    def test_matches_dense_eigendecomposition_oracle(self, rng):
        x = rng.standard_normal((120, 155))
        model = eeg.kpca_fit(x, **KPCA)
        fitted = eeg.kpca_transform(model, x)
        oracle, oracle_vals = brute_force_kpca_projection(x, 30, 1.0 / 155, 1.0, 3)
        for j in range(30):
            denom = np.linalg.norm(fitted[:, j]) * np.linalg.norm(oracle[:, j])
            cos = abs(float(fitted[:, j] @ oracle[:, j]) / denom)
            assert cos > 0.999, f"component {j}: |cos|={cos}"
        assert np.allclose(model.eigenvalues, oracle_vals, rtol=1e-8, atol=1e-6)

    def test_matches_dense_eigendecomposition_oracle_at_restart_scale(self, rng):
        # the 61-vector Lanczos basis spans a tenth of this space, so the fit
        # rests on several implicit restarts; tolerances are tighter than above
        x = rng.standard_normal((600, 155))
        model = eeg.kpca_fit(x, **KPCA)
        fitted = eeg.kpca_transform(model, x)
        oracle, oracle_vals = brute_force_kpca_projection(x, 30, 1.0 / 155, 1.0, 3)
        assert np.allclose(model.eigenvalues, oracle_vals, rtol=1e-10, atol=0.0)
        cos = np.abs(np.sum(fitted * oracle, axis=0)) / (
            np.linalg.norm(fitted, axis=0) * np.linalg.norm(oracle, axis=0))
        assert np.all(cos >= 1.0 - 1e-9), cos

    def test_fit_makes_no_second_kernel(self, rng):
        # the kernel itself is n²·8 bytes; a copy of it (say, one handed to
        # BLAS in the wrong memory order) would put the peak near 2 n²·8
        n = 1500
        x = rng.standard_normal((n, 155))
        tracemalloc.start()
        try:
            eeg.kpca_fit(x, **KPCA)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8, peak / (n * n * 8)

    def test_duplicated_rows_have_rank_one_centered_kernel(self, rng):
        a, b = rng.standard_normal(155), rng.standard_normal(155)
        x = np.vstack([a] * 16 + [b] * 16)
        model = eeg.kpca_fit(x, **KPCA)
        assert model.effective_rank <= 1
        assert np.sum(model.eigenvalues > model.eigenvalues[0] * 1e-8) <= 1

    def test_transform_of_train_equals_fit_projection(self, rng):
        x = rng.standard_normal((50, 155))
        model = eeg.kpca_fit(x, **KPCA)
        kc = _centered_train_kernel(model)
        fitted = kc @ model.coefficients
        assert np.max(np.abs(eeg.kpca_transform(model, x) - fitted)) < 1e-8

    def test_identical_rows_identical_projections(self, rng):
        x = rng.standard_normal((40, 155))
        probe = np.vstack([x[3], x[3]])
        model = eeg.kpca_fit(x, **KPCA)
        out = eeg.kpca_transform(model, probe)
        assert np.array_equal(out[0], out[1])

    def test_explained_variance_curve(self, rng):
        x = rng.standard_normal((80, 155))
        model = eeg.kpca_fit(x, **KPCA)
        curve = eeg.explained_variance_curve(model)
        assert len(curve) == 30
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] <= 1.0 + 1e-9

    def test_rank_one_data_first_component_explains_all(self, rng):
        base = rng.standard_normal(155)
        scales = np.linspace(0.1, 2.0, 40)[:, None]
        # rank-one feature-space structure needs a linear kernel; use degree 1
        model = eeg.kpca_fit(scales * base, out_dim=30, degree=1, gamma=None, coef0=0.0)
        curve = eeg.explained_variance_curve(model)
        assert curve[0] == pytest.approx(1.0, abs=1e-9)

    def test_permutation_invariance_up_to_sign(self, rng):
        x = rng.standard_normal((40, 155))
        perm = rng.permutation(40)
        m1 = eeg.kpca_fit(x, **KPCA)
        m2 = eeg.kpca_fit(x[perm], **KPCA)
        p1 = eeg.kpca_transform(m1, x)
        p2 = eeg.kpca_transform(m2, x)
        for j in range(30):
            cos = abs(p1[:, j] @ p2[:, j]) / (np.linalg.norm(p1[:, j]) * np.linalg.norm(p2[:, j]))
            assert cos > 0.999

    def test_save_load_round_trip(self, tmp_path, rng):
        x = rng.standard_normal((50, 155))
        model = eeg.kpca_fit(x, **KPCA)
        path = tmp_path / "model.kpca"
        eeg.save_kpca(model, path)
        back = eeg.load_kpca(path)
        probe = rng.standard_normal((5, 155))
        assert np.array_equal(eeg.kpca_transform(model, probe), eeg.kpca_transform(back, probe))

    @pytest.mark.parametrize("edit", [
        lambda meta, arrays: meta.pop("degree"),
        lambda meta, arrays: meta.update(degree=3.0),
        lambda meta, arrays: meta.update(gamma="0.1"),
        lambda meta, arrays: meta.update(effective_rank=True),
        lambda meta, arrays: arrays.pop("row_means"),
        lambda meta, arrays: arrays.update(eigenvalues=arrays["eigenvalues"][:-1]),
        lambda meta, arrays: arrays.update(train_vectors=arrays["train_vectors"][0]),
    ])
    def test_malformed_model_is_data_error(self, tmp_path, rng, edit):
        path = tmp_path / "model.kpca"
        eeg.save_kpca(eeg.kpca_fit(rng.standard_normal((40, 155)), **KPCA), path)
        _, meta, arrays = serialize.load_container(path)
        edit(meta, arrays)
        serialize.save_container(path, "kpca", meta, arrays)
        with pytest.raises(DataError, match="KPCA"):
            eeg.load_kpca(path)

    @pytest.mark.parametrize("name, value", [
        ("coefficients", np.nan), ("train_vectors", np.inf), ("row_means", -np.inf),
        ("grand_mean", np.nan), ("gamma", np.inf),
    ])
    def test_non_finite_model_is_data_error(self, tmp_path, rng, name, value):
        path = tmp_path / "model.kpca"
        eeg.save_kpca(eeg.kpca_fit(rng.standard_normal((40, 155)), **KPCA), path)
        _, meta, arrays = serialize.load_container(path)
        if name in arrays:
            arrays[name].flat[1] = value
            serialize.save_container(path, "kpca", meta, arrays)
        else:  # save_container refuses a non-finite header value, so write it into the header directly
            with_container_header(path, lambda header: header["meta"].update({name: float(value)}))
        with pytest.raises(DataError, match=f"{path.name}: KPCA '{name}' holds NaN or inf"):
            eeg.load_kpca(path)

    def test_too_few_rows(self, rng):
        with pytest.raises(DataError, match="out_dim=30, got 20 frames"):
            eeg.kpca_fit(rng.standard_normal((20, 155)), **KPCA)

    def test_all_identical_rows_rank_deficiency_reported(self, rng):
        x = np.tile(rng.standard_normal(155), (40, 1))
        model = eeg.kpca_fit(x, **KPCA)
        assert model.effective_rank == 0
        assert np.all(eeg.kpca_transform(model, x) == 0.0)

    def test_dimension_mismatch_on_transform(self, rng):
        model = eeg.kpca_fit(rng.standard_normal((40, 155)), **KPCA)
        with pytest.raises(ValueError):
            eeg.kpca_transform(model, rng.standard_normal((5, 154)))


@pytest.fixture(scope="module")
def stat_features():
    """~430 frames of the 155 statistics of seven preprocessed 2 s synthetic trials."""
    rng = np.random.default_rng(5)
    seqs = []
    for _ in range(7):
        data, _, _ = dataio.synthesize_trial(rng, 2.0)
        seqs.append(eeg.extract_stat_features(eeg.preprocess_eeg(EegRecording(data), OPTIONS), GRID).values)
    return np.vstack(seqs)


class TestKpcaAgainstDenseEigh:
    """Lanczos eigenpairs against the dense `scipy.linalg.eigh` subset of the
    same centered kernel: eigenvalues within 1e-12 relative and eigenvectors
    within 1e-12 of |cos| = 1 on the components above the rank cutoff."""

    @staticmethod
    def assert_matches_dense(model: eeg.KpcaModel, rank: int):
        kc = _centered_train_kernel(model)
        n = len(kc)
        vals, vecs = scipy.linalg.eigh(kc, subset_by_index=[n - model.out_dim, n - 1])
        vals, vecs = vals[::-1][:rank], vecs[:, ::-1][:, :rank]
        assert model.effective_rank == rank
        assert np.all(np.abs(model.eigenvalues[:rank] - vals) <= 1e-12 * vals)
        unit = model.coefficients[:, :rank] * np.sqrt(model.eigenvalues[:rank])
        assert np.all(np.abs(np.sum(unit * vecs, axis=0)) >= 1.0 - 1e-12)
        assert np.all(model.coefficients[:, rank:] == 0.0)
        assert np.all(np.diff(model.eigenvalues) <= 0.0)

    def test_stat_features(self, stat_features):
        assert 400 <= len(stat_features) <= 450
        self.assert_matches_dense(eeg.kpca_fit(stat_features, **KPCA), 30)

    def test_one_row_more_than_out_dim(self, rng):
        self.assert_matches_dense(eeg.kpca_fit(rng.standard_normal((31, 155)), **KPCA), 30)

    def test_rank_below_out_dim(self, rng):
        # six distinct points: the centered kernel has rank 5
        x = np.repeat(rng.standard_normal((6, 155)), 10, axis=0)
        self.assert_matches_dense(eeg.kpca_fit(x, **KPCA), 5)

    def test_exactly_centered_kernel(self):
        # small integers: the kernel, its means and its row sums are exact, so
        # the constant vector is exactly in the null space of the centered
        # kernel and cannot serve as the Lanczos start vector
        x = np.random.default_rng(0).integers(-1, 2, size=(64, 155)).astype(np.float64)
        model = eeg.kpca_fit(x, out_dim=30, degree=1, gamma=1.0, coef0=0.0)
        assert np.all(_centered_train_kernel(model).sum(axis=1) == 0.0)
        self.assert_matches_dense(model, 30)

    def test_deterministic(self, stat_features):
        a, b = eeg.kpca_fit(stat_features, **KPCA), eeg.kpca_fit(stat_features, **KPCA)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    @pytest.mark.parametrize("rows, exact_zero", [
        (lambda rng: np.zeros((40, 155)), True),
        (lambda rng: np.ones((40, 155)), True),
        (lambda rng: np.tile(3.0 * rng.standard_normal(155), (37, 1)), False),
    ], ids=["zero-rows", "identical-rows", "rounding-noise"])
    def test_degenerate_kernel_has_rank_zero(self, rows, exact_zero, rng):
        x = rows(rng)
        model = eeg.kpca_fit(x, **KPCA)
        assert np.all(_centered_train_kernel(model) == 0.0) == exact_zero
        assert model.effective_rank == 0
        assert np.all(model.eigenvalues == 0.0)
        assert np.all(model.coefficients == 0.0)
        assert np.all(eeg.kpca_transform(model, x) == 0.0)


def _centered_train_kernel(model: eeg.KpcaModel) -> np.ndarray:
    k = (model.gamma * (model.train_vectors @ model.train_vectors.T) + model.coef0) ** model.degree
    return k - model.row_means[:, None] - model.row_means[None, :] + model.grand_mean


class TestPipelineDeterminism:
    @GAUSSIAN_ICA
    def test_identical_inputs_identical_features(self, rng):
        data = rng.standard_normal((31, 2000)) * 25
        opts = dataclasses.replace(OPTIONS, run_ica=True, ica_seed=11)
        a = eeg.extract_stat_features(eeg.preprocess_eeg(EegRecording(data.copy()), opts), GRID)
        b = eeg.extract_stat_features(eeg.preprocess_eeg(EegRecording(data.copy()), opts), GRID)
        assert np.array_equal(a.values, b.values)
