"""One frame grid for the EEG features and the acoustic targets: frame k of
either is centred on the same moment, so the two give the same frame count and
an onset lands in the same frame index of both."""

import numpy as np
import pytest

from eegspeech import acoustic, dataio, eeg, pipeline
from eegspeech.config import RunConfig
from eegspeech.dataio import AUDIO_RATE_HZ, EEG_CHANNELS, EEG_SAMPLE_RATE_HZ

STOCK = RunConfig()
AUDIO_PER_EEG = AUDIO_RATE_HZ // EEG_SAMPLE_RATE_HZ


def test_audio_hop_is_the_eeg_hop_at_the_audio_rate():
    eeg_grid, audio_grid = pipeline.eeg_grid(STOCK), pipeline.audio_grid(STOCK)
    assert (eeg_grid.hop, audio_grid.hop) == (32, 480)
    assert audio_grid.hop / audio_grid.sample_rate_hz == eeg_grid.hop / eeg_grid.sample_rate_hz


@pytest.mark.parametrize("duration_s", [0.5, 2.0, 10.0])
def test_generated_trial_gives_as_many_eeg_frames_as_acoustic_frames(duration_s):
    data, audio, _ = dataio.synthesize_trial(np.random.default_rng(7), duration_s)
    clean = eeg.preprocess_eeg(dataio.EegRecording(data), pipeline.preprocess_options(STOCK))
    stats = eeg.extract_stat_features(clean, pipeline.eeg_grid(STOCK))
    wave = pipeline.clip_at_rate(dataio.AudioClip(dataio.AUDIO_RECORD_RATE_HZ, audio))
    targets = acoustic.extract_acoustic_set(wave, pipeline.audio_grid(STOCK))
    assert stats.n_frames == targets.n_frames == 1 + clean.n_samples // pipeline.eeg_grid(STOCK).hop


def _burst(n: int, onset: int, fs_hz: int) -> np.ndarray:
    """Silence, then a unit 40 Hz cosine from sample `onset` on."""
    x = np.zeros(n)
    x[onset:] = np.cos(2.0 * np.pi * 40.0 * np.arange(n - onset) / fs_hz)
    return x


@pytest.mark.parametrize("onset_ms", [520, 9473])
def test_burst_starts_in_the_same_frame_of_eeg_rms_and_rms_target(onset_ms):
    # a 10 s recording; the onset sits on an EEG sample, so both signals start it at one instant
    n_eeg = 10 * EEG_SAMPLE_RATE_HZ
    data = np.tile(_burst(n_eeg, onset_ms, EEG_SAMPLE_RATE_HZ), (EEG_CHANNELS, 1))
    stats = eeg.extract_stat_features(eeg.CleanEeg(data), pipeline.eeg_grid(STOCK))
    eeg_rms = stats.values[:, eeg.STAT_NAMES.index("rms")::len(eeg.STAT_NAMES)]
    wave = _burst(AUDIO_PER_EEG * n_eeg, AUDIO_PER_EEG * onset_ms, AUDIO_RATE_HZ)
    target_rms = acoustic.extract_acoustic_set(wave, pipeline.audio_grid(STOCK)).features["rms"].values[:, 0]

    hop = pipeline.eeg_grid(STOCK).hop
    first = (onset_ms + hop // 2) // hop  # the frame centred nearest the onset that spans it
    assert np.all(eeg_rms[:first] == 0.0) and np.all(eeg_rms[first] > 0.1)
    assert np.all(target_rms[:first] == 0.0) and target_rms[first] > 0.1
