import json
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegspeech import dataio, dsp, nn
from eegspeech.errors import DataError

from conftest import sine


def test_audio_rate_is_the_synthesis_output_rate():
    model = nn.build_synthesis_model(seed=0, filters=(2, 2), kernel_size=3, dropout_rate=0.2)
    assert dataio.AUDIO_RATE_HZ == model.output_length(1) * dataio.EEG_SAMPLE_RATE_HZ


class TestWavIo:
    def test_round_trip_equals_quantized_clip(self, tmp_path):
        clip = dataio.AudioClip(16000, sine(440.0, 16000.0, 1.0, amplitude=0.9))
        path = tmp_path / "tone.wav"
        dataio.write_wav(path, clip)
        back = dataio.read_wav(path)
        expected = dataio.quantize_pcm16(clip.samples).astype(np.float64) / 32768.0
        assert back.sample_rate_hz == 16000
        assert np.array_equal(back.samples, expected)

    def test_file_words_match_quantizer(self, tmp_path):
        clip = dataio.AudioClip(16000, sine(440.0, 16000.0, 1.0))
        path = tmp_path / "tone.wav"
        dataio.write_wav(path, clip)
        with wave.open(str(path), "rb") as fh:
            words = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
        assert np.array_equal(words, dataio.quantize_pcm16(clip.samples))

    def test_zero_clip_writes_zero_words(self, tmp_path):
        path = tmp_path / "zeros.wav"
        dataio.write_wav(path, dataio.AudioClip(16000, np.zeros(160)))
        with wave.open(str(path), "rb") as fh:
            words = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
        assert len(words) == 160
        assert np.all(words == 0)

    def test_read_then_downsample_to_15k(self, tmp_path):
        path = tmp_path / "sec.wav"
        dataio.write_wav(path, dataio.AudioClip(16000, sine(440.0, 16000.0, 1.0, 0.5)))
        clip = dataio.read_wav(path)
        y = dsp.resample_poly(clip.samples, clip.sample_rate_hz, 15000)
        assert len(y) == 15000

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"RIFFnotawav")
        with pytest.raises(DataError, match="malformed"):
            dataio.read_wav(path)

    def test_odd_data_byte_count_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        dataio.write_wav(path, dataio.AudioClip(15000, np.zeros(20)))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataError, match="whole 16-bit samples"):
            dataio.read_wav(path)

    def test_chunk_past_end_of_file_rejected(self, tmp_path):
        path = tmp_path / "long_fmt.wav"
        dataio.write_wav(path, dataio.AudioClip(15000, np.zeros(20)))
        raw = path.read_bytes()
        assert raw[12:16] == b"fmt "
        path.write_bytes(raw[:16] + struct.pack("<I", 1000) + raw[20:])
        with pytest.raises(DataError, match="past the end"):
            dataio.read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(np.zeros(64, dtype="<i2").tobytes())
        with pytest.raises(DataError, match="mono"):
            dataio.read_wav(path)

    def test_out_of_range_clip_rejected(self):
        with pytest.raises(DataError):
            dataio.AudioClip(16000, np.array([0.0, 1.5]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quantize_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1.0, 1.0, 64)
        words = dataio.quantize_pcm16(samples)
        again = dataio.quantize_pcm16(words.astype(np.float64) / 32768.0 * (32768.0 / 32767.0))
        assert np.max(np.abs(words.astype(int) - again.astype(int))) <= 1

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_read_write_round_trip_property(self, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        clip = dataio.AudioClip(16000, rng.uniform(-1.0, 1.0, 256))
        path = tmp_path_factory.mktemp("wav") / "clip.wav"
        dataio.write_wav(path, clip)
        back = dataio.read_wav(path)
        expected = dataio.quantize_pcm16(clip.samples).astype(np.float64) / 32768.0
        assert np.array_equal(back.samples, expected)

    def test_unsupported_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(bytes(64))
        with pytest.raises(DataError, match="16-bit"):
            dataio.read_wav(path)


class TestEegCsv:
    def test_shape_round_trip(self, tmp_path, rng):
        rec = dataio.EegRecording(rng.standard_normal((31, 1000)) * 40)
        path = tmp_path / "eeg.csv"
        dataio.write_eeg_csv(path, rec)
        back = dataio.read_eeg_csv(path)
        assert back.data.shape == (31, 1000)
        # lossless to the printed 9 significant digits
        assert np.allclose(back.data, rec.data, rtol=1e-8, atol=1e-12)

    def test_write_read_write_is_stable(self, tmp_path, rng):
        rec = dataio.EegRecording(rng.standard_normal((31, 50)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dataio.write_eeg_csv(p1, rec)
        dataio.write_eeg_csv(p2, dataio.read_eeg_csv(p1))
        assert p1.read_text() == p2.read_text()

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(f"ch{c:02d}" for c in range(1, 31)) + "\n" + ",".join(["0"] * 30) + "\n")
        with pytest.raises(DataError, match="wrong column count"):
            dataio.read_eeg_csv(path)

    def test_wrong_column_count_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [",".join(["0"] * 31)] * 3
        rows[1] += ",0"
        path.write_text(",".join(f"ch{c:02d}" for c in range(1, 32)) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"bad\.csv:3: wrong column count \(32, expected 31\)"):
            dataio.read_eeg_csv(path)

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text(",".join(f"ch{c:02d}" for c in range(1, 32)) + "\n\n")
        with pytest.raises(DataError, match="no data rows"):
            dataio.read_eeg_csv(path)

    def test_matches_per_cell_oracle(self, tmp_path):
        # the writer equals formatting each cell with "%.9g", and the reader
        # equals float() of each cell, on a generated trial and on edge values
        manifest = dataio.generate_synthetic_dataset(1, 0.5, seed=2, out_dir=tmp_path / "d", eeg_format="csv")
        edges = np.array([0.0, -0.0, 1e-300, -1e300, 123456789.5, 1 / 3, -2.5e-7, 7.0])
        data = manifest.load_trial("trial_0001").eeg.data.copy()
        data[:, : len(edges)] = edges
        rec = dataio.EegRecording(data)
        path = tmp_path / "eeg.csv"
        dataio.write_eeg_csv(path, rec)
        header = ",".join(f"ch{c:02d}" for c in range(1, 32))
        oracle = [header] + [",".join(f"{v:.9g}" for v in row) for row in rec.data.T]
        assert path.read_text() == "\n".join(oracle) + "\n"
        cells = np.array([[float(c) for c in ln.split(",")] for ln in oracle[1:]])
        assert np.array_equal(dataio.read_eeg_csv(path).data, cells.T)

    def test_headerless_file_is_refused(self, tmp_path, rng):
        path = tmp_path / "headless.csv"
        path.write_text("\n".join(",".join(f"{v:.9g}" for v in row) for row in rng.standard_normal((5, 31))) + "\n")
        with pytest.raises(DataError, match=r"headless\.csv:1: header must be ch01\.\.ch31"):
            dataio.read_eeg_csv(path)

    def test_uniform_short_rows_name_the_first_data_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(f"ch{c:02d}" for c in range(1, 32)) + "\n" + (",".join(["0"] * 30) + "\n") * 3)
        with pytest.raises(DataError, match=r"bad\.csv:2: wrong column count \(30, expected 31\)"):
            dataio.read_eeg_csv(path)

    @pytest.mark.parametrize("layout", ["blank line", "whitespace-only line", "leading blank line", "crlf",
                                        "trailing spaces"])
    def test_loose_layouts_read_the_same_values(self, layout, tmp_path, rng):
        path = tmp_path / "eeg.csv"
        dataio.write_eeg_csv(path, dataio.EegRecording(rng.standard_normal((31, 6)) * 40))
        want = dataio.read_eeg_csv(path).data
        lines = path.read_text().splitlines()
        if layout == "blank line":
            lines.insert(3, "")
        elif layout == "whitespace-only line":
            lines.insert(3, " \t ")
        elif layout == "leading blank line":
            lines.insert(0, "")
        elif layout == "trailing spaces":
            lines = [ln + "  " for ln in lines]
        newline = "\r\n" if layout == "crlf" else "\n"
        path.write_bytes((newline.join(lines) + newline).encode())
        assert np.array_equal(dataio.read_eeg_csv(path).data, want)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ["0"] * 31
        row[5] = "oops"
        path.write_text(",".join(f"ch{c:02d}" for c in range(1, 32)) + "\n" + ",".join(row) + "\n")
        with pytest.raises(DataError, match="non-numeric"):
            dataio.read_eeg_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            dataio.read_eeg_csv(path)

    def test_binary_round_trip(self, tmp_path, rng):
        rec = dataio.EegRecording(rng.standard_normal((31, 200)).astype(np.float32).astype(np.float64))
        path = tmp_path / "eeg.f32"
        dataio.write_eeg(path, rec)
        back = dataio.read_eeg(path)
        assert np.array_equal(back.data, rec.data)


class TestSplit:
    RATIOS = (0.8, 0.1, 0.1)

    def _ids(self, n):
        return [f"t{i:04d}" for i in range(n)]

    def test_save_load_round_trip(self, tmp_path):
        split = dataio.make_split(self._ids(30), self.RATIOS, seed=2)
        dataio.save_split(split, tmp_path / "split.json")
        assert dataio.load_split(tmp_path / "split.json") == split

    @pytest.mark.parametrize("content", [
        '{"train_ids": []}',
        '{"train_ids": [], "val_ids": [], "test_ids": "t1", "seed": 0}',
        '{"train_ids": [1], "val_ids": [], "test_ids": [], "seed": 0}',
        '{"train_ids": [], "val_ids": [], "test_ids": [], "seed": "0"}',
        '{"train_ids": [], "val_ids": [], "test_ids": [], "seed": 1.5}',
        '[]',
        '{"train_ids": [',
    ])
    def test_malformed_split_is_data_error(self, tmp_path, content):
        path = tmp_path / "split.json"
        path.write_text(content)
        with pytest.raises(DataError):
            dataio.load_split(path)

    def test_100_trials_gives_80_10_10(self):
        split = dataio.make_split(self._ids(100), self.RATIOS, seed=7)
        assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == (80, 10, 10)

    def test_deterministic(self):
        a = dataio.make_split(self._ids(57), self.RATIOS, seed=3)
        b = dataio.make_split(self._ids(57), self.RATIOS, seed=3)
        assert a == b

    def test_seed_changes_assignment(self):
        a = dataio.make_split(self._ids(57), self.RATIOS, seed=3)
        b = dataio.make_split(self._ids(57), self.RATIOS, seed=4)
        assert a.train_ids != b.train_ids

    def test_ten_trials_floor_rule(self):
        split = dataio.make_split(self._ids(10), self.RATIOS, seed=0)
        assert (len(split.train_ids), len(split.val_ids), len(split.test_ids)) == (8, 1, 1)

    def test_too_few_trials(self):
        with pytest.raises(DataError):
            dataio.make_split(self._ids(9), self.RATIOS, seed=0)

    def test_degenerate_ratios(self):
        with pytest.raises(DataError):
            dataio.make_split(self._ids(20), (0.9, 0.2, 0.1), seed=0)
        with pytest.raises(DataError):
            dataio.make_split(self._ids(20), (1.0, 0.0, 0.0), seed=0)

    def test_order_of_manifest_does_not_matter(self):
        ids = self._ids(30)
        a = dataio.make_split(ids, self.RATIOS, seed=5)
        b = dataio.make_split(list(reversed(ids)), self.RATIOS, seed=5)
        assert a == b

    @given(n=st.integers(min_value=10, max_value=300), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_disjoint_union_property(self, n, seed):
        ids = self._ids(n)
        split = dataio.make_split(ids, self.RATIOS, seed=seed)
        train, val, test = set(split.train_ids), set(split.val_ids), set(split.test_ids)
        assert train | val | test == set(ids)
        assert not (train & val) and not (train & test) and not (val & test)
        assert len(split.val_ids) == int(n * 0.1)
        assert len(split.test_ids) == int(n * 0.1)


class TestSyntheticDataset:
    def test_shape_contract(self, tmp_path):
        manifest = dataio.generate_synthetic_dataset(20, 0.5, seed=1, out_dir=tmp_path / "d", eeg_format="csv")
        assert len(manifest.trials) == 20
        trial = manifest.load_trial(manifest.trials[0])
        assert trial.eeg.data.shape == (31, 500)
        assert trial.eeg.duration_s == 0.5
        assert trial.audio.sample_rate_hz == 16000
        assert {t.subject for t in manifest.trials} == {1, 2, 3, 4}
        assert {t.condition for t in manifest.trials} == {"spoken", "listen"}

    def test_deterministic_files(self, tmp_path):
        m1 = dataio.generate_synthetic_dataset(3, 0.5, seed=9, out_dir=tmp_path / "a", eeg_format="csv")
        m2 = dataio.generate_synthetic_dataset(3, 0.5, seed=9, out_dir=tmp_path / "b", eeg_format="csv")
        for t1, t2 in zip(m1.trials, m2.trials):
            assert (m1.root / t1.wav_path).read_bytes() == (m2.root / t2.wav_path).read_bytes()
            assert (m1.root / t1.eeg_path).read_bytes() == (m2.root / t2.eeg_path).read_bytes()

    def test_audio_envelope_tracks_latent(self):
        # oracle: rectify + moving-average low-pass, then correlate with e(t)
        for trial_seed in range(3):
            rng = np.random.default_rng(np.random.SeedSequence(trial_seed))
            _, audio, envelope = dataio.synthesize_trial(rng, 2.0)
            win = 1600  # 100 ms at 16 kHz
            rectified = np.abs(audio)
            smooth = np.convolve(rectified, np.ones(win) / win, mode="same")
            t = np.arange(len(audio)) / 16000.0
            target = envelope(t)
            core = slice(win, len(audio) - win)
            corr = np.corrcoef(smooth[core], target[core])[0, 1]
            assert corr > 0.9

    def test_ridge_from_eeg_envelope_to_audio_envelope(self):
        # learnability oracle: the coupling must be linearly recoverable
        rng = np.random.default_rng(np.random.SeedSequence(42))
        xs, ys = [], []
        for _ in range(6):
            eeg_data, audio, _ = dataio.synthesize_trial(rng, 1.0)
            hop_eeg, hop_aud = 32, 512
            n_frames = min(eeg_data.shape[1] // hop_eeg, len(audio) // hop_aud)
            mean_eeg = np.abs(eeg_data).mean(axis=0)
            for k in range(n_frames):
                xs.append(mean_eeg[k * hop_eeg : (k + 1) * hop_eeg].mean())
                ys.append(np.abs(audio[k * hop_aud : (k + 1) * hop_aud]).mean())
        x = np.array(xs)
        y = np.array(ys)
        a = np.column_stack([x, np.ones_like(x)])
        coef = np.linalg.solve(a.T @ a + 1e-6 * np.eye(2), a.T @ y)
        resid = y - a @ coef
        r2 = 1.0 - resid.var() / y.var()
        assert r2 > 0.5

    def test_precondition_errors(self, tmp_path):
        with pytest.raises(DataError):
            dataio.generate_synthetic_dataset(0, 0.5, seed=0, out_dir=tmp_path, eeg_format="csv")
        with pytest.raises(DataError):
            dataio.generate_synthetic_dataset(5, 0.1, seed=0, out_dir=tmp_path, eeg_format="csv")

    def test_manifest_missing_file_rejected(self, tmp_path):
        manifest = dataio.generate_synthetic_dataset(2, 0.5, seed=0, out_dir=tmp_path / "d", eeg_format="csv")
        (manifest.root / manifest.trials[0].wav_path).unlink()
        with pytest.raises(DataError, match="missing"):
            dataio.load_manifest(manifest.root / "manifest.json")

    @pytest.mark.parametrize("mangle", [
        lambda items: [{k: v for k, v in items[0].items() if k != "id"}] + items[1:],
        lambda items: ["trial_0001"] + items[1:],
        lambda items: [{**items[0], "subject": "one"}] + items[1:],
        lambda items: [{**items[0], "subject": 1.7}] + items[1:],
        lambda items: [{**items[0], "subject": True}] + items[1:],
        lambda items: [{**items[0], "subject": float("inf")}] + items[1:],
        lambda items: [{**items[0], "subject": 5}] + items[1:],
        lambda items: [{**items[0], "condition": "sing"}] + items[1:],
        lambda items: [{**items[0], "id": 7}] + items[1:],
        lambda items: [{**items[0], "eeg_path": ["a.csv"]}] + items[1:],
    ])
    def test_malformed_manifest_entry_rejected(self, tmp_path, mangle):
        manifest = dataio.generate_synthetic_dataset(2, 0.5, seed=0, out_dir=tmp_path / "d", eeg_format="csv")
        path = manifest.root / "manifest.json"
        path.write_text(json.dumps(mangle(json.loads(path.read_text()))))
        with pytest.raises(DataError, match="entry 0"):
            dataio.load_manifest(path)

    def test_duration_mismatch_rejected(self):
        eeg = dataio.EegRecording(np.zeros((31, 1000)))
        audio = dataio.AudioClip(16000, np.zeros(8000))  # 0.5 s vs 1.0 s
        with pytest.raises(DataError, match="durations"):
            dataio.TrialRecord("x", 1, "spoken", eeg, audio)


_HEADER = ",".join(f"ch{c:02d}" for c in range(1, 32))
_CELLS = st.sampled_from(["0", "1.5", "-2e3", "1e999", "nan", "inf", "", " ", "x", "1_0", "#", "0x1f", "+.5", "\x00"])
_CSV_LINES = st.lists(st.lists(_CELLS, min_size=29, max_size=33).map(",".join), max_size=4)


_MANIFEST_KEYS = ("id", "subject", "condition", "eeg_path", "wav_path")
_JSON_VALUES = (st.integers() | st.floats() | st.booleans() | st.none() | st.text(max_size=4)
                | st.sampled_from(["spoken", "listen", "a.csv", "a.wav"]) | st.lists(st.integers(), max_size=2))


def _only_data_error(read, path):
    try:
        read(path)
    except DataError:
        pass


class TestReaderFuzz:
    """Every reader of an input file fails with DataError and nothing else."""

    @given(body=_CSV_LINES, header=st.sampled_from([_HEADER, _HEADER + ",ch32", ""]),
           noise=st.text(max_size=40), mode=st.sampled_from(["rows", "text", "bytes"]),
           raw=st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_read_eeg_csv(self, body, header, noise, mode, raw, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "eeg.csv"
        if mode == "rows":
            path.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
        elif mode == "text":
            path.write_text(header + "\n" + noise, encoding="utf-8")
        else:
            path.write_bytes(raw)
        _only_data_error(dataio.read_eeg_csv, path)

    @given(channels=st.sampled_from([31, 31, 30, 2**32 - 1]), samples=st.integers(0, 2**64 - 1) | st.integers(0, 4),
           payload=st.binary(max_size=31 * 4 * 3), magic=st.sampled_from([dataio.EEG_BINARY_MAGIC, b"EEGF32\x00\x02"]),
           cut=st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_read_eeg_binary(self, channels, samples, payload, magic, cut, tmp_path_factory):
        path = tmp_path_factory.mktemp("f32") / "eeg.f32"
        raw = magic + struct.pack("<IQ", channels, samples) + payload
        path.write_bytes(raw[: len(raw) - cut])
        _only_data_error(dataio.read_eeg_binary, path)

    @given(fields=st.dictionaries(
        st.sampled_from(["train_ids", "val_ids", "test_ids", "seed", "other"]),
        st.lists(st.text(max_size=3) | st.integers(), max_size=3) | st.integers() | st.text(max_size=3)
        | st.none() | st.booleans() | st.floats(allow_nan=False)),
        top=st.sampled_from(["dict", "list", "bytes"]), raw=st.binary(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_load_split(self, fields, top, raw, tmp_path_factory):
        path = tmp_path_factory.mktemp("split") / "split.json"
        if top == "bytes":
            path.write_bytes(raw)
        else:
            path.write_text(json.dumps(fields if top == "dict" else list(fields.values())))
        _only_data_error(dataio.load_split, path)

    @given(edits=st.lists(st.tuples(st.integers(0, 83), st.integers(0, 255)), max_size=4),
           cut=st.integers(0, 84), appended=st.binary(max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_read_wav(self, edits, cut, appended, tmp_path_factory):
        path = tmp_path_factory.mktemp("wav") / "clip.wav"
        dataio.write_wav(path, dataio.AudioClip(15000, np.linspace(-0.5, 0.5, 20)))
        raw = bytearray(path.read_bytes())
        for pos, value in edits:
            raw[pos] = value
        path.write_bytes(bytes(raw[: len(raw) - cut]) + appended)
        _only_data_error(dataio.read_wav, path)

    @given(entries=st.lists(st.dictionaries(st.sampled_from(_MANIFEST_KEYS + ("other",)), _JSON_VALUES),
                            max_size=3),
           subject=st.sampled_from(["1e400", "-1e400", "1.7", "1.0", "true", "1", "4", "5", "0", '"1"', "null",
                                    "[]", "NaN", "Infinity", "123456789012345678901234567890"]),
           top=st.sampled_from(["entries", "subject", "bytes"]), raw=st.binary(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_load_manifest(self, entries, subject, top, raw, tmp_path_factory):
        root = tmp_path_factory.mktemp("manifest")
        (root / "a.csv").write_text("")
        (root / "a.wav").write_bytes(b"")
        path = root / "manifest.json"
        if top == "bytes":
            path.write_bytes(raw)
        elif top == "entries":
            path.write_text(json.dumps(entries))
        else:
            path.write_text('[{"id": "t1", "subject": %s, "condition": "spoken", '
                            '"eeg_path": "a.csv", "wav_path": "a.wav"}]' % subject)
        _only_data_error(dataio.load_manifest, path)
