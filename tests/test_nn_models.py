import json

import numpy as np
import pytest

from eegspeech import nn, pipeline, serialize
from eegspeech.errors import DataError, NumericError


class TestSynthesisModel:
    def test_maps_t_to_15t(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4))
        for _ in range(5):
            t = int(rng.integers(2, 40))
            x = rng.standard_normal((1, t, 31)).astype(np.float32)
            assert model.predict(x).shape == (1, 15 * t, 1)
        assert model.output_length(7) == 105

    def test_wrong_input_dim_rejected(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4))
        with pytest.raises(ValueError, match="31"):
            model.predict(rng.standard_normal((1, 5, 30)).astype(np.float32))

    def test_full_scale_parameter_shapes(self):
        model = nn.build_synthesis_model(seed=0)
        tcn1, _, drop, tcn2, dense, _ = model.layers
        assert tcn1.w.shape == (3 * 31, 256)
        assert tcn1.proj.shape == (31, 256)
        assert tcn2.w.shape == (3 * 256, 32)
        assert tcn2.proj.shape == (256, 32)
        assert dense.w.shape == (32, 1)
        assert drop.rate == 0.2

    def test_param_count_matches_closed_form(self):
        for filters in [(256, 32), (8, 4), (16, 16)]:
            model = nn.build_synthesis_model(seed=0, filters=filters)
            assert model.param_count() == nn.synthesis_param_count(31, filters, 3)

    def test_causality_probe(self, rng):
        model = nn.build_synthesis_model(seed=1, filters=(6, 3))
        x = rng.standard_normal((1, 30, 31)).astype(np.float32)
        base = model.predict(x)
        t_hit = 14
        x2 = x.copy()
        x2[0, t_hit, :] += 1.0
        bumped = model.predict(x2)
        assert np.array_equal(bumped[0, : 15 * t_hit], base[0, : 15 * t_hit])
        assert not np.array_equal(bumped[0, 15 * t_hit :], base[0, 15 * t_hit :])

    @pytest.mark.parametrize("filters", [(8, 4), (256, 32)])
    def test_dense_before_x3_matches_paper_order(self, rng, filters):
        # The dense map acts per step, so it commutes with the x3 repeat. The
        # paper's [..., up3, dense] order, built from the same layer objects,
        # agrees to float32 rounding: BLAS may round a row differently by its
        # position in the product, so the paper order itself can give the
        # three copies of one step different last bits.
        model = nn.build_synthesis_model(seed=5, filters=filters)
        tcn1, up5, drop, tcn2, dense, up3 = model.layers
        assert isinstance(dense, nn.TimeDistributedDense) and up3.k == 3
        paper = nn.Model([tcn1, up5, drop, tcn2, up3, dense], model.config, 31)
        for b, t in ((1, 1), (2, 7), (1, 40), (3, 101)):
            x = rng.standard_normal((b, t, 31)).astype(np.float32)
            ours, ref = model.predict(x), paper.predict(x)
            assert np.array_equal(ours, np.repeat(ours[:, ::3], 3, axis=1))
            assert np.abs(ours - ref).max() <= 1e-6 * np.abs(ref).max()

        x = rng.standard_normal((2, 23, 31)).astype(np.float32)
        grad_out = rng.standard_normal((2, 15 * 23, 1)).astype(np.float32)
        grads = []
        for stack in (model, paper):
            stack.zero_grad()
            stack.forward(x, training=False)
            gx = stack.backward(grad_out)
            grads.append([gx] + [g.copy() for g in stack.grads()])
        for ours, ref in zip(*grads):
            scale = np.abs(ref).max() or 1.0
            assert np.abs(ours - ref).max() <= 1e-5 * scale

    def test_init_draws_dense_head_first(self):
        # A seed gives the same initial parameters as the stack has always had:
        # the head is drawn before the two TCN blocks.
        model = nn.build_synthesis_model(seed=11, filters=(8, 4))
        rng = np.random.default_rng(np.random.SeedSequence(11))
        head = nn.TimeDistributedDense(4, 1, rng=rng)
        tcn1 = nn.TcnBlock(31, 8, 3, rng=rng)
        tcn2 = nn.TcnBlock(8, 4, 3, rng=rng)
        expected = tcn1.params + tcn2.params + head.params
        assert len(model.params()) == len(expected)
        for got, want in zip(model.params(), expected):
            assert np.array_equal(got, want)


class TestRegressionModel:
    def test_all_16_dims_buildable(self, rng):
        x = rng.standard_normal((1, 9, 30)).astype(np.float32)
        for dim in (12, 12, 12, 128, 1, 1, 1, 7, 1, 1, 2, 6, 1, 384, 1, 1):
            model = nn.build_regression_model(out_dim=dim, seed=0, hidden=16)
            assert model.predict(x).shape == (1, 9, dim)

    def test_frame_count_preserved(self, rng):
        model = nn.build_regression_model(out_dim=128, seed=0, hidden=16)
        x = rng.standard_normal((2, 33, 30)).astype(np.float32)
        assert model.predict(x).shape == (2, 33, 128)
        assert model.output_length(33) == 33

    def test_full_scale_shapes(self):
        model = nn.build_regression_model(out_dim=384, seed=0)
        gru, drop, dense = model.layers
        assert gru.w_z.shape == (30, 128)
        assert gru.u_h.shape == (128, 128)
        assert dense.w.shape == (128, 384)
        assert drop.rate == 0.2

    def test_invalid_out_dim_rejected(self):
        with pytest.raises(ValueError, match="out_dim"):
            nn.build_regression_model(out_dim=13, seed=0)


class TestPredictInference:
    def test_dropout_inactive_at_inference(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), dropout_rate=0.5)
        x = rng.standard_normal((1, 10, 31)).astype(np.float32)
        a = model.predict(x)
        b = model.predict(x)
        assert np.array_equal(a, b)

    def test_training_mode_differs_with_dropout(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), dropout_rate=0.5)
        x = rng.standard_normal((1, 10, 31)).astype(np.float32)
        a = model.forward(x, training=True)
        b = model.forward(x, training=True)
        assert not np.array_equal(a, b)


class TestTrain:
    def _single_pair(self, rng):
        x = rng.standard_normal((20, 31))
        y = rng.standard_normal((300, 1)) * 0.1
        return [(x, y)]

    def test_one_epoch_decreases_loss(self, rng):
        pairs = self._single_pair(rng)
        model = nn.build_synthesis_model(seed=2, filters=(8, 4))
        history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=1, learning_rate=1e-3, seed=0))
        assert history.epochs[1]["train_loss"] < history.epochs[0]["train_loss"]

    def test_same_seed_identical_curves_and_params(self, rng):
        pairs = self._single_pair(rng)
        runs = []
        for _ in range(2):
            model = nn.build_synthesis_model(seed=2, filters=(8, 4))
            history = nn.train(model, pairs, nn.TrainConfig(epochs=3, batch_size=1, seed=5))
            runs.append((history, [p.copy() for p in model.params()]))
        assert [e["train_loss"] for e in runs[0][0].epochs] == [e["train_loss"] for e in runs[1][0].epochs]
        for p1, p2 in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(p1, p2)

    def test_validation_loss_recorded(self, rng):
        pairs = self._single_pair(rng)
        model = nn.build_regression_model(out_dim=2, seed=0, hidden=8)
        rpairs = [(rng.standard_normal((10, 30)), rng.standard_normal((10, 2)))]
        history = nn.train(model, rpairs, nn.TrainConfig(epochs=2, batch_size=4, seed=0), val_pairs=rpairs)
        assert all(e["val_loss"] is not None for e in history.epochs)

    def test_variable_lengths_padded_and_masked(self, rng):
        pairs = [
            (rng.standard_normal((8, 30)), rng.standard_normal((8, 2))),
            (rng.standard_normal((12, 30)), rng.standard_normal((12, 2))),
            (rng.standard_normal((5, 30)), rng.standard_normal((5, 2))),
        ]
        model = nn.build_regression_model(out_dim=2, seed=0, hidden=8)
        history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=2, seed=1))
        assert len(history.epochs) == 2
        assert np.isfinite(history.final_train_loss())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numeric_error(self, rng):
        pairs = [(rng.standard_normal((10, 31)) * 100, rng.standard_normal((150, 1)) * 100)]
        model = nn.build_synthesis_model(seed=0, filters=(8, 4))
        with pytest.raises(NumericError, match="diverged"):
            nn.train(model, pairs, nn.TrainConfig(epochs=200, batch_size=1, learning_rate=1e12, seed=0))

    def test_empty_training_set_rejected(self):
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4)
        with pytest.raises(ValueError, match="empty"):
            nn.train(model, [], nn.TrainConfig(epochs=1))

    def test_history_csv(self, tmp_path, rng):
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4)
        pairs = [(rng.standard_normal((6, 30)), rng.standard_normal((6, 1)))]
        history = nn.train(model, pairs, nn.TrainConfig(epochs=3, batch_size=1, seed=0))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4


class TestCheckpoint:
    def test_synthesis_round_trip(self, tmp_path, rng):
        model = nn.build_synthesis_model(seed=3, filters=(8, 4))
        pairs = [(rng.standard_normal((10, 31)), rng.standard_normal((150, 1)))]
        nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=1, seed=0))
        path = tmp_path / "synth.ckpt"
        model.save(path)
        back = nn.load_model(path)
        x = rng.standard_normal((1, 12, 31)).astype(np.float32)
        assert np.array_equal(model.predict(x), back.predict(x))

    def test_regression_round_trip(self, tmp_path, rng):
        model = nn.build_regression_model(out_dim=7, seed=3, hidden=8)
        path = tmp_path / "regress.ckpt"
        model.save(path)
        back = nn.load_model(path)
        x = rng.standard_normal((1, 5, 30)).astype(np.float32)
        assert np.array_equal(model.predict(x), back.predict(x))

    def test_regressor_bundle_round_trip(self, tmp_path, rng):
        model = nn.build_regression_model(out_dim=6, seed=3, hidden=8)
        nn.train(model, [(rng.standard_normal((9, 30)), rng.standard_normal((9, 6)))],
                 nn.TrainConfig(epochs=2, batch_size=1, seed=0))
        bundle = pipeline.RegressorBundle(
            "tonnetz", model,
            pipeline.Scaler.fit(rng.standard_normal((20, 30))),
            pipeline.Scaler.fit(rng.standard_normal((20, 6))),
        )
        path = tmp_path / "regress_tonnetz.ckpt"
        bundle.save(path)
        back = pipeline.RegressorBundle.load(path)
        assert back.kind == "tonnetz"
        for a, b in ((bundle.in_scaler, back.in_scaler), (bundle.out_scaler, back.out_scaler)):
            assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)
        x = rng.standard_normal((11, 30))
        assert np.array_equal(bundle.predict(x), back.predict(x))

    def test_missing_param_array_is_data_error(self, tmp_path):
        # A checkpoint laid out for another layer order (the dense head at
        # layer05) has no layer04 arrays.
        model = nn.build_synthesis_model(seed=0, filters=(8, 4))
        arrays = model.named_params()
        arrays["layer05_p0"] = arrays.pop("layer04_p0")
        arrays["layer05_p1"] = arrays.pop("layer04_p1")
        path = tmp_path / "old.ckpt"
        serialize.save_container(path, model.kind, model.config, arrays)
        with pytest.raises(DataError, match="layer04_p0"):
            nn.load_model(path)

    def test_incomplete_model_config_is_data_error(self, tmp_path):
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4)
        config = {k: v for k, v in model.config.items() if k != "hidden"}
        path = tmp_path / "m.ckpt"
        serialize.save_container(path, model.kind, config, model.named_params())
        with pytest.raises(DataError, match="model config"):
            nn.load_model(path)

    def test_bad_container_header_is_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.build_regression_model(out_dim=1, seed=0, hidden=4).save(path)
        raw = path.read_bytes()
        hlen = int(np.frombuffer(raw[12:20], dtype=np.uint64)[0])
        header = json.loads(raw[20 : 20 + hlen])

        def rewrite(new_header) -> None:
            text = json.dumps(new_header).encode()
            path.write_bytes(raw[:12] + np.uint64(len(text)).tobytes() + text + raw[20 + hlen :])

        rewrite({k: v for k, v in header.items() if k != "arrays"})
        with pytest.raises(DataError, match="array list"):
            serialize.load_container(path)
        rewrite({**header, "arrays": [{**header["arrays"][0], "dtype": "float16"}] + header["arrays"][1:]})
        with pytest.raises(DataError, match="bad array entry"):
            nn.load_model(path)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.build_synthesis_model(seed=4, filters=(8, 4)).save(a)
        nn.build_synthesis_model(seed=4, filters=(8, 4)).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        nn.build_regression_model(out_dim=1, seed=0, hidden=4).save(path)
        before = path.read_bytes()
        real_open = open

        class FailingFile:
            """Passes the header writes through, then fails like a full disk."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 4:
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(serialize, "open", lambda *a, **k: FailingFile(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            nn.build_regression_model(out_dim=1, seed=1, hidden=4).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestFiniteDiffCheck:
    def test_tiny_synthesis_model(self, rng):
        model = nn.build_synthesis_model(seed=1, filters=(4, 2), dtype=np.float64)
        x = rng.standard_normal((2, 6, 31))
        y = rng.standard_normal((2, 90, 1))
        assert nn.finite_diff_grad_check(model, x, y, seed=0) < 1e-4

    def test_tiny_regression_model(self, rng):
        model = nn.build_regression_model(out_dim=6, seed=1, hidden=8, dtype=np.float64)
        x = rng.standard_normal((2, 7, 30))
        y = rng.standard_normal((2, 7, 6))
        assert nn.finite_diff_grad_check(model, x, y, seed=0) < 1e-4

    def test_linear_only_model_high_precision(self, rng):
        dense = nn.TimeDistributedDense(5, 3, rng=np.random.default_rng(2), dtype=np.float64)
        model = nn.Model([dense], {"out_dim": 3}, 5)
        x = rng.standard_normal((2, 4, 5))
        y = rng.standard_normal((2, 4, 3))
        assert nn.finite_diff_grad_check(model, x, y, seed=0) < 1e-7
