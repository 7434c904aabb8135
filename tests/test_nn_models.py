import functools
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eegspeech
from eegspeech import nn, pipeline, serialize
from eegspeech.errors import DataError, NumericError
from eegspeech.nn import layers as nn_layers
from eegspeech.nn import training


def test_public_names_resolve():
    missing = [name for name in nn.__all__ if not hasattr(nn, name)]
    assert missing == []
    assert len(set(nn.__all__)) == len(nn.__all__)


class TestSynthesisModel:
    def test_maps_t_to_15t(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        for _ in range(5):
            t = int(rng.integers(2, 40))
            x = rng.standard_normal((1, t, 31)).astype(np.float32)
            assert model.predict(x).shape == (1, 15 * t, 1)
        assert model.output_length(7) == 105

    def test_wrong_input_dim_rejected(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        with pytest.raises(DataError, match="31"):
            model.predict(rng.standard_normal((1, 5, 30)).astype(np.float32))

    def test_full_scale_parameter_shapes(self):
        model = nn.build_synthesis_model(seed=0, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        tcn1, _, drop, tcn2, dense, _ = model.layers
        assert tcn1.w.shape == (3 * 31, 256)
        assert tcn1.proj.shape == (31, 256)
        assert tcn2.w.shape == (3 * 256, 32)
        assert tcn2.proj.shape == (256, 32)
        assert dense.w.shape == (32, 1)
        assert drop.rate == 0.2

    def test_param_count_matches_closed_form(self):
        for f1, f2 in [(256, 32), (8, 4), (16, 16)]:
            model = nn.build_synthesis_model(seed=0, filters=(f1, f2), kernel_size=3, dropout_rate=0.2)
            tcn1 = 3 * 31 * f1 + f1 + 31 * f1  # taps, bias, 1x1 residual projection
            tcn2 = 3 * f1 * f2 + f2 + (f1 * f2 if f1 != f2 else 0)
            dense = f2 + 1
            assert sum(p.size for p in model.params()) == tcn1 + tcn2 + dense

    def test_causality_probe(self, rng):
        model = nn.build_synthesis_model(seed=1, filters=(6, 3), kernel_size=3, dropout_rate=0.2)
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
        # three copies of one step different last bits. Rate-0 dropout lets
        # both orders backpropagate the same training pass.
        model = nn.build_synthesis_model(seed=5, filters=filters, kernel_size=3, dropout_rate=0.0)
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
            stack.forward(x, training=True)
            gx = grad_out
            for layer in reversed(stack.layers):
                gx = layer.backward(gx)
            grads.append([gx] + [g.copy() for g in stack.grads()])
        for ours, ref in zip(*grads):
            scale = np.abs(ref).max() or 1.0
            assert np.abs(ours - ref).max() <= 1e-5 * scale

    @pytest.mark.parametrize("t", [1000, 2500, 4000])
    def test_polyphase_predict_matches_stacked_forward(self, rng, t):
        model = nn.build_synthesis_model(seed=2, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        x = rng.standard_normal((1, t, 31)).astype(np.float32)
        assert np.abs(model.predict(x) - model.forward(x, training=False)).max() <= 1e-5

    def test_each_step_gives_three_runs_of_samples(self, rng):
        # Kernel 3 over the x5 repeat: phase 0 reads steps t-1 (taps 0, 1) and t
        # (tap 2), phase 1 reads t-1 (tap 0) and t (taps 1, 2), phases 2-4 read
        # only t. TCN2 therefore gives each step the rows [a, b, c, c, c], and
        # after the per-step dense head and the x3 repeat its 15 samples are
        # [a]*3 + [b]*3 + [c]*9. The head's product may round a row by its
        # position, so the samples are compared to float32 rounding.
        model = nn.build_synthesis_model(seed=4, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        tcn1, up5, _, tcn2, _, _ = model.layers
        x = rng.standard_normal((2, 50, 31)).astype(np.float32)
        rows = tcn2.forward(tcn1.forward(x), repeat=up5.k).reshape(2, 50, 5, -1)
        assert np.array_equal(rows, rows[:, :, [0, 1, 2, 2, 2]])
        assert not np.array_equal(rows[:, :, 0], rows[:, :, 1])
        assert not np.array_equal(rows[:, :, 1], rows[:, :, 2])
        for out in (model.predict(x), model.forward(x, training=False)):
            steps = out[..., 0].reshape(2, 50, 15)
            runs = np.repeat(steps[:, :, [0, 3, 6]], [3, 3, 9], axis=2)
            assert np.abs(steps - runs).max() <= 1e-6 * np.abs(steps).max()

    @pytest.mark.parametrize("kind", ["synthesis", "regression"])
    def test_zero_time_steps_rejected(self, kind):
        if kind == "synthesis":
            model, in_dim = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2), 31
        else:
            model, in_dim = nn.build_regression_model(out_dim=2, seed=0, hidden=4, in_dim=30, dropout_rate=0.2), 30
        x = np.zeros((2, 0, in_dim), dtype=np.float32)
        for run in (model.predict, model.forward):
            with pytest.raises(DataError, match="0 time steps"):
                run(x)
        with pytest.raises(DataError, match=f"expects {in_dim} input features"):
            model.predict(np.zeros((1, 0, in_dim + 1), dtype=np.float32))

    def test_init_draws_dense_head_first(self):
        # A seed gives the same initial parameters as the stack has always had:
        # the head is drawn before the two TCN blocks.
        model = nn.build_synthesis_model(seed=11, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
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
            model = nn.build_regression_model(out_dim=dim, seed=0, hidden=16, in_dim=30, dropout_rate=0.2)
            assert model.predict(x).shape == (1, 9, dim)

    def test_frame_count_preserved(self, rng):
        model = nn.build_regression_model(out_dim=128, seed=0, hidden=16, in_dim=30, dropout_rate=0.2)
        x = rng.standard_normal((2, 33, 30)).astype(np.float32)
        assert model.predict(x).shape == (2, 33, 128)
        assert model.output_length(33) == 33

    def test_full_scale_shapes(self):
        model = nn.build_regression_model(out_dim=384, seed=0, hidden=128, in_dim=30, dropout_rate=0.2)
        gru, drop, dense = model.layers
        assert gru.w_z.shape == (30, 128)
        assert gru.u_h.shape == (128, 128)
        assert dense.w.shape == (128, 384)
        assert drop.rate == 0.2

    def test_invalid_out_dim_rejected(self):
        with pytest.raises(ValueError, match="out_dim"):
            nn.build_regression_model(out_dim=13, seed=0, hidden=128, in_dim=30, dropout_rate=0.2)


class TestPredictInference:
    def test_dropout_inactive_at_inference(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.5)
        x = rng.standard_normal((1, 10, 31)).astype(np.float32)
        a = model.predict(x)
        b = model.predict(x)
        assert np.array_equal(a, b)

    def test_training_mode_differs_with_dropout(self, rng):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.5)
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
        model = nn.build_synthesis_model(seed=2, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=1, learning_rate=1e-3, seed=0))
        assert history.epochs[1]["train_loss"] < history.epochs[0]["train_loss"]

    def test_same_seed_identical_curves_and_params(self, rng):
        pairs = self._single_pair(rng)
        runs = []
        for _ in range(2):
            model = nn.build_synthesis_model(seed=2, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
            history = nn.train(model, pairs, nn.TrainConfig(epochs=3, batch_size=1, learning_rate=1e-3, seed=5))
            runs.append((history, [p.copy() for p in model.params()]))
        assert [e["train_loss"] for e in runs[0][0].epochs] == [e["train_loss"] for e in runs[1][0].epochs]
        for p1, p2 in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(p1, p2)

    def test_validation_loss_recorded(self, rng):
        pairs = self._single_pair(rng)
        model = nn.build_regression_model(out_dim=2, seed=0, hidden=8, in_dim=30, dropout_rate=0.2)
        rpairs = [(rng.standard_normal((10, 30)), rng.standard_normal((10, 2)))]
        history = nn.train(model, rpairs, nn.TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=0),
                           val_pairs=rpairs)
        assert all(e["val_loss"] is not None for e in history.epochs)

    def test_variable_lengths_padded_and_masked(self, rng):
        pairs = [
            (rng.standard_normal((8, 30)), rng.standard_normal((8, 2))),
            (rng.standard_normal((12, 30)), rng.standard_normal((12, 2))),
            (rng.standard_normal((5, 30)), rng.standard_normal((5, 2))),
        ]
        model = nn.build_regression_model(out_dim=2, seed=0, hidden=8, in_dim=30, dropout_rate=0.2)
        history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=2, learning_rate=1e-3, seed=1))
        assert len(history.epochs) == 2
        assert np.isfinite(history.final_train_loss())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_numeric_error(self, rng):
        pairs = [(rng.standard_normal((10, 31)) * 100, rng.standard_normal((150, 1)) * 100)]
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        with pytest.raises(NumericError, match="diverged"):
            nn.train(model, pairs, nn.TrainConfig(epochs=200, batch_size=1, learning_rate=1e12, seed=0))

    def test_empty_training_set_rejected(self):
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2)
        with pytest.raises(ValueError, match="empty"):
            nn.train(model, [], nn.TrainConfig(epochs=1, batch_size=100, learning_rate=1e-3, seed=0))

    def test_history_csv(self, tmp_path, rng):
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2)
        pairs = [(rng.standard_normal((6, 30)), rng.standard_normal((6, 1)))]
        history = nn.train(model, pairs, nn.TrainConfig(epochs=3, batch_size=1, learning_rate=1e-3, seed=0))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4

    @pytest.mark.parametrize("meta, head", [(None, ""), ({}, ""), (
        {"learning_rate": 0.003, "epochs": 2, "batch_size": 4}, "# batch_size=4 epochs=2 learning_rate=0.003\n")])
    def test_history_csv_bytes(self, tmp_path, meta, head):
        history = nn.TrainHistory([{"epoch": 1, "train_loss": 0.5, "val_loss": None},
                                   {"epoch": 2, "train_loss": 1 / 3, "val_loss": 0.125}])
        path = tmp_path / "history.csv"
        history.to_csv(path, meta)
        assert path.read_text(encoding="utf-8") == head + "epoch,train_loss,val_loss\n1,0.5,\n2,0.333333333,0.125\n"


class TestModelBackward:
    @pytest.mark.parametrize("kind", ["synthesis", "regression"])
    def test_skipped_input_grad_keeps_param_grads(self, rng, kind):
        """Model.backward returns nothing and gives the parameter gradients of a
        layer-by-layer backward that also forms layer 0's input gradient."""
        if kind == "synthesis":
            model = nn.build_synthesis_model(seed=3, filters=(6, 4), kernel_size=3, dropout_rate=0.0,
                                             dtype=np.float64)
            x = rng.standard_normal((2, 9, 31))
        else:
            model = nn.build_regression_model(out_dim=7, seed=3, hidden=8, in_dim=30, dropout_rate=0.0,
                                              dtype=np.float64)
            x = rng.standard_normal((2, 9, 30))
        grad_out = rng.standard_normal(model.forward(x).shape)
        model.zero_grad()
        model.forward(x, training=True)
        assert model.backward(grad_out) is None
        skipped = [g.copy() for g in model.grads()]
        model.zero_grad()
        model.forward(x, training=True)
        g = grad_out
        for layer in reversed(model.layers):
            g = layer.backward(g)
        assert g.shape == x.shape
        for full, part in zip(model.grads(), skipped):
            assert np.array_equal(full, part)

    def test_backward_after_predict_raises(self, rng):
        model = nn.build_synthesis_model(seed=3, filters=(6, 4), kernel_size=3, dropout_rate=0.2)
        x = rng.standard_normal((1, 9, 31)).astype(np.float32)
        model.forward(x, training=True)
        out = model.predict(x)
        with pytest.raises(RuntimeError, match="training forward"):
            model.backward(np.ones_like(out))


class TestMicroBatches:
    """A batch longer than MICRO_BATCH_OUTPUT_STEPS is run in slices whose
    gradients add up to the whole batch's."""

    @staticmethod
    def _one_step_grads(kind, dtype, pairs, steps, monkeypatch):
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", steps)
        if kind == "synthesis":
            model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.2, dtype=dtype)
        else:
            model = nn.build_regression_model(out_dim=2, seed=6, hidden=8, in_dim=30, dropout_rate=0.2, dtype=dtype)
        history = nn.train(model, pairs, nn.TrainConfig(epochs=1, batch_size=len(pairs), learning_rate=1e-3, seed=3))
        return [g.copy() for g in model.grads()], history.final_train_loss()

    @pytest.mark.parametrize("kind", ["synthesis", "regression"])
    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_slices_match_whole_batch(self, rng, monkeypatch, kind, dtype, tol):
        lengths = rng.integers(12, 41, size=10)
        if kind == "synthesis":
            pairs = [(rng.standard_normal((n, 31)), 0.1 * rng.standard_normal((15 * n, 1))) for n in lengths]
        else:
            pairs = [(rng.standard_normal((n, 30)), rng.standard_normal((n, 2))) for n in lengths]
        t_out = (15 if kind == "synthesis" else 1) * int(lengths.max())
        whole, whole_loss = self._one_step_grads(kind, dtype, pairs, 10 * t_out, monkeypatch)
        sliced, sliced_loss = self._one_step_grads(kind, dtype, pairs, 3 * t_out, monkeypatch)
        for w, s in zip(whole, sliced):
            assert np.max(np.abs(w - s)) <= tol * np.max(np.abs(w))
        assert sliced_loss == pytest.approx(whole_loss, rel=tol)

    @staticmethod
    def _stock_epoch_peak(rng, n_trials):
        """tracemalloc peak of one 256/32 synthesis epoch on one batch of 2 s trials."""
        pairs = [(rng.standard_normal((2000, 31)).astype(np.float32),
                  0.1 * rng.standard_normal((30000, 1)).astype(np.float32)) for _ in range(n_trials)]
        model = nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        tracemalloc.start()
        try:
            nn.train(model, pairs, nn.TrainConfig(epochs=1, batch_size=n_trials, learning_rate=1e-3, seed=0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_stock_batch_memory_stays_at_one_slice(self, rng):
        assert training.MICRO_BATCH_OUTPUT_STEPS == 15 * 2000  # one 2 s trial per slice
        assert self._stock_epoch_peak(rng, 12) < 2 * self._stock_epoch_peak(rng, 4)

    def test_stock_slice_is_one_trial(self, rng, monkeypatch):
        """Four 2 s trials run as four one-trial slices: on one runner the epoch
        peaks near a one-trial epoch's, on W runners near W of them."""
        workers = training._worker_count(4)
        monkeypatch.setattr(training, "_worker_count", lambda n_slices: 1)
        assert self._stock_epoch_peak(rng, 4) < 1.5 * self._stock_epoch_peak(rng, 1)
        monkeypatch.undo()
        assert self._stock_epoch_peak(rng, 4) < (workers + 0.5) * self._stock_epoch_peak(rng, 1)

    @pytest.mark.parametrize("shape, n_slices", [
        ((4, 30000, 1), 4),  # 2 s synthesis trials: one per slice
        ((4, 15000, 1), 2),
        ((100, 63, 2), 1),  # the largest stock regression batch
        ((40, 63, 384), 1),
    ])
    def test_slices_count_output_steps(self, shape, n_slices):
        slices = training._slices(np.zeros(shape, dtype=np.float32))
        assert len(slices) == n_slices
        assert [i for rows in slices for i in range(shape[0])[rows]] == list(range(shape[0]))

    def test_stock_regression_batch_is_one_pass(self, rng, monkeypatch):
        """100 trials x 63 frames train bitwise as with an unbounded slice budget."""
        pairs = [(rng.standard_normal((63, 30)), rng.standard_normal((63, 2))) for _ in range(100)]

        def trained(steps):
            monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", steps)
            model = nn.build_regression_model(out_dim=2, seed=6, hidden=8, in_dim=30, dropout_rate=0.2)
            nn.train(model, pairs, nn.TrainConfig(epochs=1, batch_size=100, learning_rate=1e-3, seed=3))
            return model.params()

        stock = trained(training.MICRO_BATCH_OUTPUT_STEPS)
        for a, b in zip(stock, trained(10**9)):
            assert np.array_equal(a, b)

    def test_validation_loss_runs_in_slices(self, rng, monkeypatch):
        """Bitwise the whole batch's loss when it fits one slice, within 1e-6 relative otherwise."""
        lengths = rng.integers(12, 41, size=10)
        pairs = [(rng.standard_normal((n, 31)), 0.1 * rng.standard_normal((15 * n, 1))) for n in lengths]
        model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        padded = training._padded_batches(pairs, len(pairs), model, np.float32)
        xb, yb, mask, count = padded[0]
        diff = (model.predict(xb).astype(np.float64) - yb) * mask[..., None]
        whole = float(np.sum(diff * diff)) / count
        t_out = 15 * int(lengths.max())
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 10 * t_out)
        assert training._epoch_loss(model, padded) == whole
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 3 * t_out)
        assert training._epoch_loss(model, padded) == pytest.approx(whole, rel=1e-6)

    def test_validation_loss_through_predict_matches_forward(self, rng, monkeypatch):
        lengths = rng.integers(30, 90, size=9)
        pairs = [(rng.standard_normal((n, 31)), 0.1 * rng.standard_normal((15 * n, 1))) for n in lengths]
        model = nn.build_synthesis_model(seed=6, filters=(64, 16), kernel_size=3, dropout_rate=0.2)
        padded = training._padded_batches(pairs, 4, model, np.float32)
        polyphase = training._epoch_loss(model, padded)
        monkeypatch.setattr(model, "predict", lambda x: model.forward(x, training=False))
        assert polyphase == pytest.approx(training._epoch_loss(model, padded), rel=1e-6)

    def test_validation_memory_stays_at_one_slice(self, rng):
        train_pairs = [(rng.standard_normal((200, 31)).astype(np.float32),
                        0.1 * rng.standard_normal((3000, 1)).astype(np.float32))]

        def epoch_peak(n_val):
            val_pairs = [(rng.standard_normal((2000, 31)).astype(np.float32),
                          0.1 * rng.standard_normal((30000, 1)).astype(np.float32)) for _ in range(n_val)]
            model = nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
            tracemalloc.start()
            try:
                nn.train(model, train_pairs, nn.TrainConfig(epochs=1, batch_size=100, learning_rate=1e-3, seed=0),
                         val_pairs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert training.MICRO_BATCH_OUTPUT_STEPS == 15 * 2000  # one 2 s trial per slice
        assert epoch_peak(12) < 2 * epoch_peak(4)

    def test_model_holds_no_activations_after_train_or_predict(self, rng):
        """Memory allocated by nn.train and by predict that the model still holds
        once they return: the layers' backward records only."""
        def pair():
            return (rng.standard_normal((2000, 31)).astype(np.float32),
                    0.1 * rng.standard_normal((30000, 1)).astype(np.float32))

        train_pairs, val_pairs = [pair() for _ in range(4)], [pair() for _ in range(2)]
        x = train_pairs[0][0][None]
        model = nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        config = nn.TrainConfig(epochs=1, batch_size=100, learning_rate=1e-3, seed=0)
        tracemalloc.start()
        try:
            history = nn.train(model, train_pairs, config, val_pairs)
            after_train = tracemalloc.get_traced_memory()[0]
            model.predict(x)
            after_predict = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert history.epochs[0]["val_loss"] is not None
        assert after_train < 2**20 and after_predict < 2**20, (after_train, after_predict)
        assert all(layer._cache is None for layer in model.layers)


def _params_digest(model) -> str:
    digest = hashlib.sha256()
    for p in model.params():
        digest.update(p.tobytes())
    return digest.hexdigest()


class TestSliceRunners:
    """The slices of a batch run on several runners, bitwise as on one."""

    @staticmethod
    def _pairs(rng, n):
        lengths = rng.integers(12, 41, size=n)
        return [(rng.standard_normal((t, 31)), 0.1 * rng.standard_normal((15 * t, 1))) for t in lengths]

    @staticmethod
    def _train(monkeypatch, pairs, workers, val_pairs=None, dtype=np.float32, filters=(8, 4)):
        """Three epochs of one trial per slice on `workers` runners; the digest
        of the parameters, the history, the number of threads that ran a
        TcnBlock forward and the dropout masks in the order they were drawn."""
        monkeypatch.setattr(training, "_worker_count", lambda n_slices: min(workers, n_slices))
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 15 * 40)
        threads = set()
        masks = []
        forward, dropout_forward = nn.TcnBlock.forward, nn.Dropout.forward

        def recorded(layer, x, *args, **kwargs):
            threads.add(threading.get_ident())
            return forward(layer, x, *args, **kwargs)

        def drawn(layer, x, training=False, window=None):
            y = dropout_forward(layer, x, training, window)
            if training:
                masks.append(layer._cache[0])
            return y

        monkeypatch.setattr(nn.TcnBlock, "forward", recorded)
        monkeypatch.setattr(nn.Dropout, "forward", drawn)
        model = nn.build_synthesis_model(seed=6, filters=filters, kernel_size=3, dropout_rate=0.3, dtype=dtype)
        history = nn.train(model, pairs, nn.TrainConfig(epochs=3, batch_size=5, learning_rate=1e-3, seed=3),
                           val_pairs)
        monkeypatch.undo()
        assert all(layer._cache is None for layer in model.layers)
        return _params_digest(model), history.epochs, len(threads), masks

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_across_worker_counts(self, rng, monkeypatch, dtype):
        """Up to five runners on two batches of five slices, with threads
        switching every microsecond. On one runner the slices draw their masks
        one after another from the model's dropout generator (seed 7).

        The second input pads both batches to 41 steps: a (7, 3) model's
        one-trial mask then has 5 * 41 * 7 = 1435 elements, an odd count, so a
        float32 slice starts 718 words after the one before it."""
        odd_lengths = [41] * 6 + list(rng.integers(12, 41, size=4))
        odd = [(rng.standard_normal((t, 31)), 0.1 * rng.standard_normal((15 * t, 1))) for t in odd_lengths]
        val_pairs = self._pairs(rng, 3)
        for filters, pairs in (((8, 4), self._pairs(rng, 10)), ((7, 3), odd)):
            digest, epochs, n_threads, masks = self._train(monkeypatch, pairs, 1, val_pairs, dtype, filters)
            assert n_threads == 1
            assert len(masks) == 3 * len(pairs)
            generator = np.random.default_rng(7)
            for mask in masks:
                assert np.array_equal(mask, nn_layers._keep_mask(generator, mask.shape, dtype, 0.3))
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for workers in (2, 3, 5):
                    got_digest, got_epochs, n_threads, _ = self._train(
                        monkeypatch, pairs, workers, val_pairs, dtype, filters)
                    assert (got_digest, got_epochs) == (digest, epochs)
                    assert 2 <= n_threads <= workers
            finally:
                sys.setswitchinterval(interval)

    _BLAS_SCRIPT = """
import hashlib
import numpy as np
from eegspeech import nn
rng = np.random.default_rng(5)
{}
digest = hashlib.sha256(repr(history.epochs).encode())
for p in model.params():
    digest.update(p.tobytes())
print(digest.hexdigest())
"""
    _BLAS_CASES = {
        "four 2 s trials of the 256/32 model, three epochs": """
pairs = [(rng.standard_normal((2000, 31)).astype(np.float32),
          0.1 * rng.standard_normal((30000, 1)).astype(np.float32)) for _ in range(4)]
model = nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
history = nn.train(model, pairs, nn.TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=0))
""",
        "a one-slice batch of one 2 s trial of the 64/16 model, two epochs": """
pairs = [(rng.standard_normal((2000, 31)).astype(np.float32),
          0.1 * rng.standard_normal((30000, 1)).astype(np.float32))]
model = nn.build_synthesis_model(seed=1, filters=(64, 16), kernel_size=3, dropout_rate=0.2)
history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=0))
""",
        "a GRU-128 regressor on 40 x 62 frames with 5 validation trials, three epochs": """
pairs = [(rng.standard_normal((62, 30)).astype(np.float32), rng.standard_normal((62, 12)).astype(np.float32))
         for _ in range(45)]
model = nn.build_regression_model(out_dim=12, seed=1, hidden=128, in_dim=30, dropout_rate=0.2)
history = nn.train(model, pairs[:40], nn.TrainConfig(epochs=3, batch_size=100, learning_rate=1e-3, seed=0),
                   pairs[40:])
""",
    }

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_bitwise_across_blas_thread_counts(self):
        """Three trainings in fresh processes, each with the same parameters
        and history at 1 and 2 BLAS threads: a batch of four one-trial slices,
        a batch of one slice, and a regressor whose one-slice batch and
        validation loss run on the calling thread."""
        paths = [str(Path(eegspeech.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        differing = []
        for case, body in self._BLAS_CASES.items():
            digests = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join(filter(None, paths)))
                proc = subprocess.run([sys.executable, "-c", self._BLAS_SCRIPT.format(body)], env=env, check=True,
                                      timeout=300, capture_output=True, text=True)
                digests.append(proc.stdout.strip())
            if digests[0] != digests[1]:
                differing.append(case)
        assert differing == []

    @staticmethod
    def _train_within(timeout_s, model, pairs, caller):
        """nn.train on a helper thread, whose id goes into caller: what it
        raised, failing the test if it is still running after timeout_s."""
        raised = []

        def target():
            caller.append(threading.get_ident())
            try:
                nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=3))
            except BaseException as exc:
                raised.append(exc)

        helper = threading.Thread(target=target, daemon=True)
        helper.start()
        helper.join(timeout_s)
        assert not helper.is_alive(), "nn.train did not return"
        return raised

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_layer_error_in_a_slice_propagates(self, rng, monkeypatch, failing):
        """A failing slice on a worker or on the caller thread: its exception
        reaches the caller, no thread is left running, no layer keeps a backward
        record and the dropout layer keeps its own generator."""
        monkeypatch.setattr(training, "_worker_count", lambda n_slices: min(2, n_slices))
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 15 * 40)
        baseline = threading.active_count()
        caller = []
        failed = threading.Event()
        backward = nn.TcnBlock.backward

        def failing_backward(layer, *args, **kwargs):
            if (threading.get_ident() == caller[0]) == (failing == "caller"):
                failed.set()
                raise RuntimeError(f"boom in the {failing}")
            failed.wait(10)  # the other runner's slices wait until one has failed
            return backward(layer, *args, **kwargs)

        monkeypatch.setattr(nn.TcnBlock, "backward", failing_backward)
        model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        generator = model.layers[2].rng
        raised = self._train_within(60, model, self._pairs(rng, 6), caller)
        assert [str(exc) for exc in raised] == [f"boom in the {failing}"]
        assert threading.active_count() == baseline
        assert all(layer._cache is None for layer in model.layers)
        assert model.layers[2].rng is generator

    def test_nan_target_raises_numeric_error(self, rng, monkeypatch):
        monkeypatch.setattr(training, "_worker_count", lambda n_slices: min(2, n_slices))
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 15 * 40)
        baseline = threading.active_count()
        pairs = self._pairs(rng, 8)
        pairs[5][1][7, 0] = np.nan
        model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        raised = self._train_within(60, model, pairs, [])
        assert len(raised) == 1 and isinstance(raised[0], NumericError), raised
        assert "diverged" in str(raised[0])
        assert threading.active_count() == baseline
        assert all(layer._cache is None for layer in model.layers)


class TestHeldHeap:
    """nn.train pins glibc's mmap and trim thresholds, so a step's freed arrays
    stay in the heap for the next one."""

    _FAULT_SCRIPT = """
import resource
import numpy as np
from eegspeech import nn
rng = np.random.default_rng(5)
pairs = [(rng.standard_normal((2000, 31)).astype(np.float32),
          0.1 * rng.standard_normal((30000, 1)).astype(np.float32)) for _ in range(4)]
model = nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
config = nn.TrainConfig(epochs=1, batch_size=4, learning_rate=1e-3, seed=0)
nn.train(model, pairs, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    nn.train(model, pairs, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
"""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt thresholds")
    def test_warm_epochs_fault_few_pages(self):
        """Four 2 s trials of the 256/32 model in a fresh process, where no
        earlier test has raised glibc's dynamic threshold: a warm epoch faults
        in few pages (about 8k when each slice's heap top is trimmed)."""
        paths = [str(Path(eegspeech.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", self._FAULT_SCRIPT], env=env, check=True, timeout=300,
                              capture_output=True, text=True)
        assert float(proc.stdout) < 1500

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_glibc_takes_the_thresholds(self):
        assert training._hold_heap() is True

    def test_without_mallopt_trains_the_same_bits(self, rng, monkeypatch):
        pairs = TestSliceRunners._pairs(rng, 6)

        def run():
            model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.3)
            history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3, seed=3))
            return _params_digest(model), history.epochs

        expected = run()
        monkeypatch.setattr(training, "_mallopt", lambda: None)
        monkeypatch.setattr(training, "_hold_heap", functools.cache(training._hold_heap.__wrapped__))
        assert run() == expected
        assert training._hold_heap() is False


class TestCheckpoint:
    def test_synthesis_round_trip(self, tmp_path, rng):
        model = nn.build_synthesis_model(seed=3, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        pairs = [(rng.standard_normal((10, 31)), rng.standard_normal((150, 1)))]
        nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=1, learning_rate=1e-3, seed=0))
        path = tmp_path / "synth.ckpt"
        model.save(path)
        back = nn.load_model(path)
        x = rng.standard_normal((1, 12, 31)).astype(np.float32)
        assert np.array_equal(model.predict(x), back.predict(x))

    def test_regression_round_trip(self, tmp_path, rng):
        model = nn.build_regression_model(out_dim=7, seed=3, hidden=8, in_dim=30, dropout_rate=0.2)
        path = tmp_path / "regress.ckpt"
        model.save(path)
        back = nn.load_model(path)
        x = rng.standard_normal((1, 5, 30)).astype(np.float32)
        assert np.array_equal(model.predict(x), back.predict(x))

    def test_regressor_bundle_round_trip(self, tmp_path, rng):
        model = nn.build_regression_model(out_dim=6, seed=3, hidden=8, in_dim=30, dropout_rate=0.2)
        nn.train(model, [(rng.standard_normal((9, 30)), rng.standard_normal((9, 6)))],
                 nn.TrainConfig(epochs=2, batch_size=1, learning_rate=1e-3, seed=0))
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

    @pytest.mark.parametrize("kind, model_out, in_dim, out_dim, match", [
        ("tonnetz", 6, 29, 6, "in_mean has shape \\(29,\\), expected \\(30,\\)"),
        ("tonnetz", 6, 30, 5, "out_mean has shape \\(5,\\), expected \\(6,\\)"),
        ("mel", 12, 30, 12, "kind mel has 128 dims, but its model predicts 12"),
        ("nonsense", 6, 30, 6, "unknown feature kind 'nonsense'"),
    ])
    def test_inconsistent_bundle_is_data_error(self, tmp_path, rng, kind, model_out, in_dim, out_dim, match):
        model = nn.build_regression_model(out_dim=model_out, seed=3, hidden=8, in_dim=30, dropout_rate=0.2)
        bundle = pipeline.RegressorBundle(kind, model, pipeline.Scaler.fit(rng.standard_normal((20, in_dim))),
                                          pipeline.Scaler.fit(rng.standard_normal((20, out_dim))))
        path = tmp_path / "regress.ckpt"
        bundle.save(path)
        with pytest.raises(DataError, match=f"{path.name}: {match}"):
            pipeline.RegressorBundle.load(path)

    def test_missing_param_array_is_data_error(self, tmp_path):
        # A checkpoint laid out for another layer order (the dense head at
        # layer05) has no layer04 arrays.
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        arrays = model.named_params()
        arrays["layer05_p0"] = arrays.pop("layer04_p0")
        arrays["layer05_p1"] = arrays.pop("layer04_p1")
        path = tmp_path / "old.ckpt"
        serialize.save_container(path, model.kind, model.config, arrays)
        with pytest.raises(DataError, match="layer04_p0"):
            nn.load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_param_is_data_error(self, tmp_path, value):
        model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        arrays = model.named_params()
        arrays["layer03_p1"][2] = value
        path = tmp_path / "synth.ckpt"
        serialize.save_container(path, model.kind, model.config, arrays)
        with pytest.raises(DataError, match=f"{path.name}: checkpoint array 'layer03_p1' holds NaN or inf"):
            nn.load_model(path)

    @pytest.mark.parametrize("name", ["in_mean", "in_std", "out_mean", "out_std"])
    def test_non_finite_scaler_is_data_error(self, tmp_path, rng, name):
        model = nn.build_regression_model(out_dim=6, seed=3, hidden=8, in_dim=30, dropout_rate=0.2)
        bundle = pipeline.RegressorBundle("tonnetz", model, pipeline.Scaler.fit(rng.standard_normal((20, 30))),
                                          pipeline.Scaler.fit(rng.standard_normal((20, 6))))
        path = tmp_path / "regress_tonnetz.ckpt"
        bundle.save(path)
        kind, meta, arrays = serialize.load_container(path)
        arrays[name][-1] = np.nan
        serialize.save_container(path, kind, meta, arrays)
        with pytest.raises(DataError, match=f"{path.name}: {name} holds NaN or inf"):
            pipeline.RegressorBundle.load(path)

    def test_incomplete_model_config_is_data_error(self, tmp_path):
        model = nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2)
        config = {k: v for k, v in model.config.items() if k != "hidden"}
        path = tmp_path / "m.ckpt"
        serialize.save_container(path, model.kind, config, model.named_params())
        with pytest.raises(DataError, match="model config"):
            nn.load_model(path)

    @pytest.mark.parametrize("kind, edit", [
        ("synthesis", {"filters": [8, 4, 2]}),
        ("synthesis", {"dropout_rate": 1.5}),
        ("synthesis", {"kernel_size": 0}),
        ("regression", {"out_dim": 5}),
    ], ids=["three-filters", "dropout-1.5", "kernel-0", "regression-out-dim-5"])
    def test_config_its_builder_rejects_is_data_error(self, tmp_path, kind, edit):
        if kind == "synthesis":
            model = nn.build_synthesis_model(seed=0, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
        else:
            model = nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2)
        path = tmp_path / "m.ckpt"
        serialize.save_container(path, model.kind, {**model.config, **edit}, model.named_params())
        with pytest.raises(DataError, match=f"{path.name}: bad {kind} model config"):
            nn.load_model(path)

    def test_bad_container_header_is_data_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2).save(path)
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
        nn.build_synthesis_model(seed=4, filters=(8, 4), kernel_size=3, dropout_rate=0.2).save(a)
        nn.build_synthesis_model(seed=4, filters=(8, 4), kernel_size=3, dropout_rate=0.2).save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_interrupted_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        nn.build_regression_model(out_dim=1, seed=0, hidden=4, in_dim=30, dropout_rate=0.2).save(path)
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
            nn.build_regression_model(out_dim=1, seed=1, hidden=4, in_dim=30, dropout_rate=0.2).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestFiniteDiffCheck:
    def test_tiny_synthesis_model(self, rng):
        model = nn.build_synthesis_model(seed=1, filters=(4, 2), kernel_size=3, dropout_rate=0.0, dtype=np.float64)
        x = rng.standard_normal((2, 6, 31))
        y = rng.standard_normal((2, 90, 1))
        assert nn.finite_diff_grad_check(model, x, y, seed=0) < 1e-4

    def test_tiny_regression_model(self, rng):
        model = nn.build_regression_model(out_dim=6, seed=1, hidden=8, in_dim=30, dropout_rate=0.0, dtype=np.float64)
        x = rng.standard_normal((2, 7, 30))
        y = rng.standard_normal((2, 7, 6))
        assert nn.finite_diff_grad_check(model, x, y, seed=0) < 1e-4

    def test_refuses_a_model_with_dropout(self, rng):
        model = nn.build_regression_model(out_dim=6, seed=1, hidden=8, in_dim=30, dropout_rate=0.2, dtype=np.float64)
        x = rng.standard_normal((2, 7, 30))
        with pytest.raises(ValueError, match="dropout"):
            nn.finite_diff_grad_check(model, x, rng.standard_normal((2, 7, 6)), seed=0)

    def test_linear_only_model_high_precision(self, rng):
        dense = nn.TimeDistributedDense(5, 3, rng=np.random.default_rng(2), dtype=np.float64)
        model = nn.Model([dense], {"out_dim": 3}, 5)
        x = rng.standard_normal((2, 4, 5))
        y = rng.standard_normal((2, 4, 3))
        assert nn.finite_diff_grad_check(model, x, y, seed=0) < 1e-7
