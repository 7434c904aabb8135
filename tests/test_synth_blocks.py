"""SynthesisModel.train_pass, the time-blocked training pass, against
Model.train_pass, the layer-by-layer pass it stands in for.

The blocked pass walks a slice's EEG steps in blocks from the last to the
first; each block recomputes its halo, runs every layer's forward, the loss on
its own outputs and every layer's backward, and hands the halo rows of the
TCN1 output gradient to the block before it. TRAIN_BLOCK_BYTES is patched
small here, so that the slices span several blocks. In float64 the loss and
all eight parameter gradients must match the layer pass to 1e-12 relative,
the dropout masks must be the parts of the layer pass's mask, and neither
pass may move the dropout generator (nn.train advances it once per batch).
"""

import math

import numpy as np
import pytest

from eegspeech import nn
from eegspeech.nn import layers as nn_layers
from eegspeech.nn import models, training


def _model(kernel=3, f1=8, f2=5, rate=0.2, dtype=np.float64):
    return nn.build_synthesis_model(seed=4, filters=(f1, f2), kernel_size=kernel, dropout_rate=rate, dtype=dtype)


def _slice(rng, rows, t, dtype, valid=None):
    """A padded (rows, t) slice: x, target, mask and a batch count larger than
    the slice's own; row r has valid[r] EEG steps, zero-padded after them."""
    valid = [t] * rows if valid is None else valid
    x = np.zeros((rows, t, 31), dtype=dtype)
    y = np.zeros((rows, 15 * t, 1), dtype=dtype)
    mask = np.zeros((rows, 15 * t), dtype=dtype)
    for r, n in enumerate(valid):
        x[r, :n] = rng.standard_normal((n, 31))
        y[r, : 15 * n] = 0.1 * rng.standard_normal((15 * n, 1))
        mask[r, : 15 * n] = 1.0
    return x, y, mask, float(mask.sum()) + 45.0


def _run(model, train_pass, batch):
    """loss * part, copies of the parameter gradients and the dropout
    generator's end state of one pass from zeroed gradients."""
    model.zero_grad()
    sq = train_pass(*batch)
    assert all(layer._cache is None for layer in model.layers)
    return sq, [g.copy() for g in model.grads()], model.layers[2].rng.bit_generator.state


def _set_steps(monkeypatch, model, rows, steps):
    """Patch the budget to `steps` EEG steps per block for a slice of `rows` rows."""
    _, up5, _, tcn2, _, _ = model.layers
    width = rows * up5.k * max(tcn2.in_dim, tcn2.out_dim) * tcn2.w.dtype.itemsize
    monkeypatch.setattr(models, "TRAIN_BLOCK_BYTES", steps * width)


def _blocked_and_layered(monkeypatch, make, batch, steps):
    rows, t = batch[0].shape[:2]
    layered = make()
    expected = _run(layered, lambda *a: nn.Model.train_pass(layered, *a), batch)
    blocked = make()
    _set_steps(monkeypatch, blocked, rows, steps)
    return expected, _run(blocked, blocked.train_pass, batch), blocked


def _assert_close(expected, got, tol):
    sq, grads, state = expected
    assert len(grads) == 8  # w, b and proj of both TCN blocks, w and b of the dense head
    for want, have in zip(grads, got[1]):
        assert np.max(np.abs(want - have)) <= tol * np.max(np.abs(want))
    assert got[0] == pytest.approx(sq, rel=tol)
    assert got[2] == state


class TestBlockedPassMatchesLayerPass:
    @pytest.mark.parametrize("kernel", [2, 3, 5])
    @pytest.mark.parametrize("t, n_blocks", [(9, 1), (36, 3), (41, 4)])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_one_trial(self, rng, monkeypatch, kernel, t, n_blocks, rate):
        """Trials below one block, at a multiple of the block and off it."""
        batch = _slice(rng, 1, t, np.float64)
        expected, got, blocked = _blocked_and_layered(
            monkeypatch, lambda: _model(kernel=kernel, rate=rate), batch, 12)
        assert len(range(0, t, blocked.block_steps(1, t, np.float64))) == n_blocks
        _assert_close(expected, got, 1e-12)

    @pytest.mark.parametrize("kernel", [2, 3, 5])
    @pytest.mark.parametrize("rate", [0.0, 0.2])
    def test_padded_rows_across_block_boundaries(self, rng, monkeypatch, kernel, rate):
        """Three rows of 40, 27 and 13 valid steps in blocks of 10: the
        padding starts inside the third and the second block, and the last
        block has valid outputs in one row only."""
        batch = _slice(rng, 3, 40, np.float64, valid=[40, 27, 13])
        expected, got, blocked = _blocked_and_layered(
            monkeypatch, lambda: _model(kernel=kernel, rate=rate), batch, 10)
        assert blocked.block_steps(3, 40, np.float64) == 10
        _assert_close(expected, got, 1e-12)

    @pytest.mark.parametrize("f1", [7, 9])
    def test_odd_filters1(self, rng, monkeypatch, f1):
        """An odd f1 puts the blocks' mask elements at odd offsets."""
        batch = _slice(rng, 2, 33, np.float64, valid=[33, 20])
        expected, got, _ = _blocked_and_layered(monkeypatch, lambda: _model(f1=f1), batch, 8)
        _assert_close(expected, got, 1e-12)

    def test_padded_blocks_are_skipped(self, rng, monkeypatch):
        """Blocks with no valid output and nothing to carry run no layer."""
        batch = _slice(rng, 2, 40, np.float64, valid=[12, 9])
        calls = []
        forward = nn.TcnBlock.forward
        monkeypatch.setattr(nn.TcnBlock, "forward", lambda layer, x, *a, **k: calls.append(x.shape[1])
                            or forward(layer, x, *a, **k))
        expected, got, _ = _blocked_and_layered(monkeypatch, _model, batch, 10)
        _assert_close(expected, got, 1e-12)
        # the layer pass's two forwards over 40 steps, then the first two blocks'
        assert calls == [40, 200, 13, 65, 10, 50]

    def test_no_valid_output(self, rng, monkeypatch):
        x, y, mask, count = _slice(rng, 1, 30, np.float64)
        model = _model()
        _set_steps(monkeypatch, model, 1, 10)
        state = model.layers[2].rng.bit_generator.state
        assert _run(model, model.train_pass, (x, y, 0 * mask, count))[0] == 0.0
        assert all(not g.any() for g in model.grads())
        layered = _model()
        layered.layers[2].rng.bit_generator.state = state
        nn.Model.train_pass(layered, x, y, 0 * mask, count)
        assert model.layers[2].rng.bit_generator.state == layered.layers[2].rng.bit_generator.state

    def test_nan_target_stops_the_pass(self, rng, monkeypatch):
        x, y, mask, count = _slice(rng, 1, 30, np.float64)
        y[0, 20] = np.nan
        model = _model()
        _set_steps(monkeypatch, model, 1, 10)
        assert math.isnan(model.train_pass(x, y, mask, count))
        assert all(layer._cache is None for layer in model.layers)

    def test_paper_scale_float32(self, rng):
        """One 2 s trial of the 256/32 model at the stock budget, float32."""
        batch = _slice(rng, 1, 2000, np.float32)
        make = lambda: nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        layered, blocked = make(), make()
        assert blocked.block_steps(1, 2000, np.float32) == 400
        expected = _run(layered, lambda *a: nn.Model.train_pass(layered, *a), batch)
        _assert_close(expected, _run(blocked, blocked.train_pass, batch), 1e-5)


class TestBlockForwards:
    def test_masks_and_outputs_are_parts_of_the_layer_pass(self, rng, monkeypatch):
        """float32, f1 = 7, a two-row slice that starts at row 0, then row 1 of
        its batch: each block's mask is bitwise its rows and steps of the
        batch's one mask draw, including windows that start on the high half
        of a generator word (row 1 starts at element 5 * 37 * 7 = 1295), each
        block's outputs on its own steps are the layer pass's, and the pass
        leaves the generator where it was."""
        batch = _slice(rng, 2, 37, np.float32, valid=[37, 30])
        layered = _model(f1=7, dtype=np.float32)
        whole = {}
        for row in (0, 1):
            pred = batch[0]
            for layer in layered.layers:
                window = {"window": (row, 0, pred.shape[1])} if isinstance(layer, nn.Dropout) else {}
                pred = layer.forward(pred, training=True, **window)
            mask = nn_layers._keep_mask(np.random.default_rng(5), (row + 2, 5 * 37, 7), np.float32, 0.2)
            whole[row] = mask[row:], pred
        model = _model(f1=7, dtype=np.float32)
        _set_steps(monkeypatch, model, 2, 9)
        steps, halo = model.block_steps(2, 37, np.float32), model.halo()
        masks, preds = [], []
        dropout_forward, up_forward = nn.Dropout.forward, nn.UpsampleRepeat.forward

        def drawn(layer, h, training=False, window=None):
            out = dropout_forward(layer, h, training, window)
            masks.append((window, layer._cache[0]))
            return out

        def upsampled(layer, h, training=False):
            out = up_forward(layer, h, training)
            if layer is model.layers[5]:
                preds.append(out)
            return out

        monkeypatch.setattr(nn.Dropout, "forward", drawn)
        monkeypatch.setattr(nn.UpsampleRepeat, "forward", upsampled)
        state = model.layers[2].rng.bit_generator.state
        starts = list(reversed(range(0, 37, steps)))
        assert len(starts) == 5
        odd = 0
        for row, (whole_mask, whole_pred) in whole.items():
            masks.clear()
            preds.clear()
            model.train_pass(*batch, row)
            assert model.layers[2].rng.bit_generator.state == state
            assert len(masks) == len(preds) == 5
            for s, (window, mask), pred in zip(starts, masks, preds):
                lo, e = max(0, s - halo), min(s + steps, 37)
                assert window == (row, 5 * lo, 5 * 37)
                assert np.array_equal(mask, whole_mask[:, 5 * lo : 5 * e])
                odd += any(((row + r) * 5 * 37 + 5 * lo) * 7 % 2 for r in range(2))
                np.testing.assert_allclose(pred[:, 15 * (s - lo):], whole_pred[:, 15 * s : 15 * e],
                                           rtol=1e-6, atol=1e-7)
        assert odd

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keep_mask_window(self, dtype):
        """Windows of a (3, 11, 7) draw: rows row.., steps start.. of the whole
        mask, with the generator left where it was. Row 1 begins at element
        11 * 7 = 77, an odd float32 element, so on the high half of a word."""
        generator = np.random.default_rng(2)
        state = generator.bit_generator.state
        whole = nn_layers._keep_mask(generator, (3, 11, 7), dtype, 0.3)
        assert generator.bit_generator.state == state
        assert np.array_equal(whole, np.random.default_rng(2).random((3, 11, 7), dtype) >= dtype(0.3))
        for row, rows, start, n in ((0, 3, 0, 11), (0, 3, 1, 4), (0, 3, 4, 7), (0, 3, 10, 1),
                                    (1, 2, 0, 11), (1, 1, 3, 5), (2, 1, 10, 1)):
            part = nn_layers._keep_mask(generator, (rows, n, 7), dtype, 0.3, window=(row, start, 11))
            assert np.array_equal(part, whole[row : row + rows, start : start + n])
            assert generator.bit_generator.state == state


class TestStockBlocks:
    def test_halo_from_the_layers(self):
        assert _model(kernel=3).halo() == 2 + 1
        assert _model(kernel=5).halo() == 4 + 1
        assert _model(kernel=2).halo() == 1 + 1
        model = _model(kernel=3)
        model.layers[0].dilation, model.layers[3].dilation = 2, 4
        assert model.halo() == 4 + 2

    @pytest.mark.parametrize("rows, t, steps", [
        (1, 2000, 400),  # a stock 2 s trial: five blocks
        (1, 409, 409),  # the most steps under 2 MiB at 5 * 256 float32 values a step
        (1, 410, 205),
        (4, 500, 100),  # four 0.5 s trials
    ])
    def test_block_steps_at_paper_width(self, rows, t, steps):
        model = nn.build_synthesis_model(seed=1, filters=(256, 32), kernel_size=3, dropout_rate=0.2)
        assert model.block_steps(rows, t, np.float32) == steps

    def test_blocks_never_shorter_than_the_halo(self, monkeypatch):
        model = _model(kernel=5)
        _set_steps(monkeypatch, model, 1, 1)
        assert model.block_steps(1, 40, np.float64) == model.halo() == 5

    def test_one_block_trains_bitwise_as_the_layer_pass(self, rng, monkeypatch):
        """With the budget at or above the trial, one nn.train epoch of the
        blocked pass gives the layer pass's parameters and history."""
        pairs = [(rng.standard_normal((60, 31)).astype(np.float32),
                  0.1 * rng.standard_normal((900, 1)).astype(np.float32)) for _ in range(3)]

        def trained(train_pass):
            monkeypatch.setattr(models.SynthesisModel, "train_pass", train_pass)
            model = nn.build_synthesis_model(seed=6, filters=(16, 8), kernel_size=3, dropout_rate=0.2)
            history = nn.train(model, pairs, nn.TrainConfig(epochs=1, batch_size=3, learning_rate=1e-3, seed=3))
            return [p.copy() for p in model.params()], history.epochs, model.layers[2].rng.bit_generator.state

        assert models.TRAIN_BLOCK_BYTES >= 3 * 5 * 16 * 4 * 60
        blocked = trained(models.SynthesisModel.train_pass)
        layered = trained(nn.Model.train_pass)
        assert blocked[1:] == layered[1:]
        for a, b in zip(blocked[0], layered[0]):
            assert np.array_equal(a, b)

    def test_train_runs_blocks_under_the_slices(self, rng, monkeypatch):
        """nn.train with slices of one trial and two blocks per slice matches
        the layer pass to 1e-12 in float64."""
        pairs = [(rng.standard_normal((t, 31)), 0.1 * rng.standard_normal((15 * t, 1))) for t in (30, 24, 17)]
        monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 15 * 30)

        def trained(train_pass):
            monkeypatch.setattr(models.SynthesisModel, "train_pass", train_pass)
            model = _model(dtype=np.float64)
            history = nn.train(model, pairs, nn.TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3, seed=3))
            return model.params(), history.final_train_loss()

        _set_steps(monkeypatch, _model(), 1, 15)
        blocked = trained(models.SynthesisModel.train_pass)
        layered = trained(nn.Model.train_pass)
        for a, b in zip(blocked[0], layered[0]):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
        assert blocked[1] == pytest.approx(layered[1], rel=1e-12)
