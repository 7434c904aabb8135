"""Layer-level gradient verification against central finite differences plus
their fixed algebraic identities. All gradient checks run in float64."""

import numpy as np
import pytest

from eegspeech import nn
from eegspeech.nn.layers import _sigmoid


def numeric_input_grad(layer, x, grad_out, eps=1e-6):
    """Central-difference gradient of sum(forward(x) * grad_out) w.r.t. x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = float(np.sum(layer.forward(x, training=False) * grad_out))
        flat[i] = orig - eps
        minus = float(np.sum(layer.forward(x, training=False) * grad_out))
        flat[i] = orig
        gf[i] = (plus - minus) / (2 * eps)
    return g


def numeric_param_grads(layer, x, grad_out, eps=1e-6):
    grads = []
    for p in layer.params:
        g = np.zeros_like(p)
        pf, gf = p.reshape(-1), g.reshape(-1)
        for i in range(pf.size):
            orig = pf[i]
            pf[i] = orig + eps
            plus = float(np.sum(layer.forward(x, training=False) * grad_out))
            pf[i] = orig - eps
            minus = float(np.sum(layer.forward(x, training=False) * grad_out))
            pf[i] = orig
            gf[i] = (plus - minus) / (2 * eps)
        grads.append(g)
    return grads


def check_layer_grads(layer, x, rng, tol=1e-4):
    grad_out_shape = layer.forward(x, training=False).shape
    grad_out = rng.standard_normal(grad_out_shape)
    layer.zero_grad()
    layer.forward(x, training=False)
    analytic_x = layer.backward(grad_out)
    numeric_x = numeric_input_grad(layer, x.copy(), grad_out)
    def rel(a, n):
        return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    assert rel(analytic_x, numeric_x).max() < tol
    for analytic_p, numeric_p in zip(layer.grads, numeric_param_grads(layer, x.copy(), grad_out)):
        assert rel(analytic_p, numeric_p).max() < tol


class TestTcnBlock:
    @pytest.mark.parametrize("trial", range(10))
    def test_gradients(self, trial):
        rng = np.random.default_rng(trial)
        in_dim = int(rng.integers(1, 5))
        out_dim = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        residual = bool(rng.integers(0, 2))
        layer = nn.TcnBlock(in_dim, out_dim, k, d, use_residual=residual, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, int(rng.integers(3, 8)), in_dim))
        check_layer_grads(layer, x, rng)

    def test_output_time_length_equals_input(self, rng):
        layer = nn.TcnBlock(4, 8, kernel_size=3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((3, 17, 4))
        assert layer.forward(x).shape == (3, 17, 8)

    def test_identity_reduction_is_relu(self, rng):
        layer = nn.TcnBlock(3, 3, kernel_size=1, use_residual=False, dtype=np.float64)
        layer.w[...] = np.eye(3)
        layer.b[...] = 0.0
        x = rng.standard_normal((2, 5, 3))
        assert np.allclose(layer.forward(x), np.maximum(x, 0.0))

    def test_causality(self, rng):
        layer = nn.TcnBlock(3, 5, kernel_size=3, dilation=2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((1, 20, 3))
        base = layer.forward(x.copy())
        x2 = x.copy()
        x2[0, 10, :] += 1.0
        bumped = layer.forward(x2)
        assert np.allclose(bumped[0, :10], base[0, :10])
        assert not np.allclose(bumped[0, 10:], base[0, 10:])

    def test_shape_mismatch_rejected(self, rng):
        layer = nn.TcnBlock(3, 5, rng=rng)
        with pytest.raises(ValueError):
            layer.forward(rng.standard_normal((1, 4, 7)))


class TestUpsampleRepeat:
    def test_repeat_pattern(self):
        layer = nn.UpsampleRepeat(3)
        x = np.array([[[1.0], [2.0]]])
        assert np.array_equal(layer.forward(x)[0, :, 0], [1, 1, 1, 2, 2, 2])

    def test_length_scaling(self, rng):
        layer = nn.UpsampleRepeat(5)
        x = rng.standard_normal((2, 7, 3))
        assert layer.forward(x).shape == (2, 35, 3)
        assert layer.output_length(7) == 35

    @pytest.mark.parametrize("trial", range(10))
    def test_gradients_exact(self, trial):
        # linear op: a wide central difference is exact, so rounding noise
        # stays far below the 1e-10 bound
        rng = np.random.default_rng(100 + trial)
        layer = nn.UpsampleRepeat(int(rng.integers(1, 6)))
        x = rng.standard_normal((2, int(rng.integers(2, 6)), int(rng.integers(1, 4))))
        grad_out = rng.standard_normal(layer.forward(x).shape)
        analytic = layer.backward(grad_out)
        numeric = numeric_input_grad(layer, x.copy(), grad_out, eps=0.5)
        assert np.max(np.abs(analytic - numeric)) < 1e-10


class TestDropout:
    def test_rate_zero_identity(self, rng):
        layer = nn.Dropout(0.0)
        x = rng.standard_normal((2, 5, 3))
        assert np.array_equal(layer.forward(x, training=True), x)

    def test_inference_identity(self, rng):
        layer = nn.Dropout(0.5, seed=1)
        x = rng.standard_normal((2, 5, 3))
        assert np.array_equal(layer.forward(x, training=False), x)

    def test_monte_carlo_zero_fraction_and_mean(self):
        layer = nn.Dropout(0.2, seed=7)
        x = np.ones((100, 100, 100))
        y = layer.forward(x, training=True)
        zero_frac = np.mean(y == 0.0)
        assert zero_frac == pytest.approx(0.2, abs=0.01)
        assert y.mean() == pytest.approx(1.0, abs=0.01)

    def test_backward_uses_same_mask(self, rng):
        layer = nn.Dropout(0.4, seed=3)
        x = rng.standard_normal((2, 6, 4))
        y = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(y))
        assert np.array_equal(grad == 0.0, y == 0.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.0)


class TestDense:
    @pytest.mark.parametrize("trial", range(10))
    def test_gradients(self, trial):
        rng = np.random.default_rng(200 + trial)
        layer = nn.TimeDistributedDense(int(rng.integers(1, 6)), int(rng.integers(1, 6)),
                                        rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, int(rng.integers(2, 7)), layer.in_dim))
        check_layer_grads(layer, x, rng, tol=1e-6)

    def test_identity_weights(self, rng):
        layer = nn.TimeDistributedDense(4, 4, dtype=np.float64)
        layer.w[...] = np.eye(4)
        layer.b[...] = 0.0
        x = rng.standard_normal((2, 3, 4))
        assert np.allclose(layer.forward(x), x)

    def test_single_unit_head(self, rng):
        layer = nn.TimeDistributedDense(32, 1, rng=rng, dtype=np.float64)
        assert layer.forward(rng.standard_normal((1, 9, 32))).shape == (1, 9, 1)


class TestGru:
    @pytest.mark.parametrize("trial", range(10))
    def test_gradients(self, trial):
        rng = np.random.default_rng(300 + trial)
        layer = nn.GruLayer(int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                            rng=rng, dtype=np.float64)
        t = int(rng.integers(2, 13))
        x = rng.standard_normal((2, t, layer.in_dim))
        check_layer_grads(layer, x, rng)

    def test_zero_params_zero_output(self, rng):
        layer = nn.GruLayer(3, 4, dtype=np.float64)
        for p in layer.params:
            p[...] = 0.0
        x = rng.standard_normal((2, 6, 3))
        assert np.allclose(layer.forward(x), 0.0)

    def test_hidden_dim_128(self, rng):
        layer = nn.GruLayer(30, 128, rng=rng)
        x = rng.standard_normal((1, 4, 30)).astype(np.float32)
        assert layer.forward(x).shape == (1, 4, 128)

    def test_sigmoid_saturates_without_numeric_faults(self):
        x = np.array([-1e4, -100.0, -1.0, 0.0, 1.0, 100.0, 1e4], dtype=np.float32)
        with np.errstate(all="raise"):
            y = _sigmoid(x)
        assert y.dtype == np.float32
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert y[0] == 0.0 and y[3] == 0.5 and y[-1] == 1.0

    def test_large_inputs_raise_no_numeric_faults(self, rng):
        layer = nn.GruLayer(30, 16, rng=rng)
        x = (1e3 * rng.standard_normal((3, 9, 30))).astype(np.float32)
        grad_out = rng.standard_normal((3, 9, 16)).astype(np.float32)
        with np.errstate(all="raise"):
            out = layer.forward(x, training=True)
            gx = layer.backward(grad_out)
        assert np.all((out >= -1.0) & (out <= 1.0))
        assert np.all(np.isfinite(gx))
        assert all(np.all(np.isfinite(g)) for g in layer.grads)


class TestMseLoss:
    def test_identical_is_zero(self, rng):
        x = rng.standard_normal((2, 3, 4))
        loss, grad = nn.mse_loss(x, x.copy())
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_hand_computed_value(self):
        pred = np.array([[[1.0], [2.0]]])
        target = np.array([[[0.0], [2.0]]])
        loss, _ = nn.mse_loss(pred, target)
        assert loss == pytest.approx(0.5)

    def test_gradient_against_finite_differences(self, rng):
        pred = rng.standard_normal((2, 4, 3))
        target = rng.standard_normal((2, 4, 3))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.float64)
        _, grad = nn.mse_loss(pred, target, mask)
        eps = 1e-7
        for idx in [(0, 0, 0), (0, 3, 2), (1, 1, 1), (1, 2, 0)]:
            bumped = pred.copy()
            bumped[idx] += eps
            lp, _ = nn.mse_loss(bumped, target, mask)
            bumped[idx] -= 2 * eps
            lm, _ = nn.mse_loss(bumped, target, mask)
            numeric = (lp - lm) / (2 * eps)
            assert grad[idx] == pytest.approx(numeric, abs=1e-8)

    def test_masked_entries_ignored(self, rng):
        pred = rng.standard_normal((1, 4, 2))
        target = pred.copy()
        target[0, 2:] += 100.0
        mask = np.array([[1, 1, 0, 0]], dtype=np.float64)
        loss, grad = nn.mse_loss(pred, target, mask)
        assert loss == 0.0
        assert np.all(grad[0, 2:] == 0.0)

    def test_empty_mask_rejected(self, rng):
        x = rng.standard_normal((1, 3, 2))
        with pytest.raises(ValueError, match="empty"):
            nn.mse_loss(x, x, np.zeros((1, 3)))

    def test_loss_positive_unless_equal(self, rng):
        pred = rng.standard_normal((2, 3, 4))
        target = pred.copy()
        target[1, 2, 1] += 1e-3
        loss, _ = nn.mse_loss(pred, target)
        assert loss > 0.0


class TestAdam:
    def test_first_step_magnitude(self):
        p = np.zeros(3)
        opt = nn.Adam([p], lr=1e-3)
        opt.step([np.ones(3)])
        assert np.max(np.abs(p - (-1e-3))) < 1e-9

    def test_zero_gradient_no_change(self, rng):
        p = rng.standard_normal(5)
        before = p.copy()
        opt = nn.Adam([p], lr=1e-3)
        opt.step([np.zeros(5)])
        assert np.array_equal(p, before)

    def test_tensors_update_independently(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        a2, b2 = a.copy(), b.copy()
        ga, gb = rng.standard_normal(4), rng.standard_normal(4)
        opt = nn.Adam([a, b], lr=1e-2)
        opt.step([ga, gb])
        opt_a = nn.Adam([a2], lr=1e-2)
        opt_a.step([ga])
        opt_b = nn.Adam([b2], lr=1e-2)
        opt_b.step([gb])
        assert np.array_equal(a, a2)
        assert np.array_equal(b, b2)

    def test_shape_mismatch_rejected(self, rng):
        p = rng.standard_normal(4)
        opt = nn.Adam([p])
        with pytest.raises(ValueError):
            opt.step([np.zeros(5)])
