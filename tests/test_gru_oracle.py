"""GruLayer against a step-by-step reference GRU.

The reference is the straightforward per-step formulation: six GEMMs per
step forward, every weight gradient accumulated inside the backward time
loop, batch-major caches. GruLayer hoists the input projections and the
weight-gradient GEMMs out of the time loop; on the same parameters both
must give the same output, input gradient and parameter gradients up to
floating-point rounding.
"""

import numpy as np
import pytest

from eegspeech import nn


def _reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class ReferenceGru:
    """Per-step GRU holding copies of a GruLayer's nine parameters."""

    def __init__(self, layer: nn.GruLayer):
        self.hidden = layer.hidden
        (self.w_z, self.w_r, self.w_h, self.u_z, self.u_r, self.u_h,
         self.b_z, self.b_r, self.b_h) = [p.copy() for p in layer.params]
        self.grads = [np.zeros_like(p) for p in layer.params]

    def forward(self, x):
        b, t, _ = x.shape
        h = np.zeros((b, self.hidden), dtype=x.dtype)
        zs = np.empty((b, t, self.hidden), dtype=x.dtype)
        rs = np.empty_like(zs)
        hcs = np.empty_like(zs)
        h_prev = np.empty_like(zs)
        out = np.empty_like(zs)
        for step in range(t):
            xt = x[:, step, :]
            h_prev[:, step, :] = h
            z = _reference_sigmoid(xt @ self.w_z + h @ self.u_z + self.b_z)
            r = _reference_sigmoid(xt @ self.w_r + h @ self.u_r + self.b_r)
            hc = np.tanh(xt @ self.w_h + (r * h) @ self.u_h + self.b_h)
            h = (1.0 - z) * h + z * hc
            zs[:, step, :], rs[:, step, :], hcs[:, step, :] = z, r, hc
            out[:, step, :] = h
        self._cache = (x, zs, rs, hcs, h_prev)
        return out

    def backward(self, grad_out):
        x, zs, rs, hcs, h_prev = self._cache
        b, t, _ = x.shape
        (gw_z, gw_r, gw_h, gu_z, gu_r, gu_h, gb_z, gb_r, gb_h) = self.grads
        gx = np.zeros_like(x)
        dh_next = np.zeros((b, self.hidden), dtype=x.dtype)
        for step in range(t - 1, -1, -1):
            xt = x[:, step, :]
            z, r, hc, hp = zs[:, step, :], rs[:, step, :], hcs[:, step, :], h_prev[:, step, :]
            dh = grad_out[:, step, :] + dh_next

            dz = dh * (hc - hp)
            dhc = dh * z
            dhp = dh * (1.0 - z)

            da_h = dhc * (1.0 - hc * hc)
            gw_h += xt.T @ da_h
            gu_h += (r * hp).T @ da_h
            gb_h += da_h.sum(axis=0)
            dxt = da_h @ self.w_h.T
            drh = da_h @ self.u_h.T
            dr = drh * hp
            dhp = dhp + drh * r

            da_r = dr * r * (1.0 - r)
            gw_r += xt.T @ da_r
            gu_r += hp.T @ da_r
            gb_r += da_r.sum(axis=0)
            dxt = dxt + da_r @ self.w_r.T
            dhp = dhp + da_r @ self.u_r.T

            da_z = dz * z * (1.0 - z)
            gw_z += xt.T @ da_z
            gu_z += hp.T @ da_z
            gb_z += da_z.sum(axis=0)
            dxt = dxt + da_z @ self.w_z.T
            dhp = dhp + da_z @ self.u_z.T

            gx[:, step, :] = dxt
            dh_next = dhp
        return gx


def _rel(got, ref):
    scale = np.abs(ref.astype(np.float64)).max()
    return float(np.abs(got.astype(np.float64) - ref).max() / max(scale, 1e-30))


def _compare(b, t, in_dim, hidden, dtype, seed):
    """Worst relative difference of output, input gradient and each parameter gradient."""
    rng = np.random.default_rng(seed)
    layer = nn.GruLayer(in_dim, hidden, rng=rng, dtype=dtype)
    for bias in layer.params[6:]:
        bias[...] = rng.uniform(-0.5, 0.5, bias.shape)
    ref = ReferenceGru(layer)
    x = rng.standard_normal((b, t, in_dim)).astype(dtype)
    grad_out = rng.standard_normal((b, t, hidden)).astype(dtype)
    out, ref_out = layer.forward(x, training=True), ref.forward(x)
    gx, ref_gx = layer.backward(grad_out), ref.backward(grad_out)
    assert out.shape == ref_out.shape and out.dtype == ref_out.dtype
    assert gx.shape == ref_gx.shape and gx.dtype == ref_gx.dtype
    return {
        "out": _rel(out, ref_out),
        "gx": _rel(gx, ref_gx),
        **{f"grad{j}": _rel(g, rg) for j, (g, rg) in enumerate(zip(layer.grads, ref.grads))},
    }


def _random_shapes(n):
    rng = np.random.default_rng(77)
    return [tuple(int(v) for v in (rng.integers(1, 6), rng.integers(1, 20),
                                   rng.integers(1, 9), rng.integers(1, 17))) for _ in range(n)]


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 1, 5, 7), (1, 9, 3, 4), (4, 1, 2, 6)]
                         + _random_shapes(8))
def test_float64_matches_reference(shape):
    worst = _compare(*shape, np.float64, seed=sum(shape))
    assert max(worst.values()) <= 1e-12, worst


def test_float32_paper_scale_matches_reference():
    worst = _compare(40, 62, 30, 128, np.float32, seed=5)
    assert max(worst.values()) <= 1e-5, worst


def test_gradients_accumulate_across_backward_calls():
    rng = np.random.default_rng(3)
    layer = nn.GruLayer(3, 5, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 4, 3))
    grad_out = rng.standard_normal((2, 4, 5))
    layer.forward(x)
    layer.backward(grad_out)
    once = [g.copy() for g in layer.grads]
    layer.forward(x)
    layer.backward(grad_out)
    for g, g1 in zip(layer.grads, once):
        assert np.allclose(g, 2.0 * g1, rtol=1e-14, atol=0.0)
