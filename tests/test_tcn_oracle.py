"""TcnBlock against an im2col reference TCN.

The reference left-pads the input, gathers the k dilated taps of every step
into one (B, T, k*in) buffer and multiplies that by w; backward scatter-adds
the column gradient back into the padded input. TcnBlock contracts over its
narrower side: with in < out it gathers the taps into a tap matrix too, with
no padded copy of the input; with in >= out it multiplies the input by all
taps at once and shift-adds the narrow tap outputs instead. On the same parameters every form must give
the reference's output, input gradient and parameter gradients up to
floating-point rounding, and each form must stay below the buffer the other
would build at paper scale.

The polyphase form, forward(x, repeat=r), is checked against the layer applied
to UpsampleRepeat(r) of x.
"""

import tracemalloc

import numpy as np
import pytest

from eegspeech import nn


class ReferenceTcn:
    """im2col causal TCN holding copies of a TcnBlock's parameters."""

    def __init__(self, layer: nn.TcnBlock):
        self.in_dim = layer.in_dim
        self.kernel_size, self.dilation = layer.kernel_size, layer.dilation
        self.use_residual = layer.use_residual
        self.w, self.b = layer.w.copy(), layer.b.copy()
        self.proj = None if layer.proj is None else layer.proj.copy()
        self.grads = [np.zeros_like(g) for g in layer.grads]

    def _im2col(self, x_padded, t):
        k, d = self.kernel_size, self.dilation
        taps = [x_padded[:, j * d : j * d + t, :] for j in range(k)]
        return np.concatenate(taps, axis=2)

    def forward(self, x):
        b, t, _ = x.shape
        pad = (self.kernel_size - 1) * self.dilation
        xp = np.pad(x, ((0, 0), (pad, 0), (0, 0)))
        cols = self._im2col(xp, t)
        z = cols @ self.w + self.b
        a = np.maximum(z, 0.0)
        if self.use_residual:
            res = x @ self.proj if self.proj is not None else x
            y = a + res
        else:
            y = a
        self._cache = (x, cols, z > 0)
        return y

    def backward(self, grad_out):
        x, cols, relu_mask = self._cache
        b, t, _ = x.shape
        k, d = self.kernel_size, self.dilation
        pad = (k - 1) * d

        gz = grad_out * relu_mask
        self.grads[1] += gz.sum(axis=(0, 1))
        self.grads[0] += cols.reshape(b * t, -1).T @ gz.reshape(b * t, -1)
        gcols = (gz @ self.w.T).reshape(b, t, k, self.in_dim)

        gxp = np.zeros((b, t + pad, self.in_dim), dtype=grad_out.dtype)
        for j in range(k):
            gxp[:, j * d : j * d + t, :] += gcols[:, :, j, :]
        gx = gxp[:, pad:, :]

        if self.use_residual:
            if self.proj is not None:
                self.grads[2] += x.reshape(b * t, -1).T @ grad_out.reshape(b * t, -1)
                gx = gx + grad_out @ self.proj.T
            else:
                gx = gx + grad_out
        return gx


def _rel(got, ref):
    scale = np.abs(ref.astype(np.float64)).max()
    return float(np.abs(got.astype(np.float64) - ref).max() / max(scale, 1e-30))


def _compare(b, t, in_dim, out_dim, k, d, residual, dtype, seed):
    """Worst relative difference of output, input gradient and each parameter gradient."""
    rng = np.random.default_rng(seed)
    layer = nn.TcnBlock(in_dim, out_dim, k, d, use_residual=residual, rng=rng, dtype=dtype)
    layer.b[...] = rng.uniform(-0.5, 0.5, layer.b.shape)
    ref = ReferenceTcn(layer)
    x = rng.standard_normal((b, t, in_dim)).astype(dtype)
    grad_out = rng.standard_normal((b, t, out_dim)).astype(dtype)
    out, ref_out = layer.forward(x, training=True), ref.forward(x)
    gx, ref_gx = layer.backward(grad_out), ref.backward(grad_out)
    assert out.shape == ref_out.shape and out.dtype == ref_out.dtype
    assert gx.shape == ref_gx.shape and gx.dtype == ref_gx.dtype
    assert len(layer.grads) == len(ref.grads)
    return {
        "out": _rel(out, ref_out),
        "gx": _rel(gx, ref_gx),
        **{f"grad{j}": _rel(g, rg) for j, (g, rg) in enumerate(zip(layer.grads, ref.grads))},
    }


# (B, T, in, out, kernel, dilation, residual): B=1, T=1, T at and below the
# padding, dilation > 1, kernel 1 and 2, no residual, identity and projection,
# each in the tap-matrix form (in < out) and the shift-add form (in >= out).
SHAPES = [
    (1, 1, 3, 5, 3, 1, True),
    (1, 1, 4, 4, 3, 2, True),
    (2, 4, 3, 5, 3, 2, True),
    (2, 6, 5, 3, 3, 3, True),
    (3, 9, 4, 4, 3, 2, True),
    (2, 7, 6, 2, 1, 1, True),
    (2, 7, 4, 4, 1, 1, True),
    (1, 8, 3, 6, 2, 3, False),
    (4, 12, 5, 7, 3, 1, False),
    (2, 15, 8, 8, 2, 4, True),
    (3, 11, 6, 9, 3, 2, True),
    (2, 7, 3, 6, 1, 2, False),
    (3, 10, 2, 8, 3, 3, True),
    (1, 4, 2, 7, 4, 2, True),
    (2, 9, 7, 3, 2, 3, False),
    (2, 5, 6, 6, 4, 2, False),
]


@pytest.mark.parametrize("shape", SHAPES)
def test_float64_matches_reference(shape):
    worst = _compare(*shape, np.float64, seed=sum(shape))
    assert max(worst.values()) <= 1e-12, worst


def test_float32_paper_scale_matches_reference():
    worst = _compare(2, 2000, 256, 32, 3, 1, True, np.float32, seed=5)
    assert max(worst.values()) <= 1e-5, worst


def test_float32_paper_scale_narrow_input_matches_reference():
    worst = _compare(2, 2000, 31, 256, 3, 1, True, np.float32, seed=6)
    assert max(worst.values()) <= 1e-5, worst


def test_no_im2col_buffer_at_paper_scale():
    b, t, in_dim, out_dim, k = 2, 2000, 256, 32, 3
    rng = np.random.default_rng(9)
    layer = nn.TcnBlock(in_dim, out_dim, k, rng=rng)
    x = rng.standard_normal((b, t, in_dim)).astype(np.float32)
    grad_out = rng.standard_normal((b, t, out_dim)).astype(np.float32)
    tracemalloc.start()
    try:
        layer.forward(x, training=True)
        layer.backward(grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    im2col_bytes = b * t * k * in_dim * np.dtype(np.float32).itemsize
    assert peak < im2col_bytes, (peak, im2col_bytes)


def test_narrow_input_builds_no_tap_output_buffer_at_paper_scale():
    # 31 -> 256 runs on its (B, T, k*in) tap matrix, never on the
    # (B, T, (k+1)*out) tap and projection output of the shift-add form.
    b, t, in_dim, out_dim, k = 2, 2000, 31, 256, 3
    rng = np.random.default_rng(10)
    layer = nn.TcnBlock(in_dim, out_dim, k, rng=rng)
    x = rng.standard_normal((b, t, in_dim)).astype(np.float32)
    grad_out = rng.standard_normal((b, t, out_dim)).astype(np.float32)
    tracemalloc.start()
    try:
        layer.forward(x, training=True)
        layer.backward(grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tap_output_bytes = b * t * (k + 1) * out_dim * np.dtype(np.float32).itemsize
    assert peak < tap_output_bytes, (peak, tap_output_bytes)


def test_shift_add_backward_releases_its_input_before_the_input_gradient():
    # One 2 s training slice of 256 -> 32: the layer's record holds the only
    # reference to the (1, 10000, 256) input, and backward frees it before
    # allocating the input gradient of the same size.
    t, in_dim, out_dim = 10000, 256, 32
    rng = np.random.default_rng(12)
    layer = nn.TcnBlock(in_dim, out_dim, 3, rng=rng)
    grad_out = rng.standard_normal((1, t, out_dim)).astype(np.float32)
    tracemalloc.start()
    try:
        layer.forward(rng.standard_normal((1, t, in_dim)).astype(np.float32), training=True)
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        gx = layer.backward(grad_out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < gx.nbytes, (peak - start, gx.nbytes)


# (in, out, residual): 1x1 projection, identity, none; the tap-matrix form
# with and without a projection, the shift-add form with the identity and a
# projection.
RESIDUALS = [(4, 6, True), (5, 5, True), (4, 6, False), (6, 4, True)]


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("r", [1, 3, 5])
@pytest.mark.parametrize("in_dim, out_dim, residual", RESIDUALS)
def test_polyphase_matches_repeat_then_forward(k, d, r, in_dim, out_dim, residual):
    rng = np.random.default_rng(100 * k + 10 * d + r)
    layer = nn.TcnBlock(in_dim, out_dim, k, d, use_residual=residual, rng=rng, dtype=np.float64)
    layer.b[...] = rng.uniform(-0.5, 0.5, layer.b.shape)
    for t in (1, 2, 3, 7):
        x = rng.standard_normal((3, t, in_dim))
        ref = layer.forward(nn.UpsampleRepeat(r).forward(x))
        got = layer.forward(x, repeat=r)
        assert got.shape == ref.shape == (3, r * t, out_dim)
        assert np.abs(got - ref).max() <= 1e-12, (t, np.abs(got - ref).max())


def test_repeat_one_is_plain_forward_bitwise(rng):
    layer = nn.TcnBlock(6, 4, 3, 2, rng=rng)
    x = rng.standard_normal((2, 9, 6)).astype(np.float32)
    assert np.array_equal(layer.forward(x, repeat=1), layer.forward(x))


def test_repeated_forward_keeps_no_cache_and_refuses_training(rng):
    layer = nn.TcnBlock(6, 4, 3, rng=rng)
    x = rng.standard_normal((2, 9, 6)).astype(np.float32)
    layer.forward(x, training=True)
    layer.forward(x, repeat=5)
    with pytest.raises(RuntimeError, match="training forward"):
        layer.backward(np.ones((2, 45, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="inference only"):
        layer.forward(x, training=True, repeat=5)
    with pytest.raises(ValueError, match="repeat"):
        layer.forward(x, repeat=0)
