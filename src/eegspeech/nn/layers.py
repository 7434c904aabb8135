"""Sequence layers with explicit forward/backward passes on numpy tensors.

Batches are (batch, time, features). Every layer caches what its backward pass
needs during forward; backward returns the input gradient and accumulates
parameter gradients in-place. Training arithmetic is float32 by default;
gradient verification builds float64 stacks.
"""

from __future__ import annotations

import numpy as np


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """Base class: parameter-free layers only override forward/backward."""

    def __init__(self):
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def output_length(self, t: int) -> int:
        return t

    def param_count(self) -> int:
        return sum(p.size for p in self.params)


class TcnBlock(Layer):
    """Causal dilated convolution + ReLU + residual add.

    The residual is the identity when widths match, a 1x1 projection otherwise,
    and can be disabled. Left padding keeps the output time length equal to the
    input's, so output[t] never sees input beyond t.
    """

    def __init__(self, in_dim: int, out_dim: int, kernel_size: int = 3, dilation: int = 1,
                 use_residual: bool = True, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.kernel_size, self.dilation = kernel_size, dilation
        self.use_residual = use_residual
        self.w = uniform_fan_in(rng, (kernel_size * in_dim, out_dim), kernel_size * in_dim, dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.params = [self.w, self.b]
        self.proj = None
        if use_residual and in_dim != out_dim:
            self.proj = uniform_fan_in(rng, (in_dim, out_dim), in_dim, dtype)
            self.params.append(self.proj)
        self.grads = [np.zeros_like(p) for p in self.params]

    def _im2col(self, x_padded: np.ndarray, t: int) -> np.ndarray:
        k, d = self.kernel_size, self.dilation
        taps = [x_padded[:, j * d : j * d + t, :] for j in range(k)]
        return np.concatenate(taps, axis=2)  # (B, T, k*in)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"TcnBlock expects feature dim {self.in_dim}, got {x.shape[-1]}")
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

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
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


class UpsampleRepeat(Layer):
    """Repeat every time step k times; backward sums over each repeat group."""

    def __init__(self, k: int):
        super().__init__()
        if k < 1:
            raise ValueError("upsample factor must be >= 1")
        self.k = k

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._in_time = x.shape[1]
        return np.repeat(x, self.k, axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        b, tk, f = grad_out.shape
        return grad_out.reshape(b, self._in_time, self.k, f).sum(axis=2)

    def output_length(self, t: int) -> int:
        return self.k * t


class Dropout(Layer):
    """Inverted dropout: identity at inference, seeded mask while training."""

    def __init__(self, rate: float = 0.2, seed: int = 0):
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = np.random.default_rng(seed)
        self._mask = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(x.shape) >= self.rate).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class TimeDistributedDense(Layer):
    """Per-time-step affine map with linear activation."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.w = uniform_fan_in(rng, (in_dim, out_dim), in_dim, dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(p) for p in self.params]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"dense expects feature dim {self.in_dim}, got {x.shape[-1]}")
        self._x = x
        return x @ self.w + self.b

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        b, t, _ = self._x.shape
        self.grads[0] += self._x.reshape(b * t, -1).T @ grad_out.reshape(b * t, -1)
        self.grads[1] += grad_out.sum(axis=(0, 1))
        return grad_out @ self.w.T


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as a tanh, which cannot overflow and needs no branch."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class GruLayer(Layer):
    """Single GRU layer, zero initial state, full backprop through time.

    Per step: z = sig(xWz + hUz + bz), r = sig(xWr + hUr + br),
    hc = tanh(xWh + (r*h)Uh + bh), h <- (1-z)*h + z*hc.

    The input projections of all steps are one GEMM before the recurrence, and
    z and r share one recurrent GEMM per step. Backward keeps only the
    recurrence in its loop and forms every weight gradient and the input
    gradient as one GEMM over all steps afterwards. Caches are time-major
    (T, B, .) so each step's slice is contiguous.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator | None = None,
                 dtype=np.float32):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_dim, self.hidden = in_dim, hidden
        def w_in():
            return uniform_fan_in(rng, (in_dim, hidden), in_dim, dtype)
        def w_rec():
            return uniform_fan_in(rng, (hidden, hidden), hidden, dtype)
        self.w_z, self.w_r, self.w_h = w_in(), w_in(), w_in()
        self.u_z, self.u_r, self.u_h = w_rec(), w_rec(), w_rec()
        self.b_z = np.zeros(hidden, dtype=dtype)
        self.b_r = np.zeros(hidden, dtype=dtype)
        self.b_h = np.zeros(hidden, dtype=dtype)
        self.params = [self.w_z, self.w_r, self.w_h, self.u_z, self.u_r, self.u_h,
                       self.b_z, self.b_r, self.b_h]
        self.grads = [np.zeros_like(p) for p in self.params]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"GRU expects feature dim {self.in_dim}, got {x.shape[-1]}")
        b, t, _ = x.shape
        hd = self.hidden
        w = np.concatenate([self.w_z, self.w_r, self.w_h], axis=1)
        u_zr = np.concatenate([self.u_z, self.u_r], axis=1)
        xs = np.ascontiguousarray(x.transpose(1, 0, 2))
        a = xs.reshape(t * b, -1) @ w + np.concatenate([self.b_z, self.b_r, self.b_h])
        a = a.reshape(t, b, 3 * hd)
        zr = np.empty((t, b, 2 * hd), dtype=a.dtype)
        hcs = np.empty((t, b, hd), dtype=a.dtype)
        rh = np.empty_like(hcs)
        hs = np.zeros((t + 1, b, hd), dtype=a.dtype)
        for step in range(t):
            h = hs[step]
            zr[step] = _sigmoid(a[step, :, : 2 * hd] + h @ u_zr)
            z, r = zr[step, :, :hd], zr[step, :, hd:]
            np.multiply(r, h, out=rh[step])
            hc = hcs[step] = np.tanh(a[step, :, 2 * hd :] + rh[step] @ self.u_h)
            hs[step + 1] = (1.0 - z) * h + z * hc
        self._cache = (xs, w, zr, hcs, hs, rh)
        return np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xs, w, zr, hcs, hs, rh = self._cache
        t, b, _ = xs.shape
        hd = self.hidden
        (gw_z, gw_r, gw_h, gu_z, gu_r, gu_h, gb_z, gb_r, gb_h) = self.grads
        u_zr_t = np.ascontiguousarray(np.concatenate([self.u_z, self.u_r], axis=1).T)
        u_h_t = np.ascontiguousarray(self.u_h.T)
        grad_t = grad_out.transpose(1, 0, 2)
        da = np.empty((t, b, 3 * hd), dtype=zr.dtype)
        dh_next = np.zeros((b, hd), dtype=zr.dtype)
        for step in range(t - 1, -1, -1):
            z, r, hc, hp = zr[step, :, :hd], zr[step, :, hd:], hcs[step], hs[step]
            one_minus_z = 1.0 - z
            dh = grad_t[step] + dh_next
            da_h = da[step, :, 2 * hd :]
            np.multiply(dh * z, 1.0 - hc * hc, out=da_h)
            drh = da_h @ u_h_t
            np.multiply(dh * (hc - hp), z * one_minus_z, out=da[step, :, :hd])
            np.multiply(drh * hp, r * (1.0 - r), out=da[step, :, hd : 2 * hd])
            dh_next = dh * one_minus_z + drh * r + da[step, :, : 2 * hd] @ u_zr_t
        da_all = da.reshape(t * b, 3 * hd)
        gw = xs.reshape(t * b, -1).T @ da_all
        gu_zr = hs[:-1].reshape(t * b, hd).T @ da_all[:, : 2 * hd]
        gb = da_all.sum(axis=0)
        gw_z += gw[:, :hd]
        gw_r += gw[:, hd : 2 * hd]
        gw_h += gw[:, 2 * hd :]
        gu_z += gu_zr[:, :hd]
        gu_r += gu_zr[:, hd:]
        gu_h += rh.reshape(t * b, hd).T @ da_all[:, 2 * hd :]
        gb_z += gb[:hd]
        gb_r += gb[hd : 2 * hd]
        gb_h += gb[2 * hd :]
        gx = (da_all @ w.T).reshape(t, b, -1)
        return np.ascontiguousarray(gx.transpose(1, 0, 2))


def mse_loss(pred: np.ndarray, target: np.ndarray, mask: np.ndarray | None = None):
    """Masked mean squared error and its gradient w.r.t. pred.

    mask is (batch, time) with 1 on valid steps; the mean runs over valid
    entries times the feature dimension.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    if mask is not None:
        m = mask.astype(np.float64)[..., None]
        count = float(m.sum()) * pred.shape[-1]
        if count == 0:
            raise ValueError("empty mask")
        diff = diff * m
    else:
        count = float(diff.size)
        if count == 0:
            raise ValueError("empty input")
    loss = float(np.sum(diff * diff) / count)
    grad = (2.0 * diff / count).astype(pred.dtype)
    return loss, grad


class Adam:
    """Adam with bias-corrected moments; updates parameters in place."""

    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= (self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(p.dtype)
