"""Sequence layers with explicit forward/backward passes on numpy tensors.

Batches are (batch, time, features). Every forward sets the layer's one
backward record, `_cache`: a training forward stores exactly what backward
reads, an inference forward stores None. backward takes the record through
Layer._take_cache, which releases it and raises RuntimeError when there is
none, so each training forward allows one backward and no layer holds
activations between passes. backward accumulates parameter gradients in place,
adding to each gradient element once per call, and returns the input gradient;
Dropout forms it in place of the gradient it is given. A caller that has no use
for the input gradient (the first layer of a stack) passes
need_input_grad=False: the TCN block and the GRU then skip their input-gradient
GEMM and return None, and the other layers ignore the flag. Training arithmetic is float32 by default;
gradient verification builds float64 stacks.
"""

from __future__ import annotations

import math

import numpy as np


def uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class Layer:
    """Base class: parameter-free layers only override forward/backward."""

    def __init__(self):
        self.params: list[np.ndarray] = []
        self.grads: list[np.ndarray] = []
        self._cache = None

    def _take_cache(self):
        """The last training forward's backward record, released."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a training forward "
                               "(one backward per training forward)")
        return cache

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for g in self.grads:
            g[...] = 0.0

    def output_length(self, t: int) -> int:
        return t

    def output_width(self, width: int) -> int:
        return width


class TcnBlock(Layer):
    """Causal dilated convolution + ReLU + residual add.

    The residual is the identity when widths match, a 1x1 projection otherwise,
    and can be disabled. Output time length equals the input's and output[t]
    never sees input beyond t.

    w is tap-major (k*in, out): rows j*in:(j+1)*in hold tap j, which reads
    input step t - (k-1-j)*dilation. The block contracts over its narrower
    side, so its one intermediate that grows with T is the narrower of a
    (B, T, k*in) tap matrix and (B, T, (k+1)*out) tap outputs:

    - in < out (the paper's 31 -> 256 first block): the k dilated taps of the
      input are gathered into one zero-padded (B, T, k*in) tap matrix, which
      is multiplied by w in one GEMM; the projection is x @ proj. Backward
      rebuilds the tap matrix from the cached input and forms the weight
      gradient as one (k*in x T)(T x out) GEMM and, when asked for, the input
      gradient as one GEMM whose k column blocks are scatter-added back.
    - in >= out (the paper's 256 -> 32 second block): one GEMM of the input
      against every tap (and the projection) side by side, then a shift-add
      of the out-wide tap outputs, so no (B, T, k*in) tap matrix is built.
      Backward shifts the output gradient back into the same layout and forms
      all weight gradients and, when asked for, the input gradient as one
      GEMM each.

    forward(x, repeat=r) is the block applied to x's r-fold time repeat, at
    inference only (polyphase convolution). Output step r*t + p reads, through
    tap j, input step t + (p - (k-1-j)*dilation) // r, so the r phases of a
    step fall into a few groups that read the same offsets. Each group is one
    tap matrix GEMM (in < out) or one shift-add of the tap outputs (in >= out)
    on the T input rows, and only the out-wide result is expanded to r*T steps.
    """

    def __init__(self, in_dim: int, out_dim: int, kernel_size: int, dilation: int = 1,
                 use_residual: bool = True, *, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
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

    def output_width(self, width: int) -> int:
        return self.out_dim

    def _w_all(self) -> np.ndarray:
        """(in, m*out): the k taps of w side by side, then proj if there is one."""
        k, n, o = self.kernel_size, self.in_dim, self.out_dim
        w = self.w.reshape(k, n, o).transpose(1, 0, 2).reshape(n, k * o)
        return w if self.proj is None else np.concatenate([w, self.proj], axis=1)

    def _shifts(self, t: int):
        """(tap, shift) for every tap whose shift leaves part of a length-t sequence."""
        k, d = self.kernel_size, self.dilation
        return [(j, (k - 1 - j) * d) for j in range(k) if (k - 1 - j) * d < t]

    def _phases(self, r: int) -> list[tuple[tuple[int, ...], slice]]:
        """(tap offsets, phases) per group of phases of an r-fold repeat that
        read the same input steps; repeat 1 is the single plain phase."""
        k, d = self.kernel_size, self.dilation
        groups: dict[tuple[int, ...], list[int]] = {}
        for p in range(r):
            groups.setdefault(tuple((p - (k - 1 - j) * d) // r for j in range(k)), []).append(p)
        # Each offset is non-decreasing in p, so every group is a run of phases.
        return [(offsets, slice(ps[0], ps[-1] + 1)) for offsets, ps in groups.items()]

    @staticmethod
    def _tap_matrix(x: np.ndarray, offsets: tuple[int, ...]) -> np.ndarray:
        """(B*T, k*in): column block j holds input step t + offsets[j], zero before step 0."""
        b, t, n = x.shape
        cols = np.zeros((b, t, len(offsets) * n), dtype=x.dtype)
        for j, off in enumerate(offsets):
            if -off < t:
                cols[:, -off:, j * n : (j + 1) * n] = x[:, : t + off]
        return cols.reshape(b * t, -1)

    def forward(self, x: np.ndarray, training: bool = False, repeat: int = 1) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"TcnBlock expects feature dim {self.in_dim}, got {x.shape[-1]}")
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        if repeat > 1 and training:
            raise ValueError("a repeated input is inference only; training runs UpsampleRepeat")
        b, t, n = x.shape
        k, o = self.kernel_size, self.out_dim
        narrow = n < o
        if narrow:
            res = None if self.proj is None else (x.reshape(b * t, n) @ self.proj).reshape(b, t, o)
        else:
            y = (x.reshape(b * t, n) @ self._w_all()).reshape(b, t, -1)
            res = y[:, :, k * o :] if self.proj is not None else (x if self.use_residual else None)
        out = np.empty((b, t, repeat, o), dtype=x.dtype) if repeat > 1 else None
        for offsets, phases in self._phases(repeat):
            if narrow:
                z = (self._tap_matrix(x, offsets) @ self.w).reshape(b, t, o)
                z += self.b
            else:
                # Tap k-1 reads offset 0 in every phase; the others reach back -offset steps.
                z = y[:, :, (k - 1) * o : k * o] + self.b
                for j, off in enumerate(offsets[:-1]):
                    if -off < t:
                        z[:, -off:] += y[:, : t + off, j * o : (j + 1) * o]
            np.maximum(z, 0.0, out=z)
            self._cache = (x, z > 0) if training else None
            if res is not None:
                z += res
            if repeat == 1:
                return z
            out[:, :, phases] = z[:, :, None]
        return out.reshape(b, t * repeat, o)

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        x, relu_mask = self._take_cache()
        b, t, n = x.shape
        k, o = self.kernel_size, self.out_dim

        gz = grad_out * relu_mask
        self.grads[1] += gz.sum(axis=(0, 1))
        if n < o:
            offsets, _ = self._phases(1)[0]  # the plain phase: tap j reads t - (k-1-j)*dilation
            gz2 = gz.reshape(b * t, o)
            self.grads[0] += self._tap_matrix(x, offsets).T @ gz2
            if self.proj is not None:
                self.grads[2] += x.reshape(b * t, n).T @ grad_out.reshape(b * t, o)
            if not need_input_grad:
                return None
            gcols = (gz2 @ self.w.T).reshape(b, t, k * n)
            if self.proj is None:
                gx = np.zeros_like(x)
            else:
                gx = (grad_out.reshape(b * t, o) @ self.proj.T).reshape(b, t, n)
            for j, off in enumerate(offsets):
                if -off < t:
                    gx[:, : t + off] += gcols[:, -off:, j * n : (j + 1) * n]
            return gx

        g = np.zeros((b, t, k * o if self.proj is None else (k + 1) * o), dtype=grad_out.dtype)
        for j, s in self._shifts(t):
            g[:, : t - s, j * o : (j + 1) * o] = gz[:, s:]
        if self.proj is not None:
            g[:, :, k * o :] = grad_out
        g2 = g.reshape(b * t, -1)
        gw = x.reshape(b * t, n).T @ g2
        del x  # the cached input is read no further: release it before gx is allocated
        self.grads[0] += gw[:, : k * o].reshape(n, k, o).transpose(1, 0, 2).reshape(k * n, o)
        if self.proj is not None:
            self.grads[2] += gw[:, k * o :]
        if not need_input_grad:
            return None
        gx = (g2 @ self._w_all().T).reshape(b, t, n)
        if self.use_residual and self.proj is None:
            gx += grad_out
        return gx


class UpsampleRepeat(Layer):
    """Repeat every time step k times; backward sums over each repeat group."""

    def __init__(self, k: int):
        super().__init__()
        if k < 1:
            raise ValueError("upsample factor must be >= 1")
        self.k = k

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = () if training else None
        return np.repeat(x, self.k, axis=1)

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        self._take_cache()
        b, tk, f = grad_out.shape
        return grad_out.reshape(b, tk // self.k, self.k, f).sum(axis=2)

    def output_length(self, t: int) -> int:
        return self.k * t


def _mask_words(shape: tuple[int, ...], dtype) -> int:
    """Generator words a keep mask of this shape and dtype consumes: one per
    float64 element, one per two float32 elements, rounded up."""
    n = math.prod(shape)
    return (n + 1) // 2 if np.dtype(dtype) == np.float32 else n


def _uniform_bits(rng: np.random.Generator, start: int, n: int, dtype) -> np.ndarray:
    """The integer bits behind elements start..start+n-1 of a uniform draw of
    dtype from rng's current state: numpy forms a float32 uniform from the low,
    then the high half of each 64-bit word, so element e is half e % 2 of word
    e // 2 (and an odd start begins on a high half); a float64 uniform takes
    one word per element. Moves rng past the last word read."""
    if np.dtype(dtype) == np.float32:
        rng.bit_generator.advance(start // 2)
        words = rng.bit_generator.random_raw((start + n + 1) // 2 - start // 2)
        return words.astype("<u8", copy=False).view("<u4")[start % 2 : start % 2 + n]
    rng.bit_generator.advance(start)
    return rng.bit_generator.random_raw(n)


def _keep_mask(rng: np.random.Generator, shape: tuple[int, ...], dtype, rate: float,
               window: tuple[int, int] | None = None) -> np.ndarray:
    """`rng.random(shape, dtype) >= rate`, bit for bit, from the raw generator words.

    numpy forms a float32 uniform as (u32 >> 8)·2⁻²⁴ and a float64 one as
    (u64 >> 11)·2⁻⁵³ (see _uniform_bits), so the comparison is an integer one
    against ceil(rate·2²⁴) << 8 or ceil(rate·2⁵³) << 11, with no float array
    built. Unlike rng.random, an odd-sized float32 draw does not keep the spare
    half-word for the next draw.

    window=(start, length): shape is (B, n, F), steps start..start+n-1 of a
    (B, length, F) draw from rng's current state, whose row b begins at
    element b·length·F; the mask is that part of the whole draw's mask, and
    rng is left where it was.
    """
    if np.dtype(dtype) == np.float32:
        threshold, bits = math.ceil(float(np.float32(rate)) * 2**24) << 8, 32
    else:
        threshold, bits = math.ceil(rate * 2**53) << 11, 64
    if threshold >= 2**bits:
        if window is None:
            rng.bit_generator.advance(_mask_words(shape, dtype))
        return np.zeros(shape, dtype=bool)
    if window is None:
        return (_uniform_bits(rng, 0, math.prod(shape), dtype) >= threshold).reshape(shape)
    start, length = window
    b, n, f = shape
    base = rng.bit_generator.state
    mask = np.empty(shape, dtype=bool)
    for row, out in enumerate(mask.reshape(b, n * f)):
        rng.bit_generator.state = base
        np.greater_equal(_uniform_bits(rng, (row * length + start) * f, n * f, dtype), threshold, out=out)
    rng.bit_generator.state = base
    return mask


class Dropout(Layer):
    """Inverted dropout: identity at inference, seeded mask while training.

    The keep mask is drawn as integer words (see _keep_mask) and cached as
    booleans with the 1/keep scale applied to the product, so a step never
    holds a float copy of the mask. At rate 0 a training forward draws nothing
    and records an empty cache: the layer's generator never advances. backward
    masks and scales the incoming gradient in place and returns it. forward
    does not work in place: its input may be a view of another layer's
    backward record (the GRU's output at batch 1).

    forward(x, training=True, window=(start, length)) treats x as steps
    start..start+n-1 of a (B, length, F) input and applies that part of the
    mask a training forward on the whole input would draw, from the same
    generator words; the generator does not move (see _keep_mask). A caller
    that runs the whole input in such blocks advances the generator past the
    whole draw itself (_mask_words gives its length).
    """

    def __init__(self, rate: float, seed: int):
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = np.random.default_rng(seed)

    def forward(self, x: np.ndarray, training: bool = False,
                window: tuple[int, int] | None = None) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._cache = () if training else None
            return x
        mask = _keep_mask(self.rng, x.shape, x.dtype, self.rate, window)
        scale = x.dtype.type(1.0) / (1.0 - self.rate)
        self._cache = (mask, scale)
        y = x * mask
        y *= scale
        return y

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        cache = self._take_cache()
        if not cache:
            return grad_out
        mask, scale = cache
        grad_out *= mask
        grad_out *= scale
        return grad_out


class TimeDistributedDense(Layer):
    """Per-time-step affine map with linear activation."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.w = uniform_fan_in(rng, (in_dim, out_dim), in_dim, dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(p) for p in self.params]

    def output_width(self, width: int) -> int:
        return self.out_dim

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"dense expects feature dim {self.in_dim}, got {x.shape[-1]}")
        self._cache = x if training else None
        return x @ self.w + self.b

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray:
        x = self._take_cache()
        b, t, _ = x.shape
        self.grads[0] += x.reshape(b * t, -1).T @ grad_out.reshape(b * t, -1)
        self.grads[1] += grad_out.sum(axis=(0, 1))
        return grad_out @ self.w.T


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None, half=0.5, one=1.0) -> np.ndarray:
    """Logistic function as a tanh, which cannot overflow and needs no branch.

    0.5 * (1 + tanh(0.5 * x)), op for op; written into out (which may be x)
    when given one. A caller in a loop passes 0.5 and 1.0 as 0-d arrays of the
    compute dtype, which numpy takes without a per-call scalar conversion.
    """
    out = np.multiply(half, x, out)
    np.tanh(out, out)
    np.add(one, out, out)
    return np.multiply(half, out, out)


class GruLayer(Layer):
    """Single GRU layer, zero initial state, full backprop through time.

    Per step: z = sig(xWz + hUz + bz), r = sig(xWr + hUr + br),
    hc = tanh(xWh + (r*h)Uh + bh), h <- (1-z)*h + z*hc.

    The input projections of all steps are one GEMM before the recurrence, and
    z and r share one recurrent GEMM per step. Backward keeps only the
    recurrence in its loop and forms every weight gradient and, when asked
    for, the input gradient as one GEMM over all steps afterwards. Caches are
    time-major (T, B, .); the z|r record is gate-major, (T, 2, B, H), so a
    step's z and r are contiguous (B, H) blocks.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__()
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

    def output_width(self, width: int) -> int:
        return self.hidden

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
        zr = np.empty((t, 2, b, hd), dtype=a.dtype)
        hcs = np.empty((t, b, hd), dtype=a.dtype)
        rh = np.empty_like(hcs)
        hs = np.zeros((t + 1, b, hd), dtype=a.dtype)
        # Each step writes every op into its slices of these records or into
        # `gates` or `keep`, in the order of the expressions
        #   zr = sig(a_zr + h @ u_zr);  hc = tanh(a_h + (r*h) @ u_h);  h' = (1-z)*h + z*hc
        # so the result is bitwise theirs without a temporary per op. The z|r
        # record is gate-major, (T, 2, B, H): the sigmoid's first op reads the
        # (B, 2H) pre-activation as (2, B, H), so z and r are contiguous blocks.
        gates = np.empty((b, 2 * hd), dtype=a.dtype)
        gates_zr = gates.reshape(b, 2, hd).transpose(1, 0, 2)
        keep = np.empty((b, hd), dtype=a.dtype)
        half, one = np.array(0.5, a.dtype), np.array(1.0, a.dtype)
        matmul, add, subtract, multiply, tanh, u_h = np.matmul, np.add, np.subtract, np.multiply, np.tanh, self.u_h
        for h, h_next, a_zr, a_h, zr_t, z, r, rh_t, hc in zip(
                hs[:-1], hs[1:], a[:, :, : 2 * hd], a[:, :, 2 * hd :], zr, zr[:, 0], zr[:, 1], rh, hcs):
            add(a_zr, matmul(h, u_zr, gates), gates)
            _sigmoid(gates_zr, zr_t, half, one)
            multiply(r, h, rh_t)
            tanh(add(a_h, matmul(rh_t, u_h, hc), hc), hc)
            multiply(subtract(one, z, keep), h, keep)
            add(keep, multiply(z, hc, h_next), h_next)
        self._cache = (xs, w, zr, hcs, hs, rh) if training else None
        return np.ascontiguousarray(hs[1:].transpose(1, 0, 2))

    def backward(self, grad_out: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        xs, w, zr, hcs, hs, rh = self._take_cache()
        t, b, _ = xs.shape
        hd = self.hidden
        (gw_z, gw_r, gw_h, gu_z, gu_r, gu_h, gb_z, gb_r, gb_h) = self.grads
        u_zr_t = np.ascontiguousarray(np.concatenate([self.u_z, self.u_r], axis=1).T)
        u_h_t = np.ascontiguousarray(self.u_h.T)
        grad_t = np.ascontiguousarray(grad_out.transpose(1, 0, 2))
        da = np.empty((t, b, 3 * hd), dtype=zr.dtype)
        # Walking the steps backwards, each op writes into da or into one of
        # five (B, H) blocks, in the order of the expressions
        #   dh = g + dh_next;  da_h = (dh*z) * (1 - hc*hc);  drh = da_h @ u_h.T
        #   da_z = (dh*(hc-h)) * (z*(1-z));  da_r = (drh*h) * (r*(1-r))
        #   dh_next = dh*(1-z) + drh*r + da_zr @ u_zr.T
        # and dh_next goes into dh once dh is last read.
        dh = np.zeros((b, hd), dtype=zr.dtype)
        one_minus_z, drh, p, q = (np.empty_like(dh) for _ in range(4))
        one = np.array(1.0, zr.dtype)
        matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply
        for g, z, r, hc, hp, da_z, da_r, da_h, da_zr in zip(
                grad_t[::-1], zr[::-1, 0], zr[::-1, 1], hcs[::-1], hs[-2::-1], da[::-1, :, :hd],
                da[::-1, :, hd : 2 * hd], da[::-1, :, 2 * hd :], da[::-1, :, : 2 * hd]):
            subtract(one, z, one_minus_z)
            add(g, dh, dh)
            multiply(dh, z, p)
            subtract(one, multiply(hc, hc, q), q)
            multiply(p, q, da_h)
            matmul(da_h, u_h_t, drh)
            multiply(dh, subtract(hc, hp, p), p)
            multiply(p, multiply(z, one_minus_z, q), da_z)
            multiply(drh, hp, p)
            multiply(r, subtract(one, r, q), q)
            multiply(p, q, da_r)
            multiply(dh, one_minus_z, p)
            add(p, multiply(drh, r, q), p)
            add(p, matmul(da_zr, u_zr_t, q), dh)
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
        if not need_input_grad:
            return None
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

    def __init__(self, params: list[np.ndarray], lr: float,
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
