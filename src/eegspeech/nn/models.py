"""The two trainable architectures and their checkpoint format.

Synthesis: TCN(31->f1) -> upsample x5 -> dropout -> TCN(f1->f2) -> upsample x3
-> time-distributed dense(f2->1), mapping T EEG samples at 1000 Hz to 15*T
audio samples at 15 kHz. The dense map acts on each step alone, so it commutes
with the repeat: the stack applies it before the x3 upsample, on a third of the
steps, with the same output up to float32 rounding. Regression: GRU(30->hidden)
-> dropout -> dense to the target feature dimension, frame for frame.

At inference dropout is the identity, so the second TCN sees five equal copies
of every EEG step. With kernel k and dilation d, phase p of the five reads,
through tap j, EEG step t + (p - (k-1-j)*d) // 5: at the paper's kernel 3,
phases 0 and 1 each reach back one step through different taps and phases 2-4
read only step t. Each EEG step therefore yields at most three distinct
outputs, and its 15 audio samples are [a]*3 + [b]*3 + [c]*9.
SynthesisModel.predict uses this (TcnBlock.forward with repeat=5) and never
builds the (B, 5T, f1) repeat; Model.forward(training=False) is the
layer-by-layer reference it is tested against.

Each TCN block contracts over its narrower side (see TcnBlock): the first
runs on a (B, T, k*in) tap matrix while f1 exceeds the 31 EEG channels, as at
the paper's 256, and the second shift-adds its f2-wide tap outputs while f2 <=
f1, as at 256 -> 32. Both forms run in every stock training step and predict.

Model.backward differentiates the last forward(training=True): each layer
reads and releases the record that forward left (see layers.py), so an
inference pass leaves no activations behind and a backward without a training
forward raises RuntimeError.

nn.train runs each slice through Model.train_pass: forward, masked MSE and
backward. The regressor's is that layer-by-layer pass. The synthesizer's is
its training counterpart of the polyphase predict: it walks the slice in time
blocks whose widest tensor stays within TRAIN_BLOCK_BYTES, so each block's
forward, loss and backward find their tensors in cache instead of sending
(1, 10000, 256) float32 arrays (10 MiB for a 2 s trial) through L3 at every
layer boundary. forward(training=True) then backward stay the reference the
blocked pass is tested against, and the gradient-check path.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..serialize import load_container, save_container
from .layers import Dropout, GruLayer, Layer, TcnBlock, TimeDistributedDense, UpsampleRepeat, _mask_words, mse_loss

REGRESSION_OUT_DIMS = (1, 2, 6, 7, 12, 128, 384)

# Byte budget of the widest tensor of one time block of a synthesis training
# pass, the (rows, 5 * steps, max(f1, f2)) activations at the x5 rate: about
# one core's L2 (2 MiB on the hosts measured), so a block's forward, loss and
# backward read their tensors back from L2, not L3. At 256/32 float32 a 2 s
# trial runs as five blocks of 400 EEG steps. A whole 4-trial training step
# (2-vCPU Xeon, two runners) ran no faster with 250- or 200-step blocks and
# 25% slower with 100-step blocks, whose fixed cost per block dominates.
TRAIN_BLOCK_BYTES = 2 * 2**20


class Model:
    """A stack of layers with shared forward/backward plumbing."""

    kind = "model"

    def __init__(self, layers: list[Layer], config: dict, in_dim: int):
        self.layers = layers
        self.config = dict(config)
        self.in_dim = in_dim

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        """x as a (batch, time, in_dim) batch with at least one time step."""
        x = np.asarray(x)
        if x.ndim == 2:
            x = x[None, ...]
        if x.ndim != 3:
            raise DataError("input must be (batch, time, features)")
        if x.shape[-1] != self.in_dim:
            raise DataError(f"{self.kind} expects {self.in_dim} input features, got {x.shape[-1]}")
        if x.shape[1] == 0:
            raise DataError(f"{self.kind} input has 0 time steps")
        return x

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = self._check_input(x)
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        """Accumulate every parameter gradient of the last training forward; the
        first layer's input gradient is never formed."""
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        self.layers[0].backward(grad_out, need_input_grad=False)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference mode: dropout off, deterministic."""
        return self.forward(x, training=False)

    def train_pass(self, x: np.ndarray, target: np.ndarray, mask: np.ndarray, count: float) -> float:
        """One training pass over a padded (B, T, in) slice: forward, masked
        MSE and backward, with the loss gradient scaled by part / count, where
        part is the slice's number of valid output values. Accumulates the
        parameter gradients and returns loss * part: 0.0 with no backward when
        no output is valid, a non-finite value with no backward when the loss
        diverges."""
        for layer in self.layers:
            x = layer.forward(x, training=True)
        part = float(mask.sum()) * target.shape[-1]
        if part == 0:
            return 0.0
        loss, grad = mse_loss(x, target, mask)
        if not np.isfinite(loss):
            return loss
        grad *= grad.dtype.type(part / count)
        self.backward(grad)
        return loss * part

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def output_length(self, t: int) -> int:
        for layer in self.layers:
            t = layer.output_length(t)
        return t

    def named_params(self) -> dict[str, np.ndarray]:
        """Parameters under their checkpoint names, layerNN_pJ."""
        return {
            f"layer{i:02d}_p{j}": p
            for i, layer in enumerate(self.layers)
            for j, p in enumerate(layer.params)
        }

    def save(self, path: str | Path) -> None:
        save_container(path, self.kind, self.config, self.named_params())

    def load_params(self, arrays: dict) -> None:
        for i, layer in enumerate(self.layers):
            for j, p in enumerate(layer.params):
                name = f"layer{i:02d}_p{j}"
                if name not in arrays:
                    raise DataError(f"checkpoint has no array {name!r} (written for another layer layout?)")
                src = arrays[name]
                if tuple(src.shape) != p.shape:
                    raise DataError(f"checkpoint shape mismatch at layer {i} param {j}")
                if not np.isfinite(src).all():
                    raise DataError(f"checkpoint array {name!r} holds NaN or inf")
                p[...] = src.astype(p.dtype)


class SynthesisModel(Model):
    kind = "synthesis"

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference as a polyphase stack: TCN1 at the EEG rate, then TCN2 on
        the x5 repeat without building it; dropout is the identity here."""
        tcn1, up5, _, tcn2, dense, up3 = self.layers
        h = tcn2.forward(tcn1.forward(self._check_input(x)), repeat=up5.k)
        return up3.forward(dense.forward(h))

    def halo(self) -> int:
        """EEG steps before a block that its outputs read: TCN1's reach, then
        TCN2's reach at the x5 rate, in whole EEG steps."""
        tcn1, up5, _, tcn2, _, _ = self.layers
        return (tcn1.kernel_size - 1) * tcn1.dilation + -(-(tcn2.kernel_size - 1) * tcn2.dilation // up5.k)

    def block_steps(self, rows: int, t: int, dtype) -> int:
        """EEG steps per block of a (rows, t) slice: the fewest blocks whose
        x5-rate activations stay within TRAIN_BLOCK_BYTES, split evenly, and
        never fewer steps than the halo, so that a block's halo lies in the
        block before it."""
        _, up5, _, tcn2, _, _ = self.layers
        step_bytes = rows * up5.k * max(tcn2.in_dim, tcn2.out_dim) * np.dtype(dtype).itemsize
        n_blocks = -(-t // max(1, TRAIN_BLOCK_BYTES // step_bytes))
        return max(self.halo(), -(-t // n_blocks))

    def train_pass(self, x: np.ndarray, target: np.ndarray, mask: np.ndarray, count: float) -> float:
        """Model.train_pass in time blocks of block_steps EEG steps, walked
        from the last block to the first, so that each block's tensors are
        still in cache from its forward when its backward reads them.

        A block recomputes its halo from the input, calls every layer's
        forward, mse_loss on its own outputs and every layer's backward, so no
        layer holds more than one block's record. Its dropout mask is its part
        of the whole slice's mask (Dropout.forward's window). The halo rows of
        its TCN1 output gradient are added to the block before it, and TCN1's
        backward runs on the block's own rows only. Each block's loss and
        gradient are scaled by its own part, as slices are. A slice of one
        block is bitwise Model.train_pass; over several blocks only the sums of
        the gradients and of the loss change order. The dropout generator ends
        where Model.train_pass leaves it."""
        tcn1, up5, dropout, tcn2, dense, up3 = self.layers
        b, t, _ = x.shape
        steps, halo = self.block_steps(b, t, x.dtype), self.halo()
        up = up5.k * up3.k  # output steps per EEG step
        sq, carry = 0.0, None
        for s in reversed(range(0, t, steps)):
            e, lo = min(s + steps, t), max(0, s - halo)
            rows = slice(up * s, up * e)
            part = float(mask[:, rows].sum()) * target.shape[-1]
            if part == 0 and carry is None:
                continue  # no valid output here or after: nothing to differentiate
            h = up5.forward(tcn1.forward(x[:, lo:e], training=True), training=True)
            h = dropout.forward(h, training=True, window=(up5.k * lo, up5.k * t))
            pred = up3.forward(dense.forward(tcn2.forward(h, training=True), training=True), training=True)
            grad = np.zeros_like(pred)
            if part:
                loss, grad[:, up * (s - lo):] = mse_loss(pred[:, up * (s - lo):], target[:, rows], mask[:, rows])
                if not np.isfinite(loss):
                    for layer in self.layers:
                        layer._cache = None
                    return loss
                grad *= grad.dtype.type(part / count)
                sq += loss * part
            g = up5.backward(dropout.backward(tcn2.backward(dense.backward(up3.backward(grad)))))
            if carry is not None:
                g[:, g.shape[1] - carry.shape[1]:] += carry
            carry = g[:, : s - lo].copy() if s > lo else None
            g[:, : s - lo] = 0
            tcn1.backward(g, need_input_grad=False)
        if dropout.rate:
            dropout.rng.bit_generator.advance(_mask_words((b, up5.k * t, tcn1.out_dim), x.dtype))
        return sq


class RegressionModel(Model):
    kind = "regression"


def build_synthesis_model(
    seed: int,
    filters: tuple[int, int],
    kernel_size: int,
    dropout_rate: float,
    in_dim: int = 31,
    dtype=np.float32,
) -> SynthesisModel:
    """Figure-style waveform synthesizer: (T x in_dim) -> (15*T x 1).

    The settings have no defaults: their stock values live in RunConfig."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    f1, f2 = filters
    # The head is drawn before the TCN blocks, which keeps each seed's initial parameters.
    head = TimeDistributedDense(f2, 1, rng=rng, dtype=dtype)
    layers: list[Layer] = [
        TcnBlock(in_dim, f1, kernel_size, rng=rng, dtype=dtype),
        UpsampleRepeat(5),
        Dropout(dropout_rate, seed=seed + 1),
        TcnBlock(f1, f2, kernel_size, rng=rng, dtype=dtype),
        head,
        UpsampleRepeat(3),
    ]
    config = {
        "seed": seed,
        "filters": list(filters),
        "kernel_size": kernel_size,
        "dropout_rate": dropout_rate,
        "in_dim": in_dim,
        "out_dim": 1,
        "dtype": np.dtype(dtype).name,
    }
    return SynthesisModel(layers, config, in_dim)


def build_regression_model(
    out_dim: int,
    seed: int,
    hidden: int,
    in_dim: int,
    dropout_rate: float,
    dtype=np.float32,
) -> RegressionModel:
    """GRU regressor onto one acoustic feature family: (T x in_dim) -> (T x out_dim).

    The settings have no defaults: their stock values live in RunConfig."""
    if out_dim not in REGRESSION_OUT_DIMS:
        raise ValueError(f"out_dim must be one of the 16 feature dims {REGRESSION_OUT_DIMS}, got {out_dim}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    layers = [
        GruLayer(in_dim, hidden, rng=rng, dtype=dtype),
        Dropout(dropout_rate, seed=seed + 1),
        TimeDistributedDense(hidden, out_dim, rng=rng, dtype=dtype),
    ]
    config = {
        "seed": seed,
        "hidden": hidden,
        "in_dim": in_dim,
        "out_dim": out_dim,
        "dropout_rate": dropout_rate,
        "dtype": np.dtype(dtype).name,
    }
    return RegressionModel(layers, config, in_dim)


def restore_model(kind: str, config: dict, arrays: dict, source: str | Path = "checkpoint") -> Model:
    """Rebuild a model through the builder that wrote its config, called with
    the saved entries its signature names, then load its parameters."""
    # looked up per call, so a builder rebound on this module (perfbench's tracer) also restores
    builders = {"synthesis": build_synthesis_model, "regression": build_regression_model}
    builder = builders.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise DataError(f"{source}: unknown model kind {kind!r}")
    try:
        names = inspect.signature(builder).parameters
        model = builder(**{key: value for key, value in config.items() if key in names})
    except (TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{source}: bad {kind} model config ({exc!r})") from exc
    try:
        model.load_params(arrays)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc
    return model


def load_model(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint container."""
    kind, config, arrays = load_container(path)
    return restore_model(kind, config, arrays, path)
