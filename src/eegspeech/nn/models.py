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

Model.backward differentiates the last forward(training=True): each layer
reads and releases the record that forward left (see layers.py), so an
inference pass leaves no activations behind and a backward without a training
forward raises RuntimeError.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np

from ..errors import DataError
from ..serialize import load_container, save_container
from .layers import Dropout, GruLayer, Layer, TcnBlock, TimeDistributedDense, UpsampleRepeat

REGRESSION_OUT_DIMS = (1, 2, 6, 7, 12, 128, 384)


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
            raise ValueError("input must be (batch, time, features)")
        if x.shape[-1] != self.in_dim:
            raise ValueError(f"{self.kind} expects {self.in_dim} input features, got {x.shape[-1]}")
        if x.shape[1] == 0:
            raise ValueError(f"{self.kind} input has 0 time steps")
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
