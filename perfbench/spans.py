"""Span tracer for the traced run.

Wrappers from this file are installed around the program's public functions
and methods, and around every Model layer's forward/backward. Each call
records a span (name, start, end, parent, phase) in memory; the spans are
written out when the run ends. Self time is a span's duration minus the
durations of its direct children.

Nothing here changes what the program computes: a wrapper calls the original
with the same arguments and returns its result.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from eegspeech import acoustic, dataio, dsp, eeg, evaluate, pipeline, serialize
from eegspeech.nn import layers as nn_layers
from eegspeech.nn import models as nn_models
from eegspeech.nn import training as nn_training
from probe import calibrate

ROOT = "bench.op"
# Layer names by type and position in the two architectures.
SYNTH_ROLES = ("tcn1", "up5", "dropout", "tcn2", "up3", "dense")
REGRESS_ROLES = ("gru", "dropout", "dense")


def _trial_bytes(manifest, ref) -> float:
    ref = manifest.by_id(ref) if isinstance(ref, str) else ref
    return float(sum(os.path.getsize(manifest.root / p) for p in (ref.eeg_path, ref.wav_path)))


def _gemm_flops(layer, shape, backward: bool) -> float:
    """Multiply-add FLOPs of a TCN or dense layer for a (batch, time, .) tensor;
    the backward pass does two GEMMs (weights and inputs) per forward GEMM."""
    b, t = shape[0], shape[1]
    if isinstance(layer, nn_layers.TcnBlock):
        flops = 2.0 * b * t * layer.kernel_size * layer.in_dim * layer.out_dim
        if layer.proj is not None:
            flops += 2.0 * b * t * layer.in_dim * layer.out_dim
    else:
        flops = 2.0 * b * t * layer.in_dim * layer.out_dim
    return 2.0 * flops if backward else flops


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = ""
        self.family = "other"
        self._stack: list[int] = []
        self._layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.phase))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.phase)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, attr: str, new) -> None:
        """Replace ``original`` under ``attr`` in every program module that holds
        it (``from .x import f`` copies the reference)."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("eegspeech") and mod.__dict__.get(attr) is original:
                self._replace(mod, attr, new)

    # A name the program no longer has is skipped: its metrics then read
    # "not reached" and its time stays in the caller's self time.

    def _wrap_function(self, module, attr: str, name, counter=None, after=None) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(*args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            result = self.call(span, original, *args, **kwargs)
            if after is not None:
                after(*args, **kwargs)
            return result

        self._rebind(original, attr, wrapper)

    def _wrap_method(self, cls, attr: str, name, counter=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(obj, *args, **kwargs):
            if counter is not None:
                counter(obj, *args, **kwargs)
            span = name(obj) if callable(name) else name
            return self.call(span, original, obj, *args, **kwargs)

        self._replace(cls, attr, wrapper)

    def _register_model(self, model) -> None:
        family = "synth" if model.kind == "synthesis" else "regress"
        seen: dict[str, int] = defaultdict(int)
        for layer in model.layers:
            if isinstance(layer, nn_layers.TcnBlock):
                seen["tcn"] += 1
                role = f"tcn{seen['tcn']}"
            elif isinstance(layer, nn_layers.UpsampleRepeat):
                role = f"up{layer.k}"
            elif isinstance(layer, nn_layers.GruLayer):
                role = "gru"
            elif isinstance(layer, nn_layers.Dropout):
                role = "dropout"
            elif isinstance(layer, nn_layers.TimeDistributedDense):
                role = "dense"
            else:
                role = type(layer).__name__.lower()
            self._layer_names[layer] = f"nn.{family}.{role}"

    def _layer_span(self, layer, direction: str) -> str:
        return f"{self._layer_names.get(layer, 'nn.other.' + type(layer).__name__)}.{direction}"

    def install(self) -> None:
        f, m = self._wrap_function, self._wrap_method
        m(dataio.DatasetManifest, "load_trial", "dataio.read",
          lambda man, ref: self.count("dataio.read_bytes", _trial_bytes(man, ref)))
        f(dsp, "apply_filter", "dsp.filter")
        f(dsp, "resample_poly", "dsp.resample")
        f(dsp, "stft_power", "dsp.stft")
        f(eeg, "preprocess_eeg", "eeg.preprocess")
        f(eeg, "extract_stat_features", "eeg.stats")
        f(eeg, "kpca_fit", "eeg.kpca_fit",
          lambda x, *a, **k: self.count("eeg.kpca_fit_frames", float(len(x))))
        f(eeg, "kpca_transform", "eeg.kpca_transform")
        f(acoustic, "extract_acoustic_set", "acoustic.set")
        f(acoustic, "_cqt_note_energies", "acoustic.cqt")
        f(acoustic, "mel_spectrogram_128", "acoustic.mel")
        f(acoustic, "tempogram_384", "acoustic.tempogram")
        f(acoustic, "pitch_track_1", "acoustic.pitch")
        for attr in ("audio_at_rate", "synthesis_example", "fit_kpca_models", "reduce_features",
                     "regression_example", "train_regression_kind"):
            f(pipeline, attr, f"pipeline.{attr}")
        m(pipeline.RegressorBundle, "predict", "pipeline.RegressorBundle.predict")
        m(pipeline.RegressorBundle, "save", "pipeline.RegressorBundle.save")
        f(serialize, "save_container", "serialize.save",
          after=lambda path, *a, **k: self.count("serialize.save_bytes", float(os.path.getsize(path))))
        f(serialize, "load_container", "serialize.load",
          lambda path, *a, **k: self.count("serialize.load_bytes", float(os.path.getsize(path))))
        f(evaluate, "rmse", "evaluate.rmse")

        self._wrap_train()
        f(nn_training, "mse_loss", lambda *a, **k: f"nn.{self.family}.loss", self._count_mask)
        m(nn_layers.Adam, "step", lambda opt: f"nn.{self.family}.adam")
        for cls in (nn_layers.TcnBlock, nn_layers.UpsampleRepeat, nn_layers.Dropout,
                    nn_layers.TimeDistributedDense, nn_layers.GruLayer):
            m(cls, "forward", lambda layer: self._layer_span(layer, "fwd"), self._count_flops(False))
            m(cls, "backward", lambda layer: self._layer_span(layer, "bwd"), self._count_flops(True))
        for attr in ("build_synthesis_model", "build_regression_model"):
            self._wrap_builder(attr)

    def _wrap_train(self) -> None:
        original = nn_training.train

        @functools.wraps(original)
        def train(model, *args, **kwargs):
            outer, self.family = self.family, "synth" if model.kind == "synthesis" else "regress"
            try:
                return self.call("nn.train", original, model, *args, **kwargs)
            finally:
                self.family = outer

        self._rebind(original, "train", train)

    def _wrap_builder(self, attr: str) -> None:
        original = getattr(nn_models, attr)

        @functools.wraps(original)
        def build(*args, **kwargs):
            model = original(*args, **kwargs)
            self._register_model(model)
            return model

        self._rebind(original, attr, build)

    def _count_mask(self, pred, target, mask=None):
        if mask is not None:
            self.count("nn.train.useful", float(mask.sum()))
            self.count("nn.train.computed", float(mask.size))

    def _count_flops(self, backward: bool):
        def counter(layer, tensor, *args, **kwargs):
            name = self._layer_names.get(layer, "")
            if name.startswith("nn.synth.") and isinstance(
                    layer, (nn_layers.TcnBlock, nn_layers.TimeDistributedDense)):
                self.count("nn.synth.flop", _gemm_flops(layer, np.shape(tensor), backward))
        return counter

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def self_times(self) -> list[float]:
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), d in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += d
        return [d - c for d, c in zip(durations, child)]

    def roots(self) -> list[int]:
        """Index of the enclosing top-level span for every span."""
        root = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics

MIB = float(2**20)


class LayerStats:
    """Per-layer totals of one workload's traced ops and its traced set-up.

    ``op_probe_ms`` maps each op's root span to the probe time that
    calibrates it; ``setup_probe_ms`` calibrates the set-up spans.
    """

    def __init__(self, tracer: Tracer, name: str, op_probe_ms: dict[int, float],
                 setup_probe_ms: float, alloc_mib: dict[str, float]):
        self.name = name
        self.alloc_mib = alloc_mib
        op_phase, setup_phase = f"{name}/op", f"{name}/setup"
        selfs, roots = tracer.self_times(), tracer.roots()
        self.op_ms = {r: calibrate(tracer.spans[r][2] - tracer.spans[r][1], p) * 1e3
                      for r, p in op_probe_ms.items()}
        self.self_ms: dict[str, float] = defaultdict(float)
        self.reached: dict[str, set[int]] = defaultdict(set)
        self.setup_ms: dict[str, float] = defaultdict(float)
        for i, (span, _, _, parent, phase) in enumerate(tracer.spans):
            key = layer_key(span)
            if phase == op_phase and parent >= 0:
                self.self_ms[key] += calibrate(selfs[i], op_probe_ms[roots[i]]) * 1e3
                self.reached[key].add(roots[i])
            elif phase == setup_phase:
                self.setup_ms[key] += calibrate(selfs[i], setup_probe_ms) * 1e3
        self.attributed_share = sum(self.self_ms.values()) / sum(self.op_ms.values())
        self.counts = {n: v for (p, n), v in tracer.counts.items() if p == op_phase}
        self.setup_counts = {n: v for (p, n), v in tracer.counts.items() if p == setup_phase}

    def _ops(self, key: str) -> set[int] | None:
        return self.reached.get(key) or None

    def per_op_ms(self, key: str) -> float | None:
        ops = self._ops(key)
        return None if ops is None else self.self_ms[key] / len(ops)

    def share(self, key: str) -> float | None:
        ops = self._ops(key)
        return None if ops is None else self.self_ms[key] / sum(self.op_ms[r] for r in ops)

    def count_per_op(self, count: str, key: str, scale: float = 1.0) -> float | None:
        ops = self._ops(key)
        return None if ops is None or count not in self.counts else self.counts[count] * scale / len(ops)

    def count_per_s(self, count: str, key: str, scale: float = 1.0) -> float | None:
        ops = self._ops(key)
        if ops is None or count not in self.counts:
            return None
        return self.counts[count] * scale / (sum(self.op_ms[r] for r in ops) / 1e3)

    def ratio(self, num: str, den: str) -> float | None:
        return self.counts[num] / self.counts[den] if den in self.counts else None

    def setup(self, key: str) -> float | None:
        return self.setup_ms.get(key)

    def setup_count(self, count: str, scale: float = 1.0) -> float | None:
        return self.setup_counts[count] * scale if count in self.setup_counts else None


def layer_key(span_name: str) -> str:
    """Every pipeline function counts as pipeline self time."""
    return "pipeline.self" if span_name.startswith("pipeline.") else span_name


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    read: Callable[[LayerStats], float | None]
    span: str | None = None  # for self-time metrics: printed with its share of the op


def _self_ms(name: str, span: str) -> LayerMetric:
    return LayerMetric(name, "ms", lambda s: s.per_op_ms(span), span)


def layer_metrics() -> list[LayerMetric]:
    """Every per-layer metric a traced run prints, except the bench.* diagnostics."""
    out = [_self_ms("dataio.read_ms", "dataio.read"),
           LayerMetric("dataio.read_mib", "MiB",
                       lambda s: s.count_per_op("dataio.read_bytes", "dataio.read", 1 / MIB))]
    for span in ("dsp.filter", "dsp.resample", "dsp.stft", "eeg.preprocess", "eeg.stats",
                 "eeg.kpca_fit", "eeg.kpca_transform", "acoustic.set", "acoustic.cqt",
                 "acoustic.mel", "acoustic.tempogram", "acoustic.pitch"):
        out.append(_self_ms(f"{span}_ms", span))
    out.append(LayerMetric("eeg.kpca_fit_frames", "count",
                           lambda s: s.count_per_op("eeg.kpca_fit_frames", "eeg.kpca_fit")))
    for family, roles in (("synth", SYNTH_ROLES), ("regress", REGRESS_ROLES)):
        for role in roles:
            for direction in ("fwd", "bwd"):
                out.append(_self_ms(f"nn.{family}.{role}.{direction}_ms", f"nn.{family}.{role}.{direction}"))
        out.append(_self_ms(f"nn.{family}.loss_ms", f"nn.{family}.loss"))
        out.append(_self_ms(f"nn.{family}.adam_ms", f"nn.{family}.adam"))
        out.append(LayerMetric(f"nn.{family}.step_alloc_peak_mib", "MiB",
                               lambda s, f=family: s.alloc_mib.get(f)))
    out += [
        LayerMetric("nn.synth.step_gflop", "GFLOP",
                    lambda s: s.count_per_op("nn.synth.flop", "nn.synth.adam", 1e-9)),
        LayerMetric("nn.synth.gflop_per_s", "GFLOP/s",
                    lambda s: s.count_per_s("nn.synth.flop", "nn.synth.adam", 1e-9)),
        _self_ms("nn.train.self_ms", "nn.train"),
        LayerMetric("nn.train.useful_ratio", "ratio",
                    lambda s: s.ratio("nn.train.useful", "nn.train.computed")),
        _self_ms("pipeline.self_ms", "pipeline.self"),
        _self_ms("serialize.save_ms", "serialize.save"),
        LayerMetric("serialize.save_mib", "MiB",
                    lambda s: s.count_per_op("serialize.save_bytes", "serialize.save", 1 / MIB)),
        LayerMetric("serialize.load_ms", "ms", lambda s: s.setup("serialize.load")),
        LayerMetric("serialize.load_mib", "MiB", lambda s: s.setup_count("serialize.load_bytes", 1 / MIB)),
        _self_ms("evaluate.rmse_ms", "evaluate.rmse"),
    ]
    return out
