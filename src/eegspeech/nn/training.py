"""Training loop (seeded shuffling, length-bucketed batches padded once per
run and run in micro-batches of whole trials sized by their output steps,
masked MSE, Adam) plus the finite-difference gradient verifier.

Each micro-batch (slice) runs through the model's train_pass: forward, masked
MSE and backward, which releases the layers' backward records. The regressor's
runs layer by layer; the synthesizer's runs the slice in cache-sized time blocks
(see SynthesisModel.train_pass). The validation loss runs through predict,
which keeps no records: between steps and after train returns, a model holds
no activations.

The slices of a batch run on up to one runner per CPU this process may use:
the calling thread, on the model's own layers, and threads of a pool that
lives for one train call, each on copies of the layers that share the
parameter arrays. The slices share nothing mutable: every slice starts from
zeroed gradients, and each Dropout layer of a slice sets its generator to the
layer's state at the start of the batch, advanced past the masks of the
slices before it (every slice but the last has the first slice's rows, and
_mask_words gives a mask's word count). Once every runner is done, the
slices' gradients and losses are added in slice order and the model's
generators take the last slice's end state, so the step is bitwise that of
running the slices one after another. The runners take slice indices from one
shared iterator; a runner whose slice fails drains it, so the others stop after
their current slice, and the caller re-raises the failure once all have stopped.

Each train call first sets the process's BLAS to one thread (`eegspeech.blas`):
the checkpoints and histories do not depend on the core count.

Under glibc, the first train call of a process pins malloc's mmap threshold at
its 64-bit ceiling (32 MiB) and its trim threshold at 64 MiB, so each runner's
block and slice arrays are served again from its arena's heap instead of being
trimmed and faulted back in on every pass."""

from __future__ import annotations

import copy
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import blas
from ..errors import NumericError
from ..serialize import write_csv
from .layers import Adam, Dropout, _mask_words, mse_loss
from .models import Model

# Output (target) time steps per training pass: a padded batch is run in
# slices of whole trials that each stay at or below this, with the gradients
# accumulated into one optimizer step. 30000 is one 2 s trial at 15 kHz; a
# synthesis slice then runs in time blocks whose widest tensor is ~2 MiB
# (models.TRAIN_BLOCK_BYTES), and a regression batch of up to 100 x 63 frames
# is one slice.
MICRO_BATCH_OUTPUT_STEPS = 30000

# mallopt(3) parameters and the values _hold_heap pins: glibc's dynamic mmap
# threshold stops at the largest block freed so far (~2 MiB, a synthesis time
# block's widest array) with a trim threshold of twice that, so the freed heap
# top goes back to the kernel and is faulted in again. With time blocks the pin
# still gives synth-train +19% (10 of 10 pairs); regress-train is flat. 32 MiB
# is the ceiling that rule can reach on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX); at
# most 64 MiB of free heap top stays per arena.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 64 * 2**20


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainHistory:
    epochs: list[dict] = field(default_factory=list)

    def final_train_loss(self) -> float:
        return self.epochs[-1]["train_loss"]

    def to_csv(self, path: str | Path, meta: dict | None = None) -> None:
        comment = " ".join(f"{k}={meta[k]}" for k in sorted(meta)) if meta else None
        rows = ((str(row["epoch"]), f"{row['train_loss']:.9g}",
                 "" if row["val_loss"] is None else f"{row['val_loss']:.9g}") for row in self.epochs)
        write_csv(path, ("epoch", "train_loss", "val_loss"), rows, comment)


def _assemble(pairs, idxs, model: Model, dtype):
    """Pad a batch and build the validity mask on the output grid."""
    xs = [np.asarray(pairs[i][0], dtype=dtype) for i in idxs]
    ys = [np.asarray(pairs[i][1], dtype=dtype) for i in idxs]
    t_in = max(len(x) for x in xs)
    t_out = model.output_length(t_in)
    xb = np.zeros((len(xs), t_in, xs[0].shape[1]), dtype=dtype)
    yb = np.zeros((len(ys), t_out, ys[0].shape[1]), dtype=dtype)
    mask = np.zeros((len(xs), t_out), dtype=dtype)
    for row, (x, y) in enumerate(zip(xs, ys)):
        valid = min(model.output_length(len(x)), len(y))
        xb[row, : len(x)] = x
        yb[row, :valid] = y[:valid]
        mask[row, :valid] = 1.0
    return xb, yb, mask


def _padded_batches(pairs, batch_size: int, model: Model, dtype) -> list[tuple]:
    """A set in batches of near-equal input length, each padded once:
    (xb, yb, mask, count), where count is the number of valid output values."""
    order = sorted(range(len(pairs)), key=lambda i: (len(pairs[i][0]), i))
    padded = []
    for lo in range(0, len(order), batch_size):
        xb, yb, mask = _assemble(pairs, order[lo : lo + batch_size], model, dtype)
        model._check_input(xb)
        padded.append((xb, yb, mask, float(mask.sum()) * yb.shape[-1]))
    return padded


def _slices(yb: np.ndarray) -> list[slice]:
    """Row slices of a padded target batch of at most MICRO_BATCH_OUTPUT_STEPS
    output steps each, and at least one trial."""
    step = max(1, MICRO_BATCH_OUTPUT_STEPS // yb.shape[1])
    return [slice(lo, lo + step) for lo in range(0, len(yb), step)]


def _epoch_loss(model: Model, padded) -> float:
    """Masked MSE over a whole padded set through model.predict, run in the training slices."""
    total_sq = 0.0
    total_count = 0.0
    for xb, yb, mask, count in padded:
        for rows in _slices(yb):
            pred = model.predict(xb[rows])
            diff = (pred.astype(np.float64) - yb[rows]) * mask[rows][..., None]
            total_sq += float(np.sum(diff * diff))
        total_count += count
    return total_sq / total_count


@functools.cache
def _mallopt():
    """The C library's mallopt(3), or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _hold_heap() -> bool:
    """Pin malloc's mmap and trim thresholds, once per process; False where
    mallopt is missing or refuses the mmap threshold (then the trim threshold is
    left alone too, since setting it would switch the dynamic threshold off)."""
    mallopt = _mallopt()
    return (mallopt is not None and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


def _worker_count(n_slices: int) -> int:
    """Runners for a batch of n_slices: one per CPU this process may run on, at
    most one per slice, and only one where numpy's BLAS is not pinned to one thread."""
    if not blas.numpy_pinned():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_slices))


def _view(model: Model, own: bool) -> Model:
    """The model one slice trains on, with zeroed gradients: the model itself
    (caller thread), or a copy whose layers share the parameter arrays and own
    their gradients, backward records and dropout generators."""
    view = model if own else copy.copy(model)
    if not own:
        view.layers = [copy.copy(layer) for layer in model.layers]
    for layer in view.layers:
        layer._cache = None
        layer.grads = [np.zeros_like(p) for p in layer.params]
        if not own and isinstance(layer, Dropout):
            layer.rng = np.random.default_rng()  # each slice sets its state
    return view


def _train_slice(view: Model, batch, slices: list[slice], i: int, starts: list, epoch: int):
    """Slice i of a padded batch on view: (loss * part, part, gradients or None
    where no output is valid, dropout generator states at the slice's end).

    Each Dropout with a nonzero rate draws from its generator set to the
    layer's state at the start of the batch (starts) and advanced past the
    masks of slices 0..i-1, which all have slice 0's rows: the mask a
    sequential run draws for slice i."""
    xb, yb, mask, count = batch
    rows = slices[i]
    t, width = xb.shape[1:]
    for layer, start in zip(view.layers, starts):
        if start is not None:
            layer.rng.bit_generator.state = start
            layer.rng.bit_generator.advance(i * _mask_words((slices[0].stop, t, width), xb.dtype))
        t, width = layer.output_length(t), layer.output_width(width)
    sq = view.train_pass(xb[rows], yb[rows], mask[rows], count)
    # Every pass leaves the generators past its whole mask, so the last slice ends where the batch's draws end.
    ends = [None if start is None else layer.rng.bit_generator.state for layer, start in zip(view.layers, starts)]
    part = float(mask[rows].sum()) * yb.shape[-1]
    if part == 0:
        return 0.0, 0.0, None, ends
    if not np.isfinite(sq):
        raise NumericError(f"loss diverged (NaN/inf) at epoch {epoch}")
    return sq, part, view.grads(), ends


def _train_batch(model: Model, batch, pool: ThreadPoolExecutor, epoch: int) -> list[tuple[float, float]]:
    """Sum one padded batch's gradients into model.grads(); returns each slice's
    (loss * part, part), in slice order, for the slices with valid outputs.

    Runners take slice indices from one iterator; each slice writes only its
    own entry of results."""
    slices = _slices(batch[1])
    starts = [layer.rng.bit_generator.state if isinstance(layer, Dropout) and layer.rate else None
              for layer in model.layers]
    results: list = [None] * len(slices)
    todo = iter(range(len(slices)))

    def run(own: bool) -> None:
        try:
            for i in todo:
                results[i] = _train_slice(_view(model, own), batch, slices, i, starts, epoch)
        finally:
            for _ in todo:  # after a failure, leave the other runners nothing to take
                pass

    own_grads = [layer.grads for layer in model.layers]
    futures = [pool.submit(run, False) for _ in range(_worker_count(len(slices)) - 1)]
    try:
        run(own=True)
    finally:
        wait(futures)
        for layer, grads in zip(model.layers, own_grads):
            layer.grads = grads
            layer._cache = None  # left by a slice that failed or had no valid output
    for future in futures:
        future.result()
    model.zero_grad()
    totals = model.grads()
    losses = []
    for sq, part, grads, _ in results:
        if grads is not None:
            for total, g in zip(totals, grads):
                total += g
            losses.append((sq, part))
    for layer, end in zip(model.layers, results[-1][3]):
        if end is not None:
            layer.rng.bit_generator.state = end
    return losses


def train(model: Model, train_pairs, config: TrainConfig, val_pairs=None) -> TrainHistory:
    """Run the epoch loop; deterministic given the config seed, and bitwise the
    same for any number of runners and, where BLAS can be pinned, any BLAS
    thread count. Leaves the process's BLAS pinned to one thread.

    Raises NumericError if the loss diverges to NaN/inf.
    """
    if not train_pairs:
        raise ValueError("empty training set")
    dtype = model.params()[0].dtype if model.params() else np.float32
    batches = _padded_batches(train_pairs, config.batch_size, model, dtype)
    val_batches = _padded_batches(val_pairs, config.batch_size, model, dtype) if val_pairs else None
    optimizer = Adam(model.params(), lr=config.learning_rate)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    history = TrainHistory()
    blas.pin_one_thread()
    _hold_heap()
    runners = max(_worker_count(len(_slices(yb))) for _, yb, _, _ in batches)

    with ThreadPoolExecutor(max_workers=max(1, runners - 1), thread_name_prefix="nn.train") as pool:
        for epoch in range(1, config.epochs + 1):
            sq_sum = 0.0
            count_sum = 0.0
            for bi in rng.permutation(len(batches)):
                if batches[bi][3] == 0:
                    raise ValueError("empty mask")
                for sq, part in _train_batch(model, batches[bi], pool, epoch):
                    sq_sum += sq
                    count_sum += part
                optimizer.step(model.grads())
            val_loss = _epoch_loss(model, val_batches) if val_batches else None
            history.epochs.append(
                {"epoch": epoch, "train_loss": sq_sum / count_sum, "val_loss": val_loss}
            )
    return history


def finite_diff_grad_check(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
    max_coords: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error of analytic parameter gradients vs central differences.

    Run on float64 models. The analytic gradients come from the training pass,
    forward(training=True) then backward; the model must have no dropout
    (rate 0), so that pass is the deterministic function the central
    differences evaluate through the inference forward.
    """
    if any(isinstance(layer, Dropout) and layer.rate != 0.0 for layer in model.layers):
        raise ValueError("finite_diff_grad_check needs a model without dropout (rate 0)")

    def loss_of() -> float:
        pred = model.forward(x, training=False)
        loss, _ = mse_loss(pred, y)
        return loss

    model.zero_grad()
    pred = model.forward(x, training=True)
    _, grad = mse_loss(pred, y)
    model.backward(grad)
    analytic = [g.copy() for g in model.grads()]

    coords = [(pi, flat) for pi, p in enumerate(model.params()) for flat in range(p.size)]
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]

    params = model.params()
    max_rel = 0.0
    for pi, flat in coords:
        p = params[pi].reshape(-1)
        orig = p[flat]
        p[flat] = orig + eps
        loss_plus = loss_of()
        p[flat] = orig - eps
        loss_minus = loss_of()
        p[flat] = orig
        numeric = (loss_plus - loss_minus) / (2.0 * eps)
        a = float(analytic[pi].reshape(-1)[flat])
        denom = max(abs(a), abs(numeric), 1e-6)
        max_rel = max(max_rel, abs(a - numeric) / denom)
    return max_rel
