"""Training loop (seeded shuffling, length-bucketed batches padded once per
run and run in micro-batches of whole trials sized by their output steps,
masked MSE, Adam) plus the finite-difference gradient verifier.

Each micro-batch runs forward(training=True) and then backward, which releases
the layers' backward records, and the validation loss runs through predict,
which keeps none: between steps and after train returns, a model holds no
activations."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import NumericError
from ..serialize import write_csv
from .layers import Adam, Dropout, mse_loss
from .models import Model

# Output (target) time steps per forward/backward pass: a padded batch is run in
# slices of whole trials that each stay at or below this, with the gradients
# accumulated into one optimizer step. 30000 is one 2 s trial at 15 kHz, so a
# synthesis slice's widest tensor, (1, 10000, 256) float32, is ~10 MiB, under
# glibc's 32 MiB mmap ceiling; a regression batch of up to 100 x 62 frames is
# one slice.
MICRO_BATCH_OUTPUT_STEPS = 30000


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 100
    learning_rate: float = 1e-3
    seed: int = 0

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


def train(model: Model, train_pairs, config: TrainConfig, val_pairs=None) -> TrainHistory:
    """Run the epoch loop; deterministic given the config seed.

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

    for epoch in range(1, config.epochs + 1):
        sq_sum = 0.0
        count_sum = 0.0
        for bi in rng.permutation(len(batches)):
            xb, yb, mask, count = batches[bi]
            if count == 0:
                raise ValueError("empty mask")
            model.zero_grad()
            for rows in _slices(yb):
                # Every slice runs forward, so the dropout draws are those of the whole batch.
                pred = model.forward(xb[rows], training=True)
                part = float(mask[rows].sum()) * yb.shape[-1]
                if part == 0:
                    continue
                loss, grad = mse_loss(pred, yb[rows], mask[rows])
                if not np.isfinite(loss):
                    raise NumericError(f"loss diverged (NaN/inf) at epoch {epoch}")
                sq_sum += loss * part
                count_sum += part
                grad *= grad.dtype.type(part / count)
                model.backward(grad)
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
