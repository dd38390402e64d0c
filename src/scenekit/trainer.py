"""Training loop: direct training and transfer-learning fine-tuning.

Each epoch shuffles the (already rotation-expanded) training set, cuts
it into fixed-size batches, applies random crop, random erase, and the
mixup expansion to triple the batch, then runs forward/backward and one
optimizer step. All randomness flows from named substreams of the
config seed, so a (config, seed) pair fixes every byte of the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .augment import LabeledBatch, center_crop, erase_batch, mixup_expand, random_crop
from .checkpoint import Checkpoint
from .configdict import ConfigDict, ConfigError
from .data import Dataset, one_hot, split_rows
from .files import read_table, write_atomic
from .head import kl_loss
from .model import ModelConfig, init_params, model_forward
from .params import ModelParams
from .tensor import NumericError, Tensor, backward, no_grad

DEFAULT_LEARNING_RATES = {"direct": 1e-4, "transfer": 1e-5}


class TrainingDivergedError(RuntimeError):
    """Loss or gradients became non-finite; training aborted."""


@dataclass(frozen=True)
class TrainConfig(ConfigDict):
    strategy: str = "direct"
    learning_rate: float | None = None  # None: 1e-4 direct, 1e-5 transfer
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    crop_reduction: int = 10
    erase_size: int = 20
    val_fraction: float = 0.1
    patience: int | None = None          # opt-in: stop after no val improvement
    val_acc_target: float | None = None  # opt-in: stop once val acc reaches this
    # Adam's constants: class attributes, not fields, so no config sets them.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    adam_epsilon: ClassVar[float] = 1e-8

    def __post_init__(self):
        if self.strategy not in DEFAULT_LEARNING_RATES:
            raise ValueError(f"strategy must be one of {tuple(DEFAULT_LEARNING_RATES)}")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        if self.patience is not None and self.val_fraction == 0.0:
            raise ValueError("patience needs a validation split (val_fraction > 0)")

    @property
    def effective_learning_rate(self) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return DEFAULT_LEARNING_RATES[self.strategy]


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float
    seconds: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def epochs_to_val_target(self, target: float) -> int | None:
        """First epoch index whose validation accuracy reached ``target``."""
        for rec in self.records:
            if rec.val_acc >= target:
                return rec.epoch
        return None


def save_history(history: TrainHistory, path: Path, log_timing: bool = False) -> None:
    """Write the line-delimited history table.

    The seconds column is zeroed unless ``log_timing`` is set: history
    files must be byte-reproducible for identical (config, seed) runs,
    and wall-clock time is not.
    """
    lines = ["# epoch loss train_acc val_acc seconds"]
    for r in history.records:
        secs = r.seconds if log_timing else 0.0
        lines.append(f"{r.epoch} {r.loss!r} {r.train_acc!r} {r.val_acc!r} {secs!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def load_history(path: Path) -> TrainHistory:
    rows = read_table(path, (int, float, float, float, float))
    return TrainHistory([EpochRecord(*row) for row in rows])


# --- optimizer ---------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam's step count and moments.

    The moments live in one flat buffer each, laid out like the
    parameters' (:meth:`ModelParams.flat`) and allocated at the first
    step, with two scratch buffers beside them. ``first_moment`` and
    ``second_moment`` map each parameter name to its view of them; both
    are empty before the first step.
    """

    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)
    # Rows m, v and two scratch rows, so a step allocates no temporaries.
    _work: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)


def optimizer_step(params: ModelParams, state: OptimizerState,
                   cfg: TrainConfig) -> None:
    """One Adam update from the accumulated grads, in place over the flat buffers.

    Writes through every parameter's ``data`` view (the views contract of
    :mod:`scenekit.params`), so tensors and graphs holding a parameter
    see the new values. Per element the arithmetic is the textbook
    order: m += (1-b1)(g-m), v += (1-b2)(g*g-v), then
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) with ci = 1 - bi**t.
    """
    data, grad = params.flat()
    if not np.isfinite(grad).all():
        name = next(n for n, p in params.items() if not np.isfinite(p.grad).all())
        raise TrainingDivergedError(
            f"non-finite gradient in {name!r} at step {state.step + 1}")
    if state._work is None:
        state._work = np.zeros((4, data.size))
        state.first_moment = dict(zip(params.names(), params.views(state._work[0])))
        state.second_moment = dict(zip(params.names(), params.views(state._work[1])))
    m, v, s1, s2 = state._work
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    np.subtract(grad, m, out=s1)
    s1 *= 1.0 - b1
    m += s1
    np.multiply(grad, grad, out=s1)
    s1 -= v
    s1 *= 1.0 - b2
    v += s1
    np.divide(m, 1.0 - b1 ** t, out=s1)
    s1 *= cfg.effective_learning_rate
    np.divide(v, 1.0 - b2 ** t, out=s2)
    np.sqrt(s2, out=s2)
    s2 += cfg.adam_epsilon
    s1 /= s2
    data -= s1


# --- batch assembly ----------------------------------------------------------

def training_batches(images: np.ndarray, labels: np.ndarray, cfg: TrainConfig,
                     shuffle_rng: np.random.Generator,
                     crop_rng: np.random.Generator,
                     erase_rng: np.random.Generator,
                     mixup_rng: np.random.Generator):
    """Yield augmented training batches for one epoch.

    Each base batch of B images leaves as 3B after the mixup expansion
    (32 becomes 96 at the default batch size). A trailing remainder
    smaller than 2 cannot be mixed and is dropped.
    """
    order = shuffle_rng.permutation(images.shape[0])
    for start in range(0, len(order), cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        if len(idx) < 2:
            continue
        batch_images = random_crop(images[idx], cfg.crop_reduction, crop_rng)
        batch_images = erase_batch(batch_images, cfg.erase_size, erase_rng)
        yield mixup_expand(LabeledBatch(batch_images, labels[idx]), mixup_rng)


def evaluate(params: ModelParams, model_cfg: ModelConfig, images: np.ndarray,
             labels: np.ndarray, crop_reduction: int = 0,
             batch_size: int = 64) -> tuple[np.ndarray, float]:
    """Inference-mode probabilities and accuracy on unaugmented images.

    Images get the deterministic center crop matching the training
    reduction, keeping evaluation consistent with the training scale.
    """
    if crop_reduction:
        images = center_crop(images, crop_reduction)
    rows = []
    with no_grad():
        for start in range(0, images.shape[0], batch_size):
            chunk = Tensor(images[start:start + batch_size])
            rows.append(model_forward(chunk, params, model_cfg, training=False).data)
    probs = np.concatenate(rows, axis=0)
    acc = 100.0 * float((probs.argmax(axis=1) == labels).mean())
    return probs, acc


def train(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
          source: Checkpoint | None = None,
          progress: bool = False) -> tuple[Checkpoint, TrainHistory]:
    """Run the full training strategy on a rotation-expanded dataset.

    Returns the final checkpoint and the per-epoch history. The source
    checkpoint (transfer strategy) is only ever read.
    """
    images, int_labels = dataset.to_arrays()
    num_classes = dataset.num_classes
    if model_cfg.head.num_classes != num_classes:
        raise ValueError(
            f"model expects {model_cfg.head.num_classes} classes, "
            f"dataset has {num_classes}")
    model_cfg.validate_input_size(images.shape[1] - train_cfg.crop_reduction)
    labels = one_hot(int_labels, num_classes)

    # Named substreams: order is part of the reproducibility contract.
    streams = np.random.SeedSequence(train_cfg.seed).spawn(7)
    (init_rng, val_rng, shuffle_rng, crop_rng,
     erase_rng, mixup_rng, dropout_rng) = (np.random.default_rng(s) for s in streams)

    val_idx, train_idx = (np.sort(rows) for rows in split_rows(
        dataset, train_cfg.val_fraction, val_rng, min_first=0))
    if len(train_idx) < train_cfg.batch_size:
        raise ConfigError(
            f"training split of {len(train_idx)} images is smaller than one "
            f"batch of {train_cfg.batch_size}; lower batch_size")
    train_images, train_labels = images[train_idx], labels[train_idx]
    val_images, val_int = images[val_idx], int_labels[val_idx]

    params = init_params(model_cfg, train_cfg.strategy, source=source, rng=init_rng)
    state = OptimizerState()
    history = TrainHistory()
    best_val = -np.inf
    stale_epochs = 0

    for epoch in range(1, train_cfg.epochs + 1):
        t0 = time.perf_counter()
        losses, accs = [], []
        for batch in training_batches(train_images, train_labels, train_cfg,
                                      shuffle_rng, crop_rng, erase_rng, mixup_rng):
            params.zero_grads()
            try:
                probs = model_forward(Tensor(batch.images), params, model_cfg,
                                      training=True, rng=dropout_rng)
                loss = kl_loss(probs, batch.labels, params, model_cfg.loss)
            except NumericError as exc:
                raise TrainingDivergedError(
                    f"epoch {epoch}: forward produced non-finite values ({exc})") from exc
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise TrainingDivergedError(f"epoch {epoch}: loss is {loss_val}")
            backward(loss)
            try:
                optimizer_step(params, state, cfg=train_cfg)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"epoch {epoch}: {exc}") from exc
            losses.append(loss_val)
            accs.append(100.0 * float(
                (probs.data.argmax(axis=1) == batch.labels.argmax(axis=1)).mean()))
        if val_idx.size:
            _, val_acc = evaluate(params, model_cfg, val_images, val_int,
                                  crop_reduction=train_cfg.crop_reduction)
        else:
            val_acc = float("nan")
        record = EpochRecord(epoch, float(np.mean(losses)), float(np.mean(accs)),
                             val_acc, time.perf_counter() - t0)
        history.records.append(record)
        if progress:
            print(f"epoch {record.epoch:4d}  loss {record.loss:10.4f}  "
                  f"train {record.train_acc:6.2f}%  val {record.val_acc:6.2f}%")
        if train_cfg.val_acc_target is not None and val_acc >= train_cfg.val_acc_target:
            break
        if train_cfg.patience is not None:
            if val_acc > best_val:
                best_val = val_acc
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs > train_cfg.patience:
                    break

    final_metrics = {}
    if history.records:
        last = history.records[-1]
        final_metrics = {"loss": last.loss, "train_acc": last.train_acc,
                         "val_acc": last.val_acc}
    ckpt = Checkpoint(
        model=model_cfg,
        params=params,
        metadata={
            "seed": train_cfg.seed,
            "strategy": train_cfg.strategy,
            "epochs": len(history.records),
            "train_config": train_cfg.to_dict(),
            "final": final_metrics,
        },
    )
    return ckpt, history
