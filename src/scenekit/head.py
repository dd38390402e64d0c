"""MLP classifier head and the KL-divergence training loss.

Head layout: FC(hidden) - ReLU - Dropout(0.2) - FC(classes) - Softmax.
Dropout is inverted (activations scaled by 1/keep during training), so
inference needs no rescaling. The loss is the batch sum of
KL(target || predicted) plus an L2 penalty over all trainable
parameters. When the probabilities come from the head's softmax, the
divergence is taken from the logits (log p = z - logsumexp(z)), so rows
whose target probability underflows still carry a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configdict import ConfigDict
from .params import ModelParams
from .tensor import (
    ShapeError,
    Tensor,
    add,
    from_op,
    matmul,
    mul,
    relu,
    scale,
    softmax_last,
)


@dataclass(frozen=True)
class HeadConfig(ConfigDict):
    """Classifier head widths; 4096 is the full-scale hidden width,
    128 the usual CPU-scale setting."""

    hidden_width: int = 4096
    dropout_rate: float = 0.2
    num_classes: int = 45

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")


@dataclass(frozen=True)
class LossConfig(ConfigDict):
    lam: float = 1e-4          # L2 coefficient
    epsilon: float = 1e-12     # log clamp for plain probability inputs only;
                               # head outputs use their logits, unclamped

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")


def param_shapes(cfg: HeadConfig, in_width: int) -> list[tuple[str, tuple[int, ...]]]:
    return [
        ("head.fc1.w", (in_width, cfg.hidden_width)),
        ("head.fc1.b", (cfg.hidden_width,)),
        ("head.fc2.w", (cfg.hidden_width, cfg.num_classes)),
        ("head.fc2.b", (cfg.num_classes,)),
    ]


def dropout_mask(shape: tuple[int, ...], rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: kept units carry 1/keep, dropped units 0."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


class SoftmaxOutput(Tensor):
    """Softmax probabilities that keep the logits they were computed from.

    The tape, if any, is the one ``softmax_last`` recorded; ``logits``
    lets :func:`kl_loss` work in log space, also under ``no_grad``.
    """

    __slots__ = ("logits",)

    def __init__(self, logits: Tensor):
        probs = softmax_last(logits)
        super().__init__(probs.data)
        self.node = probs.node
        self.logits = logits


def mlp_forward(features: Tensor, params: ModelParams, cfg: HeadConfig,
                training: bool = False,
                rng: np.random.Generator | None = None) -> SoftmaxOutput:
    """Class probabilities [B, C] from feature rows [B, F].

    ``rng`` drives the dropout mask and is required only when training
    with a non-zero dropout rate. The result carries its logits.
    """
    if features.ndim != 2:
        raise ShapeError(f"mlp_forward expects [B, F] features, got {features.shape}")
    if features.shape[1] != params["head.fc1.w"].shape[0]:
        raise ShapeError(
            f"mlp_forward: feature width {features.shape[1]} != "
            f"head input width {params['head.fc1.w'].shape[0]}")
    hidden = relu(add(matmul(features, params["head.fc1.w"]), params["head.fc1.b"]))
    if training and cfg.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("mlp_forward: training with dropout needs an rng")
        hidden = mul(hidden, Tensor(dropout_mask(hidden.shape, cfg.dropout_rate, rng)))
    logits = add(matmul(hidden, params["head.fc2.w"]), params["head.fc2.b"])
    return SoftmaxOutput(logits)


def _check_rows_normalized(name: str, rows: np.ndarray) -> None:
    if rows.min() < -1e-12:
        raise ValueError(f"kl_loss: {name} contains negative entries")
    sums = rows.sum(axis=-1)
    worst = np.abs(sums - 1.0).max()
    if worst > 1e-6:
        raise ValueError(f"kl_loss: {name} rows must sum to 1 (off by {worst:.3g})")


def _y_log_y(y: np.ndarray) -> np.ndarray:
    # 0 * log 0 counts as 0.
    return np.where(y > 0.0, y * np.log(np.maximum(y, 1e-300)), 0.0)


def kl_divergence_sum(probs: Tensor, targets: np.ndarray, epsilon: float) -> Tensor:
    """Batch sum of KL(target || predicted) for a plain probability tensor.

    With no logits to work from, the predicted side is clamped to
    ``epsilon`` inside the log; entries below it add the constant
    -y * log(epsilon) and get no gradient. Head outputs go through
    :func:`kl_divergence_from_logits` instead.
    """
    y = targets
    clamped = np.maximum(probs.data, epsilon)
    active = probs.data >= epsilon
    value = np.asarray((_y_log_y(y) - y * np.log(clamped)).sum())

    def vjp(g: np.ndarray):
        return (float(g) * np.where(active, -y / clamped, 0.0),)

    return from_op("kl_div", (probs,), value, vjp)


def kl_divergence_from_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Batch sum of KL(target || softmax(logits)), computed in log space.

    log p = z - logsumexp(z) is finite for finite logits, so no clamp is
    needed; the gradient on the logits is p * sum(y) - y for every row.
    """
    y = targets
    z = logits.data
    shifted = z - z.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    value = np.asarray((_y_log_y(y) - y * log_p).sum())

    def vjp(g: np.ndarray):
        return (float(g) * (np.exp(log_p) * y.sum(axis=-1, keepdims=True) - y),)

    return from_op("kl_div_logits", (logits,), value, vjp)


def l2_penalty(params: ModelParams) -> Tensor:
    """Sum of squared entries over every trainable parameter, on the tape."""
    total: Tensor | None = None
    for _, p in params.items():
        term = mul(p, p).sum()
        total = term if total is None else add(total, term)
    if total is None:
        return Tensor(np.asarray(0.0))
    return total


def kl_loss(probs: Tensor, targets: np.ndarray, params: ModelParams,
            cfg: LossConfig) -> Tensor:
    """KL(target || predicted) summed over the batch plus (lam/2) * ||params||^2.

    Targets may be soft label distributions; rows of both arguments must
    sum to 1 within 1e-6. Probabilities from :func:`mlp_forward` are
    scored from their logits; ``cfg.epsilon`` clamps only plain
    probability tensors.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ShapeError(f"kl_loss: probs {probs.shape} vs targets {targets.shape}")
    _check_rows_normalized("probs", probs.data)
    _check_rows_normalized("targets", targets)
    if isinstance(probs, SoftmaxOutput):
        loss = kl_divergence_from_logits(probs.logits, targets)
    else:
        loss = kl_divergence_sum(probs, targets, cfg.epsilon)
    if cfg.lam > 0.0:
        loss = add(loss, scale(l2_penalty(params), cfg.lam / 2.0))
    return loss
