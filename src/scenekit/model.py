"""Whole-model assembly: backbone, pooling stage, classifier head."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import attention as attn_mod
from . import backbone as bb_mod
from . import head as head_mod
from .attention import AttentionConfig, attention_pool, global_pool
from .backbone import BackboneConfig, ConvStage, backbone_forward
from .configdict import ConfigDict
from .head import HeadConfig, LossConfig, mlp_forward
from .params import ModelParams
from .tensor import ShapeError, Tensor

if TYPE_CHECKING:
    from .checkpoint import Checkpoint

POOL_CHOICES = ("attention", "avg", "max")

INIT_VARIANCE = 0.1  # direct-training init: Gaussian(mean 0, variance 0.1)


@dataclass(frozen=True)
class ModelConfig(ConfigDict):
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    head: HeadConfig = field(default_factory=HeadConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    pool: str = "attention"

    def __post_init__(self):
        if self.pool not in POOL_CHOICES:
            raise ValueError(f"pool must be one of {POOL_CHOICES}")

    @property
    def feature_width(self) -> int:
        c = self.backbone.feature_channels
        return 2 * c if self.pool == "attention" else c

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        shapes = bb_mod.param_shapes(self.backbone)
        if self.pool == "attention":
            shapes += attn_mod.param_shapes(self.attention, self.backbone.feature_channels)
        shapes += head_mod.param_shapes(self.head, self.feature_width)
        return shapes

    def validate_input_size(self, extent: int) -> None:
        out = self.backbone.spatial_output(extent)
        if out < 2:
            raise ShapeError(
                f"backbone reduces {extent}px input to {out}px; the pooling "
                f"stage needs spatial extents >= 2")


def desk_model_config(num_classes: int, pool: str = "attention",
                      pool_mode: str = "average", hidden_width: int = 128,
                      num_heads: int = 4, key_dim: int = 16,
                      backbone: BackboneConfig | None = None) -> ModelConfig:
    """CPU-scale configuration used by tests and the synthetic benchmarks."""
    return ModelConfig(
        backbone=backbone or BackboneConfig(),
        attention=AttentionConfig(num_heads=num_heads, key_dim=key_dim,
                                  stream_pool_mode=pool_mode),
        head=HeadConfig(hidden_width=hidden_width, num_classes=num_classes),
        pool=pool,
    )


def gradcheck_model_config(pool: str = "attention", pool_mode: str = "average") -> ModelConfig:
    """The tiny three-class model probed by full-network gradient checks."""
    return desk_model_config(
        num_classes=3, pool=pool, pool_mode=pool_mode, hidden_width=16,
        num_heads=2, key_dim=4,
        backbone=BackboneConfig(stages=(ConvStage(6, 2, 2), ConvStage(8, 2, 2))))


def init_params(cfg: ModelConfig, strategy: str,
                source: "Checkpoint | None" = None,
                rng: np.random.Generator | None = None) -> ModelParams:
    """Initialize all model parameters for the given training strategy.

    direct: every weight and bias is drawn i.i.d. Gaussian(mean 0, variance 0.1).
    transfer: backbone parameters (the conv trunk, plus the attention
    stage when the source model has a matching one) are copied bit-exact
    from ``source``; head parameters are freshly sampled as in direct.
    """
    if strategy not in ("direct", "transfer"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if rng is None:
        raise ValueError("init_params needs an rng")
    if strategy == "transfer" and source is None:
        raise ValueError("transfer strategy requires a source checkpoint")

    sigma = math.sqrt(INIT_VARIANCE)
    params = ModelParams()
    for name, shape in cfg.param_shapes():
        transferable = not name.startswith("head.")
        if strategy == "transfer" and transferable and name in source.params:
            src = source.params[name]
            if src.shape != shape:
                raise ShapeError(
                    f"checkpoint tensor {name!r} has shape {src.shape}, "
                    f"config expects {shape}")
            params.add(name, src.data.copy())
            continue
        if strategy == "transfer" and transferable and name.startswith("backbone."):
            # Attention params may legitimately be absent (source used
            # global pooling); a missing conv tensor is a config mismatch.
            raise ShapeError(f"checkpoint is missing backbone tensor {name!r}")
        params.add(name, rng.normal(0.0, sigma, size=shape))
    return params


def model_forward(images: Tensor, params: ModelParams, cfg: ModelConfig,
                  training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Full forward pass: images [B, W, H, C_in] to probabilities [B, C]."""
    fmap = backbone_forward(images, params, cfg.backbone)
    if cfg.pool == "attention":
        feats = attention_pool(fmap, cfg.attention, params)
    else:
        feats = global_pool(fmap, "average" if cfg.pool == "avg" else "max")
    return mlp_forward(feats, params, cfg.head, training=training, rng=rng)
