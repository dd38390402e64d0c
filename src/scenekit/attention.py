"""Dual-stream multihead-attention pooling over feature-map axes.

Replaces global pooling: one stream pools out the height axis and
attends along width, the other pools out width and attends along
height; each stream is then pooled to [B, C] and the two are joined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .configdict import ConfigDict
from .params import ModelParams
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    matmul,
    pool_axis,
    reshape,
    scale,
    softmax_last,
    transpose,
)

POOL_MODES = ("average", "max")


@dataclass(frozen=True)
class AttentionConfig(ConfigDict):
    """Multihead attention pooling settings.

    Defaults are the full-scale values (16 heads, key dimension 128);
    CPU-scale runs typically use 4 heads and key dimension 16. The two
    streams share ``stream_pool_mode`` but have independent weights.
    """

    num_heads: int = 16
    key_dim: int = 128
    stream_pool_mode: str = "average"

    def __post_init__(self):
        if self.num_heads < 1 or self.key_dim < 1:
            raise ValueError("num_heads and key_dim must be >= 1")
        if self.stream_pool_mode not in POOL_MODES:
            raise ValueError(f"stream_pool_mode must be one of {POOL_MODES}")


STREAM_PREFIXES = ("attn.w", "attn.h")


def param_shapes(cfg: AttentionConfig, channels: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) manifest for both streams' projection parameters."""
    proj = cfg.num_heads * cfg.key_dim
    shapes = []
    for prefix in STREAM_PREFIXES:
        for kind in ("q", "k", "v"):
            shapes.append((f"{prefix}.w{kind}", (channels, proj)))
            shapes.append((f"{prefix}.b{kind}", (proj,)))
        shapes.append((f"{prefix}.wo", (proj, channels)))
        shapes.append((f"{prefix}.bo", (channels,)))
    return shapes


def _project(seq: Tensor, params: ModelParams, prefix: str, kind: str,
             heads: int, dim: int) -> Tensor:
    b, length, _ = seq.shape
    out = add(matmul(seq, params[f"{prefix}.w{kind}"]), params[f"{prefix}.b{kind}"])
    out = reshape(out, (b, length, heads, dim))
    return transpose(out, (0, 2, 1, 3))  # [B, heads, L, dim]


def multihead_attention(seq: Tensor, cfg: AttentionConfig, params: ModelParams,
                        prefix: str, return_weights: bool = False):
    """Scaled dot-product multihead self-attention over [B, L, C].

    Output shape equals input shape; no positional encoding, so the
    operation is equivariant to permutations along L.
    """
    if seq.ndim != 3:
        raise ShapeError(f"multihead_attention expects [B, L, C], got {seq.shape}")
    heads, dim = cfg.num_heads, cfg.key_dim
    q = _project(seq, params, prefix, "q", heads, dim)
    k = _project(seq, params, prefix, "k", heads, dim)
    v = _project(seq, params, prefix, "v", heads, dim)
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dim))
    weights = softmax_last(scores)  # [B, heads, L, L]
    ctx = matmul(weights, v)
    b, length, _ = seq.shape
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b, length, heads * dim))
    out = add(matmul(merged, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])
    if return_weights:
        return out, weights
    return out


def attention_pool(fmap: Tensor, cfg: AttentionConfig, params: ModelParams) -> Tensor:
    """Pool a [B, W, H, C] feature map through the two attention streams.

    Width stream: pool out H, attend along W, pool out W. Height stream:
    pool out W, attend along H, pool out H. The two [B, C] results are
    joined along the channel axis into [B, 2C].
    """
    if fmap.ndim != 4:
        raise ShapeError(f"attention_pool expects [B, W, H, C], got {fmap.shape}")
    mode = cfg.stream_pool_mode
    width_seq = pool_axis(fmap, 2, mode)   # [B, W, C]
    height_seq = pool_axis(fmap, 1, mode)  # [B, H, C]
    width_out = pool_axis(multihead_attention(width_seq, cfg, params, "attn.w"), 1, mode)
    height_out = pool_axis(multihead_attention(height_seq, cfg, params, "attn.h"), 1, mode)
    return concat([width_out, height_out], axis=1)


def global_pool(fmap: Tensor, mode: str) -> Tensor:
    """Classic global pooling baseline: reduce both spatial axes to [B, C]."""
    if fmap.ndim != 4:
        raise ShapeError(f"global_pool expects [B, W, H, C], got {fmap.shape}")
    if mode not in POOL_MODES:
        raise ValueError(f"global_pool mode must be one of {POOL_MODES}")
    return pool_axis(pool_axis(fmap, 1, mode), 1, mode)
