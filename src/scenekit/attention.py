"""Dual-stream multihead-attention pooling over feature-map axes.

Replaces global pooling: one stream pools out the height axis and
attends along width, the other pools out width and attends along
height; each stream is then pooled to [B, C] and the two are joined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configdict import ConfigDict
from .params import ModelParams
from .tensor import NumericError, ShapeError, Tensor, concat, from_op, pool_axis

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
_PARAM_KINDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


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


def multihead_attention(seq: Tensor, cfg: AttentionConfig, params: ModelParams,
                        prefix: str, return_weights: bool = False):
    """Scaled dot-product multihead self-attention over [B, L, C], as one tape node.

    Output shape equals input shape; no positional encoding, so the
    operation is equivariant to permutations along L. The forward and its
    VJP are plain numpy: the four projections are GEMMs over the B·L rows,
    and the heads are strided views [B, heads, L, dim] of them. With
    ``return_weights`` the attention weights [B, heads, L, L] are returned
    too, as an untracked tensor. Non-finite scores raise ``NumericError``.
    """
    if seq.ndim != 3:
        raise ShapeError(f"multihead_attention expects [B, L, C], got {seq.shape}")
    b, length, channels = seq.shape
    heads, dim = cfg.num_heads, cfg.key_dim
    inputs = (seq, *(params[f"{prefix}.{kind}"] for kind in _PARAM_KINDS))
    wq, bq, wk, bk, wv, bv, wo, bo = (t.data for t in inputs[1:])
    x = seq.data.reshape(b * length, channels)
    c = 1.0 / math.sqrt(dim)

    def split_heads(m: np.ndarray) -> np.ndarray:  # [B·L, heads·dim] -> [B, heads, L, dim]
        return m.reshape(b, length, heads, dim).transpose(0, 2, 1, 3)

    def matmul_merged(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
        # m1 @ m2 over [B, heads, ·, ·], written straight into the
        # [B·L, heads·dim] layout: the same bits as a copy after the product.
        out = np.empty((b, length, heads, dim))
        np.matmul(m1, m2, out=out.transpose(0, 2, 1, 3))
        return out.reshape(b * length, heads * dim)

    def project(w: np.ndarray, bias: np.ndarray) -> np.ndarray:
        out = x @ w
        out += bias
        return split_heads(out)

    # Non-finite input ends in the NumericError below, not in a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
        weights = q @ k.swapaxes(-1, -2)
        weights *= c
    if not np.isfinite(weights).all():
        raise NumericError("multihead_attention: non-finite attention scores")
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = matmul_merged(weights, v)
    out = merged @ wo
    out += bo

    def vjp(g: np.ndarray):
        g = g.reshape(b * length, channels)
        g_ctx = split_heads(g @ wo.T)
        g_weights = g_ctx @ v.swapaxes(-1, -2)
        g_scores = g_weights - (g_weights * weights).sum(axis=-1, keepdims=True)
        g_scores *= weights
        g_scores *= c
        g_q = matmul_merged(g_scores, k)
        g_k = matmul_merged(g_scores.swapaxes(-1, -2), q)
        g_v = matmul_merged(weights.swapaxes(-1, -2), g_ctx)
        g_x = None
        if seq.tracked():
            g_x = (g_q @ wq.T + g_k @ wk.T + g_v @ wv.T).reshape(seq.shape)
        # bk adds q_i·bk to every score of row i, and softmax ignores a
        # per-row shift, so its gradient is exactly zero.
        return (g_x, x.T @ g_q, g_q.sum(axis=0), x.T @ g_k, None,
                x.T @ g_v, g_v.sum(axis=0), merged.T @ g, g.sum(axis=0))

    result = from_op("attention", inputs, out.reshape(seq.shape), vjp)
    if return_weights:
        return result, Tensor(weights)
    return result


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
