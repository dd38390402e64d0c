"""Convolutional feature extractor producing [B, W, H, C] feature maps.

A small stack of valid-padding, strided cross-correlations with ReLU,
sized for CPU-scale experiments. Feature maps use the axis order
(batch, width, height, channel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configdict import ConfigDict
from .params import ModelParams
from .tensor import ShapeError, Tensor, add, from_op, relu

IN_CHANNELS = 3  # RGB: every image reader yields [W, H, 3]


@dataclass(frozen=True)
class ConvStage:
    out_channels: int
    kernel: int
    stride: int


@dataclass(frozen=True)
class BackboneConfig(ConfigDict):
    """Stage list for the convolutional trunk; activations are ReLU."""

    stages: tuple[ConvStage, ...] = (
        ConvStage(16, 2, 2),
        ConvStage(32, 2, 2),
        ConvStage(32, 2, 2),
    )

    @property
    def feature_channels(self) -> int:
        return self.stages[-1].out_channels

    def spatial_output(self, extent: int) -> int:
        """Closed-form output extent for a square input of ``extent`` pixels."""
        for st in self.stages:
            if st.kernel > extent:
                raise ShapeError(
                    f"stage kernel {st.kernel} exceeds remaining extent {extent}")
            extent = (extent - st.kernel) // st.stride + 1
        return extent


def conv2d(x: Tensor, kernel: Tensor, stride: int) -> Tensor:
    """Valid-padding cross-correlation on a [B, W, H, C_in] feature map.

    ``kernel`` is [k, k, C_in, C_out]; output extents follow
    floor((in - k) / stride) + 1. Implemented as k*k strided-slice
    matmuls, which keeps both passes vectorised.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects a rank-4 feature map, got shape {x.shape}")
    if kernel.ndim != 4 or kernel.shape[0] != kernel.shape[1]:
        raise ShapeError(f"conv2d kernel must be [k, k, C_in, C_out], got {kernel.shape}")
    b, w, h, c_in = x.shape
    k = kernel.shape[0]
    if kernel.shape[2] != c_in:
        raise ShapeError(
            f"conv2d: kernel input channels {kernel.shape[2]} != feature map channels {c_in}")
    if k > w or k > h:
        raise ShapeError(f"conv2d: kernel {k} larger than input extents {(w, h)}")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    w_out = (w - k) // stride + 1
    h_out = (h - k) // stride + 1
    c_out = kernel.shape[3]

    xd, kd = x.data, kernel.data
    out = np.zeros((b, w_out, h_out, c_out))
    for i in range(k):
        for j in range(k):
            xs = xd[:, i:i + stride * w_out:stride, j:j + stride * h_out:stride, :]
            out += xs @ kd[i, j]

    def vjp(g: np.ndarray):
        gx = gk = None
        if x.tracked():
            gx = np.zeros_like(xd)
            for i in range(k):
                for j in range(k):
                    gx[:, i:i + stride * w_out:stride,
                       j:j + stride * h_out:stride, :] += g @ kd[i, j].T
        if kernel.tracked():
            gk = np.empty_like(kd)
            for i in range(k):
                for j in range(k):
                    xs = xd[:, i:i + stride * w_out:stride,
                            j:j + stride * h_out:stride, :]
                    gk[i, j] = np.tensordot(xs, g, axes=([0, 1, 2], [0, 1, 2]))
        return gx, gk

    return from_op("conv2d", (x, kernel), out, vjp)


def param_shapes(cfg: BackboneConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, shape) manifest of the trunk's parameters."""
    shapes = []
    c_in = IN_CHANNELS
    for i, st in enumerate(cfg.stages):
        shapes.append((f"backbone.s{i}.kernel", (st.kernel, st.kernel, c_in, st.out_channels)))
        shapes.append((f"backbone.s{i}.bias", (st.out_channels,)))
        c_in = st.out_channels
    return shapes


def backbone_forward(images: Tensor, params: ModelParams, cfg: BackboneConfig) -> Tensor:
    """Map [B, W, H, C_in] images to the [B, W', H', C_f] feature map."""
    if images.ndim != 4:
        raise ShapeError(f"backbone_forward expects rank-4 input, got {images.shape}")
    if images.shape[1] != images.shape[2]:
        raise ShapeError(f"backbone_forward expects square images, got {images.shape}")
    if images.shape[3] != IN_CHANNELS:
        raise ShapeError(
            f"backbone_forward: input has {images.shape[3]} channels, expected {IN_CHANNELS}")
    cfg.spatial_output(images.shape[1])  # raises early on incompatible sizes
    x = images
    for i, st in enumerate(cfg.stages):
        x = conv2d(x, params[f"backbone.s{i}.kernel"], st.stride)
        x = relu(add(x, params[f"backbone.s{i}.bias"]))
    return x
