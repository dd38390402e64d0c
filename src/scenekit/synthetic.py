"""Seeded synthetic texture datasets for CPU-scale experiments.

Classes are procedural textures (oriented stripes, checkerboards, blob
fields, flat patches) with per-image phase, brightness, contrast, and
pixel-noise variation. The same generator drives the training demos,
the transfer benchmark, and the split-protocol tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class TextureSpec:
    """One texture family. Families must be rotation-invariant because the
    training pipeline expands every image with its 90/180/270 rotations
    under the same label; stripe classes therefore differ by frequency,
    with orientation randomized per image, never by orientation."""

    kind: str                 # stripes | checker | blobs | plain
    frequency: float = 3.0    # stripe cycles per image
    angle_deg: float = 0.0    # stripe direction; 0 varies along width
    angle_random: bool = False  # draw a fresh direction per image
    scale: int = 4            # checker cell size in pixels
    blob_count: int = 6
    level: float = 0.5        # base gray level for plain patches


def render_texture(spec: TextureSpec, size: int, rng: np.random.Generator,
                   noise: float = 0.05, jitter: float = 0.1) -> np.ndarray:
    """One [size, size, 3] texture sample in [0, 1]."""
    x = np.arange(size, dtype=np.float64)[:, None]
    y = x.T
    if spec.kind == "stripes":
        angle = rng.uniform(0.0, 180.0) if spec.angle_random else spec.angle_deg
        theta = np.deg2rad(angle)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * spec.frequency *
                      (x * np.cos(theta) + y * np.sin(theta)) / size + phase)
        base = 0.5 + 0.4 * wave
    elif spec.kind == "checker":
        ox = rng.integers(0, spec.scale)
        oy = rng.integers(0, spec.scale)
        cells = ((x + ox) // spec.scale + (y + oy) // spec.scale) % 2
        base = 0.15 + 0.7 * cells
    elif spec.kind == "blobs":
        base = np.full((size, size), 0.35)
        for _ in range(spec.blob_count):
            cx, cy = rng.uniform(0, size, size=2)
            radius = rng.uniform(size / 10.0, size / 5.0)
            base += 0.5 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * radius ** 2))
        base = np.clip(base, 0.0, 1.0)
    elif spec.kind == "plain":
        base = np.full((size, size), spec.level)
    else:
        raise ValueError(f"unknown texture kind {spec.kind!r}")

    if jitter > 0.0:
        contrast = 1.0 + rng.uniform(-jitter, jitter)
        brightness = rng.uniform(-jitter, jitter)
        base = (base - 0.5) * contrast + 0.5 + brightness
    img = np.repeat(base[:, :, None], 3, axis=2)
    img = img + rng.uniform(-0.04, 0.04, size=(1, 1, 3))  # slight channel tint
    if noise > 0.0:
        img = img + rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def make_texture_dataset(specs: dict[str, TextureSpec], per_class: int,
                         size: int, seed: int, noise: float = 0.05,
                         jitter: float = 0.1) -> Dataset:
    """Seeded dataset with ``per_class`` samples of each texture class."""
    rng = np.random.default_rng(seed)
    names = tuple(sorted(specs))
    labels = np.repeat(np.arange(len(names)), per_class)
    images = np.empty((len(labels), size, size, 3))
    for i, label in enumerate(labels):
        images[i] = render_texture(specs[names[label]], size, rng, noise=noise, jitter=jitter)
    return Dataset(names, images, labels)


# Catalog used by the CPU-scale training demo: four well-separated,
# rotation-invariant classes.
FOUR_CLASS_SPECS = {
    "blobs": TextureSpec("blobs"),
    "checker": TextureSpec("checker", scale=3),
    "stripes_coarse": TextureSpec("stripes", frequency=1.8, angle_random=True),
    "stripes_fine": TextureSpec("stripes", frequency=5.0, angle_random=True),
}

# Transfer benchmark. Pretraining sees six clean, data-rich texture
# families, including the close stripe-frequency pair that the fine-tune
# task must discriminate; fine-tuning sees four of those families under
# heavy noise with little data. Separating the stripe pair needs tuned
# frequency filters, which is exactly what pretraining provides.
PRETRAIN_SPECS = {
    "blobs": TextureSpec("blobs"),
    "checker": TextureSpec("checker", scale=3),
    "checker_coarse": TextureSpec("checker", scale=5),
    "plain": TextureSpec("plain"),
    "stripes_a": TextureSpec("stripes", frequency=2.6, angle_random=True),
    "stripes_b": TextureSpec("stripes", frequency=3.8, angle_random=True),
}

FINETUNE_SPECS = {
    "blobs": TextureSpec("blobs"),
    "checker": TextureSpec("checker", scale=3),
    "stripes_a": TextureSpec("stripes", frequency=2.6, angle_random=True),
    "stripes_b": TextureSpec("stripes", frequency=3.8, angle_random=True),
}


def four_class_dataset(per_class: int = 24, size: int = 16, seed: int = 7,
                       noise: float = 0.05) -> Dataset:
    return make_texture_dataset(FOUR_CLASS_SPECS, per_class, size, seed, noise=noise)


def constant_class_dataset(num_classes: int, per_class: int, size: int = 4) -> Dataset:
    """Minimal dataset (one flat gray level per class) for protocol tests."""
    names = tuple(f"class{i:03d}" for i in range(num_classes))
    labels = np.repeat(np.arange(num_classes), per_class)
    levels = (labels + 1) / (num_classes + 1)
    return Dataset(names, np.ones((len(labels), size, size, 3)) * levels[:, None, None, None],
                   labels)
