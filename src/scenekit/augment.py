"""Data augmentation: rotation, random crop, random erase, mixup.

Images are float64 arrays of shape [W, H, C] with values in [0, 1],
axis order (width, height, channel); batches stack a leading axis.
Rotation expansion runs once, off-line, over the whole dataset
(``Dataset.expand_rotations``, with the turns of ``rotate``); the other
three run on-line on each training batch with fresh randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROTATION_ANGLES = (90, 180, 270)
# Mix-ratio sources, one draw of each per pair: Uniform(0, 1), and the
# mixup literature's usual Beta(0.2, 0.2).
MIXUP_UNIFORM = (0.0, 1.0)
MIXUP_BETA = (0.2, 0.2)


@dataclass
class LabeledBatch:
    """Image stack [B, W, H, C] plus per-example label distributions [B, K]."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"batch images must be [B, W, H, C], got {self.images.shape}")
        if self.labels.ndim != 2 or self.labels.shape[0] != self.images.shape[0]:
            raise ValueError(
                f"labels {self.labels.shape} do not match batch of {self.images.shape[0]}")

    @property
    def size(self) -> int:
        return self.images.shape[0]


def rotate(img: np.ndarray, angle: int) -> np.ndarray:
    """Rotate one [W, H, C] image clockwise by 90, 180 or 270 degrees."""
    if angle not in ROTATION_ANGLES:
        raise ValueError(f"rotation angle must be one of {ROTATION_ANGLES}, got {angle}")
    out = img
    for _ in range(angle // 90):
        # Clockwise quarter turn: out[H-1-y, x] = in[x, y] in (x, y) indexing.
        out = np.ascontiguousarray(out.transpose(1, 0, 2)[::-1])
    return out


def random_crop(batch: np.ndarray, reduction: int, rng: np.random.Generator) -> np.ndarray:
    """Crop every image to (W - r) x (H - r) at an independent random offset.

    Offsets are drawn uniformly over [0, r], both ends inclusive.
    """
    if batch.ndim != 4:
        raise ValueError(f"random_crop expects [B, W, H, C], got {batch.shape}")
    b, w, h, c = batch.shape
    if reduction < 0 or reduction >= min(w, h):
        raise ValueError(f"crop reduction {reduction} invalid for {w}x{h} images")
    if reduction == 0:
        return batch.copy()
    out = np.empty((b, w - reduction, h - reduction, c))
    xs = rng.integers(0, reduction + 1, size=b)
    ys = rng.integers(0, reduction + 1, size=b)
    for i in range(b):
        out[i] = batch[i, xs[i]:xs[i] + w - reduction, ys[i]:ys[i] + h - reduction, :]
    return out


def center_crop(batch: np.ndarray, reduction: int) -> np.ndarray:
    """Deterministic centered counterpart of random_crop, for evaluation."""
    if reduction == 0:
        return batch
    b, w, h, c = batch.shape
    if reduction < 0 or reduction >= min(w, h):
        raise ValueError(f"crop reduction {reduction} invalid for {w}x{h} images")
    x = reduction // 2
    y = reduction // 2
    return batch[:, x:x + w - reduction, y:y + h - reduction, :]


def random_erase(img: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Set one contiguous size x size block to 0 across all channels."""
    if img.ndim != 3:
        raise ValueError(f"random_erase expects [W, H, C], got {img.shape}")
    w, h, _ = img.shape
    if size < 0 or size > min(w, h):
        raise ValueError(f"erase size {size} invalid for {w}x{h} image")
    out = img.copy()
    if size == 0:
        return out
    x = int(rng.integers(0, w - size + 1))
    y = int(rng.integers(0, h - size + 1))
    out[x:x + size, y:y + size, :] = 0.0
    return out


def erase_batch(batch: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Apply random_erase to every image in the batch independently."""
    return np.stack([random_erase(batch[i], size, rng)
                     for i in range(batch.shape[0])])


def _mix_group(batch: LabeledBatch, lam: np.ndarray,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # Partner selection: a uniform random permutation; fixed points allowed.
    perm = rng.permutation(batch.size)
    lam_img = lam[:, None, None, None]
    images = lam_img * batch.images + (1.0 - lam_img) * batch.images[perm]
    labels = lam[:, None] * batch.labels + (1.0 - lam[:, None]) * batch.labels[perm]
    return images, labels


def mixup_expand(batch: LabeledBatch, rng: np.random.Generator) -> LabeledBatch:
    """Triple the batch: originals, uniform-ratio mixes, Beta-ratio mixes.

    Each mixed example is lam * x_i + (1 - lam) * x_p(i) for a random
    permutation p, with the labels mixed by the same ratio. A 32-image
    batch therefore becomes 96 images.
    """
    if batch.size < 2:
        raise ValueError("mixup needs a batch of at least 2 images")
    sums = batch.labels.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("mixup labels must be distributions summing to 1")
    lam_uniform = rng.uniform(*MIXUP_UNIFORM, size=batch.size)
    uniform_images, uniform_labels = _mix_group(batch, lam_uniform, rng)
    lam_beta = rng.beta(*MIXUP_BETA, size=batch.size)
    beta_images, beta_labels = _mix_group(batch, lam_beta, rng)
    images = np.concatenate([batch.images, uniform_images, beta_images], axis=0)
    labels = np.concatenate([batch.labels, uniform_labels, beta_labels], axis=0)
    return LabeledBatch(images, labels)
