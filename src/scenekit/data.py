"""Dataset ingestion, deterministic splits, and the PPM image codec.

A dataset directory holds one subdirectory per class; class indices are
assigned by lexicographic class-name order, and files are read in
lexicographic order, so the layout alone fixes every index. Binary PPM
(P6) is the native codec; PNG works when Pillow is importable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import ROTATION_ANGLES, rotate


class DatasetError(RuntimeError):
    """Problems ingesting a dataset tree: empty class, bad file, bad size."""


# --- PPM codec --------------------------------------------------------------

def decode_ppm(data: bytes, source: str = "<bytes>") -> np.ndarray:
    """Decode binary PPM (P6) into a float64 [W, H, 3] array in [0, 1]."""
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DatasetError(f"{source}: truncated PPM header")
        return data[start:pos]

    if next_token() != b"P6":
        raise DatasetError(f"{source}: not a binary PPM (P6) file")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise DatasetError(f"{source}: malformed PPM header") from exc
    if width < 1 or height < 1:
        raise DatasetError(f"{source}: invalid PPM dimensions {width}x{height}")
    if not 0 < maxval < 256:
        raise DatasetError(f"{source}: unsupported PPM maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    expected = width * height * 3
    raster = data[pos:pos + expected]
    if len(raster) != expected:
        raise DatasetError(f"{source}: PPM payload truncated "
                           f"({len(raster)} of {expected} bytes)")
    arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3)
    return arr.transpose(1, 0, 2).astype(np.float64) / float(maxval)


def encode_ppm(img: np.ndarray) -> bytes:
    """Encode a float64 [W, H, 3] array in [0, 1] as binary PPM (P6)."""
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"encode_ppm expects [W, H, 3], got {img.shape}")
    w, h, _ = img.shape
    raster = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (w, h) + raster.transpose(1, 0, 2).tobytes()


def read_image(path: Path) -> np.ndarray:
    """Read a PPM or (optionally) PNG file into [W, H, 3] floats in [0, 1]."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        return decode_ppm(path.read_bytes(), source=str(path))
    if suffix == ".png":
        try:
            from PIL import Image  # optional dependency
        except ImportError as exc:
            raise DatasetError(
                f"{path}: PNG support needs Pillow (install scenekit[png])") from exc
        with Image.open(path) as im:
            arr = np.asarray(im.convert("RGB"), dtype=np.float64) / 255.0
        return arr.transpose(1, 0, 2)
    raise DatasetError(f"{path}: unsupported image format {suffix!r}")


def write_ppm(img: np.ndarray, path: Path) -> None:
    Path(path).write_bytes(encode_ppm(img))


# --- dataset container ------------------------------------------------------

@dataclass
class Dataset:
    """Class names plus per-class image lists; indices follow name order."""

    class_names: tuple[str, ...]
    images_by_class: list[list[np.ndarray]] = field(repr=False)

    def __post_init__(self):
        if len(self.class_names) != len(self.images_by_class):
            raise DatasetError("class name and image list counts differ")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return sum(len(lst) for lst in self.images_by_class)

    def class_counts(self) -> list[int]:
        return [len(lst) for lst in self.images_by_class]

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack into ([N, W, H, C] images, [N] integer labels)."""
        images, labels = [], []
        for idx, lst in enumerate(self.images_by_class):
            images.extend(lst)
            labels.extend([idx] * len(lst))
        return np.stack(images), np.array(labels, dtype=np.int64)

    def expand_rotations(self) -> "Dataset":
        """Off-line rotation expansion: every class count exactly quadruples."""
        expanded = []
        for lst in self.images_by_class:
            out: list[np.ndarray] = []
            for img in lst:
                out.append(img)
                out.extend(rotate(img, angle) for angle in ROTATION_ANGLES)
            expanded.append(out)
        return Dataset(self.class_names, expanded)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


IMAGE_SUFFIXES = (".ppm", ".png")


def load_dataset(root: Path) -> Dataset:
    """Ingest a class-per-directory tree with deterministic ordering."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"{root}: not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise DatasetError(f"{root}: contains no class directories")
    images_by_class = []
    shape: tuple[int, ...] | None = None
    for class_dir in class_dirs:
        files = sorted(p for p in class_dir.iterdir()
                       if p.suffix.lower() in IMAGE_SUFFIXES)
        if not files:
            raise DatasetError(f"{class_dir}: class directory has no images")
        imgs = []
        for f in files:
            img = read_image(f)
            if shape is None:
                shape = img.shape
            elif img.shape != shape:
                raise DatasetError(
                    f"{f}: image shape {img.shape} differs from dataset shape {shape}")
            imgs.append(img)
        images_by_class.append(imgs)
    return Dataset(tuple(d.name for d in class_dirs), images_by_class)


def split_indices(class_counts: list[int], train_fraction: float, seed: int
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-class (train, test) index arrays for a stratified split.

    Per-class train count is round-to-nearest with a floor of 1.
    Membership is a pure function of (class_counts, seed); classes are
    consumed in index order from one seeded generator.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    memberships = []
    for n in class_counts:
        n_train = min(n, max(1, int(np.floor(train_fraction * n + 0.5))))
        perm = rng.permutation(n)
        memberships.append((np.sort(perm[:n_train]), np.sort(perm[n_train:])))
    return memberships


def split(dataset: Dataset, train_fraction: float, seed: int
          ) -> tuple[Dataset, Dataset]:
    """Stratified train/test split of a dataset; disjoint and exhaustive."""
    memberships = split_indices(dataset.class_counts(), train_fraction, seed)
    train_lists, test_lists = [], []
    for lst, (train_idx, test_idx) in zip(dataset.images_by_class, memberships):
        train_lists.append([lst[i] for i in train_idx])
        test_lists.append([lst[i] for i in test_idx])
    return (Dataset(dataset.class_names, train_lists),
            Dataset(dataset.class_names, test_lists))


def write_dataset_tree(dataset: Dataset, root: Path) -> None:
    """Write the dataset as a PPM tree loadable by load_dataset."""
    root = Path(root)
    for name, lst in zip(dataset.class_names, dataset.images_by_class):
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(lst):
            write_ppm(img, class_dir / f"{i:05d}.ppm")
