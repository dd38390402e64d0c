"""Dataset ingestion, deterministic splits, and the PPM image codec.

A dataset is one read-only image array and one label array. A dataset
directory holds one subdirectory per class; ``scan_tree`` assigns class
indices by lexicographic class-name order and lists files in
lexicographic order, so the layout alone fixes every row. Binary PPM
(P6) is the native codec; PNG works when Pillow is importable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import ROTATION_ANGLES
from .files import write_atomic


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
    write_atomic(path, encode_ppm(img))


# --- dataset container ------------------------------------------------------

@dataclass(eq=False)
class Dataset:
    """Images [N, W, H, C] and labels [N] (label k is ``class_names[k]``), held as
    read-only views: callers share them without copies, and the caller's own
    arrays stay writeable."""

    class_names: tuple[str, ...]
    images: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64).view()
        self.labels = np.asarray(self.labels, dtype=np.int64).view()
        if self.images.ndim != 4:
            raise DatasetError(f"images must be [N, W, H, C], got {self.images.shape}")
        if self.labels.shape != self.images.shape[:1]:
            raise DatasetError(f"{self.labels.shape} labels for {len(self.images)} images")
        if np.any((self.labels < 0) | (self.labels >= self.num_classes)):
            raise DatasetError(f"labels outside range({self.num_classes})")
        self.images.flags.writeable = False
        self.labels.flags.writeable = False

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def __len__(self) -> int:
        return len(self.labels)

    def class_counts(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.num_classes).tolist()

    def class_rows(self) -> list[np.ndarray]:
        """Row indices of each class, in row order."""
        return [np.flatnonzero(self.labels == c) for c in range(self.num_classes)]

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored (images, labels) arrays themselves; both read-only."""
        return self.images, self.labels

    def expand_rotations(self) -> "Dataset":
        """Each image followed by its 90, 180 and 270 degree ``rotate`` turns."""
        _, w, h, _ = self.images.shape
        if w != h:
            raise DatasetError(f"rotation expansion needs square images, got {w}x{h}")
        turns = [self.images] + [np.rot90(self.images, angle // 90, axes=(1, 2))
                                 for angle in ROTATION_ANGLES]
        images = np.stack(turns, axis=1).reshape(-1, *self.images.shape[1:])
        return Dataset(self.class_names, images, np.repeat(self.labels, len(turns)))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


IMAGE_SUFFIXES = (".ppm", ".png")


def scan_tree(root: Path) -> list[tuple[str, list[Path]]]:
    """(class name, sorted image files) for each class directory, in name order."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"{root}: not a directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise DatasetError(f"{root}: contains no class directories")
    classes = []
    for class_dir in class_dirs:
        files = sorted(p for p in class_dir.iterdir()
                       if p.suffix.lower() in IMAGE_SUFFIXES)
        if not files:
            raise DatasetError(f"{class_dir}: class directory has no images")
        classes.append((class_dir.name, files))
    return classes


def load_dataset(root: Path) -> Dataset:
    """Ingest a class-per-directory tree with deterministic ordering."""
    classes = scan_tree(root)
    files = [f for _, class_files in classes for f in class_files]
    images = None
    for i, f in enumerate(files):
        img = read_image(f)
        if images is None:
            images = np.empty((len(files), *img.shape))
        elif img.shape != images.shape[1:]:
            raise DatasetError(
                f"{f}: image shape {img.shape} differs from dataset shape {images.shape[1:]}")
        images[i] = img
    labels = np.repeat(np.arange(len(classes)), [len(fs) for _, fs in classes])
    return Dataset(tuple(name for name, _ in classes), images, labels)


def split_indices(class_counts: list[int], fraction: float, rng: np.random.Generator,
                  min_first: int = 1) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-class (first, second) index arrays for a stratified split.

    A class of n items puts round-to-nearest(fraction * n) of them first, but
    at least ``min_first`` and at most n. Classes are consumed in index order,
    one permutation each from ``rng``; an empty class draws nothing.
    """
    if not (0.0 < fraction < 1.0 or fraction == min_first == 0):
        raise ValueError(f"fraction must be in (0, 1), or 0 with min_first 0; got {fraction}")
    memberships = []
    for n in class_counts:
        n_first = min(n, max(min_first, int(np.floor(fraction * n + 0.5))))
        perm = rng.permutation(n)
        memberships.append((np.sort(perm[:n_first]), np.sort(perm[n_first:])))
    return memberships


def split_rows(dataset: Dataset, fraction: float, rng: np.random.Generator,
               min_first: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Dataset rows of each side of ``split_indices``, class by class."""
    rows = dataset.class_rows()
    memberships = split_indices([len(r) for r in rows], fraction, rng, min_first)
    first, second = (np.concatenate([r[m[side]] for r, m in zip(rows, memberships)])
                     for side in (0, 1))
    return first, second


def split(dataset: Dataset, train_fraction: float, seed: int
          ) -> tuple[Dataset, Dataset]:
    """Stratified train/test split of a dataset; disjoint and exhaustive.

    Each class keeps at least one training image.
    """
    train, test = split_rows(dataset, train_fraction, np.random.default_rng(seed))
    return (Dataset(dataset.class_names, dataset.images[train], dataset.labels[train]),
            Dataset(dataset.class_names, dataset.images[test], dataset.labels[test]))


def write_dataset_tree(dataset: Dataset, root: Path) -> None:
    """Write the dataset as a PPM tree loadable by load_dataset."""
    root = Path(root)
    for name, rows in zip(dataset.class_names, dataset.class_rows()):
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for i, row in enumerate(rows):
            write_ppm(dataset.images[row], class_dir / f"{i:05d}.ppm")
