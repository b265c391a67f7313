"""Datasets: seeded synthetic Gaussian blobs and the big-endian IDX format.

The synthetic generator is the desk-scale stand-in for real image data:
isotropic clusters, one per class, drawn from independent seeded streams so
identical specs always produce identical bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .model import Batch

__all__ = [
    "SyntheticDatasetSpec",
    "Dataset",
    "make_blobs",
    "IdxError",
    "IdxMagicError",
    "IdxTruncatedError",
    "IdxCountMismatchError",
    "load_idx_images",
    "EmptyBatchError",
    "stack_batches",
]

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# make_blobs draws this many fresh eval points per training point;
# stack_batches holds out this share of the images
EVAL_FRACTION = 0.2


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    num_classes: int = 10
    features: int = 64
    samples_per_class: int = 100
    cluster_spread: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.features < 1 or self.samples_per_class < 1:
            raise ValueError("features and samples_per_class must be positive")
        if not self.cluster_spread > 0.0:
            raise ValueError(f"cluster_spread must be positive, got {self.cluster_spread}")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(np.random.SeedSequence([seed, key])))


def make_blobs(spec: SyntheticDatasetSpec) -> Dataset:
    """Isotropic Gaussian clusters; eval points drawn fresh from the same clusters."""
    centers = _stream(spec.seed, 0).normal(0.0, 1.0, (spec.num_classes, spec.features))

    def draw(key: int, per_class: int):
        rng = _stream(spec.seed, key)
        xs, ys = [], []
        for c in range(spec.num_classes):
            noise = rng.normal(0.0, spec.cluster_spread, (per_class, spec.features))
            xs.append(centers[c] + noise)
            ys.append(np.full(per_class, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

    eval_per_class = max(1, int(round(spec.samples_per_class * EVAL_FRACTION)))
    train_x, train_y = draw(1, spec.samples_per_class)
    eval_x, eval_y = draw(2, eval_per_class)
    return Dataset(train_x, train_y, eval_x, eval_y)


class IdxError(ValueError):
    """Base for IDX file problems."""


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


def _read_exact(f, n: int, path: str, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxTruncatedError(f"{path}: truncated while reading {what}")
    return data


def load_idx_images(images_path, labels_path) -> Batch:
    """Parse big-endian IDX image/label files into one Batch holding every image.

    Images arrive as (count, 1, rows, cols) float64 scaled to [0, 1]; labels as
    (count,) int64. Magic numbers, lengths, and image/label counts are all
    checked, each failure with its own error type; an images file with no
    images raises IdxError.
    """
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, str(images_path), "image magic"))
        if magic != IMAGES_MAGIC:
            raise IdxMagicError(
                f"{images_path}: image magic 0x{magic:08x} != 0x{IMAGES_MAGIC:08x}"
            )
        count, rows, cols = struct.unpack(
            ">III", _read_exact(f, 12, str(images_path), "image header")
        )
        if count == 0:
            raise IdxError(f"{images_path}: holds no images")
        raw = _read_exact(f, count * rows * cols, str(images_path), "pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    images = pixels.reshape(count, 1, rows, cols)

    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, str(labels_path), "label magic"))
        if magic != LABELS_MAGIC:
            raise IdxMagicError(
                f"{labels_path}: label magic 0x{magic:08x} != 0x{LABELS_MAGIC:08x}"
            )
        (label_count,) = struct.unpack(
            ">I", _read_exact(f, 4, str(labels_path), "label header")
        )
        raw_labels = _read_exact(f, label_count, str(labels_path), "label data")
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)

    if label_count != count:
        raise IdxCountMismatchError(
            f"{images_path}: {count} images but {label_count} labels"
        )
    return Batch(inputs=images, labels=labels)


class EmptyBatchError(ValueError):
    """A batch to split holds no images."""


def stack_batches(batch: Batch, flatten: bool = False) -> Dataset:
    """Split a batch of images into train/eval arrays (deterministic tail split)."""
    x, y = batch.inputs, batch.labels
    count = x.shape[0]
    if count == 0:
        raise EmptyBatchError("batch holds no images to split")
    if flatten:
        x = x.reshape(count, -1)
    n_eval = max(1, int(round(count * EVAL_FRACTION)))
    n_eval = min(n_eval, count - 1) if count > 1 else 0
    cut = count - n_eval
    return Dataset(x[:cut], y[:cut], x[cut:], y[cut:])
