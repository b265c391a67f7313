"""Datasets: seeded synthetic Gaussian blobs and the big-endian IDX format.

The synthetic generator is the desk-scale stand-in for real image data:
isotropic clusters, one per class, drawn from independent seeded streams so
identical specs always produce identical bytes.
"""

from __future__ import annotations

import math
import os
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
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        for name in ("features", "samples_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.cluster_spread > 0.0:
            raise ValueError(f"cluster_spread must be positive, got {self.cluster_spread}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def _read_exact(f, n: int, path, what: str) -> bytes:
    # n may come from the file's own header: check it against the bytes left
    # before f.read is asked for it
    data = f.read(n) if n <= os.fstat(f.fileno()).st_size - f.tell() else b""
    if len(data) != n:
        raise IdxTruncatedError(f"{path}: truncated while reading {what}")
    return data


def _read_idx(path, magic: int, what: str, ndim: int, payload: str):
    """(counts, payload bytes) of an IDX file: a magic number, ndim big-endian
    counts, then one byte per item; what and payload name the parts in errors."""
    with open(path, "rb") as f:
        (found,) = struct.unpack(">I", _read_exact(f, 4, path, f"{what} magic"))
        if found != magic:
            raise IdxMagicError(f"{path}: {what} magic 0x{found:08x} != 0x{magic:08x}")
        counts = struct.unpack(f">{ndim}I", _read_exact(f, 4 * ndim, path, f"{what} header"))
        return counts, _read_exact(f, math.prod(counts), path, payload)


def load_idx_images(images_path, labels_path) -> Batch:
    """Parse big-endian IDX image/label files into one Batch holding every image.

    Images arrive as (count, 1, rows, cols) float64 scaled to [0, 1]; labels as
    (count,) int64. Magic numbers, lengths, and image/label counts are all
    checked, each failure with its own error type; an images file with no
    images raises IdxError.
    """
    (count, rows, cols), raw = _read_idx(images_path, IMAGES_MAGIC, "image", 3, "pixel data")
    if count == 0:
        raise IdxError(f"{images_path}: holds no images")
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    images = pixels.reshape(count, 1, rows, cols)
    (label_count,), raw_labels = _read_idx(labels_path, LABELS_MAGIC, "label", 1, "label data")
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    if label_count != count:
        raise IdxCountMismatchError(f"{images_path}: {count} images but {label_count} labels")
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
