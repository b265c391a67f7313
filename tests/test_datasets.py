"""Synthetic blob determinism and IDX parsing."""

import struct

import numpy as np
import pytest

from rankprune import datasets
from rankprune.model import Batch
from rankprune.datasets import (
    EmptyBatchError,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    SyntheticDatasetSpec,
)


class TestBlobs:
    def test_identical_spec_identical_bytes(self):
        spec = SyntheticDatasetSpec(num_classes=3, features=5, samples_per_class=10, cluster_spread=1.0, seed=9)
        a = datasets.make_blobs(spec)
        b = datasets.make_blobs(spec)
        assert a.train_x.tobytes() == b.train_x.tobytes()
        assert a.eval_x.tobytes() == b.eval_x.tobytes()
        assert np.array_equal(a.train_y, b.train_y)

    def test_different_seed_differs(self):
        s1 = SyntheticDatasetSpec(seed=1)
        s2 = SyntheticDatasetSpec(seed=2)
        assert datasets.make_blobs(s1).train_x.tobytes() != datasets.make_blobs(s2).train_x.tobytes()

    def test_shapes_and_labels(self):
        spec = SyntheticDatasetSpec(num_classes=4, features=6, samples_per_class=8, cluster_spread=0.5, seed=0)
        d = datasets.make_blobs(spec)
        assert d.train_x.shape == (32, 6)
        assert sorted(set(d.train_y.tolist())) == [0, 1, 2, 3]
        assert np.all((d.train_y >= 0) & (d.train_y < 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticDatasetSpec(cluster_spread=0.0)


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    """pixels: (n, rows, cols) uint8 array."""
    n, rows, cols = pixels.shape
    img = struct.pack(">IIII", image_magic, n, rows, cols) + pixels.tobytes()
    if truncate_images:
        img = img[:-truncate_images]
    ipath = tmp_path / "images.idx"
    ipath.write_bytes(img)
    lpath = tmp_path / "labels.idx"
    lpath.write_bytes(struct.pack(">II", label_magic, len(labels)) + bytes(labels))
    return ipath, lpath


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        # 4 images of 2x3, pixel value = 10*image + position, labels 3,1,0,2
        pixels = np.arange(4 * 2 * 3, dtype=np.uint8).reshape(4, 2, 3) + np.arange(
            4, dtype=np.uint8
        ).reshape(4, 1, 1) * 10
        ipath, lpath = write_idx_pair(tmp_path, pixels, [3, 1, 0, 2])
        batch = datasets.load_idx_images(ipath, lpath)
        assert batch.inputs.shape == (4, 1, 2, 3)
        assert batch.labels.shape == (4,)
        for i in range(4):
            np.testing.assert_allclose(batch.inputs[i, 0], pixels[i] / 255.0)
            assert batch.labels[i] == [3, 1, 0, 2][i]

    def test_scaling_to_unit_interval(self, tmp_path):
        pixels = np.full((2, 1, 1), 255, dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, pixels, [0, 1])
        batch = datasets.load_idx_images(ipath, lpath)
        assert batch.inputs[0, 0, 0, 0] == 1.0

    def test_wrong_image_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, pixels, [0], image_magic=0x802)
        with pytest.raises(IdxMagicError):
            datasets.load_idx_images(ipath, lpath)

    def test_wrong_label_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, pixels, [0], label_magic=0x803)
        with pytest.raises(IdxMagicError):
            datasets.load_idx_images(ipath, lpath)

    def test_truncated_images(self, tmp_path):
        pixels = np.zeros((2, 3, 3), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, pixels, [0, 1], truncate_images=4)
        with pytest.raises(IdxTruncatedError):
            datasets.load_idx_images(ipath, lpath)

    @pytest.mark.parametrize(
        "image_counts,label_count,file,part",
        [
            ((0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF), 1, "images.idx", "pixel data"),
            ((1000, 1000, 1000), 1, "images.idx", "pixel data"),
            ((1, 2, 2), 0xFFFFFFFF, "labels.idx", "label data"),
        ],
    )
    def test_counts_past_end_of_file_rejected(self, tmp_path, image_counts, label_count, file, part):
        ipath = tmp_path / "images.idx"
        ipath.write_bytes(struct.pack(">IIII", 0x803, *image_counts) + bytes(4))
        lpath = tmp_path / "labels.idx"
        lpath.write_bytes(struct.pack(">II", 0x801, label_count) + bytes(1))
        with pytest.raises(IdxTruncatedError) as err:
            datasets.load_idx_images(ipath, lpath)
        assert str(err.value) == f"{tmp_path / file}: truncated while reading {part}"

    @pytest.mark.parametrize(
        "file,cut,message",
        [
            ("images.idx", 3, "truncated while reading image magic"),
            ("images.idx", 10, "truncated while reading image header"),
            ("images.idx", 20, "truncated while reading pixel data"),
            ("labels.idx", 2, "truncated while reading label magic"),
            ("labels.idx", 6, "truncated while reading label header"),
            ("labels.idx", 9, "truncated while reading label data"),
        ],
    )
    def test_truncation_names_file_and_part(self, tmp_path, file, cut, message):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 3), dtype=np.uint8), [0, 1])
        path = tmp_path / file
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(IdxTruncatedError) as err:
            datasets.load_idx_images(*paths)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "magics,message",
        [
            ((0x802, 0x801), "images.idx: image magic 0x00000802 != 0x00000803"),
            ((0x803, 0x803), "labels.idx: label magic 0x00000803 != 0x00000801"),
        ],
    )
    def test_wrong_magic_names_file(self, tmp_path, magics, message):
        paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0], *magics)
        with pytest.raises(IdxMagicError) as err:
            datasets.load_idx_images(*paths)
        assert str(err.value) == f"{tmp_path}/{message}"

    def test_count_mismatch(self, tmp_path):
        pixels = np.zeros((3, 2, 2), dtype=np.uint8)
        ipath, lpath = write_idx_pair(tmp_path, pixels, [0, 1])
        with pytest.raises(IdxCountMismatchError):
            datasets.load_idx_images(ipath, lpath)

    def test_stack_batches(self, tmp_path):
        pixels = np.arange(5 * 2 * 2, dtype=np.uint8).reshape(5, 2, 2)
        ipath, lpath = write_idx_pair(tmp_path, pixels, [0, 1, 0, 1, 0])
        batch = datasets.load_idx_images(ipath, lpath)
        d = datasets.stack_batches(batch, flatten=True)
        assert d.train_x.shape == (4, 4)
        assert d.eval_x.shape == (1, 4)
        np.testing.assert_allclose(d.train_x[0], pixels[0].ravel() / 255.0)

    @pytest.mark.parametrize("flatten", [True, False])
    def test_stack_batches_rejects_empty_batch(self, flatten):
        # one image would leave the eval split empty
        for count in (0, 1):
            with pytest.raises(EmptyBatchError, match=f"^a split needs two images, .*; the batch holds {count}$"):
                datasets.stack_batches(Batch(np.zeros((count, 1, 2, 2)), np.zeros(count)), flatten=flatten)
