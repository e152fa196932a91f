"""MNIST IDX loading, binarization, one-hot labels, and dataset splits."""

import os
import stat
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

IMAGE_PIXELS = 28 * 28
NUM_CLASSES = 10
BINARIZE_THRESHOLD = 0.5


class DatasetError(Exception):
    pass


def binarize(pixels):
    """Threshold pixels in [0, 1] to {0, 1}; strictly greater than 0.5
    maps to 1."""
    return (np.asarray(pixels) > BINARIZE_THRESHOLD).astype(np.float64)


@dataclass
class LabeledBinaryDataset:
    """Binarized images with class labels. ``raw`` keeps the original uint8
    pixels."""

    raw: np.ndarray     # (N, 784) uint8
    labels: np.ndarray  # (N,) uint8, values 0..9

    def __post_init__(self):
        if len(self.raw) != len(self.labels):
            raise DatasetError(
                f"{len(self.raw)} images but {len(self.labels)} labels"
            )

    def __len__(self):
        return len(self.raw)

    @cached_property
    def images(self) -> np.ndarray:
        """Binarized pixels, values in {0.0, 1.0}; computed once and
        read-only, since every caller shares the array."""
        images = binarize(self.raw / 255.0)
        images.flags.writeable = False
        return images

    @cached_property
    def one_hot(self) -> np.ndarray:
        """(N, 10) one-hot label vectors; computed once and read-only."""
        out = np.zeros((len(self.labels), NUM_CLASSES))
        out[np.arange(len(self.labels)), self.labels] = 1.0
        out.flags.writeable = False
        return out

    def subset(self, indices) -> "LabeledBinaryDataset":
        return LabeledBinaryDataset(self.raw[indices], self.labels[indices])


def _read_exact(f, nbytes, path, what):
    # a regular file's size caps the read: a huge header count allocates nothing
    st = os.fstat(f.fileno())
    data = f.read(min(nbytes, st.st_size - f.tell()) if stat.S_ISREG(st.st_mode) else nbytes)
    if len(data) != nbytes:
        raise DatasetError(
            f"{path}: expected {nbytes} bytes for {what} at offset "
            f"{f.tell() - len(data)}, got {len(data)}"
        )
    return data


def load_idx(images_path, labels_path) -> LabeledBinaryDataset:
    """Load an MNIST-style IDX image/label file pair."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">4i", _read_exact(f, 16, images_path, "image header")
        )
        if magic != IMAGE_MAGIC:
            raise DatasetError(
                f"{images_path}: magic 0x{magic:08x} at offset 0, "
                f"expected 0x{IMAGE_MAGIC:08x}"
            )
        if count < 1:
            raise DatasetError(
                f"{images_path}: header gives {count} images, expected at least 1")
        if rows < 1 or cols < 1 or rows * cols != IMAGE_PIXELS:
            raise DatasetError(
                f"{images_path}: images are {rows}x{cols} pixels, "
                f"expected {IMAGE_PIXELS}"
            )
        pixels = np.frombuffer(
            _read_exact(f, count * rows * cols, images_path, "pixel data"),
            dtype=np.uint8,
        ).reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(
            ">2i", _read_exact(f, 8, labels_path, "label header")
        )
        if magic != LABEL_MAGIC:
            raise DatasetError(
                f"{labels_path}: magic 0x{magic:08x} at offset 0, "
                f"expected 0x{LABEL_MAGIC:08x}"
            )
        if label_count < 0:
            raise DatasetError(f"{labels_path}: header gives {label_count} labels")
        labels = np.frombuffer(
            _read_exact(f, label_count, labels_path, "label data"),
            dtype=np.uint8,
        )
        if len(labels) and labels.max() >= NUM_CLASSES:
            bad = int(np.argmax(labels >= NUM_CLASSES))
            raise DatasetError(
                f"{labels_path}: label {labels[bad]} at index {bad} is "
                f"outside 0..{NUM_CLASSES - 1}"
            )

    if count != label_count:
        raise DatasetError(
            f"{images_path} has {count} images but {labels_path} has "
            f"{label_count} labels"
        )
    return LabeledBinaryDataset(pixels.copy(), labels.copy())


def split(dataset, validation_fraction, seed):
    """Deterministic disjoint (train, validation) partition."""
    if not 0 <= validation_fraction < 1:
        raise ValueError("validation_fraction must be in [0, 1)")
    n = len(dataset)
    n_val = int(n * validation_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])

