import os
import struct

import numpy as np
import pytest

from approxdbn.fixedpoint import FixedPointFormat

MNIST_DIR = os.environ.get("APPROXDBN_MNIST_DIR", "/root/data/mnist")

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_paths():
    paths = {k: os.path.join(MNIST_DIR, v) for k, v in MNIST_FILES.items()}
    if not all(os.path.exists(p) for p in paths.values()):
        pytest.skip(
            f"MNIST IDX files not found under {MNIST_DIR} "
            "(set APPROXDBN_MNIST_DIR)")
    return paths


def write_idx_pair(images, labels, images_path, labels_path,
                   image_magic=0x00000803, label_magic=0x00000801):
    """Write a matching IDX image/label file pair for tests."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n = len(images)
    side = int(round(images.shape[1] ** 0.5)) if images.ndim == 2 else images.shape[1]
    with open(images_path, "wb") as f:
        f.write(struct.pack(">4i", image_magic, n, side, side))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">2i", label_magic, len(labels)))
        f.write(labels.tobytes())


def small_formats(max_total=6):
    """Every signed and unsigned format with total bit-length <= max_total."""
    out = []
    for signed in (True, False):
        for m in range(max_total + 1):
            for n in range(max_total + 1 - m):
                out.append(FixedPointFormat(signed, m, n))
    return out


def representable_values(fmt):
    """Every value of a small format ``fmt``, ascending."""
    if fmt.total_bits == 0:
        return np.zeros(1)
    return fmt.min_value + fmt.step * np.arange(2 ** fmt.total_bits)


def brute_force_quantize(xs, fmt):
    """Independent oracle: nearest representable value by exhaustive grid
    search, ties resolved away from zero; its one zero is +0.0."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    grid = representable_values(fmt)
    order = np.argsort(-np.abs(grid), kind="stable")
    grid = grid[order]  # descending |v|: first argmin wins ties away from 0
    idx = np.argmin(np.abs(grid[None, :] - xs[:, None]), axis=1)
    return grid[idx]
