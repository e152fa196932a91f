import os
import struct
from dataclasses import dataclass

import numpy as np
import pytest

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


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """BLAS on one thread for every test, as ``cli.main`` runs it. It pins BLAS
    process-wide, so without this a test run alone would get other threads than
    after a CLI test, and with them other float sums in training."""
    from approxdbn import cli
    cli._pin_blas_to_one_thread()


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


@dataclass(frozen=True)
class Format:
    """A Qm.n format, the tests' own statement of the Qm.n rule: ``int_bits``
    integer bits (the sign bit included when signed) and ``frac_bits``
    fractional bits. A format with zero total bits represents only 0."""

    signed: bool
    int_bits: int
    frac_bits: int

    @property
    def total_bits(self):
        return self.int_bits + self.frac_bits

    @property
    def step(self):
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self):
        if self.total_bits == 0 or not self.signed:
            return 0.0
        return -(2.0 ** (self.int_bits - 1))

    @property
    def max_value(self):
        if self.total_bits == 0:
            return 0.0
        return 2.0 ** (self.int_bits - 1 if self.signed else self.int_bits) - self.step

    @property
    def bounds(self):
        """``quantize_all``'s scale, lo and hi for this format."""
        return 2.0 ** self.frac_bits, self.min_value, self.max_value


def weight_format(pmap, budget):
    """The signed Qm.n of the weights, biases and pre-activations a budget of n
    bits governs under ``pmap``; a 0-bit budget is the zero-only format."""
    return Format(True, pmap.weight_int_bits if budget else 0, budget)


def activation_format(pmap, budget):
    """The unsigned Q0.n of the activations a budget governs: n is the budget
    unless ``pmap.activation_frac_bits`` fixes it; a 0-bit budget stays 0."""
    return Format(False, 0, pmap.activation_frac_bits if budget and
                  pmap.activation_frac_bits else budget)


def small_formats(max_total=6):
    """Every signed and unsigned format with total bit-length <= max_total."""
    out = []
    for signed in (True, False):
        for m in range(max_total + 1):
            for n in range(max_total + 1 - m):
                out.append(Format(signed, m, n))
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


BOUNDARY_BITS = 46  # the uniform budget of boundary_model's map


def boundary_model(layer_sizes, need, seed=0):
    """A model on a uniform 46-bit map whose layer 0 needs ``need`` bits, 53 or 54, by
    the value rule (``ddbn._needs``) on binary images: its random weights of about
    2^-12 need at most 45, and column 0 holds 128 - 2^-46 (2^53 - 1 steps of 2^-46),
    twice for 54 bits. Layer 1 needs 46 + 46 bits and more."""
    from approxdbn.ddbn import DdbnModel, PrecisionMap

    model = DdbnModel.random_init(layer_sizes, seed=seed, scale=2.0 ** -12)
    top = 128 - 2.0 ** -BOUNDARY_BITS
    model.weights[0][:, 0] = 0.0
    model.weights[0][:need - 52, 0] = top
    return model.apply_precision(PrecisionMap.uniform(layer_sizes[1:-1], BOUNDARY_BITS))
