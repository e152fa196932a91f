"""Software emulation of Qm.n fixed-point value sets.

A quantized value is stored as an ordinary float that is an exact multiple
of the format's step 2^-n (exact in binary64 for n <= 56). Arithmetic
between quantization points runs at full precision; only storage is
approximated.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """A Qm.n format: ``int_bits`` integer bits (including the sign bit when
    signed) and ``frac_bits`` fractional bits. A format with zero total bits
    represents only the value 0."""

    signed: bool
    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError("bit counts must be nonnegative")
        if self.int_bits + self.frac_bits > 64:
            raise ValueError("total bit-length must not exceed 64")

    @property
    def total_bits(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def step(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self) -> float:
        if self.total_bits == 0:
            return 0.0
        if self.signed:
            return -(2.0 ** (self.int_bits - 1))
        return 0.0

    @property
    def max_value(self) -> float:
        if self.total_bits == 0:
            return 0.0
        if self.signed:
            return 2.0 ** (self.int_bits - 1) - self.step
        return 2.0 ** self.int_bits - self.step


def quantize_all(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Saturate each value into the format's range, then round to the
    nearest multiple of 2^-n with ties away from zero; preserves shape."""
    return quantize_grid(values, 2.0 ** fmt.frac_bits, fmt.min_value, fmt.max_value)


def quantize_grid(values, scale, lo, hi):
    """:func:`quantize_all` with scalar or per-column (last axis) bounds and a
    power-of-two ``scale``. Every zero result is +0.0, as a two's-complement
    format has one zero, and a column with lo == hi (zero bits) gives +0.0 for
    any input, NaN included. So a value already on its format's grid comes back
    with the same bytes. Writes one fresh array, never ``values``."""
    values = np.asarray(values, dtype=np.float64)
    out = np.maximum(values, lo, out=np.empty_like(values))
    np.minimum(out, hi, out=out)
    out *= scale
    # sign(x) * floor(|x| + 1/2) in place, the sign from the input: clipping
    # changes a sign only to a zero, and += 0.0 makes every zero +0.0
    np.abs(out, out=out)
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, values, out=out)
    out += 0.0
    out *= 1.0 / scale  # exact for a power of two
    # rounding can pass hi (Q8.46: hi * scale + 0.5 rounds to 2^53), never lo
    np.minimum(out, hi, out=out)
    if np.equal(lo, hi).any():
        np.copyto(out, 0.0, where=np.equal(lo, hi))
    return out
