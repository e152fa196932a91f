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

    def representable_values(self) -> np.ndarray:
        """Every representable value, ascending. Only sensible for small
        formats (used by brute-force oracles)."""
        if self.total_bits > 24:
            raise ValueError("grid too large to enumerate")
        if self.total_bits == 0:
            return np.zeros(1)
        lo = self.min_value
        count = 2 ** self.total_bits
        return lo + self.step * np.arange(count)


def quantize(x: float, fmt: FixedPointFormat) -> float:
    """Scalar :func:`quantize_all`."""
    return float(quantize_all(x, fmt))


def quantize_all(values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Saturate each value into the format's range, then round to the
    nearest multiple of 2^-n with ties away from zero; preserves shape."""
    values = np.asarray(values, dtype=np.float64)
    if fmt.total_bits == 0:
        return np.zeros_like(values)
    x = np.clip(values, fmt.min_value, fmt.max_value)
    scale = 2.0 ** fmt.frac_bits
    q = np.sign(x) * np.floor(np.abs(x) * scale + 0.5) / scale
    # rounding at the range edge can step past the saturation bound
    return np.clip(q, fmt.min_value, fmt.max_value)
