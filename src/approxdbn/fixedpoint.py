"""Software emulation of Qm.n fixed-point value sets.

A quantized value is stored as an ordinary float that is an exact multiple
of the format's step 2^-n (exact in binary64 for n <= 56). Arithmetic
between quantization points runs at full precision; only storage is
approximated. ``PrecisionMap.grid`` turns bit budgets into the bounds
this module's one routine takes.
"""

import numpy as np


def quantize_all(values, scale, lo, hi):
    """Saturate each value into [lo, hi], then round it to the nearest multiple of
    1 / ``scale``, a power of two, with ties away from zero; preserves shape. The
    bounds are scalars or per column (last axis). Every zero result is +0.0, as a
    two's-complement format has one zero, and a column with lo == hi (zero bits)
    gives +0.0 for any input, NaN included. So a value already on its format's
    grid comes back with the same bytes. Writes one fresh array, never ``values``."""
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
