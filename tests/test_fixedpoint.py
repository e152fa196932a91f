import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxdbn.fixedpoint import FixedPointFormat, quantize, quantize_all

from conftest import brute_force_quantize, representable_values, small_formats

Q8_8 = FixedPointFormat(True, 8, 8)


class TestFormat:
    def test_range_signed(self):
        assert Q8_8.min_value == -128.0
        assert Q8_8.max_value == 128.0 - 2.0 ** -8
        assert Q8_8.step == 2.0 ** -8

    def test_range_unsigned(self):
        f = FixedPointFormat(False, 0, 2)
        assert f.min_value == 0.0
        assert f.max_value == 0.75

    def test_zero_bit_format_represents_only_zero(self):
        f = FixedPointFormat(False, 0, 0)
        assert f.min_value == f.max_value == 0.0
        assert list(representable_values(f)) == [0.0]

    def test_rejects_bad_bit_counts(self):
        with pytest.raises(ValueError):
            FixedPointFormat(True, -1, 0)
        with pytest.raises(ValueError):
            FixedPointFormat(True, 32, 33)


class TestQuantize:
    def test_nearest_on_grid(self):
        assert quantize(0.3, Q8_8) == 77 / 256

    def test_zero_in_every_format(self):
        for fmt in small_formats():
            assert quantize(0.0, fmt) == 0.0

    def test_saturation(self):
        assert quantize(200.0, Q8_8) == 127.99609375
        assert quantize(-200.0, Q8_8) == -128.0

    def test_unsigned_rounding(self):
        assert quantize(0.7, FixedPointFormat(False, 0, 2)) == 0.75

    def test_zero_bit_format(self):
        assert quantize(123.456, FixedPointFormat(False, 0, 0)) == 0.0

    def test_tie_rounds_away_from_zero(self):
        f = FixedPointFormat(False, 0, 1)
        assert quantize(0.25, f) == 0.5
        s = FixedPointFormat(True, 1, 1)
        assert quantize(-0.25, s) == -0.5


class TestQuantizeAll:
    def test_symmetry(self):
        out = quantize_all(np.array([0.3, -0.3]), Q8_8)
        assert list(out) == [0.30078125, -0.30078125]

    def test_empty(self):
        assert quantize_all(np.array([]), Q8_8).shape == (0,)

    def test_saturation_and_tie(self):
        # 0.25 sits exactly between 0.0 and 0.5; away-from-zero gives 0.5
        out = quantize_all(np.array([1.0, 0.5, 0.25]), FixedPointFormat(False, 0, 1))
        expected = brute_force_quantize([1.0, 0.5, 0.25], FixedPointFormat(False, 0, 1))
        assert list(out) == list(expected) == [0.5, 0.5, 0.5]

    def test_preserves_shape(self):
        out = quantize_all(np.zeros((3, 4, 5)), Q8_8)
        assert out.shape == (3, 4, 5)


@st.composite
def formats(draw, max_total=16):
    signed = draw(st.booleans())
    m = draw(st.integers(0, max_total))
    n = draw(st.integers(0, max_total - m))
    return FixedPointFormat(signed, m, n)


class TestProperties:
    @given(formats(), st.floats(-1e6, 1e6))
    def test_idempotent(self, fmt, x):
        q = quantize(x, fmt)
        assert quantize(q, fmt) == q

    @given(formats(), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone(self, fmt, x, y):
        if x > y:
            x, y = y, x
        assert quantize(x, fmt) <= quantize(y, fmt)

    @given(formats(), st.floats(-1e6, 1e6))
    def test_bounded_error(self, fmt, x):
        clamped = min(max(x, fmt.min_value), fmt.max_value)
        assert abs(quantize(x, fmt) - clamped) <= 2.0 ** -(fmt.frac_bits + 1)

    @given(formats(max_total=12), st.floats(-1e6, 1e6))
    def test_result_on_grid(self, fmt, x):
        q = quantize(x, fmt)
        assert q == np.round(q * 2.0 ** fmt.frac_bits) / 2.0 ** fmt.frac_bits
        assert fmt.min_value <= q <= fmt.max_value

    @given(st.integers(1, 8), st.integers(0, 16), st.floats(-1e6, 1e6))
    @settings(max_examples=200)
    def test_negation_symmetry(self, m, n, x):
        fmt = FixedPointFormat(True, m, n)
        if abs(x) >= min(-fmt.min_value, fmt.max_value):
            return  # only claimed strictly inside the range
        assert quantize(-x, fmt) == -quantize(x, fmt)


def test_exhaustive_oracle_small_formats():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-80, 80, size=2000)
    for fmt in small_formats():
        got = quantize_all(xs, fmt)
        want = brute_force_quantize(xs, fmt)
        np.testing.assert_array_equal(got, want, err_msg=repr(fmt))
