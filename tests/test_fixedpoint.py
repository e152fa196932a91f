import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from approxdbn import ddbn
from approxdbn.ddbn import PrecisionMap, _quantize_columns
from approxdbn.fixedpoint import quantize_all

from conftest import (Format, activation_format, brute_force_quantize,
                      representable_values, small_formats, weight_format)

Q8_8 = Format(True, 8, 8)


def quantize(values, fmt):
    """``quantize_all`` under the bounds of the oracle's format ``fmt``."""
    return quantize_all(values, *fmt.bounds)


class TestFormat:
    """``PrecisionMap.grid``, the one rule from budgets to Qm.n bounds."""

    def test_range_signed(self):
        pmap = PrecisionMap([np.array([8])], 8, 8)
        assert [float(b) for b in pmap.grid(8, False)] == [256.0, -128.0, 128.0 - 2.0 ** -8]

    def test_range_unsigned(self):
        pmap = PrecisionMap([np.array([2])], 2, 2)
        assert [float(b) for b in pmap.grid(2, True)] == [4.0, 0.0, 0.75]

    def test_zero_bit_format_represents_only_zero(self):
        pmap = PrecisionMap([np.array([0, 4])], 4, 4, activation_frac_bits=64)
        for activation in (False, True):
            assert [float(b) for b in pmap.grid(0, activation)] == [1.0, 0.0, 0.0]
        assert list(representable_values(Format(False, 0, 0))) == [0.0]

    def test_rejects_bad_bit_counts(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PrecisionMap([np.array([3])], 3, 3, weight_int_bits=-1)
        with pytest.raises(ValueError, match="must not exceed 64"):
            PrecisionMap([np.array([33])], 3, 3, weight_int_bits=32)

    def test_matches_the_oracle_formats(self):
        budgets = np.array([0, 1, 7, 30, 56])
        for wib, afb in ((8, 0), (8, 64), (0, 0), (3, 5)):
            pmap = PrecisionMap([budgets], 4, 4, weight_int_bits=wib,
                                activation_frac_bits=afb)
            for activation, fmt in ((False, weight_format), (True, activation_format)):
                want = [fmt(pmap, int(n)).bounds for n in budgets]
                got = pmap.grid(budgets, activation)
                assert [tuple(float(b[j]) for b in got) for j in range(5)] == want
                for n, bounds in zip(budgets, want):  # a scalar budget too
                    assert tuple(float(b) for b in pmap.grid(int(n), activation)) == bounds


class TestQuantize:
    def test_nearest_on_grid(self):
        assert float(quantize(0.3, Q8_8)) == 77 / 256

    def test_zero_in_every_format(self):
        for fmt in small_formats():
            assert float(quantize(0.0, fmt)) == 0.0

    def test_saturation(self):
        assert float(quantize(200.0, Q8_8)) == 127.99609375
        assert float(quantize(-200.0, Q8_8)) == -128.0

    def test_unsigned_rounding(self):
        assert float(quantize(0.7, Format(False, 0, 2))) == 0.75

    def test_zero_bit_format(self):
        assert float(quantize(123.456, Format(False, 0, 0))) == 0.0

    def test_tie_rounds_away_from_zero(self):
        f = Format(False, 0, 1)
        assert float(quantize(0.25, f)) == 0.5
        s = Format(True, 1, 1)
        assert float(quantize(-0.25, s)) == -0.5


class TestQuantizeAll:
    def test_symmetry(self):
        out = quantize(np.array([0.3, -0.3]), Q8_8)
        assert list(out) == [0.30078125, -0.30078125]

    def test_empty(self):
        assert quantize(np.array([]), Q8_8).shape == (0,)

    def test_saturation_and_tie(self):
        # 0.25 sits exactly between 0.0 and 0.5; away-from-zero gives 0.5
        out = quantize(np.array([1.0, 0.5, 0.25]), Format(False, 0, 1))
        expected = brute_force_quantize([1.0, 0.5, 0.25], Format(False, 0, 1))
        assert list(out) == list(expected) == [0.5, 0.5, 0.5]

    def test_preserves_shape(self):
        out = quantize(np.zeros((3, 4, 5)), Q8_8)
        assert out.shape == (3, 4, 5)


@st.composite
def formats(draw, max_total=16):
    signed = draw(st.booleans())
    m = draw(st.integers(0, max_total))
    n = draw(st.integers(0, max_total - m))
    return Format(signed, m, n)


class TestProperties:
    @given(formats(), st.floats(-1e6, 1e6))
    def test_idempotent(self, fmt, x):
        q = float(quantize(x, fmt))
        assert float(quantize(q, fmt)) == q

    @given(formats(), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone(self, fmt, x, y):
        if x > y:
            x, y = y, x
        assert float(quantize(x, fmt)) <= float(quantize(y, fmt))

    @given(formats(), st.floats(-1e6, 1e6))
    def test_bounded_error(self, fmt, x):
        clamped = min(max(x, fmt.min_value), fmt.max_value)
        assert abs(float(quantize(x, fmt)) - clamped) <= 2.0 ** -(fmt.frac_bits + 1)

    @given(formats(max_total=12), st.floats(-1e6, 1e6))
    def test_result_on_grid(self, fmt, x):
        q = float(quantize(x, fmt))
        assert q == np.round(q * 2.0 ** fmt.frac_bits) / 2.0 ** fmt.frac_bits
        assert fmt.min_value <= q <= fmt.max_value

    @given(st.integers(1, 8), st.integers(0, 16), st.floats(-1e6, 1e6))
    @settings(max_examples=200)
    def test_negation_symmetry(self, m, n, x):
        fmt = Format(True, m, n)
        if abs(x) >= min(-fmt.min_value, fmt.max_value):
            return  # only claimed strictly inside the range
        assert float(quantize(-x, fmt)) == -float(quantize(x, fmt))


def test_exhaustive_oracle_small_formats():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-80, 80, size=2000)
    for fmt in small_formats():
        got = quantize(xs, fmt)
        want = brute_force_quantize(xs, fmt)
        np.testing.assert_array_equal(got, want, err_msg=repr(fmt))


def _edge_values(step, lo, hi):
    """+-0.0, small negatives that round to zero, ties and both saturation
    edges of a format with this step and range."""
    return np.array([0.0, -0.0, step / 4, -step / 4, -step / 2 + step / 8, step / 2,
                     -step / 2, 1.5 * step, -1.5 * step, lo, hi, lo - step, hi + step,
                     np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                     np.nextafter(hi, -np.inf), hi + step / 2, lo - step / 2])


def test_quantize_all_bytes_match_oracle_small_formats():
    # assert_array_equal counts -0.0 == +0.0; the bytes do not, and the
    # oracle's every zero is +0.0
    rng = np.random.default_rng(11)
    for fmt in small_formats():
        xs = np.concatenate([_edge_values(fmt.step, fmt.min_value, fmt.max_value),
                             rng.uniform(-80, 80, 500),
                             rng.uniform(-fmt.step, fmt.step, 100)])
        assert quantize(xs, fmt).tobytes() == brute_force_quantize(xs, fmt).tobytes(), fmt


def test_scalar_signed_zeros():
    zero = np.float64(0.0).tobytes()
    assert np.float64(float(quantize(-0.0, Q8_8))).tobytes() == zero
    assert np.float64(float(quantize(-2.0 ** -10, Q8_8))).tobytes() == zero
    unsigned = Format(False, 0, 8)
    assert np.float64(float(quantize(-2.0 ** -10, unsigned))).tobytes() == zero
    zero_bit = Format(True, 0, 0)
    for x in (np.nan, -np.inf, -0.0, -3.0):
        assert np.float64(float(quantize(x, zero_bit))).tobytes() == zero


@pytest.mark.parametrize("activation_frac_bits", [0, 64])
@pytest.mark.parametrize("kind", ["weight", "activation"])
def test_column_quantizer_bytes_match_per_format(kind, activation_frac_bits):
    for weight_int_bits in (8, 0):  # Q0.n weights: the sign bit only, [-0.5, 0.5)
        _check_column_quantizer(kind, activation_frac_bits, weight_int_bits)


def _check_column_quantizer(kind, activation_frac_bits, weight_int_bits):
    # Q8.46 is the widest format whose rounding steps past its upper bound;
    # Q8.56's maximum, 128 - 2^-56, is 128.0 in float64 (Q0.56's is 0.5)
    budgets = np.array([0, 1, 3, 8, 46, 53, 56, 0, 2])
    pmap = PrecisionMap([budgets], 8, 8, weight_int_bits=weight_int_bits,
                        activation_frac_bits=activation_frac_bits)
    activation = kind == "activation"
    fmt = weight_format if kind == "weight" else activation_format
    formats = [fmt(pmap, int(n)) for n in budgets]
    assert formats[6].max_value == (2.0 ** (weight_int_bits - 1) if kind == "weight" else 1.0)
    rng = np.random.default_rng(5)
    edges = [_edge_values(2.0 ** -max(f.frac_bits, 1), f.min_value, f.max_value)
             for f in formats]
    x = np.concatenate([np.stack(edges, axis=1), 300 * rng.standard_normal((50, 9)),
                        rng.uniform(-2.0 ** -8, 2.0 ** -8, (50, 9))])
    x[::3, budgets == 0] = np.nan  # a pruned column gives +0.0 for any input
    got = _quantize_columns(x, budgets, pmap, activation)
    for j, f in enumerate(formats):
        assert got[:, j].tobytes() == quantize(x[:, j], f).tobytes(), f
    assert got[:, budgets == 0].tobytes() == np.zeros((len(x), 2)).tobytes()
    assert got.shape == x.shape
    for row in (0, 1, 4, 13):  # 1-D, like a bias
        assert _quantize_columns(x[row], budgets, pmap, activation).tobytes() == got[row].tobytes()
    cols = [7, 1, 4]  # a column subset, as hidden_probs(layer, v, cols) takes
    assert (_quantize_columns(x[:, cols], budgets[cols], pmap, activation).tobytes()
            == got[:, cols].tobytes())
    for j, n in enumerate(budgets):  # one budget for every element, as the class layer
        assert (_quantize_columns(x[:, j], int(n), pmap, activation).tobytes()
                == got[:, j].tobytes()), n
        assert (_quantize_columns(x, n, pmap, activation).tobytes()
                == _quantize_columns(x, np.full(9, n), pmap, activation).tobytes()), n
    if kind == "weight":  # the small formats against the exhaustive oracle
        for j in (1, 2, 8):
            assert got[:, j].tobytes() == brute_force_quantize(x[:, j], formats[j]).tobytes()


GROUP_BUDGETS = {  # one per path of _quantize_columns
    "all pruned": [0, 0, 0, 0, 0, 0],
    "one budget": [6, 6, 6, 6, 6, 6],
    "one budget and pruned": [0, 6, 6, 0, 6, 0],
    "mixed": [0, 6, 3, 0, 56, 1],
}


def _group_input(rng, budgets):
    """Rows of wide random values, with NaN, +-inf and -0.0 in the pruned columns."""
    x = 300 * rng.standard_normal((40, len(budgets)))
    pruned = np.flatnonzero(np.asarray(budgets) == 0)
    for row, value in enumerate((np.nan, np.inf, -np.inf, -0.0)):
        x[row::4, pruned] = value
    return x


@pytest.mark.parametrize("group", GROUP_BUDGETS)
@pytest.mark.parametrize("activation", [False, True])
@pytest.mark.parametrize("activation_frac_bits", [0, 64])
@pytest.mark.parametrize("weight_int_bits", [8, 0])
def test_budget_groups_give_the_per_column_bytes(group, activation, activation_frac_bits,
                                                 weight_int_bits):
    """Each budget group gives the bytes of one ``quantize_all`` call under the
    per-column bounds of ``PrecisionMap.grid``, for 2-D and 1-D inputs and for
    column subsets, whatever a pruned column holds."""
    budgets = np.array(GROUP_BUDGETS[group])
    pmap = PrecisionMap([budgets], 8, 8, weight_int_bits=weight_int_bits,
                        activation_frac_bits=activation_frac_bits)
    x = _group_input(np.random.default_rng(7), budgets)

    def check(arr, bits):
        want = quantize_all(arr, *pmap.grid(bits, activation))
        got = _quantize_columns(arr, bits, pmap, activation)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (group, bits)

    for rows in (x, x[3], x[:0]):  # 2-D, 1-D like a bias, no rows
        check(rows, budgets)
        for cols in ([5, 1, 3], [0], [2, 2, 4], []):  # as hidden_probs(layer, v, cols)
            check(rows[..., cols], budgets[cols])
        for n in np.unique(budgets):  # a scalar budget, as the class layer
            check(rows, int(n))


def test_budget_groups_quantize_once_or_not_at_all(monkeypatch):
    """No live budget does no arithmetic; one live budget, or a set
    ``activation_frac_bits`` on activations, is one call with scalar bounds; only
    mixed live budgets take per-column bounds."""
    calls = []
    monkeypatch.setattr(ddbn, "quantize_all",
                        lambda v, *b: (calls.append(np.ndim(b[0])), quantize_all(v, *b))[1])
    x = _group_input(np.random.default_rng(3), GROUP_BUDGETS["mixed"])
    for afb, activation, expect in ((0, False, [None, 0, 0, 1]), (0, True, [None, 0, 0, 1]),
                                    (64, True, [None, 0, 0, 0])):
        for group, want in zip(GROUP_BUDGETS.values(), expect):
            pmap = PrecisionMap([np.array(group)], 8, 8, activation_frac_bits=afb)
            del calls[:]
            _quantize_columns(x, pmap.hidden_frac_bits[0], pmap, activation)
            assert calls == ([] if want is None else [want]), (group, afb, activation)


@pytest.mark.parametrize("writeable", [True, False])  # the dataset's images are not
def test_quantizer_never_writes_into_its_input(writeable):
    """Every path gives a fresh, writeable array that shares no memory with its
    input: the candidate evaluator writes into its results."""
    x = np.random.default_rng(2).uniform(-200, 200, (30, 6))
    x[0] = -0.0
    x.flags.writeable = writeable
    before = x.tobytes()
    outs = [quantize(x, Q8_8), quantize_all(x, 4.0, -1.0, 1.0)]
    for budgets in GROUP_BUDGETS.values():
        pmap = PrecisionMap([np.array(budgets)], 8, 8)
        for arr in (x, x[4], x[:, 1:4]):
            outs += [_quantize_columns(arr, budgets[:arr.shape[-1]], pmap, activation)
                     for activation in (False, True)]
        outs.append(_quantize_columns(x, budgets[0], pmap))
    assert x.tobytes() == before
    assert all(out.flags.writeable and out.flags.owndata for out in outs)
    assert not any(np.shares_memory(out, x) for out in outs)


def _sign_magnitude_grid(values, scale, lo, hi):
    """``quantize_all`` as it rounded before one formula served both signs, kept
    as a reference oracle: sign(x) * floor(|x| * scale + 0.5) when some column is
    signed, else floor(x * scale + 0.5). It clears the sign of a NaN in a signed
    column, which ``quantize_all`` need not."""
    values = np.asarray(values, dtype=np.float64)
    out = np.minimum(np.maximum(values, lo), hi)
    signed = np.less(lo, 0).any()
    if signed:
        sign = np.where(np.less(out, 0), -1.0, 1.0)
        out = np.abs(out)
    out = np.floor(out * scale + 0.5)
    if signed:
        out = out * sign + 0.0
    out = np.minimum(out * (1.0 / scale), hi)
    return np.where(np.equal(lo, hi), 0.0, out)


# Q8.46's hi rounds up to 128 before the last clip; Q0.64's hi is 1.0 in float64
ROUNDING_FORMATS = [Format(True, 8, n) for n in (0, 1, 3, 8, 46, 56)] + [
    Format(True, 1, 1), Format(True, 0, 0)] + [
    Format(False, 0, n) for n in (1, 8, 64)]


def _rounding_cases(fmt, rng):
    """+-(k + 1/2) steps (ties), +-0.0, NaN, +-inf, both bounds and values just
    past them, and random values, for ``fmt``."""
    step, lo, hi = fmt.step, fmt.min_value, fmt.max_value
    ties = (np.arange(-200, 200) + 0.5) * step
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, lo, hi, -hi, hi + step / 2,
               lo - step / 2, np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf)]
    return np.concatenate([ties, -ties, special, 200 * rng.standard_normal(100),
                           rng.uniform(-4 * step, 4 * step, 100)])


def test_rounding_bytes_match_sign_magnitude_oracle():
    rng = np.random.default_rng(13)
    bounds = [f.bounds for f in ROUNDING_FORMATS]
    columns = [_rounding_cases(f, rng) for f in ROUNDING_FORMATS]
    for fmt, x, b in zip(ROUNDING_FORMATS, columns, bounds):
        assert quantize_all(x, *b).tobytes() == _sign_magnitude_grid(x, *b).tobytes(), fmt
    # every format at once, one column each, as a layer of mixed budgets
    x, per_column = np.stack(columns, axis=1), [np.array(b) for b in zip(*bounds)]
    assert (quantize_all(x, *per_column).tobytes()
            == _sign_magnitude_grid(x, *per_column).tobytes())
