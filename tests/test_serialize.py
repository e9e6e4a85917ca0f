"""Deterministic float formatting and the column writer.

The bulk formatter must give fmt_float's bytes for every double: the exact
integer route inside its range, fmt_float itself outside it.
"""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ch2exact.serialize as serialize
from ch2exact.serialize import Indexed, fmt_float, fmt_floats, write_csv

_EDGE_VALUES = (
    [0.0, -0.0, sys.float_info.max, -sys.float_info.max,
     sys.float_info.min, -sys.float_info.min,
     5e-324, -5e-324, float(np.nextafter(sys.float_info.min, 0.0)), 1e-310]
    + [sign * 10.0 ** k for k in range(-300, 301, 20) for sign in (1.0, -1.0)]
    + [1.0 / 3.0, -2.5, 0.1, 123456789.0]
)


def assert_matches_fmt_float(values):
    values = [float(v) for v in values]
    assert fmt_floats(values) == [fmt_float(v) for v in values]


def test_fmt_floats_matches_fmt_float_on_edge_values():
    assert fmt_floats(_EDGE_VALUES) == [fmt_float(x) for x in _EDGE_VALUES]


def test_fmt_floats_writes_both_zeros_as_0():
    assert fmt_floats([0.0, -0.0]) == ["0", "0"]


def test_fmt_floats_flattens_in_c_order():
    grid = np.arange(6.0).reshape(2, 3) - 2.5
    assert fmt_floats(grid) == [fmt_float(x) for x in grid.ravel().tolist()]


def test_fmt_floats_empty():
    assert fmt_floats([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_fmt_floats_matches_fmt_float(values):
    assert fmt_floats(values) == [fmt_float(x) for x in values]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_fmt_floats_rejects_non_finite_like_fmt_float(bad):
    with pytest.raises(ValueError) as scalar:
        fmt_float(bad)
    with pytest.raises(ValueError) as bulk:
        fmt_floats([1.0, -0.0, bad, 2.0])
    assert str(bulk.value) == str(scalar.value)


# ----------------------------------------------------------------------
# the exact integer route, byte for byte against fmt_float
# ----------------------------------------------------------------------

_BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_BITS.filter(math.isfinite), min_size=1, max_size=64))
def test_matches_fmt_float_on_any_bit_pattern(values):
    assert_matches_fmt_float(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-11, 1e17, exclude_max=True), min_size=1, max_size=64),
       st.booleans())
def test_matches_fmt_float_inside_the_integer_range(values, negate):
    assert_matches_fmt_float([-v if negate else v for v in values])


def _ties(p):
    """Doubles j * 2**-(p + 1), j odd, in decade 16 - p: each is a tie on the
    17th digit, since |x| * 10**p = j * 5**p / 2 ends in exactly .5."""
    lo = 2 ** (p + 1) * Fraction(10) ** (16 - p)
    hi = min(2 ** (p + 1) * Fraction(10) ** (17 - p), Fraction(2 ** 53))
    first = math.ceil(lo) | 1
    return [j * 2.0 ** -(p + 1) for j in range(first, min(math.ceil(hi), first + 40), 2)]


@pytest.mark.parametrize("p", range(1, 25))
def test_ties_on_the_17th_digit_round_half_to_even(p):
    ties = _ties(p)
    for x in ties:
        assert (Fraction(x) * 10 ** p).denominator == 2
    # Half of the ties round down: rounding them up would show.
    assert {int(Fraction(x) * 10 ** p) % 2 for x in ties} == {0, 1}
    assert_matches_fmt_float(ties + [-x for x in ties])


def _neighbours(x, ulps=2):
    out = [x]
    for direction in (0.0, math.inf):
        y = x
        for _ in range(ulps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def test_powers_of_ten_and_their_neighbours():
    values = [v for k in range(-323, 309) for v in _neighbours(float(f"1e{k}"))]
    assert_matches_fmt_float(values + [-v for v in values])


def _rounds_into_next_decade(x):
    """True when x's 17-digit rounding is the power of ten just above it."""
    f = Fraction(x)
    k = math.floor(math.log10(x))
    while Fraction(10) ** k > f:
        k -= 1
    while Fraction(10) ** (k + 1) <= f:
        k += 1
    n = f * Fraction(10) ** (16 - k)
    return n - math.floor(n) >= Fraction(1, 2) and math.floor(n) == 10 ** 17 - 1


def test_values_that_round_up_into_the_next_decade():
    below = [float(np.nextafter(float(f"1e{k}"), 0.0)) for k in range(-300, 300)]
    below += [float(f"1e{k}") for k in range(-300, 300)]
    carries = [x for x in below if _rounds_into_next_decade(x)]
    assert len(carries) >= 5  # e.g. the double nearest 1e-14 lies just below it
    assert_matches_fmt_float(carries + [-x for x in carries])


def test_every_decade_from_subnormals_to_the_largest_double():
    values = [5e-324, sys.float_info.max]
    for k in range(-323, 309):
        for m in ("1", "1.2345678901234567", "3.0000000000000004", "5.5", "9.9999999999999982"):
            v = float(f"{m}e{k}")
            if v != 0.0 and math.isfinite(v):
                values.append(v)
    assert_matches_fmt_float(values + [-v for v in values])


def test_both_zeros():
    assert fmt_floats([0.0, -0.0, 0.0]) == ["0", "0", "0"]


@pytest.mark.parametrize("shift", [-1, 1])
def test_any_decade_estimate_within_one_gives_the_same_bytes(monkeypatch, shift):
    # log10 may be off by one near a power of ten on another platform.  An
    # estimate one too low sends exact powers of ten through the carry into
    # the next decade; one too high sends every cell to fmt_float.
    real = serialize._decade
    monkeypatch.setattr(serialize, "_decade", lambda ax: real(ax) + shift)
    powers = [float(f"1e{k}") for k in range(-11, 17)]
    values = [v for x in powers for v in _neighbours(x)] + [1.5, -0.25, 123.456, 7e-9]
    assert_matches_fmt_float(values + [-v for v in values])


def test_fallback_formats_each_distinct_value_once(monkeypatch):
    calls = []
    monkeypatch.setattr(serialize, "fmt_float", lambda v: calls.append(v) or fmt_float(v))
    assert fmt_floats([0.0, 1.5, -0.0, 0.0, 1e300, 1e300, 2.5]) == [
        "0", "1.5", "0", "0", "1.0000000000000001e+300", "1.0000000000000001e+300", "2.5"]
    bits = sorted(np.array(calls).view(np.uint64).tolist())
    assert bits == sorted(np.array([0.0, -0.0, 1e300]).view(np.uint64).tolist())


# ----------------------------------------------------------------------
# write_csv
# ----------------------------------------------------------------------

def test_write_csv_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["t", "x", "v", "tag"], [
        Indexed(np.array([0.0, 0.5]), np.array([0, 0, 1, 1])),
        Indexed(np.array([-1.0, 1.0]), np.array([0, 1, 0, 1])),
        np.array([[0.1, -0.0], [1e-20, 2.0]]),
        Indexed(["false", "true"], np.array([1, 0, 0, 1])),
    ])
    assert path.read_bytes() == (
        b"t,x,v,tag\n0,-1,0.10000000000000001,true\n0,1,0,false\n"
        b"0.5,-1,9.9999999999999995e-21,false\n0.5,1,2,true\n"
    )


def test_write_csv_strings_are_utf8(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, ["a", "b"], [["1é", "", "x\x00y"], ["", "ÿ€", "z"]])
    assert path.read_bytes() == "a,b\n1é,\n,ÿ€\nx\x00y,z\n".encode("utf-8")


def test_write_csv_header_only(tmp_path):
    path = tmp_path / "h.csv"
    write_csv(path, ["a", "b"], [(), ()])
    assert path.read_bytes() == b"a,b\n"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "r.csv", ["a", "b"], [np.zeros(3), ["x", "y"]])
    with pytest.raises(ValueError, match="header names"):
        write_csv(tmp_path / "r.csv", ["a"], [np.zeros(3), np.zeros(3)])
    assert not (tmp_path / "r.csv").exists()


def test_write_csv_blocks_join_seamlessly(tmp_path, monkeypatch):
    monkeypatch.setattr(serialize, "_CSV_BLOCK_ROWS", 7)
    values = np.linspace(-3.0, 5.0, 50) ** 3
    path = tmp_path / "b.csv"
    write_csv(path, ["i", "v"], [[str(i) for i in range(50)], values])
    expected = "i,v\n" + "".join(f"{i},{fmt_float(v)}\n" for i, v in enumerate(values.tolist()))
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_write_csv_non_finite_in_last_row_leaves_no_file(tmp_path, bad):
    rows = 2 * serialize._CSV_BLOCK_ROWS + 3
    values = np.linspace(0.0, 1.0, rows)
    values[-1] = bad
    path = tmp_path / "out" / "t.csv"
    with pytest.raises(ValueError) as raised:
        write_csv(path, ["ok", "bad"], [np.ones(rows), values])
    assert str(raised.value) == f"non-finite value {bad} must be handled by the caller"
    assert not path.exists()


def test_write_csv_matches_the_per_cell_text(tmp_path):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(3000) * 10.0 ** rng.integers(-15, 20, 3000)
    a[::17] = 0.0
    path = tmp_path / "r.csv"
    write_csv(path, ["a", "b"], [a, -a])
    expected = "a,b\n" + "".join(f"{fmt_float(v)},{fmt_float(-v)}\n" for v in a.tolist())
    data = path.read_bytes()
    assert hashlib.sha256(data).digest() == hashlib.sha256(expected.encode()).digest()
