"""Deterministic float formatting, the column writer and the JSON writer.

write_csv's float cells must be fmt_float's bytes for every double: the
exact integer route inside its range, fmt_float itself outside it.
"""

import hashlib
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ch2exact.serialize as serialize
from ch2exact.serialize import Indexed, fmt_float, to_json, write_csv

_EDGE_VALUES = (
    [0.0, -0.0, sys.float_info.max, -sys.float_info.max,
     sys.float_info.min, -sys.float_info.min,
     5e-324, -5e-324, float(np.nextafter(sys.float_info.min, 0.0)), 1e-310]
    + [sign * 10.0 ** k for k in range(-300, 301, 20) for sign in (1.0, -1.0)]
    + [1.0 / 3.0, -2.5, 0.1, 123456789.0]
)


def csv_cells(values) -> list[str]:
    """The cells of a one-column write_csv file of the float array values."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "column.csv"
        write_csv(path, ["v"], [np.asarray(values, dtype=float)])
        return path.read_text(encoding="ascii").split("\n")[1:-1]


def assert_matches_fmt_float(values):
    values = [float(v) for v in values]
    assert csv_cells(values) == [fmt_float(v) for v in values]


# The fmt_floats tests read the bulk float cells back from a one-column
# file: write_csv is the bulk formatter's one consumer.

def test_fmt_floats_matches_fmt_float_on_edge_values():
    assert csv_cells(_EDGE_VALUES) == [fmt_float(x) for x in _EDGE_VALUES]


def test_fmt_floats_writes_both_zeros_as_0():
    assert csv_cells([0.0, -0.0]) == ["0", "0"]


def test_fmt_floats_flattens_in_c_order():
    grid = np.arange(6.0).reshape(2, 3) - 2.5
    assert csv_cells(grid) == [fmt_float(x) for x in grid.ravel().tolist()]


def test_fmt_floats_empty():
    assert csv_cells([]) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
def test_fmt_floats_matches_fmt_float(values):
    assert csv_cells(values) == [fmt_float(x) for x in values]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_fmt_floats_rejects_non_finite_like_fmt_float(bad, tmp_path):
    with pytest.raises(ValueError) as scalar:
        fmt_float(bad)
    path = tmp_path / "column.csv"
    with pytest.raises(ValueError) as bulk:
        write_csv(path, ["v"], [np.array([1.0, -0.0, bad, 2.0])])
    assert str(bulk.value) == str(scalar.value)
    # Also an ArithmeticError: the CLI reports it as a numerical failure (exit 2).
    assert isinstance(bulk.value, ArithmeticError) and isinstance(scalar.value, ArithmeticError)
    assert not path.exists()


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
    assert csv_cells([0.0, -0.0, 0.0]) == ["0", "0", "0"]


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
    assert csv_cells([0.0, 1.5, -0.0, 0.0, 1e300, 1e300, 2.5]) == [
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


# Any bit pattern, or a short decimal such as 2.5 or 1e-05 (no digit after the point).
_FINITE = _BITS.filter(math.isfinite) | st.floats(allow_nan=False, allow_infinity=False)
_TEXT = st.text(st.sampled_from("\x00é€\U0001d6fc,a") | st.characters(codec="utf-8"), max_size=8)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FINITE, min_size=1, max_size=5), st.data())
def test_write_csv_matches_the_per_cell_text_in_small_blocks(tmp_path_factory, values, data):
    # Rows straddle blocks of a small prime size; a gathered float column and
    # text with NUL and non-ASCII characters sit beside arbitrary doubles.
    rows = data.draw(st.lists(st.tuples(_FINITE, st.integers(0, len(values) - 1), _TEXT),
                              max_size=40))
    floats, index, texts = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    path = tmp_path_factory.getbasetemp() / "small_blocks.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_CSV_BLOCK_ROWS", 3)
        write_csv(path, ["f", "i", "s"],
                  [np.array(floats), Indexed(np.array(values), np.array(index, dtype=int)), texts])
    expected = "f,i,s\n" + "".join(f"{fmt_float(a)},{fmt_float(values[i])},{t}\n"
                                   for a, i, t in rows)
    assert path.read_bytes() == expected.encode("utf-8")


# ----------------------------------------------------------------------
# to_json
# ----------------------------------------------------------------------

def test_to_json_nested_dicts_one_entry_per_line():
    assert to_json({"a": {"b": 1.5, "c": {}}, "d": []}) == (
        '{\n  "a": {\n    "b": 1.5,\n    "c": {}\n  },\n  "d": []\n}\n')


def test_to_json_list_of_lists_and_dict_in_a_list():
    assert to_json([[1, 2], [], [3.0]]) == "[\n  [1, 2],\n  [],\n  [3]\n]\n"
    assert to_json({"r": [{"x": 0.25}, {}]}) == (
        '{\n  "r": [\n    {\n      "x": 0.25\n    },\n    {}\n  ]\n}\n')


def test_to_json_a_list_of_scalars_stays_on_one_line():
    assert to_json({"v": (1, -0.5, None)}) == '{\n  "v": [1, -0.5, null]\n}\n'


@pytest.mark.parametrize("obj, text", [
    ({}, "{}"), ([], "[]"), ((), "[]"),
    (None, "null"), (True, "true"), (False, "false"),
    (0, "0"), (-7, "-7"), (2 ** 70, str(2 ** 70)),
    (-0.0, "0"), (0.1, "0.10000000000000001"),
    ('say "hi"', r'"say \"hi\""'), ("a\\b", r'"a\\b"'), ("one\ntwo", r'"one\ntwo"'),
    ("\r\t", r'"\r\t"'),
])
def test_to_json_scalars_and_empty_containers(obj, text):
    assert to_json(obj) == text + "\n"


@pytest.mark.parametrize("obj, key", [
    ({1: 2.0}, "1"), ({"a": {2: 1.0}}, "2"), ([{"ok": 1}, {None: 1}], "None"),
])
def test_to_json_rejects_a_key_that_is_not_a_string(obj, key):
    with pytest.raises(TypeError, match=f"^JSON keys must be strings, got {key}$"):
        to_json(obj)


def test_to_json_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        to_json({"a": [1.0, float("nan")]})


@pytest.mark.parametrize("bad, name", [({1.0}, "set"), (np.int64(3), "int64")])
def test_to_json_rejects_types_it_does_not_write(bad, name):
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        to_json({"a": bad})


# Report strings hold no control character but newline, CR and tab, the
# writer's only escapes besides the quote and the backslash.
_JSON_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs")) | st.sampled_from('\n\r\t"\\'), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | _FINITE | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20))
def test_to_json_parses_back_to_the_tree(tree):
    # Every float is written with 17 digits, and -0.0 as 0, so a round trip
    # gives the same values.
    assert json.loads(to_json(tree)) == tree
