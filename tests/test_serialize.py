"""Deterministic float formatting: the bulk formatter against the scalar one."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ch2exact.serialize import fmt_float, fmt_floats

_EDGE_VALUES = (
    [0.0, -0.0, sys.float_info.max, -sys.float_info.max,
     sys.float_info.min, -sys.float_info.min,
     5e-324, -5e-324, float(np.nextafter(sys.float_info.min, 0.0)), 1e-310]
    + [sign * 10.0 ** k for k in range(-300, 301, 20) for sign in (1.0, -1.0)]
    + [1.0 / 3.0, -2.5, 0.1, 123456789.0]
)


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
