"""trajectory.csv's formatter against ``repr``, the oracle it must equal byte
for byte: shortest round-trip digits, nearest, ties to even, and repr's
two layouts, on the classes of floats where a shortest-digit algorithm
goes wrong."""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.csvfmt import csv_lines


def one_column(values) -> bytes:
    return csv_lines([np.asarray(values, dtype=np.float64)])


def by_repr(values) -> bytes:
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def with_neighbours(values) -> np.ndarray:
    """Each value, the float below it and the float above it, and the
    negatives of all three."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        near = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return np.concatenate([near, -near])


def test_powers_of_two_and_their_neighbours():
    # below a power of two the rounding interval is half as wide as above it
    x = with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert one_column(x) == by_repr(x)


def test_powers_of_ten_and_their_neighbours():
    x = with_neighbours([float(f"1e{e}") for e in range(-323, 309)])
    assert one_column(x) == by_repr(x)


def test_layout_edges():
    # repr writes 0.0001 and 1e-05, 1e+16 and 1000000000000000.0
    x = with_neighbours([1e-4, 1e-5, 1e16, 1e17, 1e15, 0.001, 1.0, 10.0])
    text = one_column(x)
    assert text == by_repr(x)
    assert text.split(b"\n")[:8] == [b"0.0001", b"1e-05", b"1e+16", b"1e+17", b"1000000000000000.0", b"0.001",
                                     b"1.0", b"10.0"]


def test_integers_near_two_to_the_53_subnormals_and_the_range_ends():
    big = np.arange(2.0**53 - 2000, 2.0**53 + 2000, 1.0)
    subnormal = np.arange(1, 3000, dtype=np.uint64).view(np.float64)
    top = np.arange(2**52 - 1000, 2**52, dtype=np.uint64).view(np.float64)  # the largest subnormals
    x = with_neighbours([*big, *subnormal, *top, sys.float_info.max, sys.float_info.min, 5e-324])
    assert one_column(x) == by_repr(x)


def test_zeros_infinities_and_nans():
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(np.float64)
    x = np.array([0.0, -0.0, math.inf, -math.inf, *nans])
    assert one_column(x) == b"0.0\n-0.0\ninf\n-inf\nnan\nnan\nnan\nnan\n" == by_repr(x)


def test_a_million_normals_from_1e_minus_300_to_1e300():
    rng = np.random.default_rng(20261021)
    x = rng.standard_normal(1_000_000) * 10.0 ** rng.uniform(-300, 300, 1_000_000)
    # in slices of 100,000, as the formatter holds about 150 bytes a cell; repr of the whole
    # list at once, as the oracle's per-float cost is most of this test's time
    for part in np.split(x, 10):
        assert b"[" + one_column(part)[:-1].replace(b"\n", b", ") + b"]" == repr(part.tolist()).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(patterns):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert one_column(x) == by_repr(x)


def test_integer_columns_and_rows():
    # integers and flags as integers, exact past 2**53, the cells of a row joined by commas
    cols = [np.array([0, 7, 10, 123456789012345, 2**53 + 1], dtype=np.int64), np.array([0.5, -2.0, 1e-7, 3.0, 1e22]),
            np.array([True, False, True, False, True]),
            np.array([-1, 0, 100, 10**17 - 1, -(10**16 + 1)], dtype=np.int64)]
    assert csv_lines(cols) == (b"0,0.5,1,-1\n7,-2.0,0,0\n10,1e-07,1,100\n"
                               b"123456789012345,3.0,0,99999999999999999\n9007199254740993,1e+22,1,-10000000000000001\n")
