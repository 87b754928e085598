import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loglegram.errors import OrderLimitError
from loglegram.exactmoments import (
    diag_sum_term,
    entry,
    entry_diag,
    entry_offdiag,
    gram_exact,
    gram_float,
)

# frozen values, each checked against the independent monomial oracle
OFFDIAG_CASES = [
    (1, 0, Fraction(1, 2)),
    (2, 0, Fraction(-1, 6)),
    (2, 1, Fraction(1, 4)),
    (5, 3, Fraction(-1, 18)),
]

DIAG_CASES = [
    (0, Fraction(-1)),
    (1, Fraction(-4, 9)),
    (2, Fraction(-41, 150)),
    (3, Fraction(-289, 1470)),
]


@pytest.mark.parametrize("n,m,expected", OFFDIAG_CASES)
def test_offdiagonal_values(n, m, expected):
    assert entry_offdiag(n, m) == expected
    assert entry_offdiag(m, n) == expected


@pytest.mark.parametrize("n,expected", DIAG_CASES)
def test_diagonal_values(n, expected):
    assert entry_diag(n) == expected


def test_entry_dispatch():
    assert entry(0, 3) == Fraction(1, 12)
    assert entry(3, 0) == Fraction(1, 12)
    assert entry(1, 1) == Fraction(-4, 9)


def test_offdiag_rejects_diagonal():
    with pytest.raises(ValueError, match="entry_diag"):
        entry_offdiag(3, 3)


def test_diag_sum_terms():
    assert diag_sum_term(1) == Fraction(1, 6)
    assert diag_sum_term(2) == Fraction(1, 60)
    assert diag_sum_term(3) == Fraction(1, 210)
    with pytest.raises(ValueError):
        diag_sum_term(0)


def test_order_bounds():
    with pytest.raises(OrderLimitError):
        entry(300, 0)
    with pytest.raises(OrderLimitError):
        entry_diag(300)
    assert entry(300, 0, max_order=300) == Fraction(-1, 300 * 301)


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=64))
def test_symmetry_sign_and_magnitude(n, m):
    value = entry(n, m)
    assert value == entry(m, n)
    if n == m:
        assert value < 0
    else:
        expected_sign = 1 if (n + m) % 2 else -1
        assert (value > 0) == (expected_sign > 0)
    if (n, m) == (0, 0):
        assert value == -1
    else:
        assert abs(value) < 1


def test_gram_exact_small_matrices():
    assert gram_exact(0).entries == [[Fraction(-1)]]
    assert gram_exact(1).entries == [
        [Fraction(-1), Fraction(1, 2)],
        [Fraction(1, 2), Fraction(-4, 9)],
    ]
    assert gram_exact(2).entries[2] == [
        Fraction(-1, 6),
        Fraction(1, 4),
        Fraction(-41, 150),
    ]


def test_gram_incremental_diagonal_matches_fresh_summation():
    gram = gram_exact(32)
    for n in range(33):
        fresh = Fraction(-1) - 2 * sum(
            (diag_sum_term(j) for j in range(1, n + 1)), Fraction(0)
        )
        assert gram.entries[n][n] == entry_diag(n) == fresh / (2 * n + 1)


def test_gram_matches_single_entries():
    gram = gram_exact(12)
    assert gram.order == 12
    assert gram.mode == "exact"
    assert gram.nrows == 13
    for n in range(13):
        for m in range(13):
            assert gram.entries[n][m] == entry(n, m)
            assert gram.entries[n][m] == gram.entries[m][n]


def test_gram_float_is_correctly_rounded():
    gram = gram_float(16)
    assert gram.mode == "float"
    for n in range(17):
        for m in range(17):
            assert gram.entries[n][m] == float(entry(n, m))


def _bits(rows):
    return [[struct.pack("<d", v) for v in row] for row in rows]


@pytest.mark.parametrize("size", [*range(65), 255, 256, 362, 1024])
def test_gram_float_is_bit_identical_to_rounded_exact_gram(size):
    # the reference rounds every cell of the exact Gram with float(Fraction)
    exact = gram_exact(size, max_order=size)
    reference = [[float(v) for v in row] for row in exact.entries]
    gram = gram_float(size, max_order=size)
    assert (gram.order, gram.mode) == (size, "float")
    assert isinstance(gram.entries, np.ndarray) and gram.entries.dtype == np.float64
    assert gram.entries.shape == (size + 1, size + 1)
    assert gram.entries.flags.writeable
    assert _bits(gram.entries) == _bits(reference)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_float_rejects_size_before_allocating():
    for call in (lambda: gram_float(257), lambda: gram_float(10**6, max_order=10**5)):
        peak = _traced_peak(lambda: pytest.raises(OrderLimitError, call))
        assert peak < 2**20


def test_gram_float_memory_stays_below_a_fraction_matrix():
    # a (size+1)**2 Fraction matrix behind the floats peaks at about 81 MiB,
    # and Python float row lists on top of the array at about 40 MiB; the
    # array alone and its integer divisors peak at about 24 MiB
    peak = _traced_peak(lambda: gram_float(1024, max_order=1024))
    assert peak < 28 * 2**20


def test_gram_float_point_values():
    assert gram_float(0).entries.tolist() == [[-1.0]]
    gram = gram_float(2)
    assert gram.at(1, 0) == 0.5
    assert gram.at(2, 2) == -0.2733333333333333


def test_float_conversion_rounds_correctly():
    # independent witness for the correct rounding of exact values:
    # 50-digit decimal division, then one rounding step to binary64
    from decimal import Decimal, localcontext

    for n in range(17):
        for m in range(n + 1):
            value = entry(n, m)
            with localcontext() as ctx:
                ctx.prec = 50
                reference = float(
                    Decimal(value.numerator) / Decimal(value.denominator)
                )
            assert float(value) == reference


def test_scaled_diagonal_is_decreasing_with_known_limit():
    prev = None
    for n in range(129):
        scaled = (2 * n + 1) * entry_diag(n)
        if prev is not None:
            assert scaled < prev
        if n >= 4:
            assert abs(float(scaled) + 2 * math.log(2)) <= 1 / (4 * n * n)
        prev = scaled


def test_series_limit_confirmed_by_large_partial_sum():
    # partial sums to j = 1e6 pin the limit of the scaled diagonal
    j = np.arange(1, 10**6 + 1, dtype=np.float64)
    tail = np.sum(1.0 / ((2 * j - 1) * 2 * j * (2 * j + 1)))
    assert abs((-1.0 - 2.0 * tail) + 2 * math.log(2)) < 1e-12
