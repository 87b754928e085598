import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loglegram import OrderLimitError, exactmoments
from loglegram.analysis import diag_scaling_table
from loglegram.exactmoments import (
    _Store,
    entry,
    gram_exact,
    gram_float,
)
from loglegram.legendre import MAX_ORDER

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
    assert entry(n, m) == expected
    assert entry(m, n) == expected


@pytest.mark.parametrize("n,expected", DIAG_CASES)
def test_diagonal_values(n, expected):
    assert entry(n, n) == expected


def test_entry_dispatch():
    assert entry(0, 3) == Fraction(1, 12)
    assert entry(3, 0) == Fraction(1, 12)
    assert entry(1, 1) == Fraction(-4, 9)


def test_order_bounds():
    with pytest.raises(OrderLimitError):
        entry(300, 0)
    with pytest.raises(OrderLimitError):
        entry(300, 300)
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
            (Fraction(1, (2 * j - 1) * 2 * j * (2 * j + 1)) for j in range(1, n + 1)),
            Fraction(0),
        )
        assert gram.entries[n][n] == entry(n, n) == fresh / (2 * n + 1)


def test_gram_matches_single_entries():
    gram = gram_exact(12)
    assert gram.order == 12
    assert gram.mode == "exact"
    assert len(gram.entries) == 13
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


@pytest.mark.parametrize("size", [*range(65), 255, 256, 362, 1024])
def test_gram_float_is_bit_identical_to_rounded_exact_gram(size, float_reference):
    gram = gram_float(size, max_order=size)
    assert (gram.order, gram.mode) == (size, "float")
    assert isinstance(gram.entries, np.ndarray) and gram.entries.dtype == np.float64
    assert gram.entries.shape == (size + 1, size + 1)
    assert gram.entries.flags.writeable
    assert _same_bits(gram.entries, float_reference[: size + 1, : size + 1])


def test_gram_float_past_the_reference_order_matches_single_entries():
    # float_reference stops at 1024; past it, rows, columns, diagonal and
    # seeded cells are checked one by one against the rounded exact entry
    size = 2048
    gram = gram_float(size, max_order=size)
    entries = gram.entries
    assert (gram.order, entries.shape, entries.dtype) == (size, (size + 1, size + 1), np.float64)
    assert entries.flags.writeable and entries.flags.owndata
    assert np.array_equal(entries, entries.T)
    rng = random.Random(2048)
    edges = [(0, m) for m in range(size + 1)] + [(n, 0) for n in range(1, size + 1)]
    edges += [(size, m) for m in range(1, size + 1)]
    diagonal = [(n, n) for n in rng.sample(range(size + 1), 20)]
    seeded = [(rng.randrange(size + 1), rng.randrange(size + 1)) for _ in range(1000)]
    cells = edges + diagonal + seeded
    rows, cols = np.transpose(cells)
    expected = np.array([float(entry(n, m, max_order=size)) for n, m in cells])
    assert _same_bits(entries[rows, cols], expected)
    entries[:] = 0.0  # the array is the caller's: a second build is whole
    again = gram_float(size, max_order=size).entries
    assert not np.shares_memory(again, entries)
    assert _same_bits(again[rows, cols], expected)


def test_builders_are_exactly_symmetric():
    # the CLI formats the lower triangle only and mirrors it, so both
    # builders must give N[n, m] and N[m, n] as the very same value
    for size in [*range(301), 1024]:
        entries = gram_float(size, max_order=size).entries
        assert np.array_equal(entries, entries.T), size
    for size in range(65):
        rows = gram_exact(size).entries
        assert all(rows[n][m] == rows[m][n] for n in range(size + 1) for m in range(n)), size


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
    # one float64 array, built in place, peaks at about 8.1 MiB
    peak = _traced_peak(lambda: gram_float(1024, max_order=1024))
    assert peak < 12 * 2**20


def test_gram_float_point_values():
    assert gram_float(0).entries.tolist() == [[-1.0]]
    gram = gram_float(2)
    assert gram.entries[1][0] == 0.5
    assert gram.entries[2][2] == -0.2733333333333333


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
        scaled = (2 * n + 1) * entry(n, n)
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


def test_harmonic_and_partial_fraction_forms_hold_exactly():
    # (2n+1) N[n, n] = -2 (H_2n - H_n) - 1/(2n+1) and, for n != m,
    # (2n+1) N[n, m] = -(-1)**(n+m) (1/|n-m| + sgn(n-m)/(n+m+1))
    harmonic = [Fraction(0)]
    for k in range(1, 2 * MAX_ORDER + 1):
        harmonic.append(harmonic[-1] + Fraction(1, k))
    for n in range(MAX_ORDER + 1):
        expected = -2 * (harmonic[2 * n] - harmonic[n]) - Fraction(1, 2 * n + 1)
        assert (2 * n + 1) * entry(n, n) == expected, n
    for n in range(65):
        for m in range(65):
            if n != m:
                sign = 1 if n > m else -1
                expected = -(-1) ** (n + m) * (Fraction(1, abs(n - m)) + Fraction(sign, n + m + 1))
                assert (2 * n + 1) * entry(n, m) == expected, (n, m)


def _fresh_sums(n_max):
    running, out = Fraction(-1), [Fraction(-1)]
    for j in range(1, n_max + 1):
        running -= 2 * Fraction(1, (2 * j - 1) * 2 * j * (2 * j + 1))
        out.append(running)
    return out


def test_diagonal_by_binary_splitting_is_the_running_sum():
    # entry sums H_2n - H_n by splitting at every order, from no store
    fresh = _fresh_sums(3000)
    for n in range(MAX_ORDER + 1):
        assert entry(n, n) == fresh[n] / (2 * n + 1), n
    for n in (257, 300, 511, 1024, 3000):
        assert entry(n, n, max_order=n) == fresh[n] / (2 * n + 1), n


@pytest.mark.parametrize("lo", [0, 1, 256, 257, 1000])
def test_scaled_diagonal_from_any_start_is_the_running_sum(lo):
    # a store grows from its length: the first value is the harmonic form
    # at lo, each later one a running-sum step from it
    fresh = _fresh_sums(lo + 40)
    for hi in (lo, lo + 1, lo + 40):
        assert list(exactmoments._scaled_diagonal(lo, hi)) == fresh[lo : hi + 1], hi


@pytest.fixture(scope="module")
def reference():
    # per-cell closed forms, the diagonal pinned to a fresh summation
    rows = [[entry(n, m) for m in range(MAX_ORDER + 1)] for n in range(MAX_ORDER + 1)]
    fresh = _fresh_sums(MAX_ORDER)
    assert all(rows[n][n] == fresh[n] / (2 * n + 1) for n in range(MAX_ORDER + 1))
    return rows


@pytest.fixture
def empty_store(monkeypatch):
    # the module's stores as a fresh process starts with them
    monkeypatch.setattr(exactmoments._rows, "table", [])
    monkeypatch.setattr(exactmoments._float_diagonal, "table", np.empty((0, 2)))
    monkeypatch.setattr(exactmoments._float_gram, "table", np.empty((0, 0)))


@pytest.fixture(scope="module")
def float_reference():
    # every cell of the exact Gram of order 1024 rounded by float(Fraction)
    exact = gram_exact(1024, max_order=1024).entries
    return np.array([[float(v) for v in row] for row in exact])


def _same_bits(values, reference):
    return values.shape == reference.shape and np.array_equal(
        values.view(np.int64), reference.view(np.int64)
    )


def _block(rows, size):
    return [row[: size + 1] for row in rows[: size + 1]]


def test_gram_exact_over_shuffled_sizes_matches_single_entries(reference, empty_store):
    sizes = [0, 1, 2, 255, 256, 256, 0, 2, 17, 100, 64, 255, 1, 128, 33, 200]
    random.Random(16).shuffle(sizes)
    for size in sizes:
        gram = gram_exact(size)
        assert (gram.order, len(gram.entries)) == (size, size + 1)
        assert gram.entries == _block(reference, size), size
        assert all(type(v) is Fraction for row in gram.entries for v in row)


def test_mutating_a_gram_leaves_later_grams_unchanged(reference, empty_store):
    # each first build at a new largest order returns rows as long as the table's
    for size in (20, 5, 40):
        gram = gram_exact(size)
        gram.entries[0][0] *= 2
        gram.entries[1][0] += Fraction(1, 1000)
        gram.entries[size].append(Fraction(7))
        gram.entries[2][:] = []
        gram.entries.append([Fraction(0)])
        for again in (5, size):
            assert gram_exact(again).entries == _block(reference, again), (size, again)


def test_gram_past_max_order_is_not_retained(reference):
    gram_exact(MAX_ORDER)  # the table at its cap
    stored = exactmoments._rows.table
    tracemalloc.start()
    try:
        gram_exact(300, max_order=300)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**16  # the 301-row result and its throwaway table hold about 1.7 MiB
    gram = gram_exact(300, max_order=300)
    assert gram.entries[: MAX_ORDER + 1] == [
        row + [entry(n, m, max_order=300) for m in range(MAX_ORDER + 1, 301)]
        for n, row in enumerate(reference)
    ]
    fresh = _fresh_sums(300)
    assert list(exactmoments._scaled_diagonal(0, 300)) == fresh
    diagonal = [gram.entries[n][n] for n in range(301)]
    assert diagonal == [s / (2 * n + 1) for n, s in enumerate(fresh)]
    assert all(gram.entries[n][m] == gram.entries[m][n] for n in range(301) for m in range(n))
    assert exactmoments._rows.table is stored and len(stored) == MAX_ORDER + 1


@pytest.fixture
def in_four_threads():
    """``_in_four_threads``, for the concurrent store tests."""
    return _in_four_threads


def _in_four_threads(build):
    """[(size, entries), ...] from build(i, k) for k < 8 in threads i < 4."""
    start = threading.Barrier(4)
    results = [[] for _ in range(4)]

    def run(i):
        start.wait()
        results[i].extend(build(i, k) for k in range(8))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(len(r) for r in results) == 32
    return [pair for r in results for pair in r]


def test_concurrent_builds_see_whole_tables(reference, empty_store, in_four_threads):
    def build(i, k):
        size = (37 * i + 53 * k) % (MAX_ORDER + 1)
        return size, gram_exact(size).entries

    for size, entries in in_four_threads(build):
        assert entries == _block(reference, size), size


def test_concurrent_diagonal_reads_see_whole_sums(empty_store, in_four_threads):
    # the float diagonal store grown by diag_scaling_table, not inside a Gram build
    fresh = _fresh_sums(MAX_ORDER)

    def build(i, k):
        size = (37 * i + 53 * k) % (MAX_ORDER + 1)
        return size, (entry(size, size), diag_scaling_table(size))

    for size, (diagonal, table) in in_four_threads(build):
        assert diagonal == fresh[size] / (2 * size + 1), size
        assert table == [(n, float(s)) for n, s in enumerate(fresh[: size + 1])], size


def test_concurrent_float_builds_see_whole_diagonals(float_reference, empty_store, in_four_threads):
    def build(i, k):
        size = (149 * i + 211 * k) % 1025
        return size, gram_float(size, max_order=1024).entries

    for size, entries in in_four_threads(build):
        assert _same_bits(entries, float_reference[: size + 1, : size + 1]), size


def test_gram_float_over_sizes_out_of_order_matches_rounded_exact(float_reference, empty_store):
    # growing from nothing, across MAX_ORDER, and past it from a store above it
    for size in [5, 300, 0, 362, 256, 17, 1024, 300, 257, 2, 512, 1, 255, 1000]:
        gram = gram_float(size, max_order=size)
        assert _same_bits(gram.entries, float_reference[: size + 1, : size + 1]), size
        assert gram.entries.flags.writeable and gram.entries.flags.owndata


def test_float_diagonal_grown_past_max_order_in_steps(float_reference, empty_store):
    # each growth of the float diagonal starts where the last one stopped
    for size in (300, 700, 1024):
        gram = gram_float(size, max_order=size)
        assert _same_bits(gram.entries, float_reference[: size + 1, : size + 1]), size
        assert exactmoments._float_diagonal.table.shape == (size + 1, 2)
    fresh = [float(s) for s in _fresh_sums(MAX_ORDER)]
    assert diag_scaling_table(MAX_ORDER) == list(enumerate(fresh))


def test_float_diagonal_store_is_read_only_and_not_shared(empty_store):
    expected = [float(entry(n, n)) for n in range(41)]
    rounded = np.array([[float(entry(n, m)) for m in range(41)] for n in range(41)])
    for size in (20, 5, 40):
        gram = gram_float(size)
        for store in (exactmoments._float_diagonal.table, exactmoments._float_gram.table):
            assert not store.flags.writeable
            assert not np.shares_memory(gram.entries, store)
            with pytest.raises(ValueError):
                store[0] = 0.0
        np.fill_diagonal(gram.entries, 7.0)
        for again in (5, size):
            diagonal = np.diag(gram_float(again).entries).tolist()
            assert diagonal == expected[: again + 1], (size, again)
        gram.entries[:] = -7.0  # every cell, off the diagonal too
        for again in (0, 5, size):
            block = rounded[: again + 1, : again + 1]
            assert _same_bits(gram_float(again).entries, block), (size, again)


def test_float_diagonal_past_max_order_retains_only_its_floats(empty_store):
    gram_exact(MAX_ORDER)  # the exact rows at their cap
    gram_float(MAX_ORDER)  # and the float Gram store
    stored = exactmoments._float_gram.table
    tracemalloc.start()
    try:
        gram_float(1024, max_order=1024)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 1025 rows of two doubles, 16,400 bytes, and 8 KiB of slack
    assert retained < exactmoments._float_diagonal.table.nbytes + 8 * 2**10
    assert exactmoments._float_diagonal.table.shape == (1025, 2)
    assert len(exactmoments._rows.table) == MAX_ORDER + 1
    assert exactmoments._float_gram.table is stored and len(stored) == MAX_ORDER + 1


def test_float_gram_store_at_its_cap_retains_about_516_kib(empty_store):
    tracemalloc.start()
    try:
        for size in (10, 3, 100, MAX_ORDER, 40):
            gram_float(size)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # each growth replaces the store: 257**2 doubles are 528,392 bytes, the
    # float diagonal store adds 257 rows of two, and no older store is kept
    assert exactmoments._float_gram.table.shape == (MAX_ORDER + 1, MAX_ORDER + 1)
    assert 8 * (MAX_ORDER + 1) ** 2 <= retained < 528 * 2**10


@pytest.mark.parametrize("first", [None, 1024])
def test_diag_scaling_table_is_the_rounded_running_sum(first, empty_store):
    # from an empty store grown by the table itself, and from a float
    # diagonal grown past MAX_ORDER by a Gram; the values are finite and
    # nonzero, so == compares the bits
    if first is not None:
        gram_float(first, max_order=first)
    fresh = [float(s) for s in _fresh_sums(MAX_ORDER)]
    for k in range(MAX_ORDER + 1):
        table = diag_scaling_table(k)
        assert table == list(enumerate(fresh[: k + 1])), k
        assert all(type(n) is int and type(s) is float for n, s in table)


def test_empty_store_resets_every_store(request):
    # a store added to the module must be grown here and reset by the fixture
    gram_exact(2)
    gram_float(2)
    stores = [value for value in vars(exactmoments).values() if isinstance(value, _Store)]
    assert len(stores) == 3 and all(len(store.table) for store in stores)
    request.getfixturevalue("empty_store")
    assert all(len(store.table) == 0 for store in stores)
