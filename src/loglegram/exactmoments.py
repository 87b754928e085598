"""Closed-form values of the log-weighted Legendre Gram matrix.

The target quantities are

    N[n, m] = integral over [0, 1] of P_n(2x-1) P_m(2x-1) log(x) dx.

Off the diagonal the value is (-1)**(n+m+1) / (|n-m| (n+m+1)); on the
diagonal, (2n+1) N[n, n] = -1 - 2 * sum_{j=1..n} 1/((2j-1) 2j (2j+1)),
which equals -2 (H_2n - H_n) - 1/(2n+1) with H_k = sum_{j<=k} 1/j.
One generator derives the diagonal: the harmonic form at the first index
asked for, the running sum at each one after it.  Both closed forms are
evaluated in exact rational arithmetic; the floating variants are
correctly rounded from the exact values.  Off the diagonal the signed
divisor (-1)**(n+m+1) |n-m| (n+m+1) is a Toeplitz factor times a Hankel
factor, both exact integers; in a Gram of order k their product is at
most k (2k + 1) < 2**53 in magnitude, so exact as a double.  IEEE
division is correctly rounded and sign-symmetric, so its reciprocal is
float(Fraction) of the entry.  The float Gram takes that reciprocal in
numpy, overwrites the diagonal's +-inf, and needs rational arithmetic
only for its diagonal.

No closed form depends on the matrix size, so the Gram of order k is the
leading block of every larger one.  The module keeps three stores, the
package's only stores of values (its one other cache is the oracles' set
of Gauss rules, at most 257), each a ``_Store``: a table that only
grows, so that every value in it is built once per process: the rows of
N up to ``MAX_ORDER`` (about 3 MiB when full), and two read-only float64
arrays, float(N[n, m]) up to ``MAX_ORDER`` (257**2 doubles, about 516
KiB) and, with no cap, float(N[n, n]) beside float((2n+1) N[n, n]) (16
bytes per n).  Exact diagonal values are kept only as cells of the rows.
A store that does not cover a request is grown under one lock: a new
table is built and published by one assignment, so no caller sees a
half-grown table.  The exact rows and the float diagonal are built from
the old table, only their new values computed; the float Gram rebuilds
every off-diagonal cell, and only its diagonal comes incrementally,
from the float diagonal store.  A request past a store's cap is built
from its current table and not kept.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .legendre import MAX_ORDER, check_order

__all__ = [
    "GramMatrix",
    "entry",
    "gram_exact",
    "gram_float",
]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric (order+1) x (order+1) table of N[n, m] values.

    ``mode`` is "exact" (fresh row lists of immutable Fractions, which
    ``gram_exact`` shares with its table) or "float" (one writable float64
    array of correctly rounded doubles); both index as entries[n][m] and
    belong to the caller, who may change them.
    Diagonal entries are strictly negative, off-diagonal signs alternate as
    (-1)**(n+m+1), and |N[n, m]| <= 1 with equality only at (0, 0).
    """

    order: int
    mode: str
    entries: list | np.ndarray


def _offdiag(n: int, m: int) -> Fraction:
    """N[n, m] for validated indices n != m: (-1)**(n+m+1) / (|n-m| (n+m+1)), reduced."""
    sign = 1 if (n + m) % 2 else -1
    return Fraction(sign, abs(n - m) * (n + m + 1))


def _scaled_diagonal(lo: int, hi: int):
    """Yield (2n+1) N[n, n] for n = lo..hi, lo <= hi, exactly.

    The first value is -2 (H_2lo - H_lo) - 1/(2lo+1).  H_2lo - H_lo, the
    sum of 1/k over lo < k <= 2lo, is summed as one unreduced p/q by
    binary splitting (Haible and Papanikolaou, ANTS 1998), so the one gcd
    is the reduction of -(2p (2lo+1) + q) / (q (2lo+1)).  Each later value
    is the running sum -1 - 2 sum_{j<=n} 1/((2j-1) 2j (2j+1)), one
    summand on, subtracted doubled as 1/((2n+1) (n+1) (2n+3)).  So a store
    that grows computes only its new values, and ``entry`` only one.  The
    indices are not validated here.
    """
    p, q = _reciprocal_sum(lo + 1, 2 * lo + 1)
    scaled = Fraction(-(2 * p * (2 * lo + 1) + q), q * (2 * lo + 1))
    yield scaled
    for n in range(lo, hi):
        scaled -= Fraction(1, (2 * n + 1) * (n + 1) * (2 * n + 3))
        yield scaled


def _reciprocal_sum(a: int, b: int) -> tuple:
    """(p, q) with p/q the sum of 1/k over a <= k < b, 0 < a <= b, unreduced."""
    if b - a < 2:  # an empty or one-term range
        return b - a, a
    mid = (a + b) // 2
    p1, q1 = _reciprocal_sum(a, mid)
    p2, q2 = _reciprocal_sum(mid, b)
    return p1 * q2 + p2 * q1, q1 * q2


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def _rounded(diagonal: np.ndarray, size: int) -> np.ndarray:
    """``diagonal`` extended to n = 0..size, read-only.

    Row n holds float(N[n, n]) and float(s), s = (2n+1) N[n, n]; only the
    new rows are rounded, from the exact sums of those rows alone.  The
    first is the one int division s.numerator / (s.denominator * (2n+1)):
    Python's int true division is correctly rounded, and it is the
    division ``Fraction.__float__`` performs, so the bits are those of
    float(Fraction) with no reduced ``Fraction`` formed.
    """
    old = len(diagonal)
    sums = list(_scaled_diagonal(old, size))
    entries = [s.numerator / (s.denominator * (2 * n + 1)) for n, s in enumerate(sums, old)]
    # two lists: a list of pairs would leave its tuples on the interpreter's free list
    new = np.transpose([entries, [float(s) for s in sums]])
    return _read_only(np.concatenate([diagonal, new]))


def diag_scaling_table(max_order: int) -> list:
    """Pairs (n, (2n+1) N[n, n]) as floats, for n = 0..max_order.

    The scaled diagonal is the running partial sum
    -1 - 2 sum_{j<=n} 1/((2j-1) 2j (2j+1)): strictly decreasing and
    bounded below by its limit -2 log 2.  The floats are read from the
    float diagonal store, each correctly rounded from the exact sum.
    """
    max_order = check_order(max_order, name="max_order")
    return list(enumerate(_float_diagonal.covering(max_order)[: max_order + 1, 1].tolist()))


def _float_values(size: int) -> np.ndarray:
    """A new (size+1) x (size+1) float64 array of float(N[n, m]).

    The signed divisor (-1)**(n+m+1) |n-m| (n+m+1) is one product of a
    Toeplitz factor |n-m| and a Hankel factor (-1)**(n+m+1) (n+m+1),
    each a sliding window over a vector of 2*size + 1 integers.  Every
    product is an integer of magnitude at most size * (2*size + 1) <
    2**53, so exact as a double, and IEEE division is correctly rounded
    and sign-symmetric: its reciprocal equals float(Fraction) of the
    exact entry.  The diagonal's divisor is 0, so its reciprocal is
    +-inf, overwritten by the float diagonal store, since the diagonal
    is a sum.
    """
    k = np.arange(2 * size + 1, dtype=np.float64)
    dist = np.abs(k - size)  # dist[size - n + m] = |n-m|, reversed on rows
    span = np.where(k % 2, 1.0, -1.0) * (k + 1)  # span[n + m] = (-1)**(n+m+1) (n+m+1)
    window = np.lib.stride_tricks.sliding_window_view
    values = window(dist, size + 1)[::-1] * window(span, size + 1)
    with np.errstate(divide="ignore"):
        np.divide(1.0, values, out=values)
    np.fill_diagonal(values, _float_diagonal.covering(size)[: size + 1, 0])
    return values


def _grown(rows: list, size: int) -> list:
    """New row lists of N for n = 0..size, sharing the cells of ``rows``.

    Only the new cells are built: the new columns of the old rows, then
    each new row, whose cells left of the diagonal are the column already
    built above it.  Each off-diagonal value is one object in both of its
    cells.
    """
    old = len(rows)
    grown = [row + [_offdiag(n, m) for m in range(old, size + 1)] for n, row in enumerate(rows)]
    for n, scaled in enumerate(_scaled_diagonal(old, size), old):
        row = [above[n] for above in grown]
        row.append(scaled / (2 * n + 1))
        row.extend(_offdiag(n, m) for m in range(n + 1, size + 1))
        grown.append(row)
    return grown


_lock = threading.RLock()  # growing _float_gram grows _float_diagonal inside it


class _Store:
    """A table that only grows, each growth published whole under ``_lock``.

    ``grow(table, size)`` returns a new table longer than ``size`` and
    leaves ``table`` unchanged, so no reader sees a half-grown one.
    """

    def __init__(self, table, grow):
        self.table = table
        self.grow = grow

    def covering(self, size: int):
        """The table, first grown if its length does not exceed ``size``."""
        if len(self.table) <= size:
            with _lock:
                if len(self.table) <= size:
                    self.table = self.grow(self.table, size)
        return self.table


# Each is read through covering(); only _float_diagonal is asked past MAX_ORDER.
_rows = _Store([], _grown)  # each row as long as the table
_float_diagonal = _Store(np.empty((0, 2)), _rounded)
_float_gram = _Store(np.empty((0, 0)), lambda old, size: _read_only(_float_values(size)))


def entry(n: int, m: int, *, max_order=None) -> Fraction:
    """N[n, m] for any index pair, as a reduced fraction.

    Dispatches to the diagonal closed sum when n = m (where the
    off-diagonal formula would divide by zero) and to the off-diagonal
    closed form otherwise; N[n, m] = N[m, n] makes the order of the
    arguments immaterial.  The diagonal is the first value of
    ``_scaled_diagonal`` from n, summed from no other diagonal value, so
    no exact diagonal is kept for it.  Both indices are validated before
    they are compared, each once.
    """
    n = check_order(n, max_order, name="n")
    m = check_order(m, max_order, name="m")
    return next(_scaled_diagonal(n, n)) / (2 * n + 1) if n == m else _offdiag(n, m)


def gram_exact(size: int, *, max_order=None) -> GramMatrix:
    """Exact (size+1) x (size+1) Gram matrix with entries N[n, m].

    Up to ``MAX_ORDER`` the rows come from the module's exact store, so
    only a call at a new largest size builds cells, and only the ones the
    store lacks; a larger size allowed by ``max_order=`` extends a copy
    of the store that is dropped with the result.  The rows are fresh
    lists, so a caller may change them, and their cells are
    ``Fraction``s shared with the store, which are immutable.  The
    ``size`` check covers every index, so cells skip the per-entry
    validation.
    """
    size = check_order(size, max_order, name="size")
    rows = _rows.covering(size) if size <= MAX_ORDER else _grown(_rows.table, size)
    entries = [row[: size + 1] for row in rows[: size + 1]]
    return GramMatrix(order=size, mode="exact", entries=entries)


def gram_float(size: int, *, max_order=None) -> GramMatrix:
    """Floating Gram matrix, each entry correctly rounded from the exact value.

    Up to ``MAX_ORDER`` the entries are a fresh, writable copy of the
    leading block of the module's float Gram store, so each float cell is
    built once per process.  A larger size allowed by ``max_order=`` is
    built fresh, by the same function, and adds nothing to that store.
    """
    size = check_order(size, max_order, name="size")
    if size > MAX_ORDER:
        values = _float_values(size)
    else:
        values = _float_gram.covering(size)[: size + 1, : size + 1].copy()
    return GramMatrix(order=size, mode="float", entries=values)
