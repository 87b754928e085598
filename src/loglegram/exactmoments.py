"""Closed-form values of the log-weighted Legendre Gram matrix.

The target quantities are

    N[n, m] = integral over [0, 1] of P_n(2x-1) P_m(2x-1) log(x) dx.

Off the diagonal the value is (-1)**(n+m+1) / (|n-m| (n+m+1)); on the
diagonal, (2n+1) N[n, n] = -1 - 2 * sum_{j=1..n} 1/((2j-1) 2j (2j+1)).
Both are evaluated in exact rational arithmetic; the floating variants
are correctly rounded from the exact values.  An off-diagonal entry is
+-1 over an integer below 2**53, and IEEE division of two exactly
representable integers is correctly rounded, so the float Gram divides
in numpy and needs rational arithmetic only for its diagonal.

No closed form depends on the matrix size, so the exact Gram of order k
is the leading block of every larger one.  The module keeps one exact
table of rows of N and one list of scaled diagonal values, each grown on
demand to the largest order asked for and never past ``MAX_ORDER``
(about 3 MiB when full): every exact cell and every stored diagonal
value is built once per process.  Beside them it keeps two read-only
float64 arrays.  The float Gram store holds float(N[n, m]) for the
largest ``gram_float`` size asked for, never past ``MAX_ORDER`` (257**2
doubles, about 516 KiB, when full), so each float cell up to the cap is
built once per process; ``gram_float`` hands out copies of its leading
block.  The float diagonal store holds float(N[n, n]), grown past
``MAX_ORDER`` too (8 bytes per n), so each float diagonal value is
rounded once per process.  With s = (2n+1) N[n, n] it is rounded as the
one int division s.numerator / (s.denominator * (2n+1)): Python's int
true division is correctly rounded, and it is the division
``Fraction.__float__`` performs, so the bits are those of
float(Fraction) with no reduced ``Fraction`` formed.  Each grown store
is built new and published by one assignment, under a lock, so no
caller sees a half-grown one.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .legendre import MAX_ORDER, check_order

__all__ = [
    "GramMatrix",
    "entry",
    "entry_diag",
    "entry_offdiag",
    "gram_exact",
    "gram_float",
    "scaled_diagonal",
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

    @property
    def nrows(self) -> int:
        return self.order + 1

    def at(self, n: int, m: int):
        return self.entries[n][m]


def entry_offdiag(n: int, m: int, *, max_order=None) -> Fraction:
    """N[n, m] for n != m: (-1)**(n+m+1) / (|n-m| (n+m+1)), reduced."""
    n = check_order(n, max_order, name="n")
    m = check_order(m, max_order, name="m")
    if n == m:
        raise ValueError(
            f"entry_offdiag is undefined on the diagonal (n = m = {n}); use entry_diag"
        )
    return _offdiag(n, m)


def _offdiag(n: int, m: int) -> Fraction:
    """The off-diagonal closed form for validated indices n != m."""
    sign = 1 if (n + m) % 2 else -1
    return Fraction(sign, abs(n - m) * (n + m + 1))


def scaled_diagonal(n_max: int):
    """Yield (2n+1) N[n, n] for n = 0..n_max as exact running sums.

    The n-th value is -1 - 2 * sum_{j=1..n} 1/((2j-1) 2j (2j+1)), so
    each step costs one summand, subtracted doubled as 1/((2j-1) j (2j+1)).
    Values up to ``MAX_ORDER`` come from the module's stored list, which
    grows to the largest n asked for; past it the sum continues, unstored,
    from the last stored value.  ``entry_diag``, ``gram_exact``, ``gram_float``
    and ``analysis.diag_scaling_table`` all read their diagonals from
    here.  The order is not validated here.
    """
    stored = _stored_diagonal(min(n_max, MAX_ORDER))
    yield from stored[: n_max + 1]
    yield from _continued(stored[-1], len(stored), n_max)


def _continued(running: Fraction, first: int, n_max: int):
    """Yield the scaled diagonal for n = first..n_max from the value at first - 1."""
    for j in range(first, n_max + 1):
        running -= Fraction(1, (2 * j - 1) * j * (2 * j + 1))
        yield running


_lock = threading.RLock()  # growing one store may grow _diagonal or _float_diagonal inside it
_diagonal = [Fraction(-1)]  # (2n+1) N[n, n] for n < len(_diagonal) <= MAX_ORDER + 1
_rows = []  # rows of N, each len(_rows) long, for n < len(_rows) <= MAX_ORDER + 1
_float_diagonal = np.empty(0)  # float(N[n, n]), read-only once grown; no cap
_float_gram = np.empty((0, 0))  # float(N[n, m]), read-only once grown, n, m <= MAX_ORDER


def _stored_diagonal(n_max: int) -> list:
    """The stored scaled diagonal, grown to cover n_max <= MAX_ORDER."""
    global _diagonal
    if len(_diagonal) <= n_max:
        with _lock:
            if len(_diagonal) <= n_max:
                _diagonal = _diagonal + list(_continued(_diagonal[-1], len(_diagonal), n_max))
    return _diagonal


def _rounded_diagonal(size: int) -> np.ndarray:
    """The stored float(N[n, n]) for n = 0..at least size, read-only.

    Only the new values are rounded, each by one int division.  Past
    ``MAX_ORDER`` the exact sum is continued, unstored, from n =
    ``MAX_ORDER`` + 1, so that tail is summed again only when the store
    grows.
    """
    global _float_diagonal
    if len(_float_diagonal) > size:
        return _float_diagonal
    with _lock:
        old = len(_float_diagonal)
        if old <= size:
            tail = itertools.islice(scaled_diagonal(size), old, None)
            rounded = [s.numerator / (s.denominator * (2 * n + 1)) for n, s in enumerate(tail, old)]
            grown = np.concatenate([_float_diagonal, rounded])
            grown.flags.writeable = False
            _float_diagonal = grown
        return _float_diagonal


def _float_values(size: int) -> np.ndarray:
    """A new (size+1) x (size+1) float64 array of float(N[n, m]), built in place.

    Off the diagonal the divisor |n-m| (n+m+1) is |t_n - t_m| with
    t_k = k (k+1), at most size * (2*size + 1): an integer below 2**53,
    so exact as a double.  IEEE division of exact operands is correctly
    rounded and sign-symmetric, so -(-1)**n / |t_n - t_m|, times
    (-1)**m, equals float(Fraction) of the exact entry.  The diagonal is
    a sum, so it is copied from the float diagonal store.
    """
    index = np.arange(size + 1, dtype=np.float64)
    t = index * (index + 1)
    values = np.subtract.outer(t, t)
    np.abs(values, out=values)
    parity = np.where(index % 2, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        np.divide(-parity[:, None], values, out=values)
    values *= parity
    np.fill_diagonal(values, _rounded_diagonal(size)[: size + 1])
    return values


def _stored_float_gram(size: int) -> np.ndarray:
    """The float Gram store, read-only, grown to cover size <= MAX_ORDER."""
    global _float_gram
    if len(_float_gram) <= size:
        with _lock:
            if len(_float_gram) <= size:
                grown = _float_values(size)
                grown.flags.writeable = False
                _float_gram = grown
    return _float_gram


def _grown(rows: list, size: int) -> list:
    """New row lists of N for n = 0..size, sharing the cells of ``rows``.

    Only the new cells are built: the new columns of the old rows, then
    each new row, whose cells left of the diagonal are the column already
    built above it.  Each off-diagonal value is one object in both of its
    cells.
    """
    old = len(rows)
    grown = [row + [_offdiag(n, m) for m in range(old, size + 1)] for n, row in enumerate(rows)]
    diagonal = itertools.islice(scaled_diagonal(size), old, None)
    for n, scaled in zip(range(old, size + 1), diagonal):
        row = [above[n] for above in grown]
        row.append(scaled / (2 * n + 1))
        row.extend(_offdiag(n, m) for m in range(n + 1, size + 1))
        grown.append(row)
    return grown


def _exact_rows(size: int) -> list:
    """Rows of N covering n = 0..size: the store, grown up to MAX_ORDER.

    Past ``MAX_ORDER`` the store is extended into a throwaway table that
    the caller alone holds.
    """
    global _rows
    if len(_rows) > size:
        return _rows
    if size > MAX_ORDER:
        return _grown(_rows, size)
    with _lock:
        if len(_rows) <= size:
            _rows = _grown(_rows, size)
        return _rows


def entry_diag(n: int, *, max_order=None) -> Fraction:
    """N[n, n] from the closed sum, as a reduced fraction."""
    n = check_order(n, max_order, name="n")
    for scaled in scaled_diagonal(n):
        pass
    return scaled / (2 * n + 1)


def entry(n: int, m: int, *, max_order=None) -> Fraction:
    """N[n, m] for any index pair.

    Dispatches to the diagonal closed sum when n = m (where the
    off-diagonal formula would divide by zero) and to the off-diagonal
    closed form otherwise; N[n, m] = N[m, n] makes the order of the
    arguments immaterial.
    """
    if n == m:
        return entry_diag(n, max_order=max_order)
    return entry_offdiag(n, m, max_order=max_order)


def gram_exact(size: int, *, max_order=None) -> GramMatrix:
    """Exact (size+1) x (size+1) Gram matrix with entries N[n, m].

    The first call at a new largest order builds only the cells the
    module's table lacks; every later call at or below it is a slice
    copy.  The rows are fresh lists, so a caller may change them, and
    their cells are ``Fraction``s shared with the table, which are
    immutable.  The ``size`` check covers every index, so cells skip the
    per-entry validation.
    """
    size = check_order(size, max_order, name="size")
    return GramMatrix(
        order=size, mode="exact", entries=[row[: size + 1] for row in _exact_rows(size)[: size + 1]]
    )


def gram_float(size: int, *, max_order=None) -> GramMatrix:
    """Floating Gram matrix, each entry correctly rounded from the exact value.

    Up to ``MAX_ORDER`` the entries are a copy of the leading block of the
    module's float Gram store, a read-only float64 array grown to the
    largest such size asked for (at most 257**2 doubles, about 516 KiB),
    so each float cell is built once per process; the copy is a fresh
    writable array that belongs to the caller.  A larger size allowed by
    ``max_order=`` is built fresh, by the same function, and adds nothing
    to the store.
    """
    size = check_order(size, max_order, name="size")
    if size > MAX_ORDER:
        values = _float_values(size)
    else:
        values = _stored_float_gram(size)[: size + 1, : size + 1].copy()
    return GramMatrix(order=size, mode="float", entries=values)
