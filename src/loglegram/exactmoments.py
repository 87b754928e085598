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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .legendre import check_order

__all__ = [
    "GramMatrix",
    "diag_sum_term",
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

    ``mode`` is "exact" (row lists of Fractions) or "float" (one writable
    float64 array of correctly rounded doubles); both index as entries[n][m].
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


def diag_sum_term(j: int) -> Fraction:
    """Summand 1/((2j-1) * 2j * (2j+1)) of the diagonal closed sum, j >= 1."""
    check_order(j, math.inf, name="summation index", minimum=1)
    return Fraction(1, (2 * j - 1) * 2 * j * (2 * j + 1))


def entry_offdiag(n: int, m: int, *, max_order=None) -> Fraction:
    """N[n, m] for n != m: (-1)**(n+m+1) / (|n-m| (n+m+1)), reduced."""
    check_order(n, max_order, name="n")
    check_order(m, max_order, name="m")
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

    The n-th value is -1 - 2 * sum_{j=1..n} diag_sum_term(j), so each
    step costs one summand, subtracted as 2 * diag_sum_term(j) =
    1/((2j-1) j (2j+1)) without the summand's index check;
    ``entry_diag``, ``gram_exact``, ``gram_float`` and
    ``analysis.diag_scaling_table`` all read their diagonals from here.
    The order is not validated here.
    """
    running = Fraction(-1)
    yield running
    for j in range(1, n_max + 1):
        running -= Fraction(1, (2 * j - 1) * j * (2 * j + 1))
        yield running


def entry_diag(n: int, *, max_order=None) -> Fraction:
    """N[n, n] from the closed sum, as a reduced fraction."""
    check_order(n, max_order, name="n")
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

    The diagonal comes from one ``scaled_diagonal`` sweep, O(1) extra
    work per row; a test pins this against ``entry_diag``.  The ``size``
    check covers every index, so cells skip the per-entry validation.
    """
    check_order(size, max_order, name="size")
    rows = [[Fraction(0)] * (size + 1) for _ in range(size + 1)]
    for n, scaled in enumerate(scaled_diagonal(size)):
        rows[n][n] = scaled / (2 * n + 1)
        for m in range(n):
            value = _offdiag(n, m)
            rows[n][m] = value
            rows[m][n] = value
    return GramMatrix(order=size, mode="exact", entries=rows)


def gram_float(size: int, *, max_order=None) -> GramMatrix:
    """Floating Gram matrix, each entry correctly rounded from the exact value.

    Off the diagonal, numpy divides (-1)**(n+m+1) by |n-m| (n+m+1).  The
    divisor is at most size * (2*size + 1), an integer below 2**53 and so
    exact as a double, and IEEE division of exact operands is correctly
    rounded: the quotient equals float(Fraction) of the exact entry.  The
    diagonal is a sum, so it is rounded from its exact rational value.
    Entries are the (size+1) x (size+1) float64 array itself.
    """
    check_order(size, max_order, name="size")
    index = np.arange(size + 1, dtype=np.int64)
    parity = np.where(index % 2, -1.0, 1.0)
    values = -np.outer(parity, parity)
    divisor = np.abs(np.subtract.outer(index, index))
    divisor *= np.add.outer(index, index + 1)
    with np.errstate(divide="ignore"):
        np.divide(values, divisor, out=values)
    np.fill_diagonal(
        values, [float(s / (2 * n + 1)) for n, s in enumerate(scaled_diagonal(size))]
    )
    return GramMatrix(order=size, mode="float", entries=values)
