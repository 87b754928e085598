"""Downstream numerics built on the Gram matrix.

Covers bilinear log-weighted forms a' N b and the L2-optimal shifted
Legendre expansion of log(x) on [0, 1].  The diagonal scaling
diagnostics (2n+1) N[n, n], which decrease monotonically toward
-2 log 2, are ``exactmoments.diag_scaling_table``, re-exported here: the
module reads them from its float diagonal store.
"""

from __future__ import annotations

import array
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmoments import GramMatrix, diag_scaling_table
from .legendre import OrderLimitError, check_order

#: Ceiling on expansion orders, which bounds the coefficient list that
#: ``log_expansion_coeffs`` and the expansion report carry.
MAX_EXPANSION_ORDER = 512

__all__ = [
    "MAX_EXPANSION_ORDER",
    "ExpansionReport",
    "bilinear_log_form",
    "diag_scaling_table",
    "expansion_l2_error",
    "log_expansion_coeffs",
]


@dataclass(frozen=True)
class ExpansionReport:
    """Shifted Legendre expansion of log(x) truncated at ``order``.

    ``l2_error`` is the L2[0, 1] norm of log minus the partial expansion,
    1/(order+1).
    """

    order: int
    coefficients: list
    l2_error: float


def bilinear_log_form(a, b, gram: GramMatrix):
    """Evaluate a' N b = integral of f g log over [0, 1].

    ``a`` and ``b`` are coefficient sequences in the shifted Legendre
    basis (index n multiplies P_n(2x-1)); the shorter one is zero-padded.
    The form is chosen by the coefficients' types, read once as a set:
    rational types only (int, Fraction, numpy integers) and an exact matrix
    give a ``Fraction``: with a_n = A_n/da, b_m = B_m/db and cells p/q,
    A_n B_m p is summed in Python integers per distinct q, then over the
    lcm of the q's, with one gcd at the end (a dense 129 x 129 form has
    4,254 q's and takes about 6 ms).  Any other input makes it a float,
    summed by BLAS as a' (N b) over nonzero a_n from only the cells it
    reads: its last bits may move, within (len(a)+len(b)) eps sum |a_n b_m N_nm|.
    There each coefficient is read as a C double, so one that is not a
    real number (None, a string, a sequence such as a matrix row) or is
    beyond the double range is refused with ValueError, and so is, by its
    type and before any is read, a complex value, numpy's included, even
    with imaginary part 0, or a numpy array of any shape among the
    coefficients.  No process-wide state is touched, so other threads run
    as they would alone.
    """
    a = list(a)
    b = list(b)
    if not a or not b:
        raise ValueError("coefficient vectors must have length >= 1")
    if gram.order + 1 < max(len(a), len(b)):
        raise OrderLimitError(
            f"gram matrix of order {gram.order} is too small for coefficient "
            f"vectors of lengths {len(a)} and {len(b)}"
        )
    types = {*map(type, a + b)}
    if gram.mode == "exact" and all(issubclass(t, numbers.Rational) for t in types):
        # as Python ints: the products would overflow numpy integers
        a, b = ([(int(v.numerator), int(v.denominator)) for v in x] for x in (a, b))
        da, db = (math.lcm(*(den for _, den in x)) for x in (a, b))
        cols = [(m, num * (db // den)) for m, (num, den) in enumerate(b) if num]
        sums = {}  # Gram denominator q -> sum of A_n B_m p over the cells p/q
        for n, (num, den) in enumerate(a):
            if num:
                row, an = gram.entries[n], num * (da // den)
                for m, bm in cols:
                    p, q = row[m].as_integer_ratio()
                    sums[q] = sums.get(q, 0) + p * bm * an
        common = math.lcm(*sums)
        return Fraction(sum(s * (common // q) for q, s in sums.items()), common * da * db)
    # array would read a numpy complex as its real part, and a one-value array as that value
    unread = {t.__name__ for t in types if issubclass(t, (complex, np.complexfloating, np.ndarray))}
    if unread:
        raise ValueError(f"coefficient vectors must be 1-D, of real numbers, not {sorted(unread)}")
    rows = gram.entries[: len(a)]  # an exact Gram is rounded only where the form reads it
    block = rows[:, : len(b)] if isinstance(rows, np.ndarray) else [r[: len(b)] for r in rows]
    try:  # array takes numbers only, where numpy would read None as nan and parse strings
        x, y = np.frombuffer(array.array("d", a)), np.frombuffer(array.array("d", b))
    except OverflowError:  # an int or Fraction past the largest double
        raise ValueError("a coefficient is beyond the double range in a float form") from None
    except TypeError as exc:  # None, a string, bytes, a sequence
        raise ValueError(f"coefficient vectors must be 1-D, of real numbers: {exc}") from None
    # b's zeros add exact zeros to the row sums N b (|N| <= 1); a's zeros are
    # skipped, since a row sum may overflow and 0 * inf would be nan
    with np.errstate(all="ignore"):
        row_sums = np.asarray(block, dtype=float) @ y
        return 0.0 + float(x[x != 0] @ row_sums[x != 0])  # +0.0 for a zero form


def log_expansion_coeffs(order: int) -> list:
    """L2-optimal coefficients of log(x) in the shifted Legendre basis.

    c_n = (2n+1) N[n, 0] since the basis norm is
    integral of P_n(2x-1)**2 = 1/(2n+1); explicitly c_0 = -1 and
    c_n = (2n+1) (-1)**(n+1) / (n (n+1)) for n >= 1, already reduced, as
    2n+1 is prime to both n and n+1.  ``order`` is capped at
    MAX_EXPANSION_ORDER.
    """
    order = check_order(order, MAX_EXPANSION_ORDER, name="order")
    return [Fraction(-1)] + [
        Fraction(2 * n + 1 if n % 2 else -2 * n - 1, n * (n + 1)) for n in range(1, order + 1)
    ]


def expansion_l2_error(order: int) -> ExpansionReport:
    """L2[0, 1] error of the truncated log expansion: exactly 1/(order+1).

    Parseval telescopes.  The integral of log(x)**2 over [0, 1] is 2,
    c_0**2 = 1, and c_n**2 / (2n+1) = 1/n**2 - 1/(n+1)**2 for n >= 1, so
    the captured energy is 2 - 1/(order+1)**2 and the squared error is
    1/(order+1)**2.  The test suite cross-checks this against a graded
    quadrature of the residual.
    """
    order = check_order(order, MAX_EXPANSION_ORDER, name="order")
    return ExpansionReport(
        order=order,
        coefficients=log_expansion_coeffs(order),
        l2_error=1 / (order + 1),
    )
