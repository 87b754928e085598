"""Shifted Legendre polynomials on [0, 1].

P_n(2x-1) is the classical Legendre polynomial composed with the affine
map that sends [0, 1] onto [-1, 1].  Values come from the three-term
recurrence

    (k+1) P_{k+1}(t) = (2k+1) t P_k(t) - k P_{k-1}(t),    P_0 = 1, P_1 = t,

run on floats, Fractions or arrays by ``recurrence_sweep``.  The quad
sweep of ``oracles`` runs the same recurrence in its own division-free,
weighted form, in place on its table, so its values agree with the
generator's to rounding, not bit for bit.  Exact integer coefficients in
the monomial basis of x come from the closed binomial sum

    P_n(2x-1) = sum_{k=0..n} (-1)**(n+k) C(n, k) C(n+k, k) x**k,

each term taken from the one before by an exact integer ratio.

Of the package's exact paths only the single-pair exact oracle uses
these polynomials (``coeffs_exact``); the closed forms and the exact
sweep of ``oracles`` (the x d/dx identity) build neither.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

#: Ceiling on polynomial orders accepted by public entry points.  At
#: order M it bounds what the package builds and keeps: the exact row
#: store of ``exactmoments`` (about 3 MiB at 256) and its float Gram store
#: ((M+1)**2 doubles, about 516 KiB at 256); the (M+1)(M+2)/2 integers
#: of the exact oracle's sweep, over L = lcm(1..2M+1)**2 (1,486 bits at
#: 256), built per call and not kept; the single-pair exact oracle, whose
#: ``coeffs_exact`` vectors grow like (3 + 2*sqrt(2))**n ~ 5.83**n (647
#: bits summed at 256) and which packs four values, |a|(+-X) and
#: |b|(+-X), of 166,396 bits each at 256, one digit of 162 bytes per
#: coefficient; and ``oracles.MAX_QUAD_DEGREE``, M + 1.
#: Only the closed forms (``entry``, ``gram_exact``, ``gram_float``) take
#: a per-call ``max_order``.
MAX_ORDER = 256

__all__ = [
    "MAX_ORDER",
    "MonomialPoly",
    "OrderLimitError",
    "check_order",
    "coeffs_exact",
    "recurrence_sweep",
]


class OrderLimitError(ValueError):
    """A polynomial order exceeds the configured ceiling."""


def check_order(n, max_order=None, *, name="order", minimum=0):
    """Validate an integer argument against [minimum, max_order].

    This is the package's one integer validator.  Any integer type is
    accepted through ``operator.index`` (numpy integers included) and the
    value is returned as a Python int, which callers use in its place.
    Raises ValueError for non-integer input (bool included) or a value
    below ``minimum``, and OrderLimitError when the value exceeds
    ``max_order``.  The cap defaults to the module-level MAX_ORDER; a
    given cap is validated too, and must be a nonnegative integer or
    math.inf (no ceiling), else ValueError names ``max_order``.
    """
    if max_order is None:
        max_order = MAX_ORDER
    elif not (isinstance(max_order, float) and max_order == math.inf):
        max_order = check_order(max_order, math.inf, name="max_order")
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)  # refuses a numpy array of one or more dimensions
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < minimum:
        bound = {0: "nonnegative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValueError(f"{name} must be {bound}, got {n}")
    if n > max_order:
        raise OrderLimitError(f"{name} {n} exceeds the configured maximum {max_order}")
    return n


@dataclass(frozen=True)
class MonomialPoly:
    """Exact monomial-basis coefficients of P_n(2x-1) on [0, 1].

    ``coeffs[k]`` is the integer coefficient of x**k; the length is
    n + 1.  Since P_n(1) = 1 and P_n(-1) = (-1)**n, the coefficients
    always sum to 1 and the constant term is (-1)**n.
    """

    coeffs: tuple


def recurrence_sweep(n_max, x):
    """Yield P_0(2x-1), ..., P_{n_max}(2x-1) by the forward recurrence.

    The quadrature oracle's single pairs and ``shifted_legendre_table``
    consume it, and it is the tests' reference for the quad sweep's
    division-free table (``oracles._weighted_table``), which agrees with it
    to rounding only.  ``x`` may be a float, a Fraction or a float
    ndarray, on which each step is computed in place in one new array (an
    integer array is refused by the in-place division); exact input gives
    exact values, and |P_n| <= 1 holds only on [0, 1].
    A negative ``n_max`` yields nothing.  The order is not validated here.
    """
    t = 2 * x - 1
    p_prev, p_cur = x * 0 + 1, t
    yield from (p_prev, p_cur)[: max(n_max + 1, 0)]
    for k in range(1, n_max):
        # ((2k+1) t P_k - k P_{k-1}) / (k+1), operation for operation; on an
        # array the step writes only into its own new array, never into a
        # value already yielded
        nxt = (2 * k + 1) * t
        nxt *= p_cur
        nxt -= k * p_prev
        nxt /= k + 1
        p_prev, p_cur = p_cur, nxt
        yield p_cur


def coeffs_exact(n) -> MonomialPoly:
    """Exact integer monomial coefficients of P_n(2x-1).

    The coefficient of x**k is c_k = (-1)**(n+k) C(n, k) C(n+k, k).  The
    vector is built from c_0 = (-1)**n by the ratio of consecutive terms,
    c_{k+1} = -c_k (n-k) (n+k+1) / (k+1)**2, in O(n) products; the
    division is exact, since c_{k+1} is an integer.
    """
    n = check_order(n)
    c = (-1) ** n
    coeffs = [c]
    for k in range(n):
        c = -c * (n - k) * (n + k + 1) // (k + 1) ** 2
        coeffs.append(c)
    return MonomialPoly(tuple(coeffs))
