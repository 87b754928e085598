"""Shifted Legendre polynomials on [0, 1].

P_n(2x-1) is the classical Legendre polynomial composed with the affine
map that sends [0, 1] onto [-1, 1].  Values come from the three-term
recurrence

    (k+1) P_{k+1}(t) = (2k+1) t P_k(t) - k P_{k-1}(t),    P_0 = 1, P_1 = t,

run on floats, Fractions or arrays.  Exact integer coefficients in the
monomial basis of x come from the closed binomial sum

    P_n(2x-1) = sum_{k=0..n} (-1)**(n+k) C(n, k) C(n+k, k) x**k,

each term taken from the one before by an exact integer ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderLimitError

#: Ceiling on polynomial orders accepted by public entry points.
#: Coefficient vectors grow like (3 + 2*sqrt(2))**n ~ 5.83**n, so the
#: ceiling keeps misuse from turning into an accidental memory grab.
#: Only the closed forms (``entry``, ``entry_diag``, ``entry_offdiag``,
#: ``gram_exact``, ``gram_float``) take a per-call ``max_order``.
MAX_ORDER = 256

__all__ = [
    "MAX_ORDER",
    "MonomialPoly",
    "check_order",
    "coeffs_exact",
    "recurrence_sweep",
]


def check_order(n, max_order=None, *, name="order", minimum=0):
    """Validate an integer argument against [minimum, max_order].

    This is the package's one integer validator.  Raises ValueError for
    non-integer input (bool included) or a value below ``minimum``, and
    OrderLimitError when the value exceeds ``max_order`` (defaulting to
    the module-level MAX_ORDER; pass math.inf for no ceiling).
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        bound = {0: "nonnegative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValueError(f"{name} must be {bound}, got {n}")
    cap = MAX_ORDER if max_order is None else max_order
    if n > cap:
        raise OrderLimitError(f"{name} {n} exceeds the configured maximum {cap}")
    return n


@dataclass(frozen=True)
class MonomialPoly:
    """Exact monomial-basis coefficients of P_n(2x-1) on [0, 1].

    ``coeffs[k]`` is the integer coefficient of x**k; the length is
    degree + 1.  Since P_n(1) = 1 and P_n(-1) = (-1)**n, the coefficients
    always sum to 1 and the constant term is (-1)**degree.
    """

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def recurrence_sweep(n_max, x):
    """Yield P_0(2x-1), ..., P_{n_max}(2x-1) by the forward recurrence.

    This is the package's one floating recurrence loop: the quadrature
    oracle's single pairs and its table both consume it, so their values
    agree bit for bit.  ``x`` may be a float, a Fraction or an ndarray;
    exact input gives exact values, and |P_n| <= 1 holds only on [0, 1].
    The order is not validated here.
    """
    t = 2 * x - 1
    p_prev = x * 0 + 1
    yield p_prev
    if n_max == 0:
        return
    p_cur = t
    yield p_cur
    for k in range(1, n_max):
        p_prev, p_cur = p_cur, ((2 * k + 1) * t * p_cur - k * p_prev) / (k + 1)
        yield p_cur


def coeffs_exact(n) -> MonomialPoly:
    """Exact integer monomial coefficients of P_n(2x-1).

    The coefficient of x**k is c_k = (-1)**(n+k) C(n, k) C(n+k, k).  The
    vector is built from c_0 = (-1)**n by the ratio of consecutive terms,
    c_{k+1} = -c_k (n-k) (n+k+1) / (k+1)**2, in O(n) products; the
    division is exact, since c_{k+1} is an integer.
    """
    check_order(n)
    c = (-1) ** n
    coeffs = [c]
    for k in range(n):
        c = -c * (n - k) * (n + k + 1) // (k + 1) ** 2
        coeffs.append(c)
    return MonomialPoly(tuple(coeffs))
