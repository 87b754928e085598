"""Independent ground-truth computations of the log-weighted Gram entries.

Two oracles, sharing no formula with :mod:`loglegram.exactmoments`:

* an exact symbolic one: expand P_n(2x-1) P_m(2x-1) in the monomial
  basis with integer coefficients and integrate against the log moments
  integral x**k log(x) dx on [0, 1]  =  -1/(k+1)**2, as one integer sum
  over the common denominator lcm(1..n+m+1)**2;

* a floating one: panel-by-panel Gauss-Legendre quadrature on a dyadic
  mesh graded toward the logarithmic singularity at x = 0.  On each
  panel [b/2, b] the integrand is analytic with uniformly bounded
  derivatives after rescaling, so the fixed-degree rule converges
  geometrically; the tail [0, 2**-num_panels] is dropped, which costs
  at most eps * (1 + |log eps|) <= 1e-16 at the default truncation.

``verify_range`` compares the closed forms from ``exactmoments``
against either oracle and reports per-pair results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import OrderLimitError
from .legendre import check_order, coeffs_exact, recurrence_sweep

__all__ = [
    "DEFAULT_NUM_PANELS",
    "DEFAULT_QUAD_DEGREE",
    "EXACT_ORACLE_MAX_ORDER",
    "MAX_NUM_PANELS",
    "MAX_QUAD_DEGREE",
    "MAX_QUAD_TABLE_CELLS",
    "QUAD_ABS_TOL",
    "QUAD_REL_TOL",
    "VERIFY_EXACT_MAX_ORDER",
    "PairCheck",
    "PanelDecomposition",
    "QuadratureRule",
    "VerificationReport",
    "dyadic_panels",
    "exact_entry_oracle",
    "gauss_legendre_rule",
    "monomial_log_moment",
    "quad_entry_oracle",
    "shifted_legendre_table",
    "verify_range",
]

#: Cap on the exact oracle; product coefficients reach ~34**n scale
#: (5.83**n squared) and the cap keeps a full verification sweep interactive.
EXACT_ORACLE_MAX_ORDER = 64

#: Cap on exact-mode verification sweeps (the acceptance envelope).
VERIFY_EXACT_MAX_ORDER = 40

DEFAULT_NUM_PANELS = 64
#: 2**-1074 is the smallest positive double; one more panel puts the
#: truncation point at 0.
MAX_NUM_PANELS = 1074
DEFAULT_QUAD_DEGREE = 32
MAX_QUAD_DEGREE = 128
#: Cap on the quadrature table, (n_max+1) x (num_panels * degree) doubles:
#: 2**22 cells are 32 MiB.
MAX_QUAD_TABLE_CELLS = 2**22

#: Quadrature-vs-exact tolerances: relative where the value has scale,
#: absolute once it underflows that scale.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-13


def monomial_log_moment(k: int) -> Fraction:
    """Exact log moment of x**k on [0, 1]: -1/(k+1)**2 (integration by parts)."""
    check_order(k, math.inf, name="monomial power")
    return Fraction(-1, (k + 1) ** 2)


def exact_entry_oracle(n: int, m: int) -> Fraction:
    """N[n, m] by exact monomial expansion, independent of the closed forms.

    Convolves the integer coefficient vectors of P_n(2x-1) and
    P_m(2x-1), then integrates the product against the log moments
    -1/(k+1)**2, k <= n+m, as one integer sum over the common
    denominator big = lcm(1..n+m+1)**2, of which each moment is the
    whole multiple -(big // (k+1)**2) / big.
    """
    check_order(n, EXACT_ORACLE_MAX_ORDER, name="n")
    check_order(m, EXACT_ORACLE_MAX_ORDER, name="m")
    a = coeffs_exact(n).coeffs
    b = coeffs_exact(m).coeffs
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    big = math.lcm(*range(1, n + m + 2)) ** 2
    return Fraction(-sum(c * (big // (k + 1) ** 2) for k, c in enumerate(conv)), big)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1].

    Nodes are strictly increasing and symmetric about 0; weights are
    positive, symmetric and sum to 2.  A rule of this degree integrates
    polynomials of degree <= 2*degree - 1 exactly.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class PanelDecomposition:
    """Dyadic panels of [0, 1] accumulating toward x = 0.

    ``breakpoints`` is the decreasing sequence 2**0, 2**-1, ...,
    2**-num_panels; integration covers [truncation_point, 1] and drops
    the tail below the truncation point.
    """

    num_panels: int
    breakpoints: np.ndarray

    @property
    def truncation_point(self) -> float:
        return float(self.breakpoints[-1])


def dyadic_panels(num_panels: int = DEFAULT_NUM_PANELS) -> PanelDecomposition:
    """Geometrically graded panel decomposition with ratio 1/2.

    Rejects a panel count above MAX_NUM_PANELS, whose truncation point
    2**-num_panels underflows to 0 and would put log(0) into the sums.
    """
    check_order(num_panels, math.inf, name="num_panels", minimum=1)
    if num_panels > MAX_NUM_PANELS:
        raise ValueError(
            f"num_panels must be at most {MAX_NUM_PANELS}, got {num_panels}: "
            f"the truncation point 2**-{num_panels} underflows to 0"
        )
    return PanelDecomposition(
        num_panels=num_panels,
        breakpoints=2.0 ** -np.arange(num_panels + 1, dtype=np.float64),
    )


def gauss_legendre_rule(degree: int) -> QuadratureRule:
    """The degree-node Gauss-Legendre rule, from numpy's ``leggauss``.

    numpy symmetrizes the nodes and weights, so the rule is exactly
    symmetric and the middle node of an odd-degree rule is exactly 0.
    Rules are cached per degree and their arrays are read-only, so every
    caller shares one copy.
    """
    check_order(degree, MAX_QUAD_DEGREE, name="degree", minimum=1)
    return _cached_rule(degree)


@functools.cache
def _cached_rule(degree: int) -> QuadratureRule:
    # Imported here: numpy.polynomial costs start-up time and memory that
    # only the quadrature paths need.
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(degree)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(degree=degree, nodes=nodes, weights=weights)


def shifted_legendre_table(x: np.ndarray, n_max: int) -> np.ndarray:
    """Vectorized recurrence table: row n holds P_n(2x-1) at every x."""
    x = np.asarray(x, dtype=np.float64)
    table = np.empty((n_max + 1, x.size))
    for row, values in zip(table, recurrence_sweep(n_max, x)):
        row[:] = values
    return table


def _panel_grid(panels: PanelDecomposition, rule: QuadratureRule):
    """Map the rule onto every panel; returns flat node and weight arrays."""
    his = panels.breakpoints[:-1]
    los = panels.breakpoints[1:]
    mid = 0.5 * (his + los)
    half = 0.5 * (his - los)
    x = (mid[:, None] + half[:, None] * rule.nodes[None, :]).ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    return x, w


def _quad_kernel(
    n_max: int,
    panels: PanelDecomposition | None = None,
    rule: QuadratureRule | None = None,
):
    """Return (n, m) -> N[n, m] by quadrature, for every n, m <= n_max.

    The grid, log(x) and the recurrence table are built once; both
    ``quad_entry_oracle`` and the quad sweep of ``verify_range`` call the
    returned function, so their values agree bit for bit.  ``None``
    selects the default mesh and rule.  Raises OrderLimitError, before
    the grid or the table is built, when the table would exceed
    MAX_QUAD_TABLE_CELLS.
    """
    if panels is None:
        panels = dyadic_panels()
    if rule is None:
        rule = gauss_legendre_rule(DEFAULT_QUAD_DEGREE)
    cells = (n_max + 1) * panels.num_panels * rule.degree
    if cells > MAX_QUAD_TABLE_CELLS:
        raise OrderLimitError(
            f"quadrature table of {n_max + 1} orders x {panels.num_panels} panels x "
            f"{rule.degree} nodes = {cells} cells exceeds the configured maximum "
            f"{MAX_QUAD_TABLE_CELLS}"
        )
    x, w = _panel_grid(panels, rule)
    log_x = np.log(x)
    table = shifted_legendre_table(x, n_max)

    def value(n: int, m: int) -> float:
        return float(np.dot(w, table[n] * table[m] * log_x))

    return value


def quad_entry_oracle(
    n: int,
    m: int,
    panels: PanelDecomposition | None = None,
    rule: QuadratureRule | None = None,
    *,
    max_order=None,
) -> float:
    """N[n, m] by graded-panel Gauss-Legendre quadrature.

    Sums w * P_n(2x-1) P_m(2x-1) log(x) over every panel node, with each
    panel mapped affinely from [-1, 1].  The dropped tail below the
    truncation point is bounded by eps * (1 + |log eps|), which is below
    1e-16 for the default 64-panel mesh.
    """
    check_order(n, max_order, name="n")
    check_order(m, max_order, name="m")
    return _quad_kernel(max(n, m), panels, rule)(n, m)


@dataclass(frozen=True)
class PairCheck:
    """Outcome of comparing one (n, m) pair against an oracle."""

    n: int
    m: int
    passed: bool
    abs_err: float | None = None
    rel_err: float | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Results of a closed-form-vs-oracle sweep over 0 <= m <= n <= max_order."""

    mode: str
    max_order: int
    checks: list = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        return len(self.checks)

    @property
    def num_passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def worst_abs(self) -> float | None:
        errs = [c.abs_err for c in self.checks if c.abs_err is not None]
        return max(errs) if errs else None

    @property
    def worst_rel(self) -> float | None:
        errs = [c.rel_err for c in self.checks if c.rel_err is not None]
        return max(errs) if errs else None


def verify_range(
    max_order: int,
    mode: str = "exact",
    *,
    panels: PanelDecomposition | None = None,
    rule: QuadratureRule | None = None,
    entry_fn=None,
    max_order_cap=None,
) -> VerificationReport:
    """Check the closed forms against an oracle on all pairs up to max_order.

    ``mode`` selects the oracle: "exact" demands perfect rational
    equality against the monomial oracle (max_order capped at
    VERIFY_EXACT_MAX_ORDER; passing ``max_order_cap``, ``panels`` or
    ``rule``, which it cannot honour, raises ValueError);
    "quad" accepts relative deviation <= QUAD_REL_TOL, or absolute
    deviation <= QUAD_ABS_TOL once the value underflows that scale.
    Failures are recorded in the report, never raised.

    ``entry_fn`` substitutes the closed-form side, which is the hook the
    test suite uses to inject a perturbed entry and watch the sweep fail.
    """
    # Imported here so the oracle paths above stay import-independent of
    # the module they are meant to check.
    from . import exactmoments

    if mode not in ("exact", "quad"):
        raise ValueError(f"mode must be 'exact' or 'quad', got {mode!r}")
    for name, value in (("max_order_cap", max_order_cap), ("panels", panels), ("rule", rule)):
        if mode == "exact" and value is not None:
            raise ValueError(f"{name} applies to quad sweeps only")
    cap = VERIFY_EXACT_MAX_ORDER if mode == "exact" else max_order_cap
    check_order(max_order, cap, name="max_order")

    if entry_fn is None:

        def entry_fn(n, m):
            return exactmoments.entry(n, m, max_order=max_order)

    checks = []
    if mode == "exact":
        for n in range(max_order + 1):
            for m in range(n + 1):
                ok = entry_fn(n, m) == exact_entry_oracle(n, m)
                checks.append(PairCheck(n=n, m=m, passed=ok))
    else:
        quad = _quad_kernel(max_order, panels, rule)
        for n in range(max_order + 1):
            for m in range(n + 1):
                approx = quad(n, m)
                reference = float(entry_fn(n, m))
                abs_err = abs(approx - reference)
                rel_err = abs_err / abs(reference) if reference else math.inf
                ok = rel_err <= QUAD_REL_TOL or abs_err <= QUAD_ABS_TOL
                checks.append(
                    PairCheck(n=n, m=m, passed=ok, abs_err=abs_err, rel_err=rel_err)
                )
    return VerificationReport(mode=mode, max_order=max_order, checks=checks)
