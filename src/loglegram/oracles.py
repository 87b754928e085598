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

``verify_range`` compares the closed-form Gram from ``exactmoments``
against either oracle on all pairs at once and reports per-pair results
as arrays: the exact oracle's sums for every pair come from one integer
product C H C^T, the quadrature for every pair from one symmetric
product of the weighted recurrence table with itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    """Return (x, s), the panel nodes and s = sqrt(-w log x) at each node.

    N[n, m] ~ -sum((P_n(2x-1) s) (P_m(2x-1) s)) for n, m <= n_max.  Every
    node has weight w > 0 and 0 < x < 1, so the root is real.  Both
    ``quad_entry_oracle`` and the quad sweep of ``verify_range`` take
    their grid from here.  ``None`` selects the default mesh and rule.
    Raises OrderLimitError, before the grid is built, when the
    recurrence table of n_max + 1 rows would exceed MAX_QUAD_TABLE_CELLS.
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
    return x, np.sqrt(-w * np.log(x))


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
    1e-16 for the default 64-panel mesh.  No table is stored: only rows
    n and m of the recurrence are kept and weighted.
    """
    check_order(n, max_order, name="n")
    check_order(m, max_order, name="m")
    x, s = _quad_kernel(max(n, m), panels, rule)
    rows = [p * s for k, p in enumerate(recurrence_sweep(max(n, m), x)) if k in (n, m)]
    return -float(rows[0] @ rows[-1])  # one row, squared, when n == m


def _quad_gram(
    n_max: int, panels: PanelDecomposition | None, rule: QuadratureRule | None
) -> np.ndarray:
    """N[n, m] by quadrature for all n, m <= n_max, as one exactly symmetric array.

    The recurrence table B is weighted by s in place and Q = -(B @ B.T)
    is taken once: numpy hands the product of an array with its own
    transpose to a symmetric BLAS product (syrk), which makes no copy of
    the table and mirrors one triangle onto the other.
    """
    x, s = _quad_kernel(n_max, panels, rule)
    table = shifted_legendre_table(x, n_max)
    table *= s
    products = table @ table.T
    return np.negative(products, out=products)


def _exact_sums(n_max: int):
    """Return (S, big) with N[n, m] = -S[n, m] / big for all n, m <= n_max.

    The exact oracle's integer sum for every pair at once: with C the
    lower-triangular matrix of the ``coeffs_exact`` rows and the Hankel
    matrix H[k, l] = big // (k+l+1)**2 over big = lcm(1..2*n_max+1)**2,
    the oracle's sum is S = C H C^T, in Python integers.  Row n of C is
    zero past column n, so for m <= n only the leading (n+1) x (n+1)
    blocks of C and H take part: S[n, :n+1] = C_n (C[n, :n+1] H_n) with
    C_n, H_n those blocks.  The lower triangle is built row by row and
    mirrored, so S is a full, exactly symmetric object array.
    """
    size = n_max + 1
    big = math.lcm(*range(1, 2 * n_max + 2)) ** 2
    index = np.arange(size)
    hankel = np.array([big // (j + 1) ** 2 for j in range(2 * size - 1)], dtype=object)
    h = hankel[np.add.outer(index, index)]
    c = np.zeros((size, size), dtype=object)
    for n in range(size):
        c[n, : n + 1] = coeffs_exact(n).coeffs
    sums = np.empty((size, size), dtype=object)
    for n in range(size):
        sums[n, : n + 1] = c[: n + 1, : n + 1] @ (c[n, : n + 1] @ h[: n + 1, : n + 1])
    rows, cols = np.tril_indices(size, -1)
    sums[cols, rows] = sums[rows, cols]
    return sums, big


@dataclass(frozen=True)
class PairCheck:
    """Outcome of comparing one (n, m) pair against an oracle.

    ``n`` and ``m`` are Python ints, ``passed`` a bool and the errors
    Python floats (None in exact sweeps), so a check serializes as is.
    """

    n: int
    m: int
    passed: bool
    abs_err: float | None = None
    rel_err: float | None = None


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Results of a closed-form-vs-oracle sweep over 0 <= m <= n <= max_order.

    The results are held as read-only arrays over the pairs in sweep
    order, the order of ``np.tril_indices(max_order + 1)``: the indices
    ``n`` and ``m``, the per-pair outcome ``pair_passed`` and, in quad
    sweeps, ``abs_err`` and ``rel_err`` (None in exact sweeps).  Every
    summary is read from the arrays; ``failures`` builds a ``PairCheck``
    for each failing pair only, and ``checks``, the full list, is built
    on first read and cached.  Two reports are equal when their mode,
    max_order and checks are.
    """

    mode: str
    max_order: int
    n: np.ndarray
    m: np.ndarray
    pair_passed: np.ndarray
    abs_err: np.ndarray | None = None
    rel_err: np.ndarray | None = None

    def __post_init__(self):
        # the cached checks are read from these arrays, so they must not change
        for array in (self.n, self.m, self.pair_passed, self.abs_err, self.rel_err):
            if array is not None:
                array.flags.writeable = False

    def _pair_checks(self, index) -> list:
        columns = [a[index].tolist() for a in (self.n, self.m, self.pair_passed)]
        if self.abs_err is not None:
            columns += [self.abs_err[index].tolist(), self.rel_err[index].tolist()]
        return [PairCheck(*row) for row in zip(*columns)]

    @functools.cached_property
    def checks(self) -> list:
        return self._pair_checks(slice(None))

    def __eq__(self, other):
        if not isinstance(other, VerificationReport):
            return NotImplemented
        mine = (self.mode, self.max_order, self.checks)
        return mine == (other.mode, other.max_order, other.checks)

    @property
    def num_pairs(self) -> int:
        return self.n.size

    @property
    def num_passed(self) -> int:
        return int(np.count_nonzero(self.pair_passed))

    @property
    def failures(self) -> list:
        return self._pair_checks(np.flatnonzero(~self.pair_passed))

    @property
    def passed(self) -> bool:
        return bool(self.pair_passed.all())

    @property
    def worst_abs(self) -> float | None:
        return None if self.abs_err is None else float(self.abs_err.max())

    @property
    def worst_rel(self) -> float | None:
        return None if self.rel_err is None else float(self.rel_err.max())

    @property
    def worst_pair(self) -> tuple[int, int] | None:
        """(n, m) of the largest ``rel_err`` (the first such pair), None in exact sweeps."""
        if self.rel_err is None:
            return None
        worst = int(self.rel_err.argmax())
        return int(self.n[worst]), int(self.m[worst])


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

    The closed-form side is one Gram, ``gram_exact`` or ``gram_float``
    (the latter indexed as one array), and each oracle evaluates all
    pairs in one matrix product.  Exact pairs are compared by
    cross-multiplication; the quad sweep sums in another order than
    ``quad_entry_oracle``, so the two agree to within a few ulps of
    |N| <= 1, not bit for bit.  The report holds the per-pair results as
    arrays and builds ``PairCheck`` objects only when asked.

    ``entry_fn`` substitutes the closed-form side, pair by pair, which is
    the hook the test suite uses to inject a perturbed entry and watch
    the sweep fail; in exact mode it must return rationals
    (``numerator``/``denominator``).
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

    rows, cols = np.tril_indices(max_order + 1)

    if mode == "exact":
        sums, big = _exact_sums(max_order)
        pairs = zip(rows.tolist(), cols.tolist())
        if entry_fn is None:
            entry_fn = exactmoments.gram_exact(max_order, max_order=max_order).at
        closed = [entry_fn(n, m) for n, m in pairs]
        # p/q == -S/big, cross-multiplied: no Fraction per pair
        passed = [
            p.numerator * big == -s * p.denominator for p, s in zip(closed, sums[rows, cols])
        ]
        return VerificationReport(mode, max_order, rows, cols, np.array(passed, dtype=bool))

    # the table is freed on return, before the closed side and the report
    approx = _quad_gram(max_order, panels, rule)[rows, cols]
    if entry_fn is None:
        reference = exactmoments.gram_float(max_order, max_order=max_order).entries[rows, cols]
    else:
        pairs = zip(rows.tolist(), cols.tolist())
        reference = np.array([float(entry_fn(n, m)) for n, m in pairs])
    # elementwise IEEE arithmetic rounds as the same Python float operations would
    with np.errstate(all="ignore"):
        abs_err = np.abs(approx - reference)
        rel_err = np.where(reference != 0, abs_err / np.abs(reference), np.inf)
    passed = (rel_err <= QUAD_REL_TOL) | (abs_err <= QUAD_ABS_TOL)
    return VerificationReport(mode, max_order, rows, cols, passed, abs_err, rel_err)
