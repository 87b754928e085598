"""Independent ground-truth computations of the log-weighted Gram entries.

Two oracles, sharing no formula with :mod:`loglegram.exactmoments`:

* an exact symbolic one: expand P_n(2x-1) P_m(2x-1) in the monomial
  basis with integer coefficients and integrate against the log moments
  integral x**k log(x) dx on [0, 1]  =  -1/(k+1)**2, as one integer sum
  over the common denominator lcm(1..n+m+1)**2;

* a floating one: a Gauss-Legendre product rule.  Since -log(x) is the
  integral of dt/t over [x, 1], Fubini gives

      integral f(x) log(x) dx on [0, 1]  =  -double integral f(x t) dt dx
                                             on [0, 1]**2,

  which has no singularity: for f = P_n(2x-1) P_m(2x-1) the integrand is
  a polynomial of degree n+m in each of x and t.  One d-node
  Gauss-Legendre rule on both axes is therefore exact for n+m <= 2d-1.
  The pairs (i, j) and (j, i) give the same node x_i x_j, so the d**2
  products fold onto d(d+1)/2 nodes, the off-diagonal weights doubled.
  Without an explicit rule the oracle takes the smallest exact one, up to
  MAX_QUAD_DEGREE nodes, which covers every pair up to MAX_ORDER; a rule
  that cannot cover a request is refused with OrderLimitError before
  anything is built, so a quad failure only ever means a wrong closed
  form.

``verify_range`` compares the closed-form Gram from ``exactmoments``
against either oracle on all pairs at once and reports per-pair results
as arrays: the exact oracle's sums for every pair come from one integer
product C H C^T, the quadrature for every pair from symmetric products
of the weighted recurrence table with itself, summed over node chunks
so that the table stays bounded in memory at any order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OrderLimitError
from .legendre import MAX_ORDER, check_order, coeffs_exact, recurrence_sweep

__all__ = [
    "EXACT_ORACLE_MAX_ORDER",
    "MAX_QUAD_DEGREE",
    "QUAD_ABS_TOL",
    "QUAD_REL_TOL",
    "PairCheck",
    "QuadratureRule",
    "VerificationReport",
    "exact_entry_oracle",
    "gauss_legendre_rule",
    "quad_entry_oracle",
    "shifted_legendre_table",
    "verify_range",
]

#: Cap on the exact oracle, per pair and per sweep; product coefficients
#: reach ~34**n scale (5.83**n squared).  A full sweep at the cap, 8,385
#: pairs, took 0.35-0.49 s over ten fresh processes on a shared 2-vCPU
#: Intel Xeon VM (Python 3.11.7).
EXACT_ORACLE_MAX_ORDER = 128

#: Cap on the Gauss rule: the smallest one exact for every pair up to
#: MAX_ORDER (n + m <= 512).
MAX_QUAD_DEGREE = MAX_ORDER + 1

#: Cells per node chunk of the quadrature table: 2**22 doubles are 32 MiB.
_QUAD_CHUNK_CELLS = 2**22

#: Quadrature-vs-exact tolerances: relative where the value has scale,
#: absolute once it underflows that scale.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-13


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
    polynomials of degree <= 2*degree - 1 exactly, so the product rule
    built from it gives N[n, m] exactly, up to rounding, for
    n + m <= 2*degree - 1.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray


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


def _quad_kernel(span: int, rule: QuadratureRule | None = None):
    """Return (y, s), the folded product-rule nodes and s = sqrt(W) at each.

    N[n, m] ~ -sum((P_n(2y-1) s) (P_m(2y-1) s)), exact up to rounding for
    n + m <= span.  The rule, mapped to [0, 1] as nodes x_i and weights
    w_i, gives y = x_i x_j, i <= j, of weight W = w_i w_j, doubled for
    i < j.  ``None`` selects the smallest exact rule, span // 2 + 1 nodes;
    the callers' order cap MAX_ORDER keeps that within MAX_QUAD_DEGREE.
    Raises OrderLimitError, before any grid is built, when the rule is not
    exact up to span.
    """
    degree = span // 2 + 1 if rule is None else rule.degree
    if span > 2 * degree - 1:
        raise OrderLimitError(
            f"the {degree}-node product rule is exact only for n + m <= {2 * degree - 1}; "
            f"n + m up to {span} needs {span // 2 + 1} nodes"
        )
    if rule is None:
        rule = gauss_legendre_rule(degree)
    x = 0.5 * (1.0 + rule.nodes)
    w = 0.5 * rule.weights
    i, j = np.triu_indices(degree)
    weights = w[i] * w[j]
    weights[i != j] *= 2
    return x[i] * x[j], np.sqrt(weights)


def quad_entry_oracle(n: int, m: int, rule: QuadratureRule | None = None) -> float:
    """N[n, m] by the folded Gauss-Legendre product rule, n, m <= MAX_ORDER.

    Exact up to rounding when n + m <= 2 * rule.degree - 1; ``None``
    takes the smallest such rule, and a smaller one is refused with
    OrderLimitError.  No table is stored: only rows n and m of the
    recurrence are kept and weighted.
    """
    check_order(n, name="n")
    check_order(m, name="m")
    y, s = _quad_kernel(n + m, rule)
    rows = [p * s for k, p in enumerate(recurrence_sweep(max(n, m), y)) if k in (n, m)]
    return -float(rows[0] @ rows[-1])  # one row, squared, when n == m


def _quad_gram(n_max: int, rule: QuadratureRule | None) -> np.ndarray:
    """N[n, m] by quadrature for all n, m <= n_max, as one exactly symmetric array.

    The rule must be exact up to n + m = 2 * n_max.  Q = -sum(B_c @ B_c.T)
    over chunks c of the nodes, B_c the recurrence table on the chunk,
    weighted by s in place, of at most _QUAD_CHUNK_CELLS cells; each table
    is freed before the next is built.  numpy hands the product of an
    array with its own transpose to a symmetric BLAS product (syrk), which
    makes no copy of the table and mirrors one triangle onto the other.
    A sweep that fits one chunk is therefore one such product.
    """
    y, s = _quad_kernel(2 * n_max, rule)
    step = _QUAD_CHUNK_CELLS // (n_max + 1)
    products = None
    for start in range(0, y.size, step):
        table = shifted_legendre_table(y[start : start + step], n_max)
        table *= s[start : start + step]
        chunk = table @ table.T
        del table
        products = chunk if products is None else np.add(products, chunk, out=products)
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
    for each failing pair only.  Reports compare by identity; compare
    their arrays to compare their results.
    """

    mode: str
    max_order: int
    n: np.ndarray
    m: np.ndarray
    pair_passed: np.ndarray
    abs_err: np.ndarray | None = None
    rel_err: np.ndarray | None = None

    def __post_init__(self):
        # the report hands these arrays out, and ``failures``, the worst-error
        # fields and the CLI's csv are read from them, so they must not change
        for array in (self.n, self.m, self.pair_passed, self.abs_err, self.rel_err):
            if array is not None:
                array.flags.writeable = False

    @property
    def num_pairs(self) -> int:
        return self.n.size

    @property
    def num_passed(self) -> int:
        return int(np.count_nonzero(self.pair_passed))

    @property
    def failures(self) -> list:
        index = np.flatnonzero(~self.pair_passed)
        columns = [a[index].tolist() for a in (self.n, self.m, self.pair_passed)]
        if self.abs_err is not None:
            columns += [self.abs_err[index].tolist(), self.rel_err[index].tolist()]
        return [PairCheck(*row) for row in zip(*columns)]

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
    rule: QuadratureRule | None = None,
    entry_fn=None,
) -> VerificationReport:
    """Check the closed forms against an oracle on all pairs up to max_order.

    ``mode`` selects the oracle: "exact" demands perfect rational
    equality against the monomial oracle (max_order capped at
    EXACT_ORACLE_MAX_ORDER; passing ``rule``, which it cannot honour,
    raises ValueError); "quad" accepts relative deviation <=
    QUAD_REL_TOL, or absolute deviation <= QUAD_ABS_TOL once the value
    underflows that scale (max_order capped at MAX_ORDER).  Failures are
    recorded in the report, never raised.
    The quad oracle takes the smallest exact rule, max_order + 1 nodes,
    unless ``rule`` is given, and refuses only a rule too small for the
    span (see ``_quad_kernel``), so default sweeps reach MAX_ORDER and a
    failed pair means a wrong closed form.

    The closed-form side is one Gram, ``gram_exact`` or ``gram_float``
    (the latter indexed as one array).  The exact oracle evaluates all
    pairs in one matrix product, the quad oracle in one symmetric product
    per node chunk of its table (see ``_quad_gram``).  Exact pairs are compared by
    cross-multiplication.  With the same rule, the quad sweep sums in
    another order than ``quad_entry_oracle``, so the two agree to within
    a few ulps of |N| <= 1, not bit for bit; by default they also take
    rules of different sizes.  The report holds the per-pair results as
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
    if mode == "exact" and rule is not None:
        raise ValueError("rule applies to quad sweeps only")
    cap = EXACT_ORACLE_MAX_ORDER if mode == "exact" else MAX_ORDER
    check_order(max_order, cap, name="max_order")

    rows, cols = np.tril_indices(max_order + 1)

    if mode == "exact":
        sums, big = _exact_sums(max_order)
        pairs = zip(rows.tolist(), cols.tolist())
        if entry_fn is None:
            entry_fn = exactmoments.gram_exact(max_order).at
        closed = [entry_fn(n, m) for n, m in pairs]
        # p/q == -S/big, cross-multiplied: no Fraction per pair
        passed = [
            p.numerator * big == -s * p.denominator for p, s in zip(closed, sums[rows, cols])
        ]
        return VerificationReport(mode, max_order, rows, cols, np.array(passed, dtype=bool))

    # the table is freed on return, before the closed side and the report
    approx = _quad_gram(max_order, rule)[rows, cols]
    if entry_fn is None:
        reference = exactmoments.gram_float(max_order).entries[rows, cols]
    else:
        pairs = zip(rows.tolist(), cols.tolist())
        reference = np.array([float(entry_fn(n, m)) for n, m in pairs])
    # elementwise IEEE arithmetic rounds as the same Python float operations would
    with np.errstate(all="ignore"):
        abs_err = np.abs(approx - reference)
        rel_err = np.where(reference != 0, abs_err / np.abs(reference), np.inf)
    passed = (rel_err <= QUAD_REL_TOL) | (abs_err <= QUAD_ABS_TOL)
    return VerificationReport(mode, max_order, rows, cols, passed, abs_err, rel_err)
