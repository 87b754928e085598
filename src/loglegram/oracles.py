"""Independent ground-truth computations of the log-weighted Gram entries.

Two oracles, sharing no formula with :mod:`loglegram.exactmoments`:

* an exact symbolic one, up to MAX_ORDER, by two derivations tied
  together only by the tests: a pair integrates the monomial expansion of
  P_n(2x-1) P_m(2x-1), from two unsigned big-integer products of half its
  width, against the log moments -1/(k+1)**2 of x**k as one integer sum
  per parity; a sweep solves
  mu(f + x f') = integral of f over [0, 1], mu(f) the integral of
  f(x) (-log x), on the products P_n P_m, with no moment and no
  coefficient vector;

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
  MAX_QUAD_DEGREE nodes, which covers every pair up to MAX_ORDER.  A rule
  is judged by its type: one from ``gauss_legendre_rule``, or a copy or
  pickle of one, is read only for its degree, and one built by hand is
  refused with ValueError; a rule that cannot cover a request is refused
  with OrderLimitError.  Both refusals come before anything is built, so a
  quad failure only ever means a wrong closed form.

``verify_range`` compares the closed-form Gram from ``exactmoments``
against an oracle of the table ``ORACLES`` on all pairs at once and
reports per-pair results as arrays: the exact oracle's sums for every
pair come from that sweep over the lower triangle, in report order,
about max_order**2 / 2 integer steps, with no state kept; the quadrature
for every pair from symmetric products of the weighted table
s P_k(2y-1) with itself, summed over node chunks so that the table stays
bounded in memory at any order.  Each chunk's table is written in place
by a division-free form of the recurrence with the weights s seeded into
its first rows (``_weighted_table``), so it matches
``shifted_legendre_table`` times s to rounding, not bit for bit.  Each
oracle returns the per-pair outcomes, the ``criterion`` they were judged
by and its per-pair ``errors`` by name ("abs" and "rel" for the quad
oracle, none for the exact one); the report keeps all three and reads its
``worst`` errors from them, and names a failing pair by its indices
alone.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from .legendre import MAX_ORDER, OrderLimitError, check_order, coeffs_exact, recurrence_sweep

__all__ = [
    "MAX_QUAD_DEGREE",
    "ORACLES",
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
    """N[n, m] by exact monomial expansion, n, m <= MAX_ORDER, independent of the closed forms.

    The coefficient of x**k in P_n(2x-1) has the sign (-1)**(n+k), so the
    vectors a of P_n(2x-1) and b of P_m(2x-1) give a(x) b(x) =
    (-1)**(n+m) C(-x), C = |a| * |b| of nonnegative coefficients.  No
    coefficient of C exceeds sum|a| * sum|b|, which w bytes hold, so C is
    read from its values at X and -X, X = 2**(4w), a two-point Kronecker
    substitution (Harvey, J. Symbolic Comput. 44, 2009): the even- and the
    odd-indexed |coefficients| of each vector are packed apart as digits in
    base X**2, E and O, so that |a|(+-X) = E +- X O, and two products of
    half the width give C(X) and C(-X) (two squares, each of one object,
    when n == m).  Then (C(X) + C(-X)) / 2 holds the even C_k and
    (C(X) - C(-X)) / (2X) the odd ones, each as its own w-byte digit with
    no carry between them.  The log moments -1/(k+1)**2 of x**k then give
    N = (-1)**(n+m+1) (sum_even - sum_odd) C_k / (k+1)**2, one integer sum
    per parity over big = lcm(1..n+m+1)**2, of which each 1/(k+1)**2 is the
    whole multiple big // (k+1)**2.  At order 256 each of the four packed
    values has about 166k bits.
    """
    n = check_order(n, name="n")
    m = check_order(m, name="m")
    vectors = {k: coeffs_exact(k).coeffs for k in (n, m)}  # one vector when n == m
    norms = {k: sum(map(abs, c)) for k, c in vectors.items()}
    width = (norms[n] * norms[m]).bit_length() // 8 + 1
    packed = {k: _at_plus_minus(c, width) for k, c in vectors.items()}
    (plus_a, minus_a), (plus_b, minus_b) = packed[n], packed[m]
    at_plus, at_minus = plus_a * plus_b, minus_a * minus_b
    size = n + m + 1
    big = math.lcm(*range(1, size + 1)) ** 2
    moments = [big // (k + 1) ** 2 for k in range(size)]
    even = _digits((at_plus + at_minus) >> 1, (size + 1) // 2, width)
    odd = _digits((at_plus - at_minus) >> (4 * width + 1), size // 2, width)
    total = sum(map(mul, even, moments[0::2])) - sum(map(mul, odd, moments[1::2]))
    return Fraction((-1) ** (n + m + 1) * total, big)


def _at_plus_minus(coeffs: tuple, width: int) -> tuple[int, int]:
    """(|c|(X), |c|(-X)), X = 2**(4 * width), from the even and odd |c_k| packed apart."""
    even, odd = _packed(coeffs[0::2], width), _packed(coeffs[1::2], width) << 4 * width
    return even + odd, even - odd


def _packed(coeffs: tuple, width: int) -> int:
    """sum(|c_k| * 2**(8 * width * k)): the magnitudes as digits in base 2**(8 * width)."""
    return int.from_bytes(b"".join(abs(c).to_bytes(width, "little") for c in coeffs), "little")


def _digits(value: int, count: int, width: int) -> list:
    """The count digits of value in base 2**(8 * width), lowest first."""
    data = value.to_bytes(count * width, "little")
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, count * width, width)]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [-1, 1].

    Nodes are strictly increasing and symmetric about 0; weights are
    positive, symmetric and sum to 2.  A rule of this degree integrates
    polynomials of degree <= 2*degree - 1 exactly, so the product rule
    built from it gives N[n, m] exactly, up to rounding, for
    n + m <= 2*degree - 1.  The quad oracle takes only rules that
    ``gauss_legendre_rule`` built, and their copies, and reads them for
    their degree alone.
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    # set by ``gauss_legendre_rule`` alone; copies and pickles keep it
    _gauss: bool = field(default=False, repr=False, compare=False)


def gauss_legendre_rule(degree: int) -> QuadratureRule:
    """The degree-node Gauss-Legendre rule, from numpy's ``leggauss``.

    numpy symmetrizes the nodes and weights, so the rule is exactly
    symmetric and the middle node of an odd-degree rule is exactly 0.
    Rules are cached per degree and their arrays are read-only, so every
    caller shares one copy.
    """
    degree = check_order(degree, MAX_QUAD_DEGREE, name="degree", minimum=1)
    return _cached_rule(degree)


@functools.cache
def _cached_rule(degree: int) -> QuadratureRule:
    # Imported here: numpy.polynomial costs start-up time and memory that
    # only the quadrature paths need.
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(degree)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(degree=degree, nodes=nodes, weights=weights, _gauss=True)


def shifted_legendre_table(x: np.ndarray, n_max: int) -> np.ndarray:
    """Vectorized recurrence table: row n holds P_n(2x-1) at every x, n <= MAX_ORDER.

    ``x`` of any shape is read as its flattened values, one column each.
    """
    n_max = check_order(n_max, name="n_max")
    x = np.asarray(x, dtype=np.float64).ravel()
    table = np.empty((n_max + 1, x.size))
    for row, values in zip(table, recurrence_sweep(n_max, x)):
        row[:] = values
    return table


def _quad_kernel(span: int, rule: QuadratureRule | None = None):
    """Return (y, s), the folded product-rule nodes and s = sqrt(W) at each.

    N[n, m] ~ -sum((P_n(2y-1) s) (P_m(2y-1) s)), exact up to rounding for
    n + m <= span.  The rule, mapped to [0, 1] as nodes x_i and weights
    w_i, gives y = x_i x_j, i <= j, of weight W = w_i w_j, doubled for
    i < j, both read from the outer products through one mask i <= j, row
    by row, the order of ``np.triu_indices``.  ``None`` selects the
    smallest exact rule, span // 2 + 1 nodes;
    the callers' order cap MAX_ORDER keeps that within MAX_QUAD_DEGREE.
    A given ``rule`` is read only for its degree, and the nodes and weights
    always come from ``gauss_legendre_rule(degree)``.  Before any rule or
    grid is built, raises ValueError for a ``rule`` that
    ``gauss_legendre_rule`` did not build (a copy or pickle of one it did
    is taken), which is not known to be exact, then OrderLimitError when
    the rule is not exact up to span.
    """
    if rule is not None and not (isinstance(rule, QuadratureRule) and rule._gauss):
        raise ValueError(f"rule must be gauss_legendre_rule(degree) or None, got {reprlib.repr(rule)}")
    degree = span // 2 + 1 if rule is None else rule.degree
    if span > 2 * degree - 1:
        raise OrderLimitError(
            f"the {degree}-node product rule is exact only for n + m <= {2 * degree - 1}; "
            f"n + m up to {span} needs {span // 2 + 1} nodes"
        )
    rule = gauss_legendre_rule(degree)
    x = 0.5 * (1.0 + rule.nodes)
    w = 0.5 * rule.weights
    index = np.arange(degree)
    upper = index[:, None] <= index  # i <= j, read row by row
    weights = 2 * np.outer(w, w)
    np.fill_diagonal(weights, w * w)
    return np.outer(x, x)[upper], np.sqrt(weights[upper])


def quad_entry_oracle(n: int, m: int, rule: QuadratureRule | None = None) -> float:
    """N[n, m] by the folded Gauss-Legendre product rule, n, m <= MAX_ORDER.

    Exact up to rounding when n + m <= 2 * rule.degree - 1; ``None``
    takes the smallest such rule, and a smaller one is refused with
    OrderLimitError.  No table is stored: only rows n and m of the
    recurrence are kept and weighted.
    """
    n = check_order(n, name="n")
    m = check_order(m, name="m")
    y, s = _quad_kernel(n + m, rule)
    rows = [p * s for k, p in enumerate(recurrence_sweep(max(n, m), y)) if k in (n, m)]
    return -float(rows[0] @ rows[-1])  # one row, squared, when n == m


def _weighted_table(y: np.ndarray, s: np.ndarray, n_max: int) -> np.ndarray:
    """Rows s P_k(2y-1), k <= n_max, written in place by a division-free recurrence.

    Row 0 is s, row 1 is t s with t = 2y - 1, and

        row k+1 = (alpha_k t) row k - beta_k row k-1,
        alpha_k = (2k+1)/(k+1),  beta_k = k/(k+1),

    with alpha_k and beta_k rounded to doubles: the recurrence of
    ``recurrence_sweep`` with its division folded into the coefficients
    and the weight s seeded into the first two rows, so that each step
    writes its own row through one scratch row, with no division, no new
    array and no weighting pass.  The values differ from
    ``shifted_legendre_table(y, n_max) * s`` in the last bits only: the
    forward recurrence is stable on [0, 1] (Gautschi, SIAM Rev. 9, 1967),
    where |P_k| <= 1, and each step adds a few rounding errors, the two
    coefficients' included, of size u = 2**-53 relative to s; the tests
    hold row k to (k+1)**2 u s of that reference.
    """
    table = np.empty((n_max + 1, y.size))
    scratch = np.empty(y.size)
    t = 2 * y - 1
    table[0] = s
    if n_max:
        np.multiply(t, s, out=table[1])
    for k in range(1, n_max):
        np.multiply(t, (2 * k + 1) / (k + 1), out=scratch)
        np.multiply(scratch, table[k], out=table[k + 1])
        np.multiply(table[k - 1], k / (k + 1), out=scratch)
        np.subtract(table[k + 1], scratch, out=table[k + 1])
    return table


def _quad_gram(n_max: int, rule: QuadratureRule | None) -> np.ndarray:
    """N[n, m] by quadrature for all n, m <= n_max, as one exactly symmetric array.

    The rule must be exact up to n + m = 2 * n_max.  Q = -sum(B_c @ B_c.T)
    over chunks c of the nodes, B_c the weighted table s P_k(2y-1) of the
    chunk, of at most _QUAD_CHUNK_CELLS cells, each row written in place by
    the division-free recurrence of ``_weighted_table``; each table is
    freed before the next is built.  numpy hands the product of an
    array with its own transpose to a symmetric BLAS product (syrk), which
    makes no copy of the table and mirrors one triangle onto the other.
    A sweep that fits one chunk is therefore one such product.
    """
    y, s = _quad_kernel(2 * n_max, rule)
    step = _QUAD_CHUNK_CELLS // (n_max + 1)
    products = None
    for start in range(0, y.size, step):
        table = _weighted_table(y[start : start + step], s[start : start + step], n_max)
        chunk = table @ table.T
        del table
        products = chunk if products is None else np.add(products, chunk, out=products)
    return np.negative(products, out=products)


def _exact_sums(n_max: int):
    """Return (sums, big), N[n, m] = -sums[i] / big for the i-th pair of np.tril_indices(n_max + 1).

    sums[i] = S[n, m] = big * G[n, m] with G = -N, big = lcm(1..2*n_max+1)**2,
    n_max <= MAX_ORDER.  No moment or coefficient vector is built: with
    mu(f) = integral of f(x) (-log x) over [0, 1], integration by parts
    gives mu(f + x f') = integral of f over [0, 1], and x d/dx P_n(2x-1) =
    n P_n(2x-1) + sum_{k<n} (2k+1) P_k(2x-1), so f = P_n(2x-1) P_m(2x-1) gives

        (n+m+1) S[n, m] = big * [n == m] / (2n+1)
                          - sum_{k<n} (2k+1) S[k, m] - sum_{k<m} (2k+1) S[n, k].

    The sweep walks the lower triangle row by row, in the order the sums
    are returned; the second sum, A, runs along the row and the first is
    kept per column.  At m == n that column's sum is A by symmetry, so
    (2n+1) S[n, n] = big / (2n+1) - 2A.  Every division is exact: the
    denominator of G[n, m] divides lcm(1..n+m+1)**2.
    """
    big = math.lcm(*range(1, 2 * n_max + 2)) ** 2
    column = [0] * (n_max + 1)  # column[m] = sum_{k<n} (2k+1) S[k, m] before row n
    sums = []
    for n in range(n_max + 1):
        along = 0  # sum_{k<m} (2k+1) S[n, k]
        for m in range(n):
            s = -(column[m] + along) // (n + m + 1)
            sums.append(s)
            along += (2 * m + 1) * s
            column[m] += (2 * n + 1) * s
        sums.append((big // (2 * n + 1) - 2 * along) // (2 * n + 1))
        column[n] = along + (2 * n + 1) * sums[-1]  # column n's sum was along, by symmetry
    return sums, big


def _exact_check(max_order: int, closed, rule, rows, cols):
    """The exact oracle's verdict: each pair passes iff its closed form is -S[n, m] / big.

    ``closed`` is the closed side in report order, rationals with
    ``numerator`` and ``denominator``, or None for the lower triangle of
    ``gram_exact``, read by row slices.  The sums come from ``_exact_sums``
    and are compared by cross-multiplication, with no Fraction per pair.
    No rule enters this oracle, so one passed is refused with ValueError.
    There are no error arrays.
    """
    if rule is not None:
        raise ValueError("rule applies to quad sweeps only")
    from . import exactmoments  # here, so the oracles above stay import-independent of it

    sums, big = _exact_sums(max_order)
    if closed is None:
        entries = exactmoments.gram_exact(max_order).entries
        closed = [p for n, row in enumerate(entries) for p in row[: n + 1]]
    passed = [p.numerator * big == -s * p.denominator for p, s in zip(closed, sums)]
    return np.array(passed, dtype=bool), "exact", {}


def _quad_check(max_order: int, closed, rule, rows, cols):
    """The quad oracle's verdict: each pair passes within QUAD_REL_TOL or QUAD_ABS_TOL.

    ``closed`` is the closed side in report order, rounded as ``float``
    rounds it, or None for ``gram_float`` indexed at (rows, cols).  The
    pairs come from ``_quad_gram`` on ``rule`` (None: the smallest exact
    one), whose table is freed before the closed side is built.  The
    errors are "abs", |approx - closed|, and "rel", that over |closed|
    (inf where the closed form is 0).
    """
    from . import exactmoments  # here, so the oracles above stay import-independent of it

    approx = _quad_gram(max_order, rule)[rows, cols]
    if closed is None:
        closed = exactmoments.gram_float(max_order).entries[rows, cols]
    reference = np.asarray(closed, dtype=float)
    # elementwise IEEE arithmetic rounds as the same Python float operations would
    with np.errstate(all="ignore"):
        abs_err = np.abs(approx - reference)
        rel_err = np.where(reference != 0, abs_err / np.abs(reference), np.inf)
    passed = (rel_err <= QUAD_REL_TOL) | (abs_err <= QUAD_ABS_TOL)
    criterion = f"within tolerance (rel {QUAD_REL_TOL:g}, abs {QUAD_ABS_TOL:g})"
    return passed, criterion, {"abs": abs_err, "rel": rel_err}


#: The oracles ``verify_range`` and ``loglegram verify --oracle`` choose
#: from, by mode.  Each is called as (max_order, closed, rule, rows, cols),
#: with the closed side in report order or None for its own Gram, and
#: returns (passed, criterion, errors): the per-pair outcomes, what a pass
#: means, and the per-pair error arrays by name.
ORACLES = {"exact": _exact_check, "quad": _quad_check}


@dataclass(frozen=True)
class PairCheck:
    """A pair that failed its oracle: its indices ``n`` and ``m``, as Python ints.

    Whatever errors the oracle reports for the pair, under its own names,
    are read from the report's ``errors`` arrays at the pair's place.
    """

    n: int
    m: int


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Results of a closed-form-vs-oracle sweep over 0 <= m <= n <= max_order.

    The results are held as read-only arrays over the pairs in sweep
    order, the order of ``np.tril_indices(max_order + 1)``: the indices
    ``n`` and ``m``, the per-pair outcome ``pair_passed`` and ``errors``,
    the oracle's per-pair error arrays by name ("abs" and "rel" in quad
    sweeps, none in exact ones).  ``criterion`` says what a pass means:
    "exact", or the quad tolerances.  Every summary is read from the
    arrays: ``worst`` holds the largest value of each error array, by
    name, and ``failures`` builds a ``PairCheck``, its (n, m), for each
    failing pair only; a pair's errors are ``errors[name]`` at its place.
    Reports compare by identity; compare their arrays to compare their
    results.
    """

    mode: str
    max_order: int
    n: np.ndarray
    m: np.ndarray
    pair_passed: np.ndarray
    criterion: str
    errors: dict

    def __post_init__(self):
        # the report hands these arrays out, and ``failures``, ``worst`` and
        # the CLI's csv are read from them, so they must not change
        for array in (self.n, self.m, self.pair_passed, *self.errors.values()):
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
        return list(map(PairCheck, self.n[index].tolist(), self.m[index].tolist()))

    @property
    def passed(self) -> bool:
        return bool(self.pair_passed.all())

    @property
    def worst(self) -> dict:
        return {name: float(errors.max()) for name, errors in self.errors.items()}


def verify_range(
    max_order: int,
    mode: str = "exact",
    *,
    rule: QuadratureRule | None = None,
    entry_fn=None,
) -> VerificationReport:
    """Check the closed forms against an oracle on all pairs up to max_order.

    ``mode`` selects the oracle from ``ORACLES``: "exact" demands perfect
    rational equality against the symbolic oracle (passing ``rule``,
    which it cannot honour, raises ValueError); "quad" accepts relative
    deviation <= QUAD_REL_TOL, or absolute deviation <= QUAD_ABS_TOL once
    the value underflows that scale, and reports both as ``errors``.  Any
    other mode, an unhashable one included, raises ValueError.  Both cap
    max_order at MAX_ORDER.  Failures are recorded in the report, never
    raised.  The quad oracle takes the smallest exact rule, max_order + 1
    nodes, unless ``rule`` is given.  It reads a given rule only for its
    degree, and refuses one that ``gauss_legendre_rule`` did not build, by
    its type, or one too small for the span (see ``_quad_kernel``), so
    default sweeps reach MAX_ORDER and a failed pair means a wrong closed
    form.

    The pairs are built row by row, in ``np.tril_indices`` order.  The
    closed-form side is one Gram, ``gram_exact`` (its lower triangle read
    by row slices) or ``gram_float`` (indexed as one array).  The exact
    oracle evaluates all pairs by one integer sweep of the lower triangle,
    in report order, from the x d/dx identity, which uses neither the log
    moments nor the unsigned monomial products of ``exact_entry_oracle``
    (see ``_exact_sums``), the quad oracle in one symmetric product per
    node chunk of its weighted table s P_k(2y-1), built in place by a
    division-free recurrence (see ``_quad_gram`` and ``_weighted_table``).
    Exact pairs are compared by cross-multiplication.
    With the same rule, the quad sweep sums in another order than
    ``quad_entry_oracle``, on table rows that agree with that oracle's
    rows to rounding only, so the two agree to within a few ulps of
    |N| <= 1, not bit for bit; by default they also take rules of
    different sizes.  The report holds the per-pair results as arrays and
    builds ``PairCheck`` objects only when asked.

    ``entry_fn`` substitutes the closed-form side, called once per pair
    in report order before either oracle runs, which is the hook the test
    suite uses to inject a perturbed entry and watch the sweep fail; in
    exact mode it must return rationals (``numerator``/``denominator``),
    and in quad mode its values are rounded as ``float`` rounds them.
    """
    if mode not in tuple(ORACLES):  # a tuple, so an unhashable mode is refused too
        raise ValueError(f"mode must be {' or '.join(map(repr, ORACLES))}, got {mode!r}")
    max_order = check_order(max_order, name="max_order")

    # the pairs m <= n row by row: n repeated n + 1 times, m counting up from 0
    rows = np.repeat(np.arange(max_order + 1), np.arange(1, max_order + 2))
    cols = np.arange(rows.size) - rows * (rows + 1) // 2

    closed = None
    if entry_fn is not None:
        closed = [entry_fn(n, m) for n, m in zip(rows.tolist(), cols.tolist())]
    passed, criterion, errors = ORACLES[mode](max_order, closed, rule, rows, cols)
    return VerificationReport(mode, max_order, rows, cols, passed, criterion, errors)
