import math
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loglegram import OrderLimitError
from loglegram.analysis import (
    bilinear_log_form,
    diag_scaling_table,
    expansion_l2_error,
    log_expansion_coeffs,
)
from loglegram.exactmoments import GramMatrix, entry, gram_exact, gram_float
from loglegram.oracles import gauss_legendre_rule, shifted_legendre_table


def graded_grid(degree, panels=64):
    """Nodes and weights of a degree-node Gauss-Legendre rule on each dyadic
    panel [2**-(k+1), 2**-k], k < panels: a grid for integrands with a
    log(x) or log(x)**2 singularity at 0, whose dropped tail below 2**-64
    is far below the tolerances here."""
    rule = gauss_legendre_rule(degree)
    top = 2.0 ** -np.arange(panels)
    x = (0.75 * top[:, None] + 0.25 * top[:, None] * rule.nodes).ravel()
    w = (0.25 * top[:, None] * rule.weights).ravel()
    return x, w


@pytest.fixture(scope="module")
def quad_grid():
    return graded_grid(32)


def test_basis_norm_confirmed_by_quadrature(quad_grid):
    # the 1/(2n+1) normalization used by the expansion coefficients
    x, w = quad_grid
    table = shifted_legendre_table(x, 10)
    for n in range(11):
        norm = float(np.dot(w, table[n] * table[n]))
        assert abs(norm - 1.0 / (2 * n + 1)) < 1e-12


def test_log_squared_integral_is_two(quad_grid):
    x, w = quad_grid
    assert float(np.dot(w, np.log(x) ** 2)) == pytest.approx(2.0, abs=1e-12)


def test_expansion_coefficients():
    coeffs = log_expansion_coeffs(2)
    assert coeffs == [Fraction(-1), Fraction(3, 2), Fraction(-5, 6)]
    assert all(isinstance(c, Fraction) for c in coeffs)
    assert len(log_expansion_coeffs(40)) == 41


def test_expansion_coefficient_closed_form():
    coeffs = log_expansion_coeffs(512)
    for n in range(1, 513):
        assert coeffs[n] == Fraction((2 * n + 1) * (-1) ** (n + 1), n * (n + 1))
    assert coeffs == [(2 * n + 1) * entry(n, 0, max_order=512) for n in range(513)]


def test_bilinear_unit_vectors_reproduce_entries():
    gram = gram_exact(32)
    for n in range(33):
        for m in range(33):
            a = [Fraction(0)] * (n + 1)
            a[n] = Fraction(1)
            b = [Fraction(0)] * (m + 1)
            b[m] = Fraction(1)
            assert bilinear_log_form(a, b, gram) == entry(n, m)


def test_bilinear_known_values():
    gram = gram_exact(2)
    # f = P_0 + P_1 shifted = 2x, so the form is 4 * integral x^2 log x = -4/9
    assert bilinear_log_form([1, 1], [1, 1], gram) == Fraction(-4, 9)
    assert bilinear_log_form([1], [1], gram) == Fraction(-1)
    # unit vectors reduce to a single entry
    assert bilinear_log_form([0, 0, 1], [0, 1], gram) == Fraction(1, 4)


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@given(
    st.lists(small_fractions, min_size=1, max_size=6),
    st.lists(small_fractions, min_size=1, max_size=6),
    st.lists(small_fractions, min_size=1, max_size=6),
    small_fractions,
    small_fractions,
)
def test_bilinearity_exact(a, a2, b, alpha, beta):
    gram = gram_exact(6)
    width = max(len(a), len(a2))
    a = a + [Fraction(0)] * (width - len(a))
    a2 = a2 + [Fraction(0)] * (width - len(a2))
    combined = [alpha * u + beta * v for u, v in zip(a, a2)]
    lhs = bilinear_log_form(combined, b, gram)
    rhs = alpha * bilinear_log_form(a, b, gram) + beta * bilinear_log_form(a2, b, gram)
    assert lhs == rhs


def test_bilinearity_float_mode():
    rng = np.random.default_rng(7)
    gram = gram_float(8)
    for _ in range(25):
        a, a2, b = (rng.uniform(-1, 1, size=9).tolist() for _ in range(3))
        alpha, beta = rng.uniform(-2, 2, size=2)
        combined = [alpha * u + beta * v for u, v in zip(a, a2)]
        lhs = bilinear_log_form(combined, b, gram)
        rhs = alpha * bilinear_log_form(a, b, gram) + beta * bilinear_log_form(
            a2, b, gram
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _as_integers(values):
    """(integers, denominator) with values[i] == integers[i] / denominator exactly."""
    fractions = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (den // f.denominator) for f in fractions], den


_GRAM_FLOAT_64 = gram_float(64)
_GRAM_EXACT_64 = gram_exact(64)
_N_CELLS, _N_DEN = _as_integers(v for row in _GRAM_EXACT_64.entries for v in row)
_N_ROWS = [_N_CELLS[65 * n : 65 * (n + 1)] for n in range(65)]
_EPS = Fraction(np.finfo(float).eps)

# |values| in [1e-30, 1e50] or zero: no product of two of them and an
# entry of the order-64 Gram under- or overflows
_doubles = st.floats(min_value=-1e50, max_value=1e50).filter(lambda v: v == 0 or abs(v) >= 1e-30)


@st.composite
def _coefficients(draw, values):
    """A vector of up to 65 entries, a random share of them zero (possibly all)."""
    vector = draw(st.lists(values, min_size=1, max_size=65))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    return [v if rng.random() < density else 0.0 for v in vector]


def _assert_within_summation_bound(a, b, value):
    """|value - a' N b| <= (len(a) + len(b)) eps sum |a_n b_m N[n, m]|, in exact arithmetic."""
    a_ints, a_den = _as_integers(a)
    b_ints, b_den = _as_integers(b)
    terms = [
        an * bm * _N_ROWS[n][m]
        for n, an in enumerate(a_ints)
        if an
        for m, bm in enumerate(b_ints)
        if bm
    ]
    den = a_den * b_den * _N_DEN
    assert type(value) is float and math.isfinite(value)
    error = abs(Fraction(value) - Fraction(sum(terms), den))
    assert error <= (len(a) + len(b)) * _EPS * Fraction(sum(map(abs, terms)), den)


@given(
    st.one_of(
        _coefficients(_doubles),
        _coefficients(st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)),
    ),
    _coefficients(_doubles),
)
def test_float_bilinear_form_within_summation_bound(a, b):
    value = bilinear_log_form(a, b, _GRAM_FLOAT_64)
    _assert_within_summation_bound(a, b, value)
    # float vectors read an exact Gram through the same rounded cells
    assert bilinear_log_form(a, b, _GRAM_EXACT_64) == value
    if not any(a) or not any(b):
        assert math.copysign(1.0, value) == 1.0  # +0.0, never -0.0


def test_float_bilinear_form_skips_zero_coefficients():
    # row 0 of N b overflows to -inf; a's zero there must not turn it into nan
    tiny = [0.0, 1e-300] + [0.0] * 19
    huge = [(-1) ** m * 1e308 for m in range(21)]
    for a, b in ((tiny, huge), (huge, tiny)):
        value = bilinear_log_form(a, b, gram_float(20))
        _assert_within_summation_bound(a, b, value)


def test_bilinear_mixed_inputs_promote_to_float():
    gram = gram_exact(2)
    value = bilinear_log_form([Fraction(1), 0.5], [Fraction(1)], gram)
    assert isinstance(value, float)


def test_bilinear_numpy_scalars_pick_the_branch_by_type():
    # a numpy float is no Rational, so it makes a float form, as on a float Gram;
    # numpy integers are Rational and stay exact, summed without overflow
    for gram in (gram_exact(1), gram_float(1)):
        value = bilinear_log_form([np.float32(0.5)], [1], gram)
        assert isinstance(value, float) and value == -0.5
    big = [np.int64(2**62), np.int64(-(2**62)), np.int64(3)]
    value = bilinear_log_form(big, big, gram_exact(2))
    ints = [int(v) for v in big]
    assert value == bilinear_log_form(ints, ints, gram_exact(2))
    assert isinstance(value, Fraction)


def test_bilinear_zero_vector_keeps_the_mode():
    # a zero form skips every term, so its type comes from the inputs alone
    cases = (
        ([0, 0], [Fraction(1, 2)], gram_exact(1), Fraction),
        ([Fraction(1)], [0], gram_exact(1), Fraction),
        ([0.0, 0.0], [Fraction(1)], gram_exact(1), float),
        ([Fraction(0)], [0.5], gram_exact(1), float),
        ([Fraction(1)], [0], gram_float(1), float),
        ([0.0], [0.0], gram_float(1), float),
    )
    for a, b, gram, kind in cases:
        value = bilinear_log_form(a, b, gram)
        assert value == 0
        assert type(value) is kind, (a, b, gram.mode)


def _fraction_per_term(a, b, gram):
    """Reference exact form: one Fraction product and one Fraction sum per nonzero cell."""
    total = Fraction(0)
    for n, an in enumerate(a):
        if an:
            row = gram.entries[n]
            total += an * sum(bm * row[m] for m, bm in enumerate(b) if bm)
    return total


_exact_values = st.one_of(
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
)


@st.composite
def _exact_coefficients(draw):
    """Up to 65 mixed int/bool/Fraction entries, 0 to 100 % of them zero."""
    vector = draw(st.lists(_exact_values, min_size=1, max_size=65))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    zero = draw(st.sampled_from([0, False, Fraction(0)]))
    rng = draw(st.randoms(use_true_random=False))
    return [v if rng.random() < density else zero for v in vector]


@given(_exact_coefficients(), _exact_coefficients())
def test_exact_form_equals_the_fraction_per_term_sum(a, b):
    value = bilinear_log_form(a, b, _GRAM_EXACT_64)
    assert value == _fraction_per_term(a, b, _GRAM_EXACT_64)
    assert type(value) is Fraction
    if not any(a) or not any(b):
        assert value == Fraction(0)


def test_dense_exact_form_at_order_128_equals_the_fraction_per_term_sum():
    gram = gram_exact(128)
    rng = np.random.default_rng(12)
    kinds = (int, bool, lambda k: Fraction(k, 97), lambda k: Fraction(k, 2**40 + 15))
    a, b = (
        [kinds[k % 4](int(v)) for k, v in enumerate(rng.integers(1, 10**6, size=129))]
        for _ in range(2)
    )
    assert all(a) and all(b)
    value = bilinear_log_form(a, b, gram)
    assert type(value) is Fraction
    assert value == _fraction_per_term(a, b, gram)


def test_exact_form_reads_the_gram_entries():
    # a GramMatrix may hold any rationals, not only the closed forms
    rows = [list(row) for row in gram_exact(3).entries]
    rows[1][2] += Fraction(1, 7)  # perturbed, so no longer symmetric
    rows[3][0] = 5  # an int cell
    gram = GramMatrix(order=3, mode="exact", entries=rows)
    assert bilinear_log_form([0, 1], [0, 0, 1], gram) == entry(1, 2) + Fraction(1, 7)
    assert bilinear_log_form([0, 0, 1], [0, 1], gram) == entry(2, 1)
    value = bilinear_log_form([0, 0, 0, 2], [Fraction(1, 3)], gram)
    assert value == Fraction(10, 3) and type(value) is Fraction
    a, b = [1, Fraction(1, 2), 3, True], [Fraction(2, 3), 0, 1, 7]
    assert bilinear_log_form(a, b, gram) == _fraction_per_term(a, b, gram)


def test_float_form_on_an_exact_gram_converts_only_its_block():
    # rows and columns the form does not read are never converted
    rows = [row[:2] + [None, None] for row in gram_exact(3).entries[:2]] + [None, None]
    gram = GramMatrix(order=3, mode="exact", entries=rows)
    for a, b in (([0.5, 1.0], [1, Fraction(1, 3)]), ([Fraction(1, 3)], [0.25, -2.0])):
        value = bilinear_log_form(a, b, gram)
        assert value == bilinear_log_form(a, b, gram_float(3))


@pytest.mark.parametrize(
    "a, b, build",
    [
        ([Fraction(10**400)], [1.0], gram_float),
        ([10**400], [0.5], gram_float),
        ([1.5], [10**400], gram_exact),
    ],
    ids=["fraction-a", "int-a", "int-b"],
)
def test_float_form_refuses_coefficients_beyond_the_double_range(a, b, build):
    # an int or Fraction past the largest double has no float to round to
    with pytest.raises(ValueError, match="beyond the double range"):
        bilinear_log_form(a, b, build(0))


def test_bilinear_rejects_undersized_gram():
    gram = gram_exact(1)
    with pytest.raises(OrderLimitError):
        bilinear_log_form([1, 2, 3], [1], gram)
    with pytest.raises(ValueError):
        bilinear_log_form([], [1], gram)
    # a matrix is not a coefficient vector, as a list or an array, on either side,
    # nor is a ragged list; None, a string and bytes are no coefficients, where
    # numpy would read them as nan, 1.5 and 2.0
    for bad in ([[1, 2], [3, 4]], np.ones((2, 2)), [[0.5], [1]], [[1, 2], 3], [None], ["1.5"], [b"2"]):
        for build in (gram_exact, gram_float):
            for a, b in ((bad, [1, 1]), ([1, 1], bad)):
                with pytest.raises(ValueError, match="coefficient vectors must be 1-D"):
                    bilinear_log_form(a, b, build(1))


@pytest.mark.parametrize(
    "bad",
    [[np.complex128(1 + 2j)], [0.5, np.complex64(1)], np.array([1 + 2j, 0]), np.zeros(2, complex)],
    ids=["complex128", "complex64-imag-0", "complex-array", "complex-array-imag-0"],
)
@pytest.mark.parametrize("build", [gram_exact, gram_float])
def test_float_form_refuses_complex_coefficients(bad, build):
    # numpy reads a complex value as its real part, with only a ComplexWarning:
    # [1 + 2j] once gave -1.0 on either Gram; an imaginary part of 0 is refused too
    for a, b in ((bad, [1, 1]), ([1, 1], bad)):
        with pytest.raises(ValueError, match="coefficient vectors must be 1-D, of real numbers"):
            bilinear_log_form(a, b, build(1))


def test_complex_refusal_leaves_the_warning_filters_as_found():
    # the refusal turns the warning into an error within the call only; calls
    # from more threads than cores, switching often, must not leave it behind
    before = list(warnings.filters)
    gram = gram_float(1)
    failures = []

    def run():
        for _ in range(300):
            try:
                bilinear_log_form([1.0, 2.0], [0.5, np.complex128(1)], gram)
            except ValueError:
                continue
            failures.append("a complex coefficient was accepted")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert warnings.filters == before


@pytest.mark.parametrize("build", [gram_exact, gram_float])
def test_float_form_refuses_array_elements_and_reads_other_real_types(build):
    # an array among the coefficients is refused by its type, of any shape:
    # a real 0-d one, or one of one value, was once read as that value
    for bad in ([np.array(1 + 2j)], [np.array(0.5)], [np.array([0.5])]):
        for a, b in ((bad, [1, 1]), ([1, 1], bad)):
            with pytest.raises(ValueError, match="coefficient vectors must be 1-D, of real numbers"):
                bilinear_log_form(a, b, build(1))
    # numpy's bool and Decimal are real numbers, read as doubles
    assert bilinear_log_form([np.bool_(True)], [1], build(1)) == -1.0
    assert bilinear_log_form([Decimal("1.5")], [1], build(1)) == -1.5


def test_float_forms_leave_other_threads_warnings_as_set():
    # a float form once turned numpy's ComplexWarning into an error for the
    # whole process while it read its coefficients, so a cast in another
    # thread raised the warning the application had set to "ignore"
    complex_warning = getattr(np, "exceptions", np).ComplexWarning
    gram = gram_float(1)
    done = threading.Event()
    raised = []

    def forms():
        while not done.is_set():
            bilinear_log_form([1.0, 2.0], [0.5, 1.5], gram)

    def casts():
        for _ in range(5000):
            try:
                np.array([1 + 1j]).astype(float)
            except complex_warning:
                raised.append("ComplexWarning")

    switch = sys.getswitchinterval()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", complex_warning)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=forms), threading.Thread(target=casts)]
            for thread in threads:
                thread.start()
            threads[1].join(timeout=60)
            done.set()
            threads[0].join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert raised == []


def test_l2_error_matches_telescoped_tail():
    # Parseval telescopes: the exact error at a given order is 1/(order+1)
    for order in (0, 1, 2, 3, 5, 8, 13, 21, 127, 200, 512):
        report = expansion_l2_error(order)
        assert report.l2_error == 1 / (order + 1)
        assert report.order == order
        assert len(report.coefficients) == order + 1


def test_l2_error_confirmed_by_quadrature():
    # integrate the residual log - sum c_n P_n on the graded mesh with a
    # rule that keeps the polynomial part inside its exactness range
    for order in range(64):
        degree = max(32, order + 8)
        x, w = graded_grid(degree)
        coeffs = np.array([float(c) for c in log_expansion_coeffs(order)])
        residual = np.log(x) - coeffs @ shifted_legendre_table(x, order)
        quad_error = math.sqrt(float(np.dot(w, residual * residual)))
        exact = 1 / (order + 1)
        assert abs(quad_error - exact) <= 1e-10 * exact, order


def test_parseval_consistency():
    # squared error + captured energy = integral of log^2 = 2
    for order in range(33):
        report = expansion_l2_error(order)
        captured = sum(
            float(c) ** 2 / (2 * n + 1) for n, c in enumerate(report.coefficients)
        )
        assert abs(report.l2_error**2 + captured - 2.0) < 1e-9


def test_l2_error_order_cap():
    with pytest.raises(OrderLimitError):
        expansion_l2_error(513)


def test_expansion_has_one_order_cap():
    # the coefficients and the report take the same orders, up to 512
    assert log_expansion_coeffs(512) == expansion_l2_error(512).coefficients
    for func in (log_expansion_coeffs, expansion_l2_error):
        with pytest.raises(OrderLimitError, match="order 513 exceeds the configured maximum 512"):
            func(513)


def test_diag_scaling_table_values():
    table = diag_scaling_table(64)
    assert len(table) == 65
    assert table[0] == (0, -1.0)
    assert table[1] == (1, float(Fraction(-4, 3)))
    assert table[2] == (2, float(Fraction(-41, 30)))
    for n, value in table:
        assert value == float((2 * n + 1) * entry(n, n))


def test_diag_scaling_table_is_decreasing_and_bounded():
    table = diag_scaling_table(128)
    values = [v for _, v in table]
    assert all(a > b for a, b in zip(values, values[1:]))
    floor = -2 * math.log(2) - 1e-12
    assert all(v >= floor for v in values)
