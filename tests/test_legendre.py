import contextlib
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from loglegram import cli, legendre
from loglegram.errors import OrderLimitError
from loglegram.legendre import MonomialPoly, coeffs_exact, recurrence_sweep
from loglegram.oracles import gauss_legendre_rule


def _last(n, x):
    """P_n(2x-1): the last value of a sweep up to n."""
    *_, value = recurrence_sweep(n, x)
    return value


def test_value_one_at_right_endpoint():
    for n in (0, 1, 2, 5, 17, 64):
        assert _last(n, 1) == 1


def test_alternating_value_at_left_endpoint():
    for n in (0, 1, 2, 5, 17, 64):
        assert _last(n, 0) == (-1) ** n


def test_order_two_at_midpoint():
    # P_2(2x-1) = 6x^2 - 6x + 1
    assert _last(2, 0.5) == -0.5


def test_eval_outside_unit_interval_is_allowed():
    # P_3(t) = (5 t^3 - 3 t) / 2 at t = 2
    assert _last(3, 1.5) == pytest.approx(17.0, abs=1e-12)


def test_eval_batch_endpoint_values():
    assert list(recurrence_sweep(2, 1)) == [1, 1, 1]
    assert list(recurrence_sweep(2, 0)) == [1, -1, 1]
    assert list(recurrence_sweep(2, 0.5)) == [1, 0.0, -0.5]


def test_eval_batch_bitwise_matches_single_eval():
    # value n of a long sweep is bit for bit the end of a sweep up to n
    rng = random.Random(1404)
    for _ in range(20):
        x = rng.random()
        values = list(recurrence_sweep(64, x))
        assert len(values) == 65
        for n, v in enumerate(values):
            assert v == _last(n, x)


def test_exact_coefficients_low_orders():
    assert coeffs_exact(0).coeffs == (1,)
    assert coeffs_exact(1).coeffs == (-1, 2)
    assert coeffs_exact(2).coeffs == (1, -6, 6)
    # hand expansion of (5 t^3 - 3 t)/2 with t = 2x - 1
    assert coeffs_exact(3).coeffs == (-1, 12, -30, 20)


def test_coefficient_vector_invariants():
    for n in range(65):
        poly = coeffs_exact(n)
        assert poly.degree == n
        assert len(poly.coeffs) == n + 1
        assert sum(poly.coeffs) == 1  # P_n(1) = 1
        assert poly.coeffs[0] == (-1) ** n  # P_n(-1) = (-1)**n
        if n >= 1:
            assert poly.coeffs[-1] != 0


def _coeffs_by_vector_recurrence(n):
    """The three-term recurrence on integer coefficient vectors, t = 2x-1.

    This is how coeffs_exact used to build its output; the division by
    k+1 is exact, which the divmod asserts.
    """
    if n == 0:
        return (1,)
    prev, cur = [1], [-1, 2]
    for k in range(1, n):
        shifted = [0] * (len(cur) + 1)  # (2x - 1) * cur
        for i, c in enumerate(cur):
            shifted[i + 1] += 2 * c
            shifted[i] -= c
        nxt = []
        for i, s in enumerate(shifted):
            q, r = divmod((2 * k + 1) * s - (k * prev[i] if i < len(prev) else 0), k + 1)
            assert r == 0
            nxt.append(q)
        prev, cur = cur, nxt
    return tuple(cur)


@pytest.mark.parametrize("n", [*range(65), 128, 255, 256])
def test_binomial_coefficients_match_vector_recurrence(n):
    assert coeffs_exact(n).coeffs == _coeffs_by_vector_recurrence(n)


def test_term_ratio_matches_binomial_sum():
    # each term of the closed binomial sum from math.comb, independently
    # of the ratio that takes one term from the one before
    for n in range(legendre.MAX_ORDER + 1):
        expected = tuple(
            (-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1)
        )
        assert coeffs_exact(n).coeffs == expected, n


def test_leading_coefficient_is_central_binomial():
    for n in range(31):
        expected = math.factorial(2 * n) // (math.factorial(n) ** 2)
        assert coeffs_exact(n).coeffs[-1] == expected


def test_horner_agrees_with_recurrence():
    # 100 random rationals in [0, 1]; the exact recurrence must equal the
    # coefficient sum exactly and the floating one track it closely.
    rng = random.Random(20260809)
    points = []
    for _ in range(100):
        den = rng.randint(1, 64)
        points.append(Fraction(rng.randint(0, den), den))
    for n in range(65):
        poly = coeffs_exact(n)
        for x in points:
            exact = sum(c * x**k for k, c in enumerate(poly.coeffs))
            assert _last(n, x) == exact
            approx = _last(n, float(x))
            assert math.isclose(approx, float(exact), rel_tol=1e-13, abs_tol=1e-13)


def test_bounded_on_unit_interval_grid():
    worst = 0.0
    for i in range(1000):
        x = i / 999
        worst = max(worst, max(abs(v) for v in recurrence_sweep(128, x)))
    assert worst <= 1 + 1e-12


@given(st.integers(min_value=0, max_value=128), st.floats(min_value=0.0, max_value=1.0))
def test_bounded_on_unit_interval_property(n, x):
    assert abs(_last(n, x)) <= 1 + 1e-12


def test_coeffs_order_bounds():
    with pytest.raises(OrderLimitError):
        coeffs_exact(legendre.MAX_ORDER + 1)
    with pytest.raises(ValueError):
        coeffs_exact(-3)
    assert coeffs_exact(legendre.MAX_ORDER).degree == legendre.MAX_ORDER


def test_monomial_poly_is_frozen():
    poly = MonomialPoly((1, -6, 6))
    with pytest.raises(AttributeError):
        poly.coeffs = (1,)


def _via_cli(*argv):
    """Spell the value into argv (at the None slot); exit 1 with no stdout is a rejection."""

    def call(value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(value) if arg is None else arg for arg in argv])
        if (code, out.getvalue()) == (1, "") and err.getvalue():
            raise ValueError(err.getvalue())
        return code

    return call


_PY_BAD = (True, 2.0, "3")
# argv is text: "True" and "2.0" are str() of the first two, and a string
# "3" is a valid spelling there, so a non-decimal spelling of 3 stands in.
_CLI_BAD = (True, 2.0, "3e0")


@pytest.mark.parametrize(
    "func, minimum, bad_values",
    [
        pytest.param(legendre.check_order, 0, _PY_BAD, id="check_order"),
        pytest.param(
            lambda v: legendre.check_order(v, math.inf, minimum=1), 1, _PY_BAD,
            id="check_order-minimum-1",
        ),
        pytest.param(gauss_legendre_rule, 1, _PY_BAD, id="gauss_legendre_rule"),
        pytest.param(_via_cli("entry", None, "0"), 0, _CLI_BAD, id="cli-entry-order"),
        pytest.param(_via_cli("gram", None), 0, _CLI_BAD, id="cli-gram-size"),
        pytest.param(
            _via_cli("verify", "--oracle", "quad", "--max-order", "0", "--quad-degree", None),
            1, _CLI_BAD, id="cli-quad-degree",
        ),
    ],
)
def test_integer_entry_points_reject_non_integers_and_low_values(func, minimum, bad_values):
    for value in (*bad_values, minimum - 1):
        with pytest.raises(ValueError):
            func(value)
