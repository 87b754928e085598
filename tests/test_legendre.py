import ast
import contextlib
import dataclasses
import inspect
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import loglegram as lg
from loglegram import OrderLimitError, cli, legendre, oracles
from loglegram.legendre import MonomialPoly, coeffs_exact, recurrence_sweep
from loglegram.oracles import gauss_legendre_rule, shifted_legendre_table


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


@pytest.mark.parametrize("x", [0.25, Fraction(1, 4), np.array([0.0, 0.25, 1.0])])
def test_sweep_yields_one_value_per_order(x):
    # P_0..P_n_max, and nothing at all below order 0
    for n_max in (-3, -2, -1):
        assert list(recurrence_sweep(n_max, x)) == []
    for n_max in (0, 1, 2, 5):
        assert len(list(recurrence_sweep(n_max, x))) == n_max + 1


def test_eval_batch_bitwise_matches_single_eval():
    # value n of a long sweep is bit for bit the end of a sweep up to n
    rng = random.Random(1404)
    for _ in range(20):
        x = rng.random()
        values = list(recurrence_sweep(64, x))
        assert len(values) == 65
        for n, v in enumerate(values):
            assert v == _last(n, x)
    # on an array each step is computed in place: no later step may write
    # into a value already yielded, so the collected list must still hold
    # every order's own values
    x, _ = oracles._quad_kernel(63)
    values = list(recurrence_sweep(64, x))
    assert len(values) == 65
    for n, v in enumerate(values):
        assert v.tobytes() == _last(n, x).tobytes(), n


def test_exact_coefficients_low_orders():
    assert coeffs_exact(0).coeffs == (1,)
    assert coeffs_exact(1).coeffs == (-1, 2)
    assert coeffs_exact(2).coeffs == (1, -6, 6)
    # hand expansion of (5 t^3 - 3 t)/2 with t = 2x - 1
    assert coeffs_exact(3).coeffs == (-1, 12, -30, 20)


def test_coefficient_vector_invariants():
    for n in range(65):
        poly = coeffs_exact(n)
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
    assert len(coeffs_exact(legendre.MAX_ORDER).coeffs) == legendre.MAX_ORDER + 1


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
        pytest.param(
            lambda v: shifted_legendre_table([0.5], v), 0, _PY_BAD, id="shifted_legendre_table"
        ),
        pytest.param(_via_cli("entry", None, "0"), 0, _CLI_BAD, id="cli-entry-order"),
        pytest.param(_via_cli("gram", None), 0, _CLI_BAD, id="cli-gram-size"),
        pytest.param(
            _via_cli("verify", "--oracle", "quad", "--max-order", "0", "--quad-degree", None),
            1, _CLI_BAD, id="cli-quad-degree",
        ),
        pytest.param(_via_cli("verify", "--max-order", None), 0, _CLI_BAD, id="cli-max-order"),
        pytest.param(_via_cli("expand-log", None), 0, _CLI_BAD, id="cli-expand-log-order"),
        pytest.param(
            _via_cli("entry", "2", "1", "--max-order-cap", None), 0, _CLI_BAD,
            id="cli-max-order-cap",
        ),
    ],
)
def test_integer_entry_points_reject_non_integers_and_low_values(func, minimum, bad_values):
    for value in (*bad_values, minimum - 1):
        with pytest.raises(ValueError):
            func(value)


# every public call that takes integers, with the integers it is given here
_INTEGER_CALLS = [
    pytest.param(legendre.check_order, (5,), id="check_order"),
    pytest.param(lambda n: legendre.check_order(n, n, minimum=n), (300,), id="check_order-bounds"),
    pytest.param(lg.coeffs_exact, (7,), id="coeffs_exact"),
    pytest.param(lg.entry, (4, 1), id="entry"),
    pytest.param(lg.entry, (3, 3), id="entry-diagonal"),
    pytest.param(lambda n, m: lg.entry(n, m, max_order=n), (300, 7), id="entry-max_order"),
    pytest.param(lg.gram_exact, (6,), id="gram_exact"),
    pytest.param(lg.gram_float, (6,), id="gram_float"),
    pytest.param(lambda n: lg.gram_float(n, max_order=n), (300,), id="gram_float-max_order"),
    pytest.param(lg.exact_entry_oracle, (5, 3), id="exact_entry_oracle"),
    pytest.param(lg.quad_entry_oracle, (5, 3), id="quad_entry_oracle"),
    pytest.param(lg.gauss_legendre_rule, (4,), id="gauss_legendre_rule"),
    pytest.param(
        lambda n: shifted_legendre_table(np.linspace(0, 1, 5), n), (6,), id="shifted_legendre_table"
    ),
    pytest.param(lg.verify_range, (6,), id="verify_range-exact"),
    pytest.param(lambda n: lg.verify_range(n, "quad"), (6,), id="verify_range-quad"),
    pytest.param(lg.log_expansion_coeffs, (5,), id="log_expansion_coeffs"),
    pytest.param(lg.expansion_l2_error, (5,), id="expansion_l2_error"),
    pytest.param(lg.diag_scaling_table, (4,), id="diag_scaling_table"),
]


def _same(a, b):
    """Equal values of the same types, down to the ints inside Fractions and fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Fraction):
        return a == b and type(b.numerator) is int and type(b.denominator) is int
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        fields = dataclasses.fields(a)
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(map(_same, a.values(), b.values()))
    return a == b


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
@pytest.mark.parametrize("func, args", _INTEGER_CALLS)
def test_integer_entry_points_take_numpy_integers(func, args, numpy_int):
    assert _same(func(*args), func(*map(numpy_int, args)))


@pytest.mark.parametrize("func, args", _INTEGER_CALLS)
def test_integer_entry_points_refuse_numpy_bools(func, args):
    with pytest.raises(ValueError, match="must be an integer"):
        func(np.bool_(True), *args[1:])


@pytest.mark.parametrize("array", [np.array([2]), np.array([2, 3])], ids=["one", "two"])
@pytest.mark.parametrize("func, args", _INTEGER_CALLS)
def test_integer_entry_points_refuse_numpy_arrays(func, args, array):
    # an array of one or more dimensions is not an integer, however many
    # values it holds: a ValueError naming the parameter, not numpy's own error
    with pytest.raises(ValueError, match="must be an integer"):
        func(array, *args[1:])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda cap: legendre.check_order(2, cap), id="check_order"),
        pytest.param(lambda cap: lg.entry(2, 1, max_order=cap), id="entry"),
        pytest.param(lambda cap: lg.gram_exact(2, max_order=cap), id="gram_exact"),
    ],
)
def test_max_order_cap_is_validated(call):
    # a cap is a nonnegative integer or math.inf: a bool is not read as 1,
    # nor a float as a bound, nor a string compared to an int
    for cap in (True, "5", 2.5, -1):
        with pytest.raises(ValueError, match="^max_order must be ") as info:
            call(cap)
        assert not isinstance(info.value, OrderLimitError)
    expected = call(None)
    for cap in (math.inf, 2, 5, np.int64(5), np.int32(2)):
        assert _same(call(cap), expected)
    for cap in (1, np.int64(1)):
        with pytest.raises(OrderLimitError, match="exceeds the configured maximum 1$"):
            call(cap)


def test_legendre_imports_no_numpy():
    tree = ast.parse(inspect.getsource(legendre))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(name.split(".")[0] == "numpy" for name in imported), imported
