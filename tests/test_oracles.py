import ast
import copy
import dataclasses
import importlib
import inspect
import math
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loglegram import OrderLimitError, exactmoments, legendre, oracles
from loglegram.exactmoments import _Store
from loglegram.legendre import MAX_ORDER, coeffs_exact, recurrence_sweep
from loglegram.oracles import (
    exact_entry_oracle,
    gauss_legendre_rule,
    quad_entry_oracle,
    shifted_legendre_table,
    verify_range,
)


def test_exact_oracle_point_values():
    assert exact_entry_oracle(0, 0) == Fraction(-1)
    assert exact_entry_oracle(1, 1) == Fraction(-4, 9)
    # 36x^4 - 72x^3 + 48x^2 - 12x + 1 integrated term by term
    assert exact_entry_oracle(2, 2) == Fraction(-41, 150)
    assert exact_entry_oracle(2, 1) == Fraction(1, 4)
    assert exact_entry_oracle(0, 3) == Fraction(1, 12)


def test_exact_oracle_matches_fraction_term_sum():
    # reference: one Fraction per monomial term, each log moment of x**k
    # taken as -1/(k+1)**2, so the oracle's integer weights big // (k+1)**2
    # are tied to the moments themselves
    def term_sum(n, m):
        a, b = coeffs_exact(n).coeffs, coeffs_exact(m).coeffs
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
        return sum(
            (c * Fraction(-1, (k + 1) ** 2) for k, c in enumerate(conv) if c), Fraction(0)
        )

    pairs = [(n, m) for n in range(25) for m in range(25)]
    pairs += [(64, m) for m in range(65)]
    # the widest packed digits and the squared products at n == m; the pairs
    # at 128 and (255, 254) give even and odd digit counts in both halves
    # of the two-point product
    pairs += [(MAX_ORDER, m) for m in (0, 1, MAX_ORDER - 1, MAX_ORDER)]
    pairs += [(128, m) for m in range(0, 129, 7)] + [(128, 127), (128, 128), (255, 254)]
    for n, m in pairs:
        assert exact_entry_oracle(n, m) == term_sum(n, m), (n, m)


def test_exact_oracle_cap():
    assert exact_entry_oracle(MAX_ORDER, MAX_ORDER) < 0
    with pytest.raises(OrderLimitError, match="n 257 exceeds the configured maximum 256"):
        exact_entry_oracle(MAX_ORDER + 1, 0)
    with pytest.raises(OrderLimitError, match="m 257 exceeds the configured maximum 256"):
        exact_entry_oracle(0, MAX_ORDER + 1)


def test_rule_degree_one_is_midpoint():
    rule = gauss_legendre_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_rule_degree_two():
    rule = gauss_legendre_rule(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 32, 127, 128, 256])
def test_rule_structure(degree):
    rule = gauss_legendre_rule(degree)
    nodes, weights = rule.nodes, rule.weights
    assert nodes.shape == weights.shape == (degree,)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    assert abs(weights.sum() - 2.0) < 1e-14
    # mirrored construction: symmetry is exact
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])


@pytest.mark.parametrize("degree", [2, 8, 32])
def test_rule_integrates_monomials_exactly(degree):
    rule = gauss_legendre_rule(degree)
    for k in range(2 * degree):
        approx = float(np.dot(rule.weights, rule.nodes**k))
        expected = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(approx - expected) < 1e-13


@pytest.mark.parametrize("degree", [5, 32, 64])
def test_rule_matches_numpy_construction(degree):
    nodes, weights = np.polynomial.legendre.leggauss(degree)
    rule = gauss_legendre_rule(degree)
    assert rule.nodes == pytest.approx(nodes, abs=5e-14)
    assert rule.weights == pytest.approx(weights, abs=5e-14)


@pytest.mark.parametrize("degree", [0, 258, -4, 2.0])
def test_rule_rejects_bad_degrees(degree):
    with pytest.raises(ValueError):
        gauss_legendre_rule(degree)


def test_rule_is_cached_and_read_only():
    rule = gauss_legendre_rule(16)
    assert gauss_legendre_rule(16) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_import_leaves_numpy_polynomial_unloaded():
    # leggauss is imported on the first rule, so that only the quadrature
    # paths pay for numpy.polynomial; a fresh interpreter shows it
    package_root = str(pathlib.Path(oracles.__file__).resolve().parent.parent)
    code = (
        "import sys, loglegram\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "loglegram.gauss_legendre_rule(2)\n"
        "print(before, 'numpy.polynomial' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False True\n"


def test_fold_and_pair_list_are_in_triangle_index_order():
    # the fold is x_i x_j with its weight for i <= j, row by row, as the
    # np.triu_indices construction gives it bit for bit; the report's pairs
    # are those of np.tril_indices, in values, order and dtype
    for degree in list(range(1, 41)) + [128, 257]:
        rule = gauss_legendre_rule(degree)
        x, w = 0.5 * (1.0 + rule.nodes), 0.5 * rule.weights
        i, j = np.triu_indices(degree)
        weights = w[i] * w[j]
        weights[i != j] *= 2
        y, s = oracles._quad_kernel(2 * degree - 1, rule)
        assert y.tobytes() == (x[i] * x[j]).tobytes(), degree
        assert s.tobytes() == np.sqrt(weights).tobytes(), degree
    for max_order in list(range(41)) + [128]:
        rows, cols = np.tril_indices(max_order + 1)
        for mode in ("exact", "quad"):
            report = verify_range(max_order, mode)
            for got, want in ((report.n, rows), (report.m, cols)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (max_order, mode)


def test_table_matches_scalar_evaluation():
    # the product-rule nodes the oracle evaluates on, and a geometric
    # sweep down to 2**-64
    nodes, _ = oracles._quad_kernel(63)
    x = np.concatenate([[0.0, 0.123, 0.5, 0.875, 1.0], np.geomspace(2.0**-64, 1.0, 200), nodes])
    table = shifted_legendre_table(x, 24)
    for j, xj in enumerate(x):
        assert table[:, j].tolist() == list(recurrence_sweep(24, float(xj)))


def test_table_reads_x_of_any_shape_as_its_flattened_values():
    x = np.linspace(0.0, 1.0, 12)
    flat = shifted_legendre_table(x, 9)
    assert flat.tobytes() == np.array(list(recurrence_sweep(9, x))).tobytes()
    for shape in ((2, 6), (3, 2, 2), (12, 1)):
        table = shifted_legendre_table(x.reshape(shape), 9)
        assert table.shape == (10, 12) and table.tobytes() == flat.tobytes(), shape
    half = shifted_legendre_table(np.full((2, 3), 0.5), 2)
    assert half.tolist() == [[1.0] * 6, [0.0] * 6, [-0.5] * 6]


def test_table_refuses_orders_past_max_order_before_allocating():
    x = np.linspace(0.0, 1.0, 4)
    assert shifted_legendre_table(x, MAX_ORDER).shape == (MAX_ORDER + 1, 4)
    for n_max in (MAX_ORDER + 1, 10**6):
        tracemalloc.start()
        try:
            with pytest.raises(OrderLimitError, match=f"n_max {n_max} exceeds"):
                shifted_legendre_table(x, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, n_max


def test_quad_oracle_point_values():
    assert quad_entry_oracle(0, 0) == pytest.approx(-1.0, abs=1e-12)
    assert quad_entry_oracle(2, 1) == pytest.approx(0.25, abs=1e-12)
    exact = float(exactmoments.entry(10, 10))
    assert quad_entry_oracle(10, 10) == pytest.approx(exact, rel=1e-11)


def _quad_close(approx, exact):
    err = abs(approx - exact)
    return err <= oracles.QUAD_REL_TOL * abs(exact) or err <= oracles.QUAD_ABS_TOL


def test_quad_oracle_order_bounds():
    with pytest.raises(OrderLimitError):
        quad_entry_oracle(300, 0)
    # at MAX_ORDER the oracle scales itself to the 151-node rule that is
    # exact for n + m = 300
    exact = float(exactmoments.entry(256, 44))
    assert _quad_close(quad_entry_oracle(256, 44), exact)


def test_quad_table_is_bounded_before_anything_is_built(monkeypatch):
    # the table is streamed in node chunks, so the sweep at MAX_ORDER
    # passes within one 32 MiB chunk and a little more
    verify_range(4, "quad")
    tracemalloc.start()
    try:
        report = verify_range(256, "quad")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.num_pairs == 33153
    assert peak <= 36 * 2**20
    rule = gauss_legendre_rule(128)
    assert math.isfinite(quad_entry_oracle(127, 127, rule))

    def unreachable(*args, **kwargs):
        raise AssertionError("built a rule or a table past a refusal")

    monkeypatch.setattr(oracles, "shifted_legendre_table", unreachable)
    monkeypatch.setattr(oracles, "recurrence_sweep", unreachable)
    monkeypatch.setattr(oracles, "_cached_rule", unreachable)
    monkeypatch.setattr(np, "outer", unreachable)  # the product grid
    # something that is not a rule
    with pytest.raises(ValueError, match=r"rule must be gauss_legendre_rule\(degree\) or None, got 8"):
        verify_range(5, "quad", rule=8)
    # a rule too small for the span
    with pytest.raises(OrderLimitError, match="exact only for n \\+ m <= 255"):
        quad_entry_oracle(128, 128, rule)
    with pytest.raises(OrderLimitError, match="129 nodes"):
        verify_range(128, "quad", rule=rule)
    # an order past MAX_ORDER, whose span would need more than
    # MAX_QUAD_DEGREE nodes, refused before its rule is computed
    with pytest.raises(OrderLimitError, match="max_order 257 exceeds the configured maximum 256"):
        verify_range(257, "quad")
    with pytest.raises(OrderLimitError, match="n 257 exceeds the configured maximum 256"):
        quad_entry_oracle(257, 0)


def _three_nodes(degree):
    return oracles.QuadratureRule(degree, np.array([-0.5, 0.0, 0.5]), np.full(3, 2 / 3))


@pytest.mark.parametrize(
    "rule, message",
    [
        # three nodes that are no Gauss rule: trusted as exact, they would fail
        # right closed forms (degree 3) or index past their grid (degree 5)
        pytest.param(_three_nodes(3), "rule must be gauss_legendre_rule", id="3"),
        pytest.param(_three_nodes(5), "rule must be gauss_legendre_rule", id="5"),
        # no rule at all: a degree is not taken for one
        pytest.param(8, r"rule must be gauss_legendre_rule\(degree\) or None, got 8", id="int"),
        pytest.param("x", r"rule must be gauss_legendre_rule\(degree\) or None, got 'x'", id="str"),
    ],
)
def test_quad_refuses_a_rule_built_by_hand(rule, message):
    with pytest.raises(ValueError, match=message):
        verify_range(2, "quad", rule=rule)
    with pytest.raises(ValueError, match=message):
        quad_entry_oracle(2, 1, rule)


def test_every_rule_from_gauss_legendre_rule_is_accepted_under_threads():
    # the oracle once trusted only the very object in the rule cache, so a
    # rule from a first call that raced another one's was refused as built
    # by hand
    oracles._cached_rule.cache_clear()
    degrees = range(1, oracles.MAX_QUAD_DEGREE + 1, 4)
    results = []

    def check(degree):
        try:
            results.append(verify_range(0, "quad", rule=gauss_legendre_rule(degree)).passed)
        except ValueError as exc:
            results.append(f"{degree}: {exc}"[:80])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for degree in degrees:
            threads = [threading.Thread(target=check, args=(degree,)) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert results == [True] * (4 * len(degrees))


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda rule: pickle.loads(pickle.dumps(rule))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_of_a_rule_are_accepted(duplicate):
    rule = gauss_legendre_rule(16)
    twin = duplicate(rule)
    assert twin is not rule and repr(twin) == repr(rule)
    expected = verify_range(15, "quad", rule=rule)
    assert np.array_equal(verify_range(15, "quad", rule=twin).errors["abs"], expected.errors["abs"])
    assert quad_entry_oracle(20, 11, twin) == quad_entry_oracle(20, 11, rule)


def test_a_rule_is_read_only_for_its_degree():
    # a deep copy owns writable arrays; overwriting them changes no result,
    # and neither does replacing them, since replace() keeps the Gauss marker
    rule = gauss_legendre_rule(16)
    overwritten = copy.deepcopy(rule)
    overwritten.nodes[:] = 0.0
    overwritten.weights[:] = 1.0
    replaced = dataclasses.replace(rule, nodes=np.zeros(16), weights=np.ones(16))
    expected = verify_range(15, "quad", rule=rule)
    for twin in (overwritten, replaced):
        report = verify_range(15, "quad", rule=twin)
        assert report.passed and report.num_pairs == 136
        for name, errors in expected.errors.items():
            assert report.errors[name].tobytes() == errors.tobytes()
        assert np.array_equal(report.pair_passed, expected.pair_passed)
        assert quad_entry_oracle(20, 11, twin) == quad_entry_oracle(20, 11, rule)


def test_quad_gram_in_node_chunks_is_the_one_chunk_gram(monkeypatch):
    # 2**10 cells split the 861 nodes of the 41-node rule into chunks of
    # 24: the chunk sums move the last bits only, and no verdict
    whole = oracles._quad_gram(40, None)
    report = verify_range(40, "quad")
    tables = []
    build = oracles._weighted_table

    def counted(y, s, n_max):
        tables.append(y.size)
        return build(y, s, n_max)

    monkeypatch.setattr(oracles, "_QUAD_CHUNK_CELLS", 2**10)
    monkeypatch.setattr(oracles, "_weighted_table", counted)
    chunked = oracles._quad_gram(40, None)
    assert len(tables) == 36 and max(tables) == 24 and sum(tables) == 861
    assert np.array_equal(chunked, chunked.T)
    assert np.abs(chunked - whole).max() <= 1e-15
    assert np.array_equal(verify_range(40, "quad").pair_passed, report.pair_passed)


def _assert_within_reference_table(table, y, s):
    # row k within (k+1)**2 u s of the generator's row times s, u = 2**-53;
    # rows 0 and 1, s and t s, are the same products bit for bit
    n_max = table.shape[0] - 1
    reference = shifted_legendre_table(y, n_max) * s
    assert table.shape == reference.shape
    assert np.array_equal(table[:2], reference[:2])
    bound = (np.arange(n_max + 1)[:, None] + 1) ** 2 * 2.0**-53 * s
    assert np.all(np.abs(table - reference) <= bound), n_max


@pytest.mark.parametrize(
    "n_max, degree", [(0, 128), (1, 128), (2, 128), (40, 128), (127, 128), (256, None)]
)
def test_weighted_table_is_the_reference_table_weighted(n_max, degree):
    # the sweep's division-free table on the nodes and weights of its rule,
    # in slices of at most 8,192 nodes: each column is its own recurrence
    rule = None if degree is None else gauss_legendre_rule(degree)
    y, s = oracles._quad_kernel(2 * n_max, rule)
    for start in range(0, y.size, 8192):
        part = slice(start, start + 8192)
        table = oracles._weighted_table(y[part], s[part], n_max)
        _assert_within_reference_table(table, y[part], s[part])


def test_weighted_table_across_chunk_seams(monkeypatch):
    # 2**10 cells cut the 861 nodes of the 41-node rule into chunks of 24;
    # side by side, the chunks are the one-chunk table bit for bit, and the
    # sweep never calls the generator
    build = oracles._weighted_table
    chunks = []

    def kept(y, s, n_max):
        table = build(y, s, n_max)
        chunks.append(table.copy())
        return table

    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep built a table with the generator")

    monkeypatch.setattr(oracles, "_QUAD_CHUNK_CELLS", 2**10)
    monkeypatch.setattr(oracles, "_weighted_table", kept)
    monkeypatch.setattr(oracles, "shifted_legendre_table", unreachable)
    oracles._quad_gram(40, None)
    monkeypatch.undo()
    assert [chunk.shape[1] for chunk in chunks] == [24] * 35 + [21]
    y, s = oracles._quad_kernel(80)
    whole = build(y, s, 40)
    assert np.array_equal(np.concatenate(chunks, axis=1), whole)
    _assert_within_reference_table(whole, y, s)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 300),
    m=st.integers(0, 300),
    degree=st.one_of(st.none(), st.integers(1, oracles.MAX_QUAD_DEGREE)),
)
@example(n=230, m=230, degree=None)  # large rules: the single-pair oracle builds no table
@example(n=255, m=255, degree=None)
@example(n=256, m=256, degree=None)
def test_quad_oracle_agrees_or_refuses(n, m, degree):
    # within tolerance of the closed form, or refused exactly when an
    # order passes MAX_ORDER or the rule is not exact for n + m
    rule = None if degree is None else gauss_legendre_rule(degree)
    nodes = (n + m) // 2 + 1 if degree is None else degree
    refuse = max(n, m) > MAX_ORDER or n + m > 2 * nodes - 1
    try:
        approx = quad_entry_oracle(n, m, rule)
    except OrderLimitError:
        assert refuse, (n, m, degree)
    else:
        assert not refuse, (n, m, degree)
        assert _quad_close(approx, float(exactmoments.entry(n, m))), (n, m, degree)


@pytest.mark.parametrize("degree", [1, 2, 4, 8, 16, 32])
def test_quad_rule_range_is_sharp(degree):
    # every pair inside n + m <= 2d - 1 is exact to rounding; every pair
    # on n + m = 2d, evaluated on the same grid, is off by more than 1 %
    rule = gauss_legendre_rule(degree)
    top = 2 * degree - 1
    for n in range(top + 1):
        for m in range(min(n, top - n) + 1):
            exact = float(exactmoments.entry(n, m))
            assert abs(quad_entry_oracle(n, m, rule) - exact) <= 1e-15, (n, m)
    y, s = oracles._quad_kernel(top, rule)
    table = shifted_legendre_table(y, top + 1) * s
    for n in range(top + 2):
        m = top + 1 - n
        exact = float(exactmoments.entry(n, m))
        assert abs(-float(table[n] @ table[m]) - exact) > 0.01 * abs(exact), (n, m)
    with pytest.raises(OrderLimitError):
        quad_entry_oracle(degree, degree, rule)


@pytest.mark.parametrize("max_order, degree", [(40, None), (127, None), (201, None), (127, 128)])
def test_quad_sweeps_in_range_pass(max_order, degree):
    # default sweeps up to order 201 and the 128-node rule up to order 127
    # keep their worst error at 1e-14; order 256 passes in the memory bound
    # above
    rule = None if degree is None else gauss_legendre_rule(degree)
    report = verify_range(max_order, "quad", rule=rule)
    assert report.passed
    assert report.worst["abs"] <= 1e-14


def test_verify_exact_small_range():
    report = verify_range(5, "exact")
    assert report.num_pairs == 21
    assert report.num_passed == 21
    assert report.passed
    assert (report.criterion, report.errors, report.worst) == ("exact", {}, {})


def test_verify_quad_single_pair():
    report = verify_range(0, "quad")
    assert report.num_pairs == 1
    assert report.passed
    assert report.criterion == "within tolerance (rel 1e-10, abs 1e-13)"
    assert list(report.errors) == list(report.worst) == ["abs", "rel"]
    assert report.worst["abs"] <= 1e-12


def _faulty_entry(n, m):
    """The closed form, off by 1e-9 on every pair with n + m divisible by 7."""
    value = exactmoments.entry(n, m, max_order=max(n, m))
    return value + Fraction(1, 10**9) if (n + m) % 7 == 0 else value


@pytest.mark.parametrize("rule, fault", [(None, None), (gauss_legendre_rule(32), _faulty_entry)])
def test_verify_quad_errors_are_the_single_oracle_errors(rule, fault):
    # the sweep's one product and the single oracle's dot sum in different
    # orders, so on one rule they agree to a few ulps of |N| <= 1, not bit
    # for bit; the default sweep takes the 21-node rule, and a failure
    # comes only from a fault injected into the closed form
    closed = fault or exactmoments.entry
    report = verify_range(20, "quad", rule=rule, entry_fn=fault)
    assert report.num_pairs == 231
    assert report.passed == (fault is None)
    rule = rule or gauss_legendre_rule(21)  # the default: the smallest exact rule
    swept = oracles._quad_gram(20, rule)
    assert np.array_equal(swept, swept.T)
    for c in _all_pairs(report):
        n, m = c["n"], c["m"]
        exact = float(closed(n, m))
        single = quad_entry_oracle(n, m, rule)
        assert c["errors"]["abs"] == abs(swept[n, m] - exact)
        assert abs(swept[n, m] - single) <= 1e-15, (n, m)
        assert _quad_close(single, exact) == c["passed"] == ((n + m) % 7 != 0 or fault is None)


def test_verify_quad_peak_memory_is_the_table():
    # the 128 x 8,256 table of a 128-node rule is 8 MiB; the closed side
    # and the report are built after it is freed, so the sweep stays
    # within the 9.6 MiB (+5 %) that the per-pair sweep needed
    rule = gauss_legendre_rule(128)
    verify_range(4, "quad", rule=rule)
    tracemalloc.start()
    try:
        verify_range(127, "quad", rule=rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.6 * 1.05 * 2**20


@pytest.mark.parametrize("mode", ["exact", "quad"])
def test_verify_gram_side_is_the_entry_side(mode):
    # the default closed side is one Gram; entry by entry gives the same report
    max_order = 17 if mode == "exact" else 31
    by_gram = verify_range(max_order, mode)
    by_entry = verify_range(max_order, mode, entry_fn=exactmoments.entry)
    for name in ("n", "m", "pair_passed"):
        assert np.array_equal(getattr(by_gram, name), getattr(by_entry, name)), name
    assert by_gram.errors.keys() == by_entry.errors.keys()
    for name, errors in by_gram.errors.items():
        assert np.array_equal(errors, by_entry.errors[name]), name


SWEEPS = {
    "exact-0": (0, "exact", {}),
    "exact-5": (5, "exact", {}),
    "exact-40": (40, "exact", {}),
    "quad-0": (0, "quad", {}),
    "quad-31": (31, "quad", {}),
    "quad-20-32-fault": (20, "quad", {"rule": gauss_legendre_rule(32), "entry_fn": _faulty_entry}),
    "quad-201-fault": (201, "quad", {"entry_fn": _faulty_entry}),  # 2,929 injected failures
}


def _all_pairs(report):
    """Reference: each pair's indices, outcome and errors by name, read one by one as a dict."""
    return [
        {
            "n": int(report.n[i]),
            "m": int(report.m[i]),
            "passed": bool(report.pair_passed[i]),
            "errors": {name: float(errors[i]) for name, errors in report.errors.items()},
        }
        for i in range(report.num_pairs)
    ]


@pytest.mark.parametrize("sweep", SWEEPS)
def test_report_summaries_are_lazy_and_match_the_checks(sweep, monkeypatch):
    max_order, mode, settings = SWEEPS[sweep]
    report = verify_range(max_order, mode, **settings)
    checks = _all_pairs(report)
    rows, cols = np.tril_indices(max_order + 1)
    assert np.array_equal(report.n, rows) and np.array_equal(report.m, cols)
    built, pair_check = [], oracles.PairCheck

    def counted(*args):
        built.append(args)
        return pair_check(*args)

    monkeypatch.setattr(oracles, "PairCheck", counted)
    summaries = (
        report.num_pairs,
        report.num_passed,
        report.passed,
        report.failures,
        report.worst,
    )
    num_pairs, num_passed, passed, failures, worst = summaries
    # only the failing pairs are built
    assert len(built) == len(failures)
    assert num_pairs == len(checks) == (max_order + 1) * (max_order + 2) // 2
    assert num_passed == sum(c["passed"] for c in checks)
    assert passed is all(c["passed"] for c in checks)
    # a failure is its pair's indices alone; its errors stay in the report's arrays
    assert failures == [pair_check(c["n"], c["m"]) for c in checks if not c["passed"]]
    for c in failures:
        assert type(c) is pair_check and type(c.n) is int and type(c.m) is int
    for c in checks:
        assert list(c["errors"]) == ([] if mode == "exact" else ["abs", "rel"])
        assert all(type(e) is float for e in c["errors"].values())
    if mode == "exact":
        assert (report.errors, worst) == ({}, {})
    else:
        assert list(report.errors) == list(worst) == ["abs", "rel"]
        assert worst["abs"] == max(c["errors"]["abs"] for c in checks)
        assert worst["rel"] == max(c["errors"]["rel"] for c in checks)
        assert all(type(value) is float for value in worst.values())

    # the arrays every summary is read from cannot change under them
    with pytest.raises(ValueError):
        report.pair_passed[0] = not report.pair_passed[0]
    arrays = (report.n, report.m, report.pair_passed, *report.errors.values())
    assert not any(a.flags.writeable for a in arrays)


def test_exact_sums_are_the_single_oracle(monkeypatch):
    # the sweep's recurrence and the single oracle's monomial expansion are
    # two derivations: the sweep builds no coefficient vector
    def unreachable(*args, **kwargs):
        raise AssertionError("the sweep built a coefficient vector")

    monkeypatch.setattr(oracles, "coeffs_exact", unreachable)
    sums, big = oracles._exact_sums(64)
    monkeypatch.undo()
    assert big == math.lcm(*range(1, 130)) ** 2
    pairs = list(zip(*np.tril_indices(65)))
    assert len(pairs) == len(sums) == 2145
    for (n, m), s in zip(pairs, sums):
        assert Fraction(-s, big) == exact_entry_oracle(int(n), int(m)), (n, m)


def test_exact_sums_past_order_128_are_the_single_oracle():
    sums, big = oracles._exact_sums(MAX_ORDER)
    assert len(sums) == 33153
    for n in (129, 200, 256):
        for m in sorted({0, 1, 2, n // 3, n // 2, n - 2, n - 1, n}):
            s = sums[n * (n + 1) // 2 + m]  # the pair's place in tril_indices order
            assert Fraction(-s, big) == exact_entry_oracle(n, m), (n, m)


def test_exact_sums_agree_across_orders():
    # each order's sums are the leading ones of the largest sweep, rescaled
    # from lcm(1..2k+1)**2 to the common denominator at MAX_ORDER
    sums, big = oracles._exact_sums(MAX_ORDER)
    for k in list(range(65)) + [128, MAX_ORDER]:
        leading, big_k = oracles._exact_sums(k)
        assert big % big_k == 0, k
        scale = big // big_k
        count = (k + 1) * (k + 2) // 2
        assert [s * scale for s in leading] == sums[:count], k


def test_oracle_module_keeps_no_state():
    # the oracles build what they need per call; the package's stores and
    # their lock live in exactmoments alone
    assert not any(isinstance(value, _Store) for value in vars(oracles).values())
    assert _Store.__module__ == "loglegram.exactmoments"
    assert "threading" not in inspect.getsource(legendre)


@pytest.mark.parametrize("cell", [(256, 0), (256, 256), (200, 199), (129, 64)])
def test_exact_sweep_localises_a_tiny_fault(cell):
    # one cell off by one part in 2**1000 fails, and only that pair
    gram = exactmoments.gram_exact(MAX_ORDER)

    def perturbed(n, m):
        value = gram.entries[n][m]
        return value * (1 + Fraction(1, 2**1000)) if (n, m) == cell else value

    report = verify_range(MAX_ORDER, "exact", entry_fn=perturbed)
    assert [(c.n, c.m) for c in report.failures] == [cell]
    assert report.num_passed == report.num_pairs - 1 == 33152


def test_verify_caps():
    assert verify_range(MAX_ORDER, "exact").num_passed == 33153
    with pytest.raises(OrderLimitError, match="max_order 257 exceeds the configured maximum 256"):
        verify_range(257, "exact")
    with pytest.raises(OrderLimitError):
        verify_range(257, "quad")
    with pytest.raises(ValueError):
        verify_range(5, "fancy")
    # an unhashable mode is no mode either, not a TypeError
    with pytest.raises(ValueError, match="mode must be 'exact' or 'quad', got \\['exact'\\]"):
        verify_range(3, ["exact"])


def test_verify_exact_refuses_quad_settings():
    # the exact oracle uses no Gauss rule
    with pytest.raises(ValueError, match="rule applies to quad sweeps only"):
        verify_range(5, "exact", rule=gauss_legendre_rule(8))


def test_verify_reports_injected_failure():
    def perturbed(n, m):
        value = exactmoments.entry(n, m)
        if (n, m) == (3, 2):
            return value + Fraction(1, 10**6)
        return value

    report = verify_range(5, "exact", entry_fn=perturbed)
    assert not report.passed
    assert [(c.n, c.m) for c in report.failures] == [(3, 2)]
    assert report.num_passed == report.num_pairs - 1

    quad_report = verify_range(5, "quad", entry_fn=perturbed)
    assert not quad_report.passed
    assert [(c.n, c.m) for c in quad_report.failures] == [(3, 2)]


def test_oracles_are_structurally_independent():
    # the two oracle paths must not touch the closed-form module
    for func in (
        exact_entry_oracle,
        quad_entry_oracle,
        shifted_legendre_table,
        oracles._quad_kernel,
        oracles._weighted_table,
        oracles._quad_gram,
        oracles._exact_sums,
    ):
        source = inspect.getsource(func)
        assert "exactmoments" not in source, func.__name__
    assert "exact_entry_oracle" not in inspect.getsource(quad_entry_oracle)


def test_check_order_is_the_only_integer_validator():
    # an isinstance(..., bool) test outside legendre.py is a hand-rolled
    # integer check that should call check_order instead
    package = pathlib.Path(oracles.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "legendre.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and any(
                    isinstance(sub, ast.Name) and sub.id == "bool"
                    for arg in node.args[1:]
                    for sub in ast.walk(arg)
                )
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_exported_name_resolves():
    # a name dropped from a module must leave its __all__ too
    package = pathlib.Path(oracles.__file__).parent
    names = ["loglegram"] + [f"loglegram.{path.stem}" for path in sorted(package.glob("[!_]*.py"))]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_every_imported_name_is_used():
    # a deletion must not leave a dead import behind; a name in __all__ counts as used
    package = pathlib.Path(oracles.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        name = "loglegram" if path.stem == "__init__" else f"loglegram.{path.stem}"
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(getattr(importlib.import_module(name), "__all__", ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {b}" for b in bound if b not in used]
    assert unused == []


def _private_names(statement):
    """The names ``_x`` (not dunders) that a module-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        bound = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        bound = []
    return [name for name in bound if name.startswith("_") and not name.startswith("__")]


def _read_names(statement):
    """Every name that ``statement`` reads, as a name, an attribute or an import."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_name_is_used():
    # a deletion must not leave a dead helper behind: each module-level _name
    # is read somewhere in the package outside the statement that binds it
    package = pathlib.Path(oracles.__file__).parent
    statements = [
        (path.name, statement)
        for path in sorted(package.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unused = []
    for path, statement in statements:
        for name in _private_names(statement):
            if not any(name in _read_names(other) for _, other in statements if other is not statement):
                unused.append(f"{path}:{statement.lineno} {name}")
    assert unused == []
