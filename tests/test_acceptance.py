"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import time
from fractions import Fraction

from loglegram import cli, exactmoments, oracles
from loglegram.analysis import expansion_l2_error
from loglegram.exactmoments import entry, entry_diag
from loglegram.legendre import coeffs_exact
from loglegram.oracles import exact_entry_oracle, verify_range


def _report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exact_oracle_equivalence():
    start = time.perf_counter()
    mismatches = [
        (n, m)
        for n in range(41)
        for m in range(n + 1)
        if entry(n, m) != exact_entry_oracle(n, m)
    ]
    elapsed = time.perf_counter() - start
    _report(
        "1 exact oracle equivalence, 861 pairs, zero tolerance",
        not mismatches and elapsed < 30.0,
        f"{861 - len(mismatches)}/861 exact in {elapsed:.2f}s",
    )


def test_criterion_2_point_values():
    ok = entry(0, 0) == Fraction(-1) and entry(1, 1) == Fraction(-4, 9)
    base_ok = all(
        entry(n, 0) == Fraction((-1) ** (n + 1), n * (n + 1)) for n in range(1, 129)
    )
    _report(
        "2 point values and base case up to order 128, exact",
        ok and base_ok,
    )


def test_criterion_3_diagonal_recurrence_consistency():
    ok = all(
        (2 * n + 1) * entry_diag(n) - (2 * n - 1) * entry_diag(n - 1)
        == -2 * Fraction(1, (2 * n - 1) * 2 * n * (2 * n + 1))
        for n in range(1, 129)
    )
    _report("3 diagonal two-term recurrence vs closed sum, exact to 128", ok)


def _mul_shift(coeffs):
    """Coefficient vector of (2x - 1) * p(x)."""
    out = [0] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] += 2 * c
        out[i] -= c
    return out


def _padded(coeffs, length):
    return list(coeffs) + [0] * (length - len(coeffs))


def test_criterion_4_polynomial_identity_suite():
    ok = True
    for n in range(1, 65):
        p_prev = coeffs_exact(n - 1).coeffs
        p_cur = coeffs_exact(n).coeffs
        p_next = coeffs_exact(n + 1).coeffs
        lhs_int = _mul_shift(p_cur)
        width = len(p_next)
        rhs_int = [
            (n + 1) * a + n * b
            for a, b in zip(p_next, _padded(p_prev, width))
        ]
        # multiplied-through form: (2n+1)(2x-1)P_n = (n+1)P_{n+1} + nP_{n-1}
        ok &= [(2 * n + 1) * c for c in _padded(lhs_int, width)] == rhs_int
        # divided form: (2x-1)P_n = ((n+1)P_{n+1} + nP_{n-1}) / (2n+1)
        ok &= [Fraction(c) for c in _padded(lhs_int, width)] == [
            Fraction(c, 2 * n + 1) for c in rhs_int
        ]
    for m in range(2, 65):
        p_prev2 = coeffs_exact(m - 2).coeffs
        p_prev = coeffs_exact(m - 1).coeffs
        p_cur = coeffs_exact(m).coeffs
        width = len(p_cur)
        lhs = [m * c for c in p_cur]
        shifted = _padded(_mul_shift(p_prev), width)
        rhs = [
            (2 * m - 1) * a - (m - 1) * b
            for a, b in zip(shifted, _padded(p_prev2, width))
        ]
        ok &= lhs == rhs
    _report("4 recurrence identities as exact coefficient identities to 64", ok)


def test_criterion_5_quadrature_cross_check():
    start = time.perf_counter()
    report = verify_range(20, "quad")
    elapsed = time.perf_counter() - start
    _report(
        "5 quadrature cross-check, pairs <= 20, rel 1e-10 / abs 1e-13",
        report.passed and elapsed < 10.0,
        f"{report.num_passed}/{report.num_pairs} pairs, worst rel "
        f"{report.worst_rel:.3e}, {elapsed:.2f}s",
    )


def test_criterion_6_expansion_sanity():
    errors = {order: expansion_l2_error(order).l2_error for order in (0, 1, 2, 4, 8, 16, 32)}
    ok = abs(errors[0] - 1.0) <= 1e-10 and abs(errors[1] - 0.5) <= 1e-10
    sequence = [errors[o] for o in (0, 1, 2, 4, 8, 16, 32)]
    ok &= all(a > b for a, b in zip(sequence, sequence[1:]))
    _report(
        "6 expansion errors at orders 0 and 1, strict decrease to 32",
        ok,
        f"l2(0)={errors[0]:.12f}, l2(1)={errors[1]:.12f}",
    )


def test_criterion_7_diagonal_asymptote():
    scaled = float((2 * 1000 + 1) * entry_diag(1000, max_order=1000))
    deviation = abs(scaled + 2 * math.log(2))
    _report(
        "7 scaled diagonal at order 1000 within 1e-6 of -2 log 2",
        deviation <= 1e-6,
        f"deviation {deviation:.3e}",
    )


def test_criterion_8_cli_contract(run_cli, monkeypatch):
    code, out, _ = run_cli("gram", "4", "--exact", "--format", "json")
    round_trip = code == 0 and cli._dump_json(json.loads(out)) == out

    true_gram = exactmoments.gram_exact

    def perturbed(size, **kwargs):
        gram = true_gram(size, **kwargs)
        gram.entries[4][2] += Fraction(1, 10**9)
        return gram

    monkeypatch.setattr(exactmoments, "gram_exact", perturbed)
    inj_code, _, _ = run_cli("verify", "--max-order", "10", "--oracle", "exact")
    monkeypatch.setattr(exactmoments, "gram_exact", true_gram)
    clean_code, _, _ = run_cli("verify", "--max-order", "10", "--oracle", "exact")

    _report(
        "8 CLI round-trip serialization and exit-code injection",
        round_trip and inj_code == 2 and clean_code == 0,
        f"round_trip={round_trip}, injected exit={inj_code}, clean exit={clean_code}",
    )
