import ast
import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loglegram
from loglegram import cli, exactmoments, oracles
from loglegram.exactmoments import GramMatrix


def test_entry_exact_plain(run_cli):
    code, out, err = run_cli("entry", "0", "0", "--exact")
    assert (code, out, err) == (0, "-1/1\n", "")
    code, out, _ = run_cli("entry", "2", "1", "--exact")
    assert (code, out) == (0, "1/4\n")


def test_entry_float_uses_shortest_repr(run_cli):
    code, out, _ = run_cli("entry", "1", "0")
    assert (code, out) == (0, "0.5\n")
    code, out, _ = run_cli("entry", "2", "2")
    assert (code, out) == (0, "-0.2733333333333333\n")


def test_entry_json(run_cli):
    code, out, _ = run_cli("entry", "2", "1", "--exact", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "m": 1, "mode": "exact", "value": "1/4"}


def test_entry_bad_arguments(run_cli):
    for args in (["entry", "2", "x"], ["entry", "-1", "0"], ["entry", "2"]):
        code, out, err = run_cli(*args)
        assert code == 1
        assert out == ""
        assert err != ""


def test_entry_respects_order_cap(run_cli):
    code, out, _ = run_cli("entry", "300", "0")
    assert code == 1
    code, out, _ = run_cli("entry", "300", "0", "--max-order-cap", "300", "--exact")
    assert (code, out) == (0, "-1/90300\n")


def test_gram_exact_csv(run_cli):
    code, out, err = run_cli("gram", "1", "--exact", "--format", "csv")
    assert code == 0
    assert out == "-1/1,1/2\n1/2,-4/9\n"
    assert err == ""


def test_gram_float_json(run_cli):
    code, out, _ = run_cli("gram", "0", "--format", "json")
    assert code == 0
    assert out == '{"size":0,"mode":"float","entries":[[-1.0]]}\n'


def test_gram_plain_is_symmetric_table(run_cli):
    code, out, _ = run_cli("gram", "2", "--exact")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)
    assert rows[0][1] == rows[1][0] == "1/2"


def test_gram_writes_file(run_cli, tmp_path):
    target = tmp_path / "gram.csv"
    code, out, _ = run_cli("gram", "1", "--exact", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "-1/1,1/2\n1/2,-4/9\n"


def test_gram_unwritable_destination(run_cli, tmp_path):
    code, out, err = run_cli(
        "gram", "1", "--out", str(tmp_path / "missing" / "gram.csv")
    )
    assert code == 1
    assert out == ""
    assert "cannot write" in err


def test_gram_negative_size(run_cli):
    code, _, err = run_cli("gram", "-3")
    assert code == 1
    assert "nonnegative" in err


def test_gram_json_round_trip_is_byte_identical(run_cli):
    for flags in (["--exact"], []):
        code, out, _ = run_cli("gram", "3", "--format", "json", *flags)
        assert code == 0
        assert cli._dump_json(json.loads(out)) == out


def _per_cell_gram_text(gram, fmt):
    """Reference: every cell of both triangles rendered on its own."""
    if fmt == "json":
        rows = [[cli._json_cell(v) for v in row] for row in gram.entries]
        return cli._dump_json({"size": gram.order, "mode": gram.mode, "entries": rows})
    cells = [[cli._format_value(v) for v in row] for row in gram.entries]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells)
    width = max(len(c) for row in cells for c in row)
    return "".join("  ".join(c.rjust(width) for c in row) + "\n" for row in cells)


@pytest.mark.parametrize(
    "size, exact",
    [(size, False) for size in (0, 1, 2, 7, 64, 192)] + [(size, True) for size in (0, 1, 2, 7, 64)],
)
def test_gram_output_matches_per_cell_reference(run_cli, tmp_path, size, exact):
    build = exactmoments.gram_exact if exact else exactmoments.gram_float
    flags = ["--exact"] if exact else []
    for fmt in ("plain", "csv", "json"):
        expected = _per_cell_gram_text(build(size), fmt)
        code, out, err = run_cli("gram", str(size), *flags, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == expected
        target = tmp_path / f"gram.{fmt}"
        code, out, _ = run_cli("gram", str(size), *flags, "--format", fmt, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == expected


def test_entry_matches_gram_cell(run_cli):
    code, out, _ = run_cli("gram", "32", "--exact", "--format", "json")
    assert code == 0
    entries = json.loads(out)["entries"]
    rng = random.Random(321)
    for _ in range(20):
        n, m = rng.randint(0, 32), rng.randint(0, 32)
        code, out, _ = run_cli("entry", str(n), str(m), "--exact")
        assert code == 0
        assert out.strip() == entries[n][m]


def test_verify_exact_summary(run_cli):
    code, out, _ = run_cli("verify", "--max-order", "20", "--oracle", "exact")
    assert code == 0
    assert out == "231/231 pairs exact\n"


def test_verify_quad_reports_worst_deviation(run_cli):
    code, out, _ = run_cli("verify", "--max-order", "5", "--oracle", "quad")
    assert code == 0
    assert "21/21 pairs within tolerance" in out
    assert "worst rel" in out


def test_verify_quad_json_and_flags(run_cli):
    code, out, _ = run_cli(
        "verify",
        "--max-order", "4",
        "--oracle", "quad",
        "--quad-degree", "16",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["pairs"] == payload["passed"] == 15
    assert payload["worst_rel"] <= 1e-10


def test_verify_quad_json_lists_failures(run_cli, monkeypatch):
    # the quad oracle is exact at order 40, so failures come from a fault
    # injected into the closed forms; the failing pairs must reach the
    # payload as plain JSON integers
    true_gram = exactmoments.gram_float

    def perturbed(size, **kwargs):
        gram = true_gram(size, **kwargs)
        gram.entries[36:, 36:] *= 1 + 1e-6
        return gram

    monkeypatch.setattr(exactmoments, "gram_float", perturbed)
    code, out, _ = run_cli(
        "verify", "--max-order", "40", "--oracle", "quad", "--format", "json"
    )
    assert code == 2
    payload = json.loads(out)
    assert (payload["pairs"], payload["passed"], payload["ok"]) == (861, 846, False)
    assert len(payload["failures"]) == 15
    assert payload["failures"][0] == [36, 36]
    assert cli._dump_json(payload) == out


def test_verify_exact_over_cap(run_cli):
    code, out, _ = run_cli("verify", "--max-order", "256", "--oracle", "exact")
    assert (code, out) == (0, "33153/33153 pairs exact\n")
    code, out, err = run_cli("verify", "--max-order", "257", "--oracle", "exact")
    assert code == 1
    assert out == ""
    assert "exceeds" in err


def test_verify_quad_refuses_past_the_degree_cap(run_cli):
    # a large table is streamed in node chunks, so only the rule's size
    # bounds a sweep: order 257 would need a 258-node rule, one past the
    # cap, and is refused as past MAX_ORDER
    code, out, _ = run_cli(
        "verify", "--max-order", "200", "--oracle", "quad", "--quad-degree", "256"
    )
    assert code == 0
    assert out.startswith("20301/20301 pairs within tolerance")
    for fmt in ("plain", "csv", "json"):
        code, out, err = run_cli(
            "verify", "--max-order", "257", "--oracle", "quad", "--format", fmt
        )
        assert (code, out) == (1, "")
        assert "exceeds" in err


def test_verify_quad_scales_itself_or_refuses(run_cli):
    # order 256 once exited 2 with 31,858 false failures; the default rule
    # now grows with the order up to MAX_ORDER, and a given rule too small
    # for the order is refused
    for order, pairs in (("201", 20503), ("202", 20706), ("256", 33153)):
        code, out, _ = run_cli("verify", "--max-order", order, "--oracle", "quad")
        assert code == 0
        assert out.startswith(f"{pairs}/{pairs} pairs within tolerance")
    for fmt in ("plain", "csv", "json"):
        code, out, err = run_cli(
            "verify", "--oracle", "quad", "--max-order", "64", "--quad-degree", "64",
            "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert "exact only for n + m <= 127" in err


def test_verify_quad_refuses_panels(run_cli):
    # the graded panel mesh is gone, and so is its option
    code, out, err = run_cli("verify", "--max-order", "2", "--oracle", "quad", "--panels", "48")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --panels" in err


def test_verify_refuses_max_order_cap(run_cli):
    # no oracle can honour a raised cap: both sweeps stop at MAX_ORDER
    for oracle, cap in (("exact", "50"), ("quad", "300")):
        for fmt in ("plain", "csv", "json"):
            code, out, err = run_cli(
                "verify", "--max-order", "5", "--oracle", oracle,
                "--max-order-cap", cap, "--format", fmt,
            )
            assert (code, out) == (1, "")
            assert "unrecognized arguments: --max-order-cap" in err


def test_verify_injected_failure_exits_two(run_cli, monkeypatch):
    true_gram = exactmoments.gram_exact

    def perturbed(size, **kwargs):
        gram = true_gram(size, **kwargs)
        gram.entries[2][1] += Fraction(1, 1000)
        return gram

    monkeypatch.setattr(exactmoments, "gram_exact", perturbed)
    code, out, _ = run_cli("verify", "--max-order", "5", "--oracle", "exact")
    assert code == 2
    assert "20/21 pairs exact" in out
    assert "FAIL (2,1)" in out


def test_verify_csv_lists_pairs(run_cli):
    code, out, _ = run_cli("verify", "--max-order", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "0,0,pass"


def _per_pair_verify_csv(report):
    """Reference: one f-string per pair, read from the report's arrays one by one."""
    lines = []
    for i in range(report.num_pairs):
        status = "pass" if report.pair_passed[i] else "fail"
        row = f"{int(report.n[i])},{int(report.m[i])},{status}"
        if report.mode == "quad":
            row += f",{float(report.errors['abs'][i])!r},{float(report.errors['rel'][i])!r}"
        lines.append(row + "\n")
    return "".join(lines)


def test_verify_csv_matches_per_pair_reference(run_cli, monkeypatch):
    sweeps = [(0, "exact"), (20, "exact"), (0, "quad"), (40, "quad"), (256, "quad")]
    for max_order, oracle in sweeps:
        expected = _per_pair_verify_csv(oracles.verify_range(max_order, oracle))
        code, out, _ = run_cli(
            "verify", "--max-order", str(max_order), "--oracle", oracle, "--format", "csv"
        )
        assert (code, out) == (0, expected)

    # failing pairs keep their place and read "fail"
    true_gram = exactmoments.gram_float

    def perturbed(size, **kwargs):
        gram = true_gram(size, **kwargs)
        gram.entries[36:, 36:] *= 1 + 1e-6
        return gram

    monkeypatch.setattr(exactmoments, "gram_float", perturbed)
    expected = _per_pair_verify_csv(oracles.verify_range(40, "quad"))
    assert expected.count(",fail,") == 15
    code, out, _ = run_cli("verify", "--max-order", "40", "--oracle", "quad", "--format", "csv")
    assert (code, out) == (2, expected)


def _stub_spread(max_order, closed, rule, rows, cols):
    return cols <= 1, "within a made-up bound", {"spread": np.full(rows.size, 0.25)}


def _stub_three(max_order, closed, rule, rows, cols):
    errors = {"bound": np.full(rows.size, 0.25), "ratio": rows * 0.5, "fault": cols * 1.0}
    return cols <= 1, "within three made-up bounds", errors


# each stub oracle's criterion, worst errors, csv lines and plain worst errors
# over the pairs up to order 2, of which (2, 2) fails
STUB_ORACLES = {
    "spread": (
        _stub_spread,
        "within a made-up bound",
        {"spread": 0.25},
        ["0,0,pass,0.25", "1,0,pass,0.25", "1,1,pass,0.25",
         "2,0,pass,0.25", "2,1,pass,0.25", "2,2,fail,0.25"],
        "worst spread 2.500e-01",
    ),
    "bound-ratio-fault": (
        _stub_three,
        "within three made-up bounds",
        {"bound": 0.25, "ratio": 1.0, "fault": 2.0},
        ["0,0,pass,0.25,0.0,0.0", "1,0,pass,0.25,0.5,0.0", "1,1,pass,0.25,0.5,1.0",
         "2,0,pass,0.25,1.0,0.0", "2,1,pass,0.25,1.0,1.0", "2,2,fail,0.25,1.0,2.0"],
        "worst bound 2.500e-01, worst ratio 1.000e+00, worst fault 2.000e+00",
    ),
}


@pytest.mark.parametrize("stub", STUB_ORACLES)
def test_verify_formats_any_oracle_from_its_report(run_cli, monkeypatch, stub):
    # an oracle added to the one table reaches every format through the report
    # alone: any number of error arrays, by name, and its criterion; a failure
    # is its pair's indices, whatever the oracle's errors are called
    check, criterion, worst, csv_lines, worst_text = STUB_ORACLES[stub]
    monkeypatch.setitem(oracles.ORACLES, "stub", check)
    report = oracles.verify_range(2, "stub")
    assert (report.criterion, report.worst, report.worst_pair) == (criterion, worst, None)
    assert report.failures == [oracles.PairCheck(2, 2)]

    argv = ("verify", "--max-order", "2", "--oracle", "stub", "--format")
    code, out, err = run_cli(*argv, "json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "mode": "stub", "max_order": 2, "pairs": 6, "passed": 5, "ok": False,
        "failures": [[2, 2]], **{f"worst_{name}": value for name, value in worst.items()},
    }
    code, out, _ = run_cli(*argv, "csv")
    assert code == 2
    assert out.splitlines() == csv_lines
    code, out, _ = run_cli(*argv, "plain")
    assert code == 2
    assert out == f"5/6 pairs {criterion}; {worst_text}\nFAIL (2,2)\n"

    monkeypatch.delitem(oracles.ORACLES, "stub")
    code, out, err = run_cli(*argv, "plain")
    assert (code, out) == (1, "")
    assert "invalid choice: 'stub'" in err
    with pytest.raises(ValueError, match="mode must be 'exact' or 'quad', got 'stub'"):
        oracles.verify_range(2, "stub")


def test_expand_log_order_one(run_cli):
    code, out, _ = run_cli("expand-log", "1")
    assert code == 0
    assert out == "coefficients: -1.0, 1.5\nl2_error: 0.5\n"


def test_expand_log_order_zero(run_cli):
    code, out, _ = run_cli("expand-log", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [-1.0]
    assert payload["l2_error"] == pytest.approx(1.0, abs=1e-10)


def test_expand_log_order_eight_regression_anchor(run_cli):
    code, out, _ = run_cli("expand-log", "8", "--format", "json")
    assert code == 0
    l2 = json.loads(out)["l2_error"]
    assert l2 < 0.12
    assert l2 == pytest.approx(0.11111111111111074, abs=1e-12)


def test_expand_log_order_cap(run_cli):
    code, out, err = run_cli("expand-log", "513")
    assert code == 1
    assert out == ""
    assert "exceeds" in err


def test_expand_log_refuses_max_order_cap(run_cli):
    for order, cap in (("3", "1"), ("600", "1000")):
        for fmt in ("plain", "csv", "json"):
            code, out, err = run_cli(
                "expand-log", order, "--max-order-cap", cap, "--format", fmt
            )
            assert (code, out) == (1, "")
            assert "unrecognized arguments: --max-order-cap" in err


def test_expand_log_csv(run_cli):
    code, out, _ = run_cli("expand-log", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,-1.0"
    assert lines[1] == "1,1.5"
    assert lines[-1].startswith("l2_error,")


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_bilinear_exact_files(run_cli, tmp_path):
    a = _write(tmp_path / "a.txt", "0\n0\n1\n")
    b = _write(tmp_path / "b.txt", "0\n1\n")
    code, out, _ = run_cli("bilinear", a, b)
    assert (code, out) == (0, "1/4\n")


def test_bilinear_constant_vectors(run_cli, tmp_path):
    a = _write(tmp_path / "a.txt", "1\n")
    code, out, _ = run_cli("bilinear", a, a)
    assert (code, out) == (0, "-1/1\n")


def test_bilinear_fraction_files_with_comments(run_cli, tmp_path):
    a = _write(tmp_path / "a.txt", "# leading comment\n1/2\n\n3/2\n")
    b = _write(tmp_path / "b.txt", "1\n")
    code, out, _ = run_cli("bilinear", a, b)
    # (1/2 P0 + 3/2 P1, P0) = -1/2 + 3/2 * 1/2
    assert (code, out) == (0, "1/4\n")


def test_bilinear_float_files(run_cli, tmp_path):
    a = _write(tmp_path / "a.txt", "1.0\n")
    b = _write(tmp_path / "b.txt", "1\n")
    code, out, _ = run_cli("bilinear", a, b)
    assert (code, out) == (0, "-1.0\n")


def test_bilinear_mixed_kind_file_rejected(run_cli, tmp_path):
    a = _write(tmp_path / "a.txt", "1/2\n0.25\n")
    b = _write(tmp_path / "b.txt", "1\n")
    code, out, err = run_cli("bilinear", a, b)
    assert code == 1
    assert out == ""
    assert "mixes" in err


def test_bilinear_unparseable_file(run_cli, tmp_path):
    b = _write(tmp_path / "b.txt", "1\n")
    # a spaced or underscored fraction is refused on every Python, whichever
    # of them Fraction(str) would accept
    for bad in ("spam\n", "nan\n", "inf\n", "2 / 3\n", "1_0/3\n"):
        a = _write(tmp_path / "a.txt", bad)
        code, _, err = run_cli("bilinear", a, b)
        assert code == 1
        assert "unparseable" in err


def test_bilinear_integer_beyond_double_range_is_input_error(run_cli, tmp_path):
    ones = "1" * 400 + "\n"
    mixed = _write(tmp_path / "mixed.txt", ones + "0.5\n")
    integers = _write(tmp_path / "integers.txt", ones + "2\n")
    decimals = _write(tmp_path / "decimals.txt", "0.25\n")
    # the oversized integer makes its own file float, or the other file does
    cases = ((mixed, decimals, mixed), (integers, decimals, integers), (decimals, integers, integers))
    for a, b, culprit in cases:
        for fmt in ("plain", "csv", "json"):
            code, out, err = run_cli("bilinear", a, b, "--format", fmt)
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {culprit}: ") and err.count("\n") == 1
    # on its own the integer file is an exact form
    code, out, _ = run_cli("bilinear", integers, integers, "--format", "json")
    assert code == 0 and json.loads(out)["mode"] == "exact"


def test_exact_results_past_the_int_digit_limit_print(run_cli, tmp_path):
    # str(int) refuses more than 4,300 digits; results are printed in full,
    # while input lines stay under that limit
    nines = _write(tmp_path / "nines.txt", "9" * 4000 + "\n")
    # -(10**4000 - 1)**2 = -(10**8000 - 2 * 10**4000 + 1), over N[0, 0] = -1
    value = "-" + "9" * 3999 + "8" + "0" * 3999 + "1/1"
    code, out, err = run_cli("bilinear", nines, nines)
    assert (code, out, err) == (0, value + "\n", "")
    code, out, err = run_cli("bilinear", nines, nines, "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{"mode":"exact","value":"' + value + '"}\n'
    entry = exactmoments.entry(5000, 5000, max_order=5000)
    for fmt in ("plain", "json"):
        argv = ("entry", "5000", "5000", "--exact", "--max-order-cap", "5000", "--format", fmt)
        code, out, err = run_cli(*argv)
        assert (code, err) == (0, "")
        text = json.loads(out)["value"] if fmt == "json" else out.removesuffix("\n")
        p, q = (int(Decimal(k)) for k in text.split("/"))  # int(str) would refuse them
        assert (p, q) == (entry.numerator, entry.denominator) and len(text) > 8000
    too_long = _write(tmp_path / "long.txt", "9" * 5000 + "\n")
    code, out, err = run_cli("bilinear", too_long, nines)
    assert (code, out) == (1, "")
    assert "unparseable value" in err


# the line kinds a fuzz of coefficient files drew from: 5,000-digit ints,
# 1/0, nan, inf, 1e309, NUL, a byte order mark and subnormals, among
# fraction, int and decimal lines
_COEFF_LINES = st.one_of(
    st.sampled_from(
        [
            "9" * 5000, "-" + "7" * 5000, "1/" + "3" * 5000, "1/0", "0/0", "nan", "-inf", "inf",
            "1e309", "-1e309", "\x00", "1\x00", "\ufeff", "\ufeff1", "5e-324", "-4.9e-324",
            "2.2250738585072014e-308", "1.7976931348623157e308", "# comment", "", "  ",
        ]
    ),
    st.fractions().map(str),
    st.integers().map(str),
    st.floats().map(repr),
)


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(_COEFF_LINES, max_size=8),
    b=st.lists(_COEFF_LINES, max_size=8),
    fmt=st.sampled_from(["plain", "csv", "json"]),
    cap=st.sampled_from([None, "0", "3", "300"]),
)
def test_bilinear_files_keep_the_exit_code_contract(a, b, fmt, cap):
    # in-process, so each example costs no interpreter start-up
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, lines in (("a.txt", a), ("b.txt", b)):
            path = pathlib.Path(tmp, name)
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            paths.append(str(path))
        argv = ["bilinear", *paths, "--format", fmt]
        argv += [] if cap is None else ["--max-order-cap", cap]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert out and err == ""
    else:
        assert out == "" and err, err


def test_bilinear_missing_file(run_cli, tmp_path):
    b = _write(tmp_path / "b.txt", "1\n")
    code, _, err = run_cli("bilinear", str(tmp_path / "nope.txt"), b)
    assert code == 1
    assert "cannot read" in err


def test_bilinear_file_not_utf8_names_the_file(run_cli, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff1\n")
    one = _write(tmp_path / "one.txt", "1\n")
    for a, b in ((str(bad), one), (one, str(bad))):
        code, out, err = run_cli("bilinear", a, b)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


def test_bilinear_file_without_values_names_the_file(run_cli, tmp_path):
    empty = _write(tmp_path / "empty.txt", "# only comments\n\n   \n# and blank lines\n")
    one = _write(tmp_path / "one.txt", "1\n")
    for a, b in ((empty, one), (one, empty)):
        for fmt in ("plain", "csv", "json"):
            code, out, err = run_cli("bilinear", a, b, "--format", fmt)
            assert (code, out, err) == (1, "", f"error: {empty}: no coefficient values found\n")


def test_bilinear_zero_vector_stays_exact(run_cli, tmp_path):
    a = _write(tmp_path / "zero.txt", "0\n0\n")
    b = _write(tmp_path / "b.txt", "1/2\n3\n")
    expected = {"plain": "0/1\n", "csv": "0/1\n", "json": '{"mode":"exact","value":"0/1"}\n'}
    for fmt, want in expected.items():
        assert run_cli("bilinear", a, b, "--format", fmt) == (0, want, "")


def test_bilinear_refuses_gram_size(run_cli, tmp_path):
    a = _write(tmp_path / "a.txt", "0\n0\n1\n")
    code, out, err = run_cli("bilinear", a, a, "--gram-size", "5")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --gram-size" in err


def test_non_finite_value_is_numerical_failure(run_cli, monkeypatch, tmp_path):
    huge = _write(tmp_path / "huge.txt", "1e308\n1e308\n")
    for fmt in ("plain", "csv", "json"):
        # a' N b overflows to -inf + inf = nan on valid, finite input
        code, out, err = run_cli("bilinear", huge, huge, "--format", fmt)
        assert (code, out) == (3, "")
        assert "numerical failure" in err

    def broken(size, **kwargs):
        return GramMatrix(order=0, mode="float", entries=[[float("inf")]])

    monkeypatch.setattr(exactmoments, "gram_float", broken)
    for fmt in ("plain", "csv", "json"):
        for args in (["gram", "0"], ["gram", "0", "--out", str(tmp_path / "g.txt")]):
            code, out, err = run_cli(*args, "--format", fmt)
            assert code == 3
            assert out == ""
            assert "numerical failure" in err
    assert not (tmp_path / "g.txt").exists()

    # nan at (0, 1) comes first in row-major order, before -inf at (1, 0)
    cells = [[-1.0, float("nan")], [float("-inf"), -4 / 9]]
    for entries in (cells, np.array(cells)):
        monkeypatch.setattr(
            exactmoments,
            "gram_float",
            lambda size, entries=entries, **kwargs: GramMatrix(1, "float", entries),
        )
        for fmt in ("plain", "csv", "json"):
            for args in (["gram", "1"], ["gram", "1", "--out", str(tmp_path / "g.txt")]):
                code, out, err = run_cli(*args, "--format", fmt)
                assert (code, out) == (3, "")
                assert "numerical failure: non-finite value nan cannot be serialized" in err
                assert not (tmp_path / "g.txt").exists()


def test_no_command_is_usage_error(run_cli):
    code, out, err = run_cli()
    assert code == 1
    assert out == ""


def test_verify_exact_refuses_quad_settings(run_cli):
    for fmt in ("plain", "csv", "json"):
        code, out, err = run_cli(
            "verify", "--max-order", "5", "--oracle", "exact", "--quad-degree", "8",
            "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert "quad sweeps only" in err


def test_closed_pipe_keeps_exit_code(cli_process):
    # about 1.5 MB of csv, far more than a pipe buffer holds
    proc = cli_process(
        "gram", "256", "--format", "csv", stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_closed_pipe_after_failed_verification_exits_two(run_cli, monkeypatch, tmp_path):
    true_gram = exactmoments.gram_exact

    def perturbed(size, **kwargs):
        gram = true_gram(size, **kwargs)
        gram.entries[2][1] += Fraction(1, 1000)
        return gram

    class ClosedPipe:
        # stands in for a stdout whose reader has exited
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    monkeypatch.setattr(exactmoments, "gram_exact", perturbed)
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        code, _, err = run_cli("verify", "--max-order", "5", "--oracle", "exact")
    assert code == 2
    assert err == ""


def test_python_dash_m_runs_the_cli(cli_process):
    proc = cli_process("entry", "2", "1", stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, b"0.25\n", b"")


def test_only_main_writes_stdout():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    main = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    writers = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    ]
    assert writers
    assert all(main.lineno <= line <= main.end_lineno for line in writers), writers


# the library's check names the parameter; argparse names the argument it cannot parse
_BAD_INTEGERS = [
    (("entry", "-1", "0"), "n must be nonnegative, got -1"),
    (("entry", "0", "-2"), "m must be nonnegative, got -2"),
    (("gram", "-3"), "size must be nonnegative, got -3"),
    (("gram", "-3", "--out", "{out}"), "size must be nonnegative, got -3"),
    (("expand-log", "-1"), "order must be nonnegative, got -1"),
    (("verify", "--max-order", "-1"), "max_order must be nonnegative, got -1"),
    (("verify", "--oracle", "quad", "--quad-degree", "0"), "degree must be positive, got 0"),
    (("verify", "--oracle", "exact", "--quad-degree", "-2"), "degree must be positive, got -2"),
    (("entry", "2", "1", "--max-order-cap", "-1"), "max_order must be nonnegative, got -1"),
    (("gram", "2", "--max-order-cap", "-1"), "max_order must be nonnegative, got -1"),
    (
        ("bilinear", "{one}", "{one}", "--max-order-cap", "-1"),
        "max_order must be nonnegative, got -1",
    ),
    (("gram", "x"), "argument size: invalid int value: 'x'"),
    (
        ("entry", "2", "1", "--max-order-cap", "2.5"),
        "argument --max-order-cap: invalid int value: '2.5'",
    ),
]


@pytest.mark.parametrize(
    "argv, message",
    _BAD_INTEGERS,
    ids=["_".join(argv).replace("{", "").replace("}", "") for argv, _ in _BAD_INTEGERS],
)
def test_bad_integer_is_one_error_line_naming_the_parameter(run_cli, tmp_path, argv, message):
    paths = {"out": str(tmp_path / "g.txt"), "one": _write(tmp_path / "one.txt", "1\n")}
    argv = [arg.format(**paths) for arg in argv]
    for fmt in ("plain", "csv", "json"):
        assert run_cli(*argv, "--format", fmt) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "g.txt").exists()


def test_cli_leaves_integer_checks_to_the_library():
    # every integer argument is parsed by int and range-checked once, by the
    # check_order call that starts the library function the command reaches
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "legendre" not in imported
    types = [
        keyword.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for keyword in node.keywords
        if keyword.arg == "type"
    ]
    assert len(types) == 7
    assert all(isinstance(t, ast.Name) and t.id == "int" for t in types)


# argparse's output at COLUMNS=80; --oracle lists the keys of oracles.ORACLES
_VERIFY_HELP = """\
usage: loglegram verify [-h] [--max-order MAX_ORDER] [--oracle {exact,quad}]
                        [--quad-degree QUAD_DEGREE]
                        [--format {plain,csv,json}]

options:
  -h, --help            show this help message and exit
  --max-order MAX_ORDER
  --oracle {exact,quad}
  --quad-degree QUAD_DEGREE
                        Gauss-Legendre nodes per axis of the product rule,
                        quad oracle only; refused if not exact up to 2 x max-
                        order (default: the smallest exact rule, max-order +
                        1)
  --format {plain,csv,json}
                        output format (default: plain)
"""


def test_verify_help_lists_the_oracles(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (_VERIFY_HELP, "")


def _fresh(code, tmp_path):
    """stdout of ``code`` run in a fresh interpreter that finds this package."""
    package_root = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=package_root),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


_LAZY_MODULES = ("json", "loglegram.analysis", "loglegram.oracles")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["entry", "3", "5"], []),
        (["gram", "3", "--exact", "--format", "csv"], []),
        (["verify", "--max-order", "3"], ["loglegram.oracles"]),
        (["verify", "--oracle", "quad", "--format", "csv"], ["loglegram.oracles"]),
        (["expand-log", "3"], ["loglegram.analysis"]),
        (["bilinear", "a.txt", "a.txt"], ["loglegram.analysis"]),
        (["entry", "3", "5", "--format", "json"], ["json"]),
    ],
    ids=lambda value: "_".join(value) or "none",
)
def test_each_command_imports_only_the_modules_it_runs(tmp_path, argv, loaded):
    # json, analysis and oracles are imported by the commands that use them,
    # so entry and gram never compile the oracles
    _write(tmp_path / "a.txt", "1\n1/2\n")
    code = (
        "import contextlib, io, sys\n"
        "from loglegram.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(code, sorted(m for m in {_LAZY_MODULES!r} if m in sys.modules))\n"
    )
    assert _fresh(code, tmp_path) == f"0 {loaded}\n"


def test_parser_reads_the_oracles_only_to_check_a_choice(tmp_path):
    code = (
        "import sys\n"
        "from loglegram import cli\n"
        "parser = cli.build_parser()\n"
        "parser.parse_args(['verify'])\n"
        "print('loglegram.oracles' in sys.modules)\n"
        "parser.parse_args(['verify', '--oracle', 'quad'])\n"
        "print('loglegram.oracles' in sys.modules)\n"
    )
    assert _fresh(code, tmp_path) == "False\nTrue\n"


def test_package_import_loads_numpy_and_resolves_every_name(tmp_path):
    # a bare import loads the closed forms and numpy; every other public
    # name, and the submodules analysis, oracles and cli, resolve on access
    code = (
        "import sys, loglegram\n"
        "lazy = ('loglegram.analysis', 'loglegram.oracles', 'loglegram.cli')\n"
        "print('numpy' in sys.modules, [m for m in lazy if m in sys.modules])\n"
        "names = {}\n"
        "exec('from loglegram import *', names)\n"
        "print(sorted(set(loglegram.__all__) - names.keys()))\n"
        "print([m for m in lazy if getattr(loglegram, m.split('.')[1]) is not sys.modules[m]])\n"
        "print(all(names[n] is getattr(loglegram, n) for n in loglegram.__all__))\n"
    )
    assert _fresh(code, tmp_path) == "True []\n[]\n[]\nTrue\n"
    assert loglegram.verify_range is oracles.verify_range
    assert loglegram.bilinear_log_form is loglegram.analysis.bilinear_log_form
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        loglegram.nonesuch
