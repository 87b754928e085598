"""Reference values and output checks that do not trust the code under test.

Nothing here imports ``loglegram``.  The references come from the
closed forms, computed afresh:

* off the diagonal, N[n, m] = (-1)**(n+m+1) / (|n-m| (n+m+1)), exact in
  ``Fraction`` and, for floats, by one IEEE division of two integers
  below 2**53, which is correctly rounded;
* on the diagonal, (2n+1) N[n, n] = -1 - 2 sum_{j<=n} 1/((2j-1) 2j (2j+1)),
  kept as this module's own running sum, and rounded by ``int / int``
  true division, which Python rounds correctly;
* P_n(2x-1) = sum_k (-1)**(n+k) C(n, k) C(n+k, k) x**k;
* the log(x) expansion c_0 = -1, c_n = (2n+1) (-1)**(n+1) / (n (n+1)),
  whose truncation error in L2[0, 1] is exactly 1/(N+1).

Floats that the program promises to round correctly must match bit for
bit.  Quadrature results must lie within the oracle's stated tolerance;
float bilinear forms within a forward error bound of the summation.

Each ``check_*`` function returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: Tolerances the quadrature oracle promises inside its exactness range.
QUAD_REL_TOL = 1e-10
QUAD_ABS_TOL = 1e-13

#: Relative tolerance on the quadrature L2 error against 1/(N+1).
L2_REL_TOL = 1e-10

#: Float bilinear forms must lie within this multiple of sum |a_n b_m N_nm|
#: of the exact value; a loose version of the summation error bound
#: (len(a) + len(b)) * eps for vectors of at most 513 entries.
BILINEAR_FLOAT_TOL = 1e-12


def decode(cell):
    """Inverse of the worker's value encoding: ["q", p, q] or ["f", hex]."""
    tag = cell[0]
    if tag == "q":
        return Fraction(cell[1], cell[2])
    if tag == "f":
        return float.fromhex(cell[1])
    raise ValueError(f"unexpected value {cell!r}")


def parse_value(text):
    """A benchmark input value: "p/q" or an integer is exact, the rest float."""
    if isinstance(text, (Fraction, float)):
        return text
    if isinstance(text, str) and "/" in text:
        return Fraction(text)
    if isinstance(text, str) and text.lstrip("+-").isdigit():
        return Fraction(int(text))
    return float(text)


def _bits_equal(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def _quad_close(approx: float, exact: Fraction) -> bool:
    abs_err = abs(approx - float(exact))
    return abs_err <= QUAD_ABS_TOL or abs_err <= QUAD_REL_TOL * abs(float(exact))


class Reference:
    """Closed-form reference values, grown on demand and cached."""

    def __init__(self):
        self._scaled_diag = [Fraction(-1)]  # (2n+1) N[n, n]

    def scaled_diag(self, n: int) -> Fraction:
        while len(self._scaled_diag) <= n:
            j = len(self._scaled_diag)
            step = Fraction(2, (2 * j - 1) * 2 * j * (2 * j + 1))
            self._scaled_diag.append(self._scaled_diag[-1] - step)
        return self._scaled_diag[n]

    def entry(self, n: int, m: int) -> Fraction:
        if n == m:
            return self.scaled_diag(n) / (2 * n + 1)
        sign = 1 if (n + m) % 2 else -1
        return Fraction(sign, abs(n - m) * (n + m + 1))

    def entry_float(self, n: int, m: int) -> float:
        if n == m:
            value = self.entry(n, n)
            return value.numerator / value.denominator
        sign = 1 if (n + m) % 2 else -1
        return sign / (abs(n - m) * (n + m + 1))

    @staticmethod
    def legendre_coeffs(n: int) -> list:
        return [(-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k) for k in range(n + 1)]

    @staticmethod
    def log_coeff(n: int) -> Fraction:
        if n == 0:
            return Fraction(-1)
        return Fraction((2 * n + 1) * (-1) ** (n + 1), n * (n + 1))

    # ------------------------------------------------------------------
    # Library outputs, as extracted by the worker.

    def check_gram(self, op, out):
        order, exact = op["order"], op["kind"] == "gram_exact"
        if out["order"] != order or out["mode"] != ("exact" if exact else "float"):
            return f"gram header {out['order']}/{out['mode']}"
        if not out["square"]:
            return "gram is not (order+1) x (order+1)"
        cells = [(n, n, c) for n, c in enumerate(out["diag"])] + [tuple(s) for s in out["sample"]]
        if len(out["diag"]) != order + 1 or len(out["sample"]) != len(op["sample"]):
            return "gram extraction has the wrong size"
        for n, m, cell in cells:
            value = decode(cell)
            if exact:
                ok = isinstance(value, Fraction) and value == self.entry(n, m)
            else:
                ok = isinstance(value, float) and _bits_equal(value, self.entry_float(n, m))
            if not ok:
                return f"gram entry ({n},{m}) = {value!r}"
        return None

    def check_verify_range(self, op, out):
        k = op["max_order"]
        if out["mode"] != op["mode"] or out["max_order"] != k:
            return "report header"
        if out["pairs"] != (k + 1) * (k + 2) // 2:
            return f"{out['pairs']} pairs checked at order {k}"
        if out["failed"]:
            return f"{out['failed']} pairs failed, first {out['first_failures']}"
        return None

    def check_exact_entry_oracle(self, op, out):
        value = decode(out)
        if not isinstance(value, Fraction) or value != self.entry(op["n"], op["m"]):
            return f"exact oracle ({op['n']},{op['m']}) = {value!r}"
        return None

    def check_quad_entry_oracle(self, op, out):
        value = decode(out)
        if not isinstance(value, float) or not _quad_close(value, self.entry(op["n"], op["m"])):
            return f"quad oracle ({op['n']},{op['m']}) = {value!r}"
        return None

    def check_coeffs_exact(self, op, out):
        if out != self.legendre_coeffs(op["n"]):
            return f"coefficients of P_{op['n']}"
        return None

    def bilinear_reference(self, op):
        """(exact value or None, float value, sum of |terms|) of a' N b."""
        a = [parse_value(v) for v in op["a"]]
        b = [parse_value(v) for v in op["b"]]
        nz_a = [(n, v) for n, v in enumerate(a) if v]
        nz_b = [(m, v) for m, v in enumerate(b) if v]
        if op["gram"] == "exact":
            exact = sum(
                (an * sum((bm * self.entry(n, m) for m, bm in nz_b), Fraction(0)) for n, an in nz_a),
                Fraction(0),
            )
            return exact, None, None
        terms = [float(an) * float(bm) * self.entry_float(n, m) for n, an in nz_a for m, bm in nz_b]
        return None, math.fsum(terms), math.fsum(abs(t) for t in terms)

    def check_bilinear(self, op, out):
        value = decode(out)
        exact, approx, scale = self.bilinear_reference(op)
        if exact is not None:
            ok = isinstance(value, Fraction) and value == exact
        else:
            ok = isinstance(value, float) and abs(value - approx) <= BILINEAR_FLOAT_TOL * scale
        return None if ok else f"bilinear form = {value!r}"

    def check_log_expansion_coeffs(self, op, out):
        values = [decode(c) for c in out]
        want = [self.log_coeff(n) for n in range(op["order"] + 1)]
        if len(values) != len(want) or any(
            not isinstance(v, Fraction) or v != w for v, w in zip(values, want)
        ):
            return f"log expansion coefficients at order {op['order']}"
        return None

    def check_expansion_l2_error(self, op, out):
        order = op["order"]
        if out["order"] != order:
            return "expansion report order"
        bad = self.check_log_expansion_coeffs(op, out["coefficients"])
        if bad:
            return bad
        l2 = decode(out["l2_error"])
        exact = 1 / (order + 1)
        if not isinstance(l2, float) or abs(l2 - exact) > L2_REL_TOL * exact:
            return f"L2 error {l2!r} at order {order}, exact {exact!r}"
        return None

    def check_diag_scaling_table(self, op, out):
        want = [
            (n, self.scaled_diag(n).numerator / self.scaled_diag(n).denominator)
            for n in range(op["order"] + 1)
        ]
        got = [(n, decode(c)) for n, c in out]
        if len(got) != len(want) or any(
            gn != wn or not isinstance(gv, float) or not _bits_equal(gv, wv)
            for (gn, gv), (wn, wv) in zip(got, want)
        ):
            return f"diagonal scaling table at order {op['order']}"
        return None

    # ------------------------------------------------------------------
    # CLI runs: exit code and stdout, parsed in the documented formats.

    def check_cli(self, op, out, files):
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        argv = op["argv"]
        fmt = argv[argv.index("--format") + 1]
        try:
            return getattr(self, "_cli_" + argv[0].replace("-", "_"))(argv, fmt, out["stdout"], files)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparseable stdout: {exc}"

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}"
        return repr(value)

    @staticmethod
    def _json_cell(cell, want) -> bool:
        if isinstance(want, Fraction):
            return cell == f"{want.numerator}/{want.denominator}"
        return isinstance(cell, float) and _bits_equal(cell, want)

    def _cli_entry(self, argv, fmt, stdout, files):
        n, m, exact = int(argv[1]), int(argv[2]), "--exact" in argv
        want = self.entry(n, m) if exact else self.entry_float(n, m)
        if fmt == "json":
            doc = json.loads(stdout)
            ok = (doc["n"], doc["m"], doc["mode"]) == (n, m, "exact" if exact else "float")
            ok = ok and self._json_cell(doc["value"], want)
        else:
            ok = stdout == self._fmt(want) + "\n"
        return None if ok else f"entry stdout {stdout[:80]!r}"

    def _cli_gram(self, argv, fmt, stdout, files):
        size, exact = int(argv[1]), "--exact" in argv
        value = self.entry if exact else self.entry_float
        rows = [[value(n, m) for m in range(size + 1)] for n in range(size + 1)]
        if fmt == "json":
            doc = json.loads(stdout)
            ok = doc["size"] == size and doc["mode"] == ("exact" if exact else "float")
            ok = ok and len(doc["entries"]) == size + 1 and all(
                len(got) == size + 1 and all(self._json_cell(c, w) for c, w in zip(got, want))
                for got, want in zip(doc["entries"], rows)
            )
        else:
            cells = [[self._fmt(v) for v in row] for row in rows]
            if fmt == "csv":
                text = "".join(",".join(row) + "\n" for row in cells)
            else:
                width = max(len(c) for row in cells for c in row)
                text = "".join("  ".join(c.rjust(width) for c in row) + "\n" for row in cells)
            ok = stdout == text
        return None if ok else f"gram {size} stdout differs"

    def _cli_verify(self, argv, fmt, stdout, files):
        k = int(argv[argv.index("--max-order") + 1])
        mode = argv[argv.index("--oracle") + 1]
        pairs = [(n, m) for n in range(k + 1) for m in range(n + 1)]
        if fmt == "json":
            doc = json.loads(stdout)
            ok = (doc["mode"], doc["max_order"], doc["pairs"], doc["passed"]) == (
                mode, k, len(pairs), len(pairs)
            )
            ok = ok and doc["ok"] is True and doc["failures"] == []
            if mode == "quad":
                ok = ok and (doc["worst_rel"] <= QUAD_REL_TOL or doc["worst_abs"] <= QUAD_ABS_TOL)
        elif fmt == "csv":
            rows = [line.split(",") for line in stdout.splitlines()]
            ok = [(int(r[0]), int(r[1])) for r in rows] == pairs and all(r[2] == "pass" for r in rows)
            ok = ok and all(len(r) == (5 if mode == "quad" else 3) for r in rows)
        else:
            lines = stdout.splitlines()
            head = f"{len(pairs)}/{len(pairs)} pairs " + ("exact" if mode == "exact" else "within tolerance")
            ok = len(lines) == 1 and lines[0].startswith(head)
        return None if ok else f"verify stdout {stdout[:80]!r}"

    def _cli_expand_log(self, argv, fmt, stdout, files):
        order = int(argv[1])
        coeffs = [float(self.log_coeff(n)) for n in range(order + 1)]
        exact_l2 = 1 / (order + 1)
        if fmt == "json":
            doc = json.loads(stdout)
            got, l2 = doc["coefficients"], doc["l2_error"]
            ok = doc["order"] == order
        elif fmt == "csv":
            rows = [line.split(",") for line in stdout.splitlines()]
            got = [float(r[1]) for r in rows[:-1]]
            ok = [int(r[0]) for r in rows[:-1]] == list(range(order + 1)) and rows[-1][0] == "l2_error"
            l2 = float(rows[-1][1])
        else:
            first, second = stdout.splitlines()
            got = [float(c) for c in first.removeprefix("coefficients: ").split(", ")]
            ok = first.startswith("coefficients: ") and second.startswith("l2_error: ")
            l2 = float(second.removeprefix("l2_error: "))
        ok = ok and len(got) == len(coeffs) and all(_bits_equal(g, w) for g, w in zip(got, coeffs))
        ok = ok and abs(l2 - exact_l2) <= L2_REL_TOL * exact_l2
        return None if ok else f"expand-log {order} stdout differs"

    def _cli_bilinear(self, argv, fmt, stdout, files):
        a = [parse_value(v) for v in files[argv[1]] if not v.startswith("#")]
        b = [parse_value(v) for v in files[argv[2]] if not v.startswith("#")]
        exact = all(isinstance(v, Fraction) for v in a + b)
        op = {"gram": "exact" if exact else "float", "a": a, "b": b}
        if not exact:
            op["a"] = [float(v) for v in a]
            op["b"] = [float(v) for v in b]
        want_exact, approx, scale = self.bilinear_reference(op)
        if fmt == "json":
            doc = json.loads(stdout)
            cell = doc["value"]
            ok = doc["mode"] == op["gram"]
        else:
            cell = stdout.rstrip("\n")
            ok = stdout.endswith("\n") and stdout.count("\n") == 1
        if exact:
            ok = ok and cell == self._fmt(want_exact)
        else:
            ok = ok and abs(float(cell) - approx) <= BILINEAR_FLOAT_TOL * scale
        return None if ok else f"bilinear stdout {stdout[:80]!r}"
