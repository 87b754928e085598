"""Command-line interface.

Subcommands: entry, gram, verify, expand-log, bilinear.  Data goes to
stdout, diagnostics to stderr.  Exit codes: 0 success, 1 usage or input
error, 2 verification failure, 3 numerical failure (a non-finite value
to print, in any format, ``verify``'s error columns and worst values
included).  Every value printed passes ``_json_cell``, which refuses a
non-finite one with ``FloatingPointError``, or comes from an array that
passed ``_finite``, which refuses the array's first non-finite value
through it before any of the array is formatted.

Integer arguments are parsed with ``int`` only; the ``check_order`` call
that starts the library function a command reaches range-checks each one,
before any work or file write.

Each subcommand returns its whole stdout text and exit code; ``main``
alone writes that text, once and after everything else has succeeded, so
a failure leaves stdout empty.  A reader that closes the pipe early does
not change the exit code.

At start-up the module imports only ``exactmoments`` of the package:
``verify`` imports ``oracles``, ``expand-log`` and ``bilinear`` import
``analysis``, and json output imports ``json``, each when it runs, so
``entry`` and ``gram`` never compile the oracles.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from . import exactmoments

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERICAL = 3

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad input; remap to the exit-code
    # contract (1) by raising instead.
    def error(self, message):
        raise ValueError(message)


def _json_cell(value):
    """Exact values as "p/q" with explicit denominator, others as a finite float."""
    if isinstance(value, Fraction):
        try:
            return f"{value.numerator}/{value.denominator}"
        except ValueError:  # str(int) refuses past 4,300 digits, Decimal prints any length
            return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    value = float(value)
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite value {value!r} cannot be serialized")
    return value


def _finite(values) -> np.ndarray:
    """``values`` as a float array; ``_json_cell`` refuses its first non-finite value, row-major."""
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        _json_cell(values[~finite][0])  # raises FloatingPointError
    return values


def _dump_json(obj) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def _one_value(fmt, value, **fields) -> tuple[str, int]:
    """The output of a single value: its cell, or in json the fields, its mode and its cell.

    The mode is read from the value: a ``Fraction`` is "exact", else "float".
    """
    cell = _json_cell(value)
    if fmt == "json":
        mode = "exact" if isinstance(value, Fraction) else "float"
        return _dump_json({**fields, "mode": mode, "value": cell}), EXIT_OK
    return (cell if isinstance(cell, str) else repr(cell)) + "\n", EXIT_OK


def _cmd_entry(args) -> tuple[str, int]:
    value = exactmoments.entry(args.n, args.m, max_order=args.max_order_cap)
    return _one_value(args.format, value if args.exact else float(value), n=args.n, m=args.m)


def _cmd_gram(args) -> tuple[str, int]:
    build = exactmoments.gram_exact if args.exact else exactmoments.gram_float
    gram = build(args.size, max_order=args.max_order_cap)
    # Both builders are exactly symmetric (the tests pin it), so only the lower
    # triangle is formatted, row by row into flat; row n's upper part is
    # column n of that triangle.
    if args.exact:
        flat = [_json_cell(p) for n, row in enumerate(gram.entries) for p in row[: n + 1]]
    else:
        # |N[n, m]| = 1/(t_n - t_m) with t_k = k(k+1) repeats, so each distinct
        # magnitude is written once with float.__repr__ (json's float text) and
        # a cell is that text, with "-" before it where its sign bit is set.
        cells = _finite(gram.entries)[np.tril_indices(gram.order + 1)]
        magnitudes, index = np.unique(np.abs(cells), return_inverse=True)
        texts = list(map(float.__repr__, magnitudes.tolist()))
        texts = np.array(texts + ["-" + text for text in texts], dtype=object)
        flat = texts[index + magnitudes.size * np.signbit(cells)].tolist()
    if args.format == "plain":
        flat = list(map(str.rjust, flat, itertools.repeat(max(map(len, flat)))))
    lower = [flat[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2] for n in range(gram.order + 1)]
    columns = itertools.zip_longest(*lower)
    cells = [row + list(column[n + 1 :]) for n, (row, column) in enumerate(zip(lower, columns))]
    if args.format == "json":
        quote = '"' if args.exact else ""
        sep = quote + "," + quote
        entries = ",".join("[" + quote + sep.join(row) + quote + "]" for row in cells)
        head = f'{{"size":{gram.order},"mode":"{gram.mode}","entries":['
        return head + entries + "]}\n", EXIT_OK
    sep = "," if args.format == "csv" else "  "
    return "".join(sep.join(row) + "\n" for row in cells), EXIT_OK


def _cmd_verify(args) -> tuple[str, int]:
    from . import oracles

    report = oracles.verify_range(
        args.max_order,
        args.oracle,
        rule=None if args.quad_degree is None else oracles.gauss_legendre_rule(args.quad_degree),
    )
    for errors in report.errors.values():
        _finite(errors)
    code = EXIT_OK if report.passed else EXIT_VERIFY_FAILED
    if args.format == "json":
        payload = {
            "mode": report.mode,
            "max_order": report.max_order,
            "pairs": report.num_pairs,
            "passed": report.num_passed,
            "ok": report.passed,
            "failures": [[c.n, c.m] for c in report.failures],
        }
        payload.update({f"worst_{name}": value for name, value in report.worst.items()})
        return _dump_json(payload), code
    if args.format == "csv":
        # one line per pair, read straight from the report's arrays
        columns = [
            map(str, report.n.tolist()),
            map(str, report.m.tolist()),
            ["pass" if ok else "fail" for ok in report.pair_passed.tolist()],
        ]
        columns += [map(repr, errors.tolist()) for errors in report.errors.values()]
        return "".join(",".join(row) + "\n" for row in zip(*columns)), code
    worst = ", ".join(f"worst {name} {value:.3e}" for name, value in report.worst.items())
    summary = f"{report.num_passed}/{report.num_pairs} pairs {report.criterion}"
    summary += f"; {worst}\n" if worst else "\n"
    return summary + "".join(f"FAIL ({c.n},{c.m})\n" for c in report.failures), code


def _cmd_expand_log(args) -> tuple[str, int]:
    from . import analysis

    report = analysis.expansion_l2_error(args.order)
    coeffs = _finite(report.coefficients).tolist()
    l2_error = _json_cell(report.l2_error)
    if args.format == "json":
        text = _dump_json({"order": report.order, "coefficients": coeffs, "l2_error": l2_error})
    elif args.format == "csv":
        text = "".join(f"{n},{c!r}\n" for n, c in enumerate(coeffs))
        text += f"l2_error,{l2_error!r}\n"
    else:
        text = "coefficients: " + ", ".join(repr(c) for c in coeffs) + "\n"
        text += f"l2_error: {l2_error!r}\n"
    return text, EXIT_OK


def _read_coeff_file(path):
    """Parse a UTF-8 coefficient file: one value per line, '#' comments ignored.

    Returns (values, is_exact).  Integer and "p/q" lines, signed, with no
    space or underscore, are exact: ``Fraction`` reads that grammar the
    same on every Python, where it widens its own from version to version.
    Any other line is read by ``float`` as a finite decimal, which makes
    the file floating.  A file mixing fractions with decimals is rejected.
    A leading UTF-8 byte-order mark is skipped; one anywhere else is part
    of its line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    values = []
    saw_fraction = saw_decimal = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if re.fullmatch(r"[+-]?\d+(/\d+)?", line):
                values.append(Fraction(line))
                saw_fraction = saw_fraction or "/" in line
            else:
                as_float = float(line)
                if not math.isfinite(as_float):
                    raise ValueError("not a finite decimal")
                values.append(as_float)
                saw_decimal = True
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{path}:{lineno}: unparseable value {line!r}") from exc
    if not values:
        raise ValueError(f"{path}: no coefficient values found")
    if saw_fraction and saw_decimal:
        raise ValueError(f"{path}: mixes fraction and decimal lines")
    return values, not saw_decimal


def _cmd_bilinear(args) -> tuple[str, int]:
    from . import analysis

    a, a_exact = _read_coeff_file(args.a_file)
    b, b_exact = _read_coeff_file(args.b_file)
    if not (a_exact and b_exact):
        for path, values in ((args.a_file, a), (args.b_file, b)):
            try:  # bilinear_log_form's own bound, checked here to name the file
                float(max(map(abs, values)))
            except OverflowError:
                raise ValueError(f"{path}: value beyond the double range in a float form") from None
    build = exactmoments.gram_exact if a_exact and b_exact else exactmoments.gram_float
    gram = build(max(len(a), len(b)) - 1, max_order=args.max_order_cap)
    return _one_value(args.format, analysis.bilinear_log_form(a, b, gram))


class _OracleNames:
    """The live keys of ``oracles.ORACLES``, the ``--oracle`` choices.

    argparse reads choices only to check a given value or to print help,
    so only then is ``oracles`` imported.  They are set on the action after
    ``add_argument``, which would otherwise iterate them for the metavar.
    """

    def __contains__(self, name) -> bool:
        from . import oracles

        return name in oracles.ORACLES

    def __iter__(self):
        from . import oracles

        return iter(oracles.ORACLES)


def _add_common(parser, *, max_order_cap=True) -> None:
    parser.add_argument(
        "--format",
        choices=("plain", "csv", "json"),
        default="plain",
        help="output format (default: plain)",
    )
    if not max_order_cap:
        return
    parser.add_argument(
        "--max-order-cap",
        type=int,
        default=None,
        metavar="N",
        help="override the default order ceiling",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="loglegram",
        description=(
            "Log-weighted Gram matrix of shifted Legendre polynomials: "
            "N[n,m] = integral of P_n(2x-1) P_m(2x-1) log(x) over [0,1]."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("entry", help="print a single matrix entry N[n,m]")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--exact", action="store_true", help="print the reduced fraction")
    _add_common(p)
    p.set_defaults(func=_cmd_entry)

    p = sub.add_parser("gram", help="print or write the full (size+1)x(size+1) matrix")
    p.add_argument("size", type=int)
    p.add_argument("--exact", action="store_true", help="exact rational entries")
    p.add_argument("--out", default=None, metavar="PATH", help="write to a file")
    _add_common(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("verify", help="check the closed forms against an oracle")
    p.add_argument("--max-order", type=int, default=20)
    p.add_argument("--oracle", default="exact").choices = _OracleNames()
    p.add_argument(
        "--quad-degree",
        type=int,
        help=(
            "Gauss-Legendre nodes per axis of the product rule, quad oracle only; "
            "refused if not exact up to 2 x max-order (default: the smallest exact rule, "
            "max-order + 1)"
        ),
    )
    _add_common(p, max_order_cap=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand-log", help="shifted Legendre expansion of log(x)")
    p.add_argument("order", type=int)
    _add_common(p, max_order_cap=False)
    p.set_defaults(func=_cmd_expand_log)

    p = sub.add_parser("bilinear", help="evaluate a' N b from coefficient files")
    p.add_argument("a_file")
    p.add_argument("b_file")
    _add_common(p)
    p.set_defaults(func=_cmd_bilinear)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        text, code = args.func(args)
        out = getattr(args, "out", None)
        if out is not None:
            try:
                with open(out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write {out}: {exc}") from exc
            return code
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again, and keep the command's code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
