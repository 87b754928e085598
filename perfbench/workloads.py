"""Seeded operation lists for the four benchmark workloads.

This module never imports ``loglegram``: it only describes work.  An
operation is a JSON-ready dict with a ``kind`` and its arguments; exact
values are written as "p/q" strings and floats as JSON numbers, which
round-trip exactly.

The seed decides the order of the operations and every data value
(coefficient vectors, matrix positions that get checked, index pairs,
CLI arguments and coefficient files).  The sizes that dominate cost are
fixed grids, so two seeds issue the same amount of work and their
timings are comparable; the seed changes what is computed, not how much.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("assemble", "forms", "verify", "cli")

#: Matrix positions checked per Gram build, on top of the full diagonal.
GRAM_SAMPLE = 600

#: Orders of the two Grams the ``forms`` workload builds during set-up.
FORMS_EXACT_ORDER = 128
FORMS_FLOAT_ORDER = 512

#: Largest expansion order whose error quadrature stays inside the rule's
#: exactness range (2 * order <= 2 * 128 - 1).
EXPANSION_IN_RANGE_ORDER = 127

CLI_FORMATS = ("plain", "csv", "json")

#: The cli workload's block of large outputs besides ``gram 256``.
CLI_LARGE_ORDER = 192
CLI_LARGE_COUNT = 19

#: Each operation is timed once per pass and run.py keeps its median pass,
#: so every workload makes at least this many full passes.  One cli pass
#: (about a hundred fresh interpreters) already outlasts a run.
MIN_PASSES = {"assemble": 3, "forms": 3, "verify": 3, "cli": 1}


def geom(lo: int, hi: int, count: int) -> list:
    """``count`` integers spaced geometrically from lo to hi, both included."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def _q(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _gram_sample(rng: random.Random, order: int) -> list:
    """Seeded off-diagonal positions; every position when there are few."""
    if (order + 1) * order <= GRAM_SAMPLE:
        return [[n, m] for n in range(order + 1) for m in range(order + 1) if n != m]
    out = []
    while len(out) < GRAM_SAMPLE:
        n, m = rng.randint(0, order), rng.randint(0, order)
        if n != m:
            out.append([n, m])
    return out


def _assemble(rng: random.Random) -> list:
    ops = []
    for order in geom(32, 256, 50):
        ops.append({"kind": "gram_exact", "order": order, "max_order": None})
    for order in geom(32, 256, 47) + [362, 512, 1024]:
        cap = order if order > 256 else None
        ops.append({"kind": "gram_float", "order": order, "max_order": cap})
    for op in ops:
        op["sample"] = _gram_sample(rng, op["order"])
    return ops


def _vector(rng: random.Random, length: int, density: float, exact: bool) -> list:
    """Coefficient vector with exactly round(density * length) nonzeros."""
    nnz = max(1, round(density * length))
    out = ["0/1" if exact else 0.0] * length
    for pos in rng.sample(range(length), nnz):
        if exact:
            out[pos] = _q(Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 12)))
        else:
            out[pos] = rng.choice([-1.0, 1.0]) * rng.uniform(0.001, 1.0)
    return out


def _forms(rng: random.Random) -> list:
    ops = []
    densities = (1.0, 0.5, 0.2)
    for gram, lengths in (
        ("exact", geom(8, FORMS_EXACT_ORDER + 1, 12)),
        ("float", geom(16, FORMS_FLOAT_ORDER + 1, 12)),
    ):
        shapes = [(lengths[-1], lengths[-1], 1.0, 1.0)]  # a full form at the top order
        for i in range(36):
            shapes.append(
                (lengths[i % 12], lengths[(5 * i + 3) % 12], densities[i % 3], densities[(i // 3) % 3])
            )
        for i, (la, lb, da, db) in enumerate(shapes):
            # Every fourth float form takes an exact vector on the left.
            a_exact = gram == "exact" or i % 4 == 1
            b_exact = gram == "exact"
            ops.append(
                {
                    "kind": "bilinear",
                    "gram": gram,
                    "a": _vector(rng, la, da, a_exact),
                    "b": _vector(rng, lb, db, b_exact),
                }
            )
    for order in geom(8, 256, 10):
        ops.append({"kind": "log_expansion_coeffs", "order": order})
    for order in geom(4, EXPANSION_IN_RANGE_ORDER, 10):
        ops.append({"kind": "expansion_l2_error", "order": order})
    for order in geom(16, 256, 10):
        ops.append({"kind": "diag_scaling_table", "order": order})
    return ops


def _verify(rng: random.Random) -> list:
    ops = []
    for k in geom(10, 40, 8):
        ops.append({"kind": "verify_range", "mode": "exact", "max_order": k, "degree": None})
    for k in geom(4, 31, 10):
        ops.append({"kind": "verify_range", "mode": "quad", "max_order": k, "degree": None})
    for k in geom(32, 127, 6):
        ops.append({"kind": "verify_range", "mode": "quad", "max_order": k, "degree": 128})
    for n in geom(4, 64, 40):
        # m close to n keeps the cost of each call, and so the timings, the
        # same from seed to seed.
        ops.append({"kind": "exact_entry_oracle", "n": n, "m": n - rng.randint(0, 3)})
    for _ in range(28):
        ops.append({"kind": "quad_entry_oracle", "n": rng.randint(0, 31), "m": rng.randint(0, 31)})
    for n in geom(64, 256, 8):
        ops.append({"kind": "coeffs_exact", "n": n})
    return ops


def _coeff_file(rng: random.Random, exact: bool) -> list:
    values = _vector(rng, rng.randint(1, 40), rng.choice((1.0, 0.5)), exact)
    if exact:
        # Whole numbers as bare integers, the rest as "p/q" lines.
        return [v[:-2] if v.endswith("/1") else v for v in values]
    return [repr(v) for v in values]


def _cli(rng: random.Random):
    ops = []
    files = []
    for fmt in CLI_FORMATS:
        for i in range(6):
            exact = i % 2 == 0
            argv = ["entry", str(rng.randint(0, 256)), str(rng.randint(0, 256))]
            ops.append({"kind": "cli", "argv": argv + (["--exact"] if exact else []) + ["--format", fmt]})

            argv = ["gram", str(rng.randint(2, 24))] + (["--exact"] if exact else [])
            ops.append({"kind": "cli", "argv": argv + ["--format", fmt]})

            if exact:
                argv = ["verify", "--max-order", str(rng.randint(2, 16)), "--oracle", "exact"]
            else:
                argv = ["verify", "--max-order", str(rng.randint(2, 31)), "--oracle", "quad"]
            ops.append({"kind": "cli", "argv": argv + ["--format", fmt]})

            argv = ["expand-log", str(rng.randint(1, EXPANSION_IN_RANGE_ORDER))]
            ops.append({"kind": "cli", "argv": argv + ["--format", fmt]})

            names = []
            for which in ("a", "b"):
                names.append(f"{which}_{len(files):03d}.txt")
                lines = ["# seeded coefficients"] + _coeff_file(rng, exact=rng.random() < 0.5)
                files.append({"name": names[-1], "lines": lines})
            ops.append({"kind": "cli", "argv": ["bilinear", *names, "--format", fmt]})
    # Large outputs, where formatting and writing stdout cost most: the plain
    # 256 matrix (about 1.6 MB) and 19 Grams of order 192 in turn in each
    # format.  They are the 20 slowest of 110 operations, so the 90th
    # percentile (the 99th smallest) falls in the middle of the order-192
    # block, where the latencies lie close together, and not on a steep
    # slope where a small shift picks a much larger or smaller operation.
    ops.append({"kind": "cli", "argv": ["gram", "256", "--format", "plain"]})
    for i in range(CLI_LARGE_COUNT):
        ops.append({"kind": "cli", "argv": ["gram", str(CLI_LARGE_ORDER), "--format", CLI_FORMATS[i % 3]]})
    return ops, files


def build(workload: str, seed: int) -> dict:
    """The seeded operation list of one workload, plus its inputs and hash.

    Returns ``{"ops": [...], "files": [...], "hash": "..."}``; ``files``
    is only non-empty for the ``cli`` workload.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    files = []
    if workload == "assemble":
        ops = _assemble(rng)
    elif workload == "forms":
        ops = _forms(rng)
    elif workload == "verify":
        ops = _verify(rng)
    else:
        ops, files = _cli(rng)
    rng.shuffle(ops)
    spec = {"workload": workload, "ops": ops, "files": files, "min_passes": MIN_PASSES[workload]}
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
    spec["hash"] = hashlib.sha256(blob).hexdigest()
    return spec
