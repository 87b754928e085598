"""One benchmark workload, run in a fresh interpreter started by run.py.

    python perfbench/worker.py --spec SPEC --src SRC --out OUT
                               --mode setup|run|trace --seconds S [--inject-fault]

The worker imports the package from SRC, prepares the workload's inputs,
warms every layer up once at a tiny size, and prints READY with the host's
mean slowness over its set-up and the seconds its hostspeed kernel runs
took: the parent times set-up from process start to that line.  ``setup`` mode stops
there.  ``run`` mode then issues the operations one after another, in
passes over the list (see ``Recorder.run_until``), for ``--seconds``.
``trace`` mode makes one untraced and one traced pass and then runs the
out-of-range probes untraced.

Only the library call (or, for the cli workload, the child interpreter)
is inside the timed window.  Each output is reduced to a JSON-ready
extraction afterwards and written to OUT with the latencies; run.py
checks the extractions against its own references.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import hostspeed
from reference import parse_value
from tracing import Tracer
from workloads import FORMS_EXACT_ORDER, FORMS_FLOAT_ORDER

#: The cli workload's child interpreters run this; the package has no __main__.
CLI_STUB = "import sys; from loglegram.cli import main; sys.exit(main(sys.argv[1:]))"

#: Seconds between kernel runs during set-up and during an in-process
#: operation (hostspeed.Sampler).
SAMPLE_INTERVAL_S = 0.025

#: Operations faster than this get the extra light passes (see run_until).
LIGHT_S = 0.1

#: Probe sizes: outside the exactness range of the default 32-node quadrature
#: rule, and of the 128-node cap that ``expansion_l2_error`` uses.
QUAD_PROBE_ORDER = 256
EXPANSION_PROBE_ORDER = 512


def enc(value):
    """Tagged, exact JSON form of a scalar: ["q", p, q], ["f", hex] or ["?", type]."""
    if isinstance(value, Fraction):
        return ["q", value.numerator, value.denominator]
    if isinstance(value, int) and not isinstance(value, bool):
        return ["q", value, 1]
    if isinstance(value, float):
        return ["f", float(value).hex()]
    return ["?", type(value).__name__]


class Workload:
    """Prepared operations of one workload and the calls that run them."""

    def __init__(self, pkg, spec, mode, work_dir):
        self.pkg = pkg
        self.ops = spec["ops"]
        self.kind = spec["workload"]
        self.in_process_cli = mode == "trace"
        self.grams = {}
        self.stdout_bytes = 0
        if self.kind == "forms":
            em = pkg.exactmoments
            self.grams["exact"] = em.gram_exact(FORMS_EXACT_ORDER)
            self.grams["float"] = em.gram_float(FORMS_FLOAT_ORDER, max_order=FORMS_FLOAT_ORDER)
            for op in self.ops:
                if op["kind"] == "bilinear":
                    op["a_values"] = [parse_value(v) for v in op["a"]]
                    op["b_values"] = [parse_value(v) for v in op["b"]]
        if self.kind == "cli":
            os.makedirs(work_dir, exist_ok=True)
            paths = {}
            for spec_file in spec["files"]:
                path = os.path.join(work_dir, spec_file["name"])
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(spec_file["lines"]) + "\n")
                paths[spec_file["name"]] = path
            for op in self.ops:
                op["run_argv"] = [paths.get(a, a) for a in op["argv"]]

    # -- the timed calls -------------------------------------------------

    def call(self, op, entry_fn=None):
        """Issue one operation; the caller times exactly this."""
        pkg, kind = self.pkg, op["kind"]
        if kind == "gram_exact":
            return pkg.exactmoments.gram_exact(op["order"], max_order=op["max_order"])
        if kind == "gram_float":
            return pkg.exactmoments.gram_float(op["order"], max_order=op["max_order"])
        if kind == "verify_range":
            kwargs = {} if entry_fn is None else {"entry_fn": entry_fn}
            if op["degree"] is not None:
                kwargs["rule"] = pkg.oracles.gauss_legendre_rule(op["degree"])
            return pkg.oracles.verify_range(op["max_order"], op["mode"], **kwargs)
        if kind == "exact_entry_oracle":
            return pkg.oracles.exact_entry_oracle(op["n"], op["m"])
        if kind == "quad_entry_oracle":
            return pkg.oracles.quad_entry_oracle(op["n"], op["m"])
        if kind == "coeffs_exact":
            return pkg.legendre.coeffs_exact(op["n"])
        if kind == "bilinear":
            return pkg.analysis.bilinear_log_form(op["a_values"], op["b_values"], self.grams[op["gram"]])
        if kind == "log_expansion_coeffs":
            return pkg.analysis.log_expansion_coeffs(op["order"])
        if kind == "expansion_l2_error":
            return pkg.analysis.expansion_l2_error(op["order"])
        if kind == "diag_scaling_table":
            return pkg.analysis.diag_scaling_table(op["order"])
        if kind == "cli":
            if self.in_process_cli:
                return self._cli_in_process(op["run_argv"])
            proc = subprocess.run(
                [sys.executable, "-c", CLI_STUB, *op["run_argv"]],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                check=False,
            )
            return proc.returncode, proc.stdout.decode("utf-8")
        raise ValueError(f"unknown operation kind {kind!r}")

    def _cli_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pkg.cli.main(argv)
        return rc, out.getvalue()

    # -- untimed: reduce an output to what the parent checks ---------------

    def extract(self, op, result):
        kind = op["kind"]
        if kind in ("gram_exact", "gram_float"):
            rows = result.entries
            order = op["order"]
            return {
                "order": result.order,
                "mode": result.mode,
                "square": len(rows) == order + 1 and all(len(r) == order + 1 for r in rows),
                "diag": [enc(rows[i][i]) for i in range(min(len(rows), order + 1))],
                "sample": [[n, m, enc(rows[n][m])] for n, m in op["sample"]],
            }
        if kind == "verify_range":
            failures = result.failures
            return {
                "mode": result.mode,
                "max_order": result.max_order,
                "pairs": result.num_pairs,
                "failed": len(failures),
                "first_failures": [[c.n, c.m] for c in failures[:5]],
            }
        if kind in ("exact_entry_oracle", "quad_entry_oracle", "bilinear"):
            return enc(result)
        if kind == "coeffs_exact":
            return list(result.coeffs)
        if kind == "log_expansion_coeffs":
            return [enc(c) for c in result]
        if kind == "expansion_l2_error":
            return {
                "order": result.order,
                "coefficients": [enc(c) for c in result.coefficients],
                "l2_error": enc(result.l2_error),
            }
        if kind == "diag_scaling_table":
            return [[n, enc(v)] for n, v in result]
        rc, stdout = result
        self.stdout_bytes += len(stdout.encode("utf-8"))
        return {"rc": rc, "stdout": stdout}

    # -- self-check: a wrong result the checks must catch ------------------

    def fault_target(self) -> int:
        kinds = ("gram_exact", "gram_float", "verify_range", "bilinear", "cli")
        return next(i for i, op in enumerate(self.ops) if op["kind"] in kinds)

    def faulty_entry_fn(self, op):
        def entry_fn(n, m):
            value = self.pkg.exactmoments.entry(n, m, max_order=op["max_order"])
            return value * Fraction(1000001, 1000000) if (n, m) == (1, 0) else value

        return entry_fn

    @staticmethod
    def perturb(op, result):
        kind = op["kind"]
        if kind in ("gram_exact", "gram_float"):
            result.entries[0][0] *= 1 + Fraction(1, 10**6) if kind == "gram_exact" else 1 + 1e-6
            return result
        if kind == "bilinear":
            return result * (1 + (Fraction(1, 10**6) if isinstance(result, Fraction) else 1e-6))
        rc, stdout = result
        return rc, stdout + " "


def warm_up(pkg) -> None:
    """Call every public layer once at a tiny size before anything is timed.

    First calls pay for lazy imports and first-use set-up inside numpy
    and the package; users pay that once per process, so it belongs to
    set-up, not to the first timed operation.
    """
    gram = pkg.exactmoments.gram_exact(4)
    pkg.exactmoments.gram_float(4)
    pkg.exactmoments.entry(2, 1)
    pkg.legendre.coeffs_exact(3)
    pkg.oracles.exact_entry_oracle(2, 1)
    pkg.oracles.quad_entry_oracle(2, 1)
    pkg.oracles.verify_range(3, "exact")
    pkg.oracles.verify_range(3, "quad")
    pkg.analysis.bilinear_log_form([1, 2], [3], gram)
    pkg.analysis.log_expansion_coeffs(3)
    pkg.analysis.expansion_l2_error(3)
    pkg.analysis.diag_scaling_table(3)
    with contextlib.redirect_stdout(io.StringIO()):
        pkg.cli.main(["entry", "1", "0"])


def blas_stamp(numpy) -> dict:
    """numpy and OpenBLAS versions and the thread count OpenBLAS runs with."""
    stamp = {"numpy": numpy.__version__, "blas_env": {
        k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        stamp["blas"] = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                stamp["blas_threads"] = fn()
                return stamp
    stamp["blas_threads"] = None
    return stamp


class Recorder:
    """Latencies and output extractions of every executed operation."""

    def __init__(self, workload: Workload, inject_fault: bool, sampler: hostspeed.Sampler):
        self.workload = workload
        # [pass, op index, latency seconds, error or None, digest, slowness]
        # where the last is the host's mean slowness around the operation
        self.records = []
        self.outputs = {}  # "op:digest" -> extraction
        self.fault_at = workload.fault_target() if inject_fault else None
        self.latency = {}  # op index -> latest latency
        self.sampler = sampler

    def run_pass(self, pass_no: int, indices=None, tracer=None) -> float:
        """Issue the operations at ``indices`` (default: all) once, in list order."""
        workload = self.workload
        clock = time.perf_counter
        started = clock()
        for index in range(len(workload.ops)) if indices is None else indices:
            op = workload.ops[index]
            fault = pass_no == 0 and index == self.fault_at
            entry_fn = workload.faulty_entry_fn(op) if fault and op["kind"] == "verify_range" else None
            # Every operation starts from the same collector state: what the
            # harness keeps (outputs, records) is frozen out of the young and
            # old generations, so the collections an operation triggers scan
            # only the objects it made, whichever operations ran before it.
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.op = index
            error = digest = None
            self.sampler.start()
            t0 = clock()
            try:
                result = workload.call(op, entry_fn)
            except Exception as exc:  # an operation that raises is counted as failed
                error = f"{type(exc).__name__}: {exc}"
            finally:
                self.sampler.stop()
            latency, slowness = self.sampler.result(t0, clock())
            if error is None:
                if fault and entry_fn is None:
                    result = workload.perturb(op, result)
                extraction = workload.extract(op, result)
                del result
                blob = json.dumps(extraction, sort_keys=True, separators=(",", ":"))
                digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
                self.outputs.setdefault(f"{index}:{digest}", extraction)
            self.records.append([pass_no, index, latency, error, digest, slowness])
            self.latency[index] = latency
        return clock() - started

    def run_until(self, seconds: float, min_full: int) -> dict:
        """Passes in the pattern full, light, light, ... for ``seconds``.

        A full pass issues every operation; a light pass only those that
        took under ``LIGHT_S`` last time, so short operations, which set the
        latency percentiles, get more samples than the few long ones.  A
        pass is skipped when it would end after ``seconds`` together with
        the full passes still owed to ``min_full``; the run stops at the
        first such full pass.
        """
        start = time.perf_counter()
        last = {"full": 0.0, "light": 0.0}
        done = {"full": 0, "light": 0}
        for kind in itertools.cycle(("full", "light", "light")):
            owed = max(0, min_full - done["full"] - (kind == "full"))
            fits = time.perf_counter() - start + last[kind] + owed * last["full"] <= seconds
            if kind == "full" and not fits and owed == 0 and done["full"] >= min_full:
                return done
            indices = None
            if kind == "light":
                indices = [i for i, t in sorted(self.latency.items()) if t < LIGHT_S]
                if not indices or not fits:
                    continue
            last[kind] = self.run_pass(sum(done.values()), indices)
            done[kind] += 1


def run_probes(pkg) -> tuple:
    """Untimed requests outside the oracles' exactness ranges.

    They keep the known defects visible: today the quad sweep reports most
    pairs as failed and the expansion error is off by about 5e-5.  An
    oracle that refuses such a request instead is recorded as refusing,
    with -1 in place of the figure.  Returns (metrics, details).
    """
    metrics, details = {}, {}
    try:
        report = pkg.oracles.verify_range(QUAD_PROBE_ORDER, "quad")
        failures = report.failures
        metrics["oracles.quad_out_of_range_pairs_failed"] = len(failures)
        details["quad"] = {
            "pairs": report.num_pairs,
            "failed": len(failures),
            "first_failure_n_plus_m": min((c.n + c.m for c in failures), default=None),
        }
    except Exception as exc:  # a refusal is a result here, not a crash
        metrics["oracles.quad_out_of_range_pairs_failed"] = -1
        details["quad"] = {"refused": f"{type(exc).__name__}: {exc}"}
    try:
        report = pkg.analysis.expansion_l2_error(EXPANSION_PROBE_ORDER)
        exact = 1 / (EXPANSION_PROBE_ORDER + 1)
        metrics["analysis.expansion_l2_error.out_of_range_rel_err"] = abs(report.l2_error - exact) / exact
        details["expansion"] = {"order": EXPANSION_PROBE_ORDER, "l2_error": report.l2_error, "exact": exact}
    except Exception as exc:  # as above
        metrics["analysis.expansion_l2_error.out_of_range_rel_err"] = -1
        details["expansion"] = {"refused": f"{type(exc).__name__}: {exc}"}
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()
    work_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)), f"files-{os.getpid()}")
    # Kernel runs during set-up too (see hostspeed.py), except in a traced
    # run, whose set-up spans they would land in.
    setup = hostspeed.Sampler(SAMPLE_INTERVAL_S if args.mode != "trace" else None)
    setup.start()
    try:
        return run(args, work_dir, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir, setup) -> int:
    t0 = time.perf_counter()
    import loglegram
    import loglegram.analysis
    import loglegram.cli
    import loglegram.exactmoments
    import loglegram.legendre
    import loglegram.oracles
    import numpy

    src = os.path.realpath(args.src)
    if not os.path.realpath(loglegram.__file__).startswith(src + os.sep):
        print(f"loglegram was imported from {loglegram.__file__}, not from {src}", file=sys.stderr)
        return 3

    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    workload = Workload(loglegram, spec, args.mode, work_dir)
    if tracer is not None:
        tracer.op = "warmup"
    warm_up(loglegram)
    # Set-up state lives for the whole run: freeze it so that the collection
    # before each operation only scans what earlier operations left behind.
    gc.collect()
    gc.freeze()
    setup.stop()
    t1 = time.perf_counter()
    latency, slowness = setup.result(t0, t1)
    print(f"READY {slowness!r} {t1 - t0 - latency!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {"stamp": blas_stamp(numpy)}
    if args.mode == "run":
        if spec["workload"] == "cli":
            # A child interpreter is bracketed by bare interpreter starts; the
            # kernel would share this CPU with it, so nothing runs during it.
            sampler = hostspeed.Sampler(probe=hostspeed.start_slowness)
        else:
            sampler = hostspeed.Sampler(SAMPLE_INTERVAL_S)
        recorder = Recorder(workload, args.inject_fault, sampler)
        result["passes"] = recorder.run_until(args.seconds, spec["min_passes"])
        usage = resource.RUSAGE_CHILDREN if spec["workload"] == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024
    else:
        # Nothing runs during an operation: it would land in the spans.
        recorder = Recorder(workload, args.inject_fault, hostspeed.Sampler())
        tracer.uninstall()
        untraced = recorder.run_pass(0)
        workload.stdout_bytes = 0  # count one pass
        tracer.install()
        traced = recorder.run_pass(1, tracer=tracer)
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["cli.stdout_bytes"] = workload.stdout_bytes
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.traced_wall_s"] = traced
        layers["trace.overhead_ratio"] = traced / untraced
        probe_metrics, result["probes"] = run_probes(loglegram)
        layers.update(probe_metrics)
        result["layers"] = layers
        spans_path = os.path.splitext(args.out)[0] + "-spans.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
        result["spans_file"] = os.path.basename(spans_path)
        result["passes"] = {"untraced": 1, "traced": 1}
    result["records"] = recorder.records
    result["outputs"] = recorder.outputs
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
