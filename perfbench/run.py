"""Benchmark for loglegram: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload {assemble,forms,verify,cli} --seed N
                             --seconds S --trace {0,1} [--inject-fault]

Run from anywhere; the package is taken from ``src/`` next to this
directory and is never installed.  Every workload runs in fresh worker
interpreters (``worker.py``) with BLAS pinned to one thread; this process
never imports ``loglegram``, so the references it checks outputs against
(``reference.py``) cannot inherit the package's mistakes.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, and
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of stdout is the result object; the lines above it are a readable
summary and the environment stamp.  Full results (and, for traced runs,
every span) are written to ``.bench_out/`` at the repository root.
``--inject-fault`` corrupts one output to show that the checks count it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import hostspeed
import workloads
from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: Set-up is timed this many times per run (fresh interpreters); the median
#: is reported.
SETUP_SAMPLES = 5
#: Fresh interpreters timed for each start-up figure of a traced run.
STARTUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(spec_path, out_path, mode, seconds, inject_fault=False) -> tuple:
    """Run one worker to completion.

    Returns its set-up time in seconds, without the time the worker spent
    in hostspeed kernel runs, and the host's mean slowness over its set-up,
    both as the worker reports them on its READY line.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--spec", spec_path, "--src", SRC, "--out", out_path,
        "--mode", mode, "--seconds", str(seconds),
    ] + (["--inject-fault"] if inject_fault else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = line.split()
    if len(fields) != 3 or fields[0] != "READY" or rc != 0:
        raise BenchError(f"worker ({mode}) exited with code {rc} before finishing")
    return setup - float(fields[2]), float(fields[1])


def time_interpreter(args) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=60, check=False,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{args} exited with code {proc.returncode}: {proc.stderr.strip()[-200:]}")
    return elapsed, proc.stderr


def startup_metrics() -> dict:
    """Interpreter start, package import and numpy's share, from fresh processes."""
    bare = statistics.median(time_interpreter(["-c", "pass"])[0] for _ in range(STARTUP_SAMPLES))
    loaded = statistics.median(
        time_interpreter(["-c", "import loglegram"])[0] for _ in range(STARTUP_SAMPLES)
    )
    numpy_s = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, stderr = time_interpreter(["-X", "importtime", "-c", "import loglegram"])
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_s.append(int(fields[1]) / 1e6)
    if len(numpy_s) != IMPORTTIME_SAMPLES:
        raise BenchError("-X importtime reported no numpy import")
    return {
        "cli.interpreter_s": bare,
        "cli.import_s": loaded - bare,
        "cli.import_numpy_s": statistics.median(numpy_s),
    }


def _read_first(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return default


def env_stamp(args, spec) -> dict:
    cpu = None
    for line in (_read_first("/proc/cpuinfo", "") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    l3 = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else []:
        if _read_first(os.path.join(cache, index, "level")) == "3":
            l3 = _read_first(os.path.join(cache, index, "size"))
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "loglegram"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(folder, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "ops_sha256": spec["hash"],
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "l3": l3,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check_outputs(spec, result) -> tuple:
    """(attempted, failed, reasons) over every executed operation."""
    ref = Reference()
    files = {f["name"]: f["lines"] for f in spec["files"]}
    verdicts = {}
    for key, extraction in result["outputs"].items():
        op = spec["ops"][int(key.split(":")[0])]
        kind = op["kind"]
        try:
            if kind in ("gram_exact", "gram_float"):
                verdicts[key] = ref.check_gram(op, extraction)
            elif kind == "cli":
                verdicts[key] = ref.check_cli(op, extraction, files)
            else:
                verdicts[key] = getattr(ref, "check_" + kind)(op, extraction)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            # e.g. a float where an exact value was due: a wrong output
            verdicts[key] = f"output of the wrong shape or type: {exc}"
    reasons = []
    for pass_no, index, _, error, digest, _ in result["records"]:
        reason = error or verdicts[f"{index}:{digest}"]
        if reason:
            reasons.append(f"pass {pass_no} op {index} ({spec['ops'][index]['kind']}): {reason}")
    return len(result["records"]), len(reasons), reasons


def end_to_end(result, setups, attempted, failed) -> tuple:
    # Every time is taken at reference speed (see hostspeed.py): other
    # tenants slow this host down by up to a factor of two for seconds at a
    # time, which the probe timed beside each measurement cancels.  An
    # operation's latency is the median over its passes.
    samples = {}
    for _, index, latency, _, _, slowness in result["records"]:
        samples.setdefault(index, []).append(latency / slowness)
    latencies = sorted(statistics.median(v) for v in samples.values())
    n = len(latencies)
    rank = math.ceil(0.9 * n)  # p90 = the rank-th smallest; n - rank samples lie beyond it
    values = {
        "setup_s": statistics.median(s / k for s, k in setups),
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": latencies[rank - 1] * 1e3,
        "peak_rss_mib": result["peak_rss_mib"],
        "ok_ops_frac": (attempted - failed) / attempted,
    }
    notes = {
        "samples": n,
        "beyond_p90": n - rank,
        "passes": result["passes"],
        "setup_samples_s": [s for s, _ in setups],
        "setup_slowness": [k for _, k in setups],
        "slowness_median": statistics.median(r[5] for r in result["records"]),
        "failed_ops_frac": failed / attempted,
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loglegram benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output to show the checks count it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "loglegram", "__init__.py")):
        print(f"error: no package at {os.path.join(SRC, 'loglegram')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    spec = workloads.build(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec_path = os.path.join(OUT_DIR, f"ops-{tag}.json")
    out_path = os.path.join(OUT_DIR, f"worker-{tag}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    stamp = env_stamp(args, spec)

    # One CPU for this process and every interpreter it starts, so that the
    # hostspeed probes run where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.trace:
            run_worker(spec_path, out_path, "trace", args.seconds, args.inject_fault)
        else:
            setups = [run_worker(spec_path, out_path, "setup", args.seconds)
                      for _ in range(SETUP_SAMPLES - 1)]
            setups.append(run_worker(spec_path, out_path, "run", args.seconds, args.inject_fault))
        with open(out_path, encoding="utf-8") as fh:
            result = json.load(fh)
        attempted, failed, reasons = check_outputs(spec, result)
        if args.trace:
            values = dict(result["layers"])
            values.update(startup_metrics())
            notes = {"passes": result["passes"], "spans_file": result["spans_file"],
                     "failed_ops_frac": failed / attempted, "probes": result["probes"]}
            declared_metrics = declared["per_layer"]
        else:
            values, notes = end_to_end(result, setups, attempted, failed)
            declared_metrics = declared["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stamp.update(result["stamp"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics}
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "notes": notes, "metrics": metrics, "failures": reasons}, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed "
          f"(failed_ops_frac {failed / attempted:.6g}), ops sha256 {spec['hash'][:16]}")
    for reason in reasons[:10]:
        print(f"  FAILED {reason[:160]}")
    for name, metric in metrics.items():
        extra = ""
        if name == "op_p90_ms":
            extra = f"  ({notes['samples']} samples, {notes['beyond_p90']} beyond)"
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}{extra}")
    if not args.trace:
        print(f"  times at reference speed; the host ran {notes['slowness_median']:.3f} times as slow "
              f"(median over the operations)")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
