"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload verify --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as
a share of the median, next to a third of the metric's bound from
BENCHMARK.json: the benchmark is steady enough when the spread stays
below that third.  Runs go one after another.  Raw results are appended
to ``.bench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log = os.path.join(ROOT, ".bench_out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, "trace": args.trace, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              flush=True)

    print(f"{'metric':<48} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:8.4f}" if bound is not None else " " * 8
        flag = "  WIDE" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
        print(f"{name:<48} {median:>14.6g} {spread:>8.4f} {limit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
