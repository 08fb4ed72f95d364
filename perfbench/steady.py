#!/usr/bin/env python3
"""Steadiness check: run one workload N times with different seeds.

    python3 perfbench/steady.py --workload serve-mix --runs 10 [--first-seed 1]
                                [--seconds 50] [--trace 0]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread as a
share of the median, the max/min ratio, and, with BENCHMARK.json
present, the metric's bound and whether the spread stays under a third
of it.  Exits non-zero if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return {}, 50
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}, spec["run_seconds"]


def main():
    bound, run_seconds = bounds()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=run_seconds)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {done.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed} ({time.monotonic() - t0:.0f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
            units[k] = v["unit"]

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<30} {'unit':>7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        ratio = max(vs) / min(vs) if min(vs) > 0 else float("inf")
        b = bound.get(k)
        flag = "" if b is None else (" ok" if spread < b / 3 else " WIDE")
        print(f"{k:<30} {units[k]:>7} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.3f} {ratio:>8.3f} {'' if b is None else b:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
