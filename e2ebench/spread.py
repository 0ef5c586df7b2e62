#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --workload stream-ingest --seeds 1-10 [--trace 1]

For every metric it prints the median and the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4),
next to the bound BENCHMARK.json gives it, plus each run's wall time. Run
from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        t0 = time.time()
        out = subprocess.run(
            ["python3", os.path.join("e2ebench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        wall = time.time() - t0
        if out.returncode != 0:
            print(out.stdout, out.stderr, file=sys.stderr)
            sys.exit("seed %d failed (exit %d)" % (seed, out.returncode))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %-4d wall %6.1f s  correct=%s attempted=%d failed=%d" %
              (seed, wall, result["correct"], result["attempted"],
               result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("%-34s %14s %9s %7s  %s" %
          ("metric", "median", "IQR/med", "bound", "values"))
    for name, v in values.items():
        med = statistics.median(v)
        spread = float("nan")
        if len(v) >= 2 and med != 0:
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        print("%-34s %14.6g %9.4f %7s  %s" %
              (name, med, spread, "-" if bound is None else bound,
               " ".join("%.4g" % x for x in v)))


if __name__ == "__main__":
    main()
