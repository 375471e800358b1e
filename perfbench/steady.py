#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed on one build and, for
every end-to-end metric, print the median, the quartiles, and the spread
(Q3 - Q1, as a share of the median) against the metric's bound in
BENCHMARK.json. Seeds are 101, 102, ...

    python3 perfbench/steady.py                       # 10 seeds, all workloads
    python3 perfbench/steady.py --workloads cold_model --seeds 5

Run from the root of the checkout. A spread is marked "ok" below a third
of its bound, "tight" below the bound, and "WIDE" above it (the spread of
setup_s is not bounded). Exits non-zero if any run fails, any run is
incorrect, or the failed share differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for workload in workloads:
        runs = []
        shares = set()
        for seed in range(101, 101 + args.seeds):
            result = run_once(workload, seed, seconds)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false")
                ok = False
            shares.add(Fraction(result["failed"], result["attempted"]))
            exact = result["failed"] / result["attempted"]
            runs.append(result)
            print(f"# {workload} seed {seed}: failed "
                  f"{result['failed']}/{result['attempted']} = {exact:.6f}; " +
                  ", ".join(f"{m['name']} {result['metrics'][m['name']]['value']:.6g}"
                            for m in metrics), flush=True)
        print(f"\n{workload}: {args.seeds} seeds, {seconds} s each")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for m in metrics:
            name = m["name"]
            med, q1, q3, spread = summarize([r["metrics"][name]["value"] for r in runs])
            if name == "setup_s":
                verdict = "(spread not bounded)"
            elif spread < m["bound"] / 3:
                verdict = "ok"
            elif spread <= m["bound"]:
                verdict = "tight"
            else:
                verdict = "WIDE"
                ok = False
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{m['bound']:6.2f}  {verdict}")
        if len(shares) > 1:
            print(f"  failed share differs between runs: {sorted(map(str, shares))}")
            ok = False
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
