#!/usr/bin/env python3
"""Build archline_serverd and the benchmark client from this checkout, then
run one workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload hot_cached --seed 1 --seconds 25 --trace 0

Run from the root of the checkout. --trace 0 is the end-to-end run (tracing
off): a fresh server per run, driven over loopback TCP by one closed-loop,
pipelined client process; it prints the end-to-end metrics. --trace 1 is
the traced run: the per-layer metrics, with spans written to .bench_out/.
The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("hot_cached", "cold_model", "learn_refit")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(source, build_dir):
    """Configure once, then build; the compiler's output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-6000:])
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(here, build_dir):
        return 1

    server = os.path.join(build_dir, "archline_tools", "archline_serverd")
    common = ["--server", server, "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd = [os.path.join(build_dir, "perfbench_trace"), *common,
               "--out", os.path.abspath(".bench_out")]
    else:
        cmd = [os.path.join(build_dir, "perfbench"), *common]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        log(f"run failed with exit code {done.returncode}")
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
