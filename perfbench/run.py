#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune (build directory
.bench_build, shared dune cache off, so nothing is written outside the
checkout), runs it, and passes its output through. Before the result it
prints one line of host facts: nproc, the OCaml version and the share of
CPU time stolen by the hypervisor during the run (from /proc/stat deltas),
so that a noisy run can be told apart from a regression. The last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("serve_sparse", "app_fanout")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def cpu_times():
    """(steal, total) jiffies summed over all CPUs, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(x) for x in fields[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already counted in user)
    return (values[7] if len(values) > 7 else 0, sum(values[:8]))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository (no dune-project or lib/ here)")

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    before = cpu_times()
    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=175)
    after = cpu_times()
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result")

    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    host = {"nproc": os.cpu_count(), "steal_share": steal}
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
