#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload dense_k4 --seed 1 --seconds 30 --trace 0

The benchmark's last stdout line is the JSON result; build output goes to
stderr. The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
repository root, and --trace 1 writes its span log and the library's run
report next to it. At a seed listed in expected_costs.json the benchmark
names every drift of the simulated cost from the recorded one.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_k4", "ring_k6", "dyn_churn")
RUN_TIMEOUT_S = 170
# Exact list_kp cost per workload and run seed, "rounds,messages,exchange,
# routing,analytic"; a run prints a DRIFT line for any difference from it.
EXPECTED_COSTS = os.path.join(HERE, "expected_costs.json")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds incrementally; returns the binary path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: not a full checkout")
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    binary = build()
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    with open(EXPECTED_COSTS) as f:
        recorded = json.load(f).get(args.workload, {}).get(str(args.seed))
    if recorded:
        cmd += ["--expect-cost", recorded]
    # Knobs that change timing or scheduling are the workload's to set.
    env = {k: v for k, v in os.environ.items()
           if k not in ("DCL_THREADS", "DCL_SHARD_AUDIT", "DCL_TRACE_WALLCLOCK")}
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
