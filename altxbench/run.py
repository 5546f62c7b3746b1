#!/usr/bin/env python3
"""Builds the altx benchmark from source and runs one workload.

    python3 altxbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR/altxbench
(default .bench_build/altxbench) and is reused when up to date. The binary's
stdout is passed through; its last line is the JSON result. Exits non-zero,
without a result, when the library sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fork_race", "heap_absorb", "recovery_blocks", "daemon_jobs")


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "posix", "race.hpp")):
        log("library sources (src/) not found next to", HERE)
        sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "altxbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "altx_bench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="",
                    help="falsify one expectation (selftest.py)")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        sys.exit(2)

    # The run must not pick up tracing, governor or predictor knobs from the
    # caller's environment: every run measures the same configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALTX_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # time.monotonic_ns() reads CLOCK_MONOTONIC, the clock the binary uses:
    # setup_s runs from here, the launch of the benchmark process.
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=args.seconds + 150)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("benchmark exited with", proc.returncode)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)


if __name__ == "__main__":
    main()
