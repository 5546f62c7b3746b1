#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each check must be able to fail.

    python3 altxbench/selftest.py

Run from the repository root. For every check, one short run falsifies one
expectation (--corrupt) and must come back with correct=false and that
check named in a "check failed:" line. One clean run per workload must come
back correct. Exits non-zero when any case does not behave so.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, expectation falsified, check that must report it)
CASES = [
    ("fork_race", "fork_value", "fork_race.value"),
    ("fork_race", "fork_global", "fork_race.global"),
    ("fork_race", "cpu_total", "cpu_total"),
    ("heap_absorb", "heap_shadow", "heap_absorb.shadow"),
    ("heap_absorb", "heap_pages", "heap_absorb.pages"),
    ("heap_absorb", "cpu_total", "cpu_total"),
    ("recovery_blocks", "recovery_fail", "recovery_blocks.fail"),
    ("recovery_blocks", "recovery_value", "recovery_blocks.value"),
    ("recovery_blocks", "cpu_total", "cpu_total"),
    ("daemon_jobs", "daemon_echo", "daemon_jobs.echo"),
    ("daemon_jobs", "daemon_completed", "daemon_jobs.completed"),
]
CLEAN = ["fork_race", "heap_absorb", "recovery_blocks", "daemon_jobs"]


def run(workload, corrupt=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, []
    failed = [l.split()[2] for l in lines if l.startswith("check failed:")]
    return json.loads(lines[-1]), failed


def main():
    bad = 0
    for wl in CLEAN:
        res, failed = run(wl)
        ok = res is not None and res["correct"] and not failed
        print(f"{'ok  ' if ok else 'FAIL'} {wl:16} clean run is correct")
        bad += not ok
    for wl, corrupt, check in CASES:
        res, failed = run(wl, corrupt)
        ok = res is not None and not res["correct"] and check in failed
        print(f"{'ok  ' if ok else 'FAIL'} {wl:16} --corrupt {corrupt:17} "
              f"-> reported {failed}")
        bad += not ok
    print("selftest:", "passed" if bad == 0 else f"{bad} case(s) failed")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
