#!/usr/bin/env python3
"""Steadiness check: runs each workload k times, each with another seed.

    python3 altxbench/steady.py [--runs 10] [--workloads a,b] [--seed0 100]
                                [--seconds S] [--trace 0|1]
                                [--order interleaved|grouped]

Run from the repository root. For every metric and workload it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and the largest distance from the median as a share of
it, next to the metric's bound from BENCHMARK.json. A spread above a third
of the bound is flagged ("!"), as is any run that is not correct or whose
failed share differs from the first run's. Raw results go to
.bench_run/steady-<time>.jsonl.

By default the workloads take turns (run i of every workload, then run
i + 1), so each workload also runs right after every other one; --order
grouped runs all k runs of one workload before the next.
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


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--order", choices=("interleaved", "grouped"),
                    default="interleaved")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    if args.order == "grouped":
        plan = [(wl, i) for wl in workloads for i in range(args.runs)]
    else:
        plan = [(wl, i) for i in range(args.runs) for wl in workloads]

    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_run",
                            time.strftime("steady-%Y%m%d-%H%M%S.jsonl"))
    bad = False
    by_workload = {wl: [] for wl in workloads}
    with open(log_path, "w") as log:
        for wl, i in plan:
            seed = args.seed0 + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t = time.monotonic()
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}")
                bad = True
                continue
            r = json.loads(lines[-1])
            r["workload"], r["seed"] = wl, seed
            r["elapsed_s"] = time.monotonic() - t
            r["notes"] = [l for l in lines
                          if l.startswith(("setup:", "windows"))]
            log.write(json.dumps(r) + "\n")
            log.flush()
            by_workload[wl].append(r)
        for wl, results in by_workload.items():
            if not results:
                continue
            shares = {r["failed"] / r["attempted"] for r in results}
            incorrect = [r["seed"] for r in results if not r["correct"]]
            print(f"\n== {wl}: {len(results)} runs, "
                  f"elapsed {max(r['elapsed_s'] for r in results):.1f} s max, "
                  f"failed share {sorted(shares)}, incorrect seeds {incorrect}")
            bad |= len(shares) > 1 or bool(incorrect)
            print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'iqr/med':>8} {'maxdev':>8} {'bound':>6}")
            for name in results[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(vals)
                q1, _, q3 = (statistics.quantiles(vals, n=4)
                             if len(vals) > 1 else (med, med, med))
                scale = abs(med)
                spread = (q3 - q1) / scale if scale else 0.0
                dev = max(abs(v - med) for v in vals)
                maxdev = dev / scale if scale else 0.0
                bound = bounds.get(name)
                flag = ""
                gated = bound is not None and name != "setup_s"
                if gated and spread > bound / 3:
                    flag = " !"
                    bad = True
                print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:8.3f} {maxdev:8.3f} "
                      f"{'' if bound is None else bound:>6}{flag}")
    print(f"\nraw results: {os.path.relpath(log_path, ROOT)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
