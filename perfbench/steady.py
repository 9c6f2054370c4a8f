#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly, interleaved in time.

    python3 perfbench/steady.py --runs 10 --seconds 35
    python3 perfbench/steady.py --runs 5 --workloads serve-mixed --first-seed 101

Run from the root of a checkout. Round i runs each workload once with seed
first-seed + i, so the workloads alternate in time. For each end-to-end
metric of each workload it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
metric's bound from BENCHMARK.json, and the share of operations that
failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s" % (workload, seed, r.returncode, r.stderr))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = {n: [] for n in names}
    for i in range(args.runs):
        for n in names:
            res = run_once(n, args.first_seed + i, seconds)
            runs[n].append(res)
            print("%-12s seed %-4d correct=%s attempted=%d failed=%d" % (
                n, args.first_seed + i, res["correct"], res["attempted"], res["failed"]),
                file=sys.stderr, flush=True)

    worst = 0.0
    for n in names:
        rs = runs[n]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("\n%s: %d runs, all correct: %s, failed shares: %s" % (
            n, len(rs), all(r["correct"] for r in rs), shares))
        print("  %-24s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][m]["value"] for r in rs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(m)
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                flag = "ok" if spread <= bound / 3 else ("WITHIN" if spread <= bound else "OVER")
            print("  %-24s %12.5g %12.5g %12.5g %7.2f%% %7s %s" % (
                m, med, q1, q3, 100 * spread,
                "-" if bound is None else "%.0f%%" % (100 * bound), flag))
    print("\nlargest spread/bound: %.2f" % worst)


if __name__ == "__main__":
    main()
