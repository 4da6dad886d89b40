#!/usr/bin/env python3
"""Steadiness check of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--seconds S]

Runs two sets of runs. In each set every workload runs --runs times,
one run per seed (1, 2, ..., skipping the held-out seed of metrics.py),
alternating the workload order from one round to the next. --seconds
defaults to BENCHMARK.json's run_seconds. For each metric it prints the
median, the quartiles and the spread (q3 - q1) / median of set 1
(quartiles as statistics.quantiles(values, n=4) gives them), and the
A/A comparison: how much worse set 2's median is than set 1's, as a
share of set 1's median.

A metric is flagged when the spread of either set exceeds its bound or
when set 2 is worse than set 1 by more than the bound. Spreads above a
third of the bound are marked as thin margins. Exits 1 when anything
is flagged. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        print("%s seed %d: %d of %d runs failed" % (
            workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(declared, first, second):
    """Share by which median @p second is worse than @p first."""
    if first == 0:
        return 0.0
    delta = (second - first) / first
    return delta if declared["better"] == "lower" else -delta


def seeds(n):
    """The first @p n seeds from 1 up, the held-out seed left out."""
    return [s for s in range(1, n + 2) if s != metrics.HELD_OUT_SEED][:n]


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=run_seconds)
    args = ap.parse_args()
    workloads = ["stencil", "graph", "serve"]
    declared, _ = metrics.load_declared()

    sets = 2
    results = {(s, w): [] for s in range(sets) for w in workloads}
    for s in range(sets):
        for i, seed in enumerate(seeds(args.runs)):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                results[(s, w)].append(run_once(w, seed, args.seconds))

    flagged = 0
    for w in workloads:
        print("\n%s (%d runs per set)" % (w, args.runs))
        print("%-22s %13s %13s %13s %7s %6s %7s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "A/A"))
        for d in declared:
            name = d["name"]
            line_flags = []
            stats = []
            for s in range(sets):
                vals = [r[name] for r in results[(s, w)]]
                q1, med, q3 = spread(vals)
                rel = (q3 - q1) / med if med else 0.0
                stats.append((q1, med, q3, rel))
                if rel > d["bound"]:
                    line_flags.append("SPREAD(set %d)" % (s + 1))
                elif rel > d["bound"] / 3:
                    line_flags.append("thin(set %d)" % (s + 1))
            wb = worse_by(d, stats[0][1], stats[1][1])
            aa = "%+.3f" % wb
            if wb > d["bound"]:
                line_flags.append("A/A")
            q1, med, q3, rel = stats[0]
            print("%-22s %13.6g %13.6g %13.6g %7.3f %6.2f %7s %s" % (
                name, q1, med, q3, rel, d["bound"], aa,
                " ".join(line_flags)))
            flagged += any(f.startswith(("SPREAD", "A/A"))
                           for f in line_flags)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
