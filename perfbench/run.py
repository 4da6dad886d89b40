#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stencil|graph|serve --seed N \
        --seconds S --trace 0|1 [--update-goldens]

Run from the repository root. The first call configures and builds
perfbench/driver.cc with the simulator library in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. The driver runs as one fresh process with one simulating
thread. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Failed checks are listed on stderr, one line per failed run.

--update-goldens rewrites perfbench/goldens.json for this workload from
this run; it requires the default seed.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("stencil", "graph", "serve")
# The driver itself must end well inside the benchmark's 180 s limit.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; return its path."""
    out = os.path.join(os.getcwd(),
                       os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "perfbench_driver"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--update-goldens", action="store_true")
    args = ap.parse_args()
    if args.update_goldens and args.seed != metrics.DEFAULT_SEED:
        ap.error("--update-goldens needs --seed %d" % metrics.DEFAULT_SEED)
    end_to_end, per_layer = metrics.load_declared()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    proc = subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        log("driver exited with code %d" % proc.returncode)
        return 1
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    runs = metrics.by_kind(records, "run")

    goldens = metrics.load_goldens()
    if args.update_goldens:
        goldens[args.workload] = {metrics.run_name(r): r["digest"]
                                  for r in runs if r["valid"]}
        with open(os.path.join(HERE, "goldens.json"), "w") as f:
            json.dump(goldens, f, indent=2, sort_keys=True)
            f.write("\n")
    failures = metrics.check_runs(
        runs, goldens.get(args.workload, {}),
        check_goldens=args.seed == metrics.DEFAULT_SEED)
    for msg in failures:
        log("FAILED " + msg)

    if args.trace:
        values, declared = metrics.per_layer(records), per_layer
    else:
        values, declared = metrics.end_to_end(args.workload, records), \
            end_to_end
        print(metrics.raw_summary(records))
    if args.workload == "serve":
        first = min(r["pass"] for r in runs if r["pass"] >= 0)
        n = len(metrics.serve_samples(
            [r for r in runs if r["pass"] == first]))
        print("latency samples per pass: %d pooled Aff-Alloc healthy "
              "requests, p%g leaves %.1f beyond"
              % (n, metrics.tail_percentile(n),
                 n * (100 - metrics.tail_percentile(n)) / 100))
    print(metrics.result_line(not failures, len(runs), len(failures),
                              values, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
