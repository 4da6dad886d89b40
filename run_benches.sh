#!/usr/bin/env bash
# Regenerates every figure/table of the paper plus the ablations.
# Order: light figures first.
#
# Script-level options (everything else is forwarded to the benches):
#   --quick      smoke-sized inputs (forwarded; mapped to a short
#                minimum measuring time for micro_benchmarks)
#   --timings    write BENCH_overall.json next to this script with
#                per-bench wall-clock seconds and the total
#   --jobs N     forwarded to the figure benches (parallel sweep
#                points); defaults to the machine's hardware threads.
#                Bench output is byte-identical at any job count (the
#                sweep collects results in sweep order), so this only
#                changes wall-clock. Filtered out for
#                micro_benchmarks, which is google-benchmark based
#                and rejects foreign flags.
#   --no-prof    with --timings, skip the per-bench --prof-out export
#                (used by CI to measure the profiler's own overhead:
#                two --timings runs, one with --no-prof, diffed by
#                tools/perf_diff.py). Bench output is byte-identical
#                either way; profiling is digest/stdout-neutral.
set -euo pipefail

here="$(dirname "$0")"
timings=0
no_prof=0
jobs=""
quick=0
declare -a fwd=()
argv=("$@")
i=0
while [ $i -lt $# ]; do
    a="${argv[$i]}"
    case "$a" in
    --timings)
        timings=1
        ;;
    --no-prof)
        no_prof=1
        ;;
    --jobs)
        i=$((i + 1))
        jobs="${argv[$i]}"
        fwd+=(--jobs "$jobs")
        ;;
    --jobs=*)
        jobs="${a#--jobs=}"
        fwd+=("$a")
        ;;
    --quick)
        quick=1
        fwd+=("$a")
        ;;
    *)
        fwd+=("$a")
        ;;
    esac
    i=$((i + 1))
done

# Default to one worker per hardware thread unless the caller chose a
# count via --jobs or the AFFALLOC_JOBS environment variable.
if [ -z "$jobs" ] && [ -z "${AFFALLOC_JOBS:-}" ]; then
    jobs=$(nproc 2>/dev/null || echo 1)
    fwd+=(--jobs "$jobs")
fi

declare -a names=()
declare -a seconds=()
total=0

# With --timings, each figure bench also exports its host-side
# self-profile (phase tree, worker utilization, peak RSS) so
# BENCH_overall.json can carry per-bench breakdowns, not just totals.
prof_dir="$here/build/prof"
with_prof=0
if [ "$timings" = 1 ] && [ "$no_prof" = 0 ]; then
    with_prof=1
    mkdir -p "$prof_dir"
fi

for b in fig04_affine_offset fig17_bfs_iters fig14_timeline \
         fig18_push_pull fig15_affine_scale fig12_overall \
         fig06_irregular_potential fig19_degree fig13_policy \
         fig20_real_graphs fig16_graph_scale \
         ablation_codesign ablation_numbering serve_availability \
         host_interference micro_benchmarks; do
    echo "################ $b"
    if [ "$b" = micro_benchmarks ]; then
        # google-benchmark rejects the figure benches' flags; map
        # --quick to a short minimum measuring time and drop the
        # script-level sweep/simcheck flags.
        args=()
        skip_next=0
        for a in ${fwd[@]+"${fwd[@]}"}; do
            if [ "$skip_next" = 1 ]; then
                skip_next=0
                continue
            fi
            case "$a" in
            --quick) args+=(--benchmark_min_time=0.01) ;;
            --jobs) skip_next=1 ;;
            --jobs=*) ;;
            --simcheck | --simcheck-digest | --faulty) ;;
            --trace-out=* | --heatmap=* | --obs-csv=*) ;;
            --explain-placement | --explain-placement=*) ;;
            --prof-out) skip_next=1 ;;
            --prof-out=* | --progress | --progress=*) ;;
            *) args+=("$a") ;;
            esac
        done
        t0=$(date +%s.%N)
        rc=0
        "$here/build/bench/$b" ${args[@]+"${args[@]}"} || rc=$?
        t1=$(date +%s.%N)
    else
        prof_args=()
        if [ "$with_prof" = 1 ]; then
            prof_args=(--prof-out="$prof_dir/$b.prof.json")
        fi
        t0=$(date +%s.%N)
        rc=0
        "$here/build/bench/$b" ${fwd[@]+"${fwd[@]}"} \
            ${prof_args[@]+"${prof_args[@]}"} || rc=$?
        t1=$(date +%s.%N)
    fi
    # A bench exiting non-zero (validation or digest failure) fails
    # the whole run, loudly and with the offending bench named --
    # `set -e` alone would die silently inside the timing capture.
    if [ "$rc" -ne 0 ]; then
        echo "FAILED: bench $b exited with code $rc" >&2
        exit "$rc"
    fi
    dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
    names+=("$b")
    seconds+=("$dt")
    total=$(awk -v t="$total" -v d="$dt" 'BEGIN { printf "%.3f", t + d }')
    echo
done

echo "TOTAL ${total}s"

if [ "$timings" = 1 ]; then
    out="$here/BENCH_overall.json"
    # Provenance: which sources, build and host produced these numbers
    # (a timing regression is meaningless without them).
    git_rev="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
    build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
        "$here/build/CMakeCache.txt" 2>/dev/null | head -1)"
    host_threads="$(nproc 2>/dev/null || echo 1)"
    {
        echo "{"
        echo "  \"quick\": $([ "$quick" = 1 ] && echo true || echo false),"
        echo "  \"jobs\": ${jobs:-${AFFALLOC_JOBS:-1}},"
        echo "  \"git_revision\": \"$git_rev\","
        echo "  \"build_type\": \"${build_type:-unknown}\","
        echo "  \"host_threads\": $host_threads,"
        echo "  \"benches\": {"
        n=${#names[@]}
        for ((k = 0; k < n; ++k)); do
            sep=","
            [ $((k + 1)) -eq "$n" ] && sep=""
            echo "    \"${names[$k]}\": ${seconds[$k]}$sep"
        done
        echo "  },"
        echo "  \"prof\": $([ "$with_prof" = 1 ] && echo true || echo false),"
        echo "  \"total_seconds\": $total"
        echo "}"
    } > "$out"
    # Fold the per-bench self-profiles in: top-level phase breakdown
    # (inclusive/exclusive ns) and peak RSS per bench, so the perf gate
    # sees *where* a regression lives, not just that one happened.
    if [ "$with_prof" = 1 ]; then
        python3 - "$out" "$prof_dir" <<'PYEOF'
import json, os, sys

out_path, prof_dir = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    overall = json.load(f)

profiles = {}
for bench in overall.get("benches", {}):
    path = os.path.join(prof_dir, bench + ".prof.json")
    if not os.path.exists(path):
        continue
    with open(path) as f:
        prof = json.load(f)
    # Flatten the nested phase tree, merging repeats by name (the
    # same phase can appear under several parents/threads), so the
    # per-bench breakdown is one row per phase.
    flat = {}

    def walk(nodes):
        for p in nodes:
            row = flat.setdefault(
                p["name"],
                {"inclusive_ns": 0, "exclusive_ns": 0, "count": 0})
            row["inclusive_ns"] += p["inclusive_ns"]
            row["exclusive_ns"] += p["exclusive_ns"]
            row["count"] += p["count"]
            walk(p.get("children", []))

    walk(prof.get("phases", []))
    profiles[bench] = {
        "schema": prof.get("schema"),
        "wall_ns": prof.get("wall_ns", 0),
        "peak_rss_kb": prof.get("rss", {}).get("peak_kb", 0),
        "phases": [
            {"name": name, **row} for name, row in sorted(flat.items())
        ],
    }
overall["profiles"] = profiles
with open(out_path, "w") as f:
    json.dump(overall, f, indent=2)
    f.write("\n")
PYEOF
    fi
    echo "wrote $out"
fi
