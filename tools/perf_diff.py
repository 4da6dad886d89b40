#!/usr/bin/env python3
"""Compare two perf artifacts and flag regressions.

Accepts either format this repo produces:

  * BENCH_overall.json (run_benches.sh --timings): per-bench wall-clock
    seconds, optional per-bench "profiles" (phase breakdown, peak RSS).
  * A raw --prof-out export (schema "affalloc-prof-1"): wall_ns,
    phase tree, RSS.

Usage:
    perf_diff.py BASELINE CURRENT [--threshold PCT] [--rss-threshold PCT]
                 [--min-seconds S]
    perf_diff.py --selftest

Exit codes (CI contract):
    0  no regression beyond the thresholds
    1  at least one regression beyond a threshold (CI treats as warning)
    2  schema/parse error — unreadable file, wrong shape, or a raw
       profile whose phases claim more exclusive time than its wall
       (CI fails)

Wall-clock comparisons are inherently noisy; the default threshold is
deliberately loose (10%) and benches faster than --min-seconds are
reported but never flagged. Memory (peak RSS) gets its own threshold
because it is stable run-to-run.
"""

import argparse
import json
import sys

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_SCHEMA = 2

PROF_SCHEMA = "affalloc-prof-1"


class SchemaError(ValueError):
    pass


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SchemaError(f"{path}: cannot read: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: not valid JSON: {e}")


def check_wall_partition(doc, path="profile"):
    """A profile's phases partition its wall: the exclusive ns summed
    over the whole tree may not exceed wall_ns."""
    def excl(nodes):
        return sum(int(p["exclusive_ns"]) + excl(p.get("children") or [])
                   for p in nodes)
    total, wall = excl(doc["phases"]), int(doc["wall_ns"])
    if total > wall:
        raise SchemaError(
            f"{path}: phases claim {total} exclusive ns, more than the "
            f"{wall} ns of wall; a phase is counted twice or a thread's "
            f"work is not nested under the scope that ran it")


def classify(doc, path):
    """'overall' for BENCH_overall.json, 'prof' for a --prof-out file."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    if doc.get("schema") == PROF_SCHEMA:
        if not isinstance(doc.get("phases"), list):
            raise SchemaError(f"{path}: 'phases' missing")
        check_wall_partition(doc, path)
        return "prof"
    if "benches" in doc and "total_seconds" in doc:
        if not isinstance(doc["benches"], dict):
            raise SchemaError(f"{path}: 'benches' must be an object")
        return "overall"
    raise SchemaError(
        f"{path}: neither a BENCH_overall.json (benches/total_seconds) "
        f"nor an {PROF_SCHEMA} profile"
    )


def pct(new, old):
    return 100.0 * (new - old) / old


def fmt_delta(new, old):
    return f"{old:.3f} -> {new:.3f} ({pct(new, old):+.1f}%)"


class Report:
    def __init__(self):
        self.regressions = []
        self.notes = []

    def regress(self, msg):
        self.regressions.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    def emit(self, out=sys.stdout):
        for n in self.notes:
            print(f"  {n}", file=out)
        for r in self.regressions:
            print(f"REGRESSION: {r}", file=out)
        if not self.regressions:
            print("perf_diff: OK (no regression beyond thresholds)",
                  file=out)
        else:
            print(f"perf_diff: {len(self.regressions)} regression(s)",
                  file=out)


# A wall-clock comparison is only meaningful between runs of one
# configuration.
RUN_CONFIG = ("quick", "jobs")


def diff_overall(base, cur, args, rep):
    for k in RUN_CONFIG:
        if base.get(k) != cur.get(k):
            raise SchemaError(
                f"runs differ in '{k}' ({base.get(k)} vs {cur.get(k)}); "
                f"compare runs of one configuration")
    b_benches, c_benches = base["benches"], cur["benches"]
    for name in sorted(b_benches):
        if name not in c_benches:
            rep.note(f"bench '{name}' missing from current run")
            continue
        old, new = float(b_benches[name]), float(c_benches[name])
        if old <= 0:
            continue
        line = f"{name}: {fmt_delta(new, old)}"
        if (
            old >= args.min_seconds
            and new >= args.min_seconds
            and pct(new, old) > args.threshold
        ):
            rep.regress(line)
        else:
            rep.note(line)
    old_t, new_t = float(base["total_seconds"]), float(cur["total_seconds"])
    line = f"total_seconds: {fmt_delta(new_t, old_t)}"
    if old_t > 0 and pct(new_t, old_t) > args.threshold:
        rep.regress(line)
    else:
        rep.note(line)

    b_prof = base.get("profiles") or {}
    c_prof = cur.get("profiles") or {}
    for name in sorted(b_prof):
        if name not in c_prof:
            continue
        old = int(b_prof[name].get("peak_rss_kb", 0))
        new = int(c_prof[name].get("peak_rss_kb", 0))
        if old <= 0 or new <= 0:
            continue
        line = f"{name} peak_rss_kb: {fmt_delta(new, old)}"
        if pct(new, old) > args.rss_threshold:
            rep.regress(line)
        else:
            rep.note(line)


def diff_prof(base, cur, args, rep):
    old_w, new_w = int(base.get("wall_ns", 0)), int(cur.get("wall_ns", 0))
    if old_w > 0 and new_w > 0:
        line = f"wall_ns: {fmt_delta(new_w, old_w)}"
        min_ns = args.min_seconds * 1e9
        if old_w >= min_ns and new_w >= min_ns and \
                pct(new_w, old_w) > args.threshold:
            rep.regress(line)
        else:
            rep.note(line)
    def flatten(nodes, acc):
        """Sum inclusive ns per phase name across the whole tree."""
        for p in nodes:
            acc[p["name"]] = acc.get(p["name"], 0) + int(p["inclusive_ns"])
            flatten(p.get("children", []) or [], acc)
        return acc

    old_phases = flatten(base["phases"], {})
    for name, new in sorted(flatten(cur["phases"], {}).items()):
        old = old_phases.get(name, 0)
        if old <= 0 or new <= 0:
            continue
        line = f"phase {name}: {fmt_delta(new, old)}"
        min_ns = args.min_seconds * 1e9
        if old >= min_ns and new >= min_ns and \
                pct(new, old) > args.threshold:
            rep.regress(line)
        else:
            rep.note(line)
    old_rss = int(base.get("rss", {}).get("peak_kb", 0))
    new_rss = int(cur.get("rss", {}).get("peak_kb", 0))
    if old_rss > 0 and new_rss > 0:
        line = f"peak_rss_kb: {fmt_delta(new_rss, old_rss)}"
        if pct(new_rss, old_rss) > args.rss_threshold:
            rep.regress(line)
        else:
            rep.note(line)


def run_diff(argv):
    ap = argparse.ArgumentParser(
        prog="perf_diff.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="wall-clock regression threshold in percent "
                         "(default 10)")
    ap.add_argument("--rss-threshold", type=float, default=25.0,
                    help="peak-RSS regression threshold in percent "
                         "(default 25)")
    ap.add_argument("--min-seconds", type=float, default=0.5,
                    help="ignore wall-clock entries shorter than this "
                         "in either run (noise floor, default 0.5)")
    args = ap.parse_args(argv)

    base, cur = load(args.baseline), load(args.current)
    kind_b = classify(base, args.baseline)
    kind_c = classify(cur, args.current)
    if kind_b != kind_c:
        raise SchemaError(
            f"cannot compare a '{kind_b}' file with a '{kind_c}' file")

    rep = Report()
    if kind_b == "overall":
        diff_overall(base, cur, args, rep)
    else:
        diff_prof(base, cur, args, rep)
    rep.emit()
    return EXIT_REGRESSION if rep.regressions else EXIT_OK


# --------------------------------------------------------------- selftest

FIXTURE_BASE = {
    "quick": True, "jobs": 1,
    "git_revision": "abc1234", "build_type": "Release",
    "host_threads": 4,
    "benches": {"fig15_affine_scale": 10.0, "fig19_degree": 8.0,
                "fig04_affine_offset": 0.1},
    "prof": True,
    "profiles": {
        "fig15_affine_scale": {"schema": PROF_SCHEMA, "wall_ns": 10_000,
                               "peak_rss_kb": 50_000, "phases": []},
    },
    "total_seconds": 18.1,
}


def _with_benches(**over):
    doc = json.loads(json.dumps(FIXTURE_BASE))
    doc["benches"].update(over.pop("benches", {}))
    doc.update(over)
    return doc


def selftest():
    import tempfile, os

    failures = []

    def run_case(name, base_doc, cur_doc, expect_rc, extra_args=()):
        with tempfile.TemporaryDirectory() as d:
            bp, cp = os.path.join(d, "base.json"), os.path.join(d, "cur.json")
            for path, doc in ((bp, base_doc), (cp, cur_doc)):
                with open(path, "w") as f:
                    if isinstance(doc, str):
                        f.write(doc)
                    else:
                        json.dump(doc, f)
            rc = main([bp, cp, *extra_args])
            if rc != expect_rc:
                failures.append(f"{name}: expected exit {expect_rc}, "
                                f"got {rc}")
            else:
                print(f"selftest: {name}: OK (exit {rc})")

    # The acceptance fixture: a synthetic 50% wall-clock regression on
    # one bench must flag (exit 1) at the default 10% threshold.
    regressed = _with_benches(
        benches={"fig15_affine_scale": 15.0}, total_seconds=23.1)
    run_case("synthetic-50pct-regression", FIXTURE_BASE, regressed,
             EXIT_REGRESSION)

    # Same inputs: clean pass.
    run_case("identical", FIXTURE_BASE, FIXTURE_BASE, EXIT_OK)

    # 5% drift stays under the default 10% threshold...
    drift = _with_benches(
        benches={"fig15_affine_scale": 10.5}, total_seconds=18.6)
    run_case("5pct-drift-ok", FIXTURE_BASE, drift, EXIT_OK)
    # ...but flags at --threshold 2.
    run_case("5pct-drift-tight-threshold", FIXTURE_BASE, drift,
             EXIT_REGRESSION, ["--threshold", "2"])

    # A 50% jump on a sub-min-seconds bench is noise, not a regression.
    tiny = _with_benches(benches={"fig04_affine_offset": 0.15})
    run_case("tiny-bench-noise-ignored", FIXTURE_BASE, tiny, EXIT_OK)

    # Peak-RSS regression beyond --rss-threshold flags.
    rss = json.loads(json.dumps(FIXTURE_BASE))
    rss["profiles"]["fig15_affine_scale"]["peak_rss_kb"] = 90_000
    run_case("rss-regression", FIXTURE_BASE, rss, EXIT_REGRESSION)

    # Malformed input and wrong shapes are schema errors (exit 2).
    run_case("malformed-json", FIXTURE_BASE, "{not json", EXIT_SCHEMA)
    run_case("wrong-shape", FIXTURE_BASE, {"hello": 1}, EXIT_SCHEMA)

    # Raw profile pair: regression in a phase flags.
    prof_base = {
        "schema": PROF_SCHEMA, "wall_ns": 10_000_000_000,
        "rss": {"peak_kb": 1000},
        "phases": [{"name": "machine/epoch.record",
                    "inclusive_ns": 8_000_000_000,
                    "exclusive_ns": 8_000_000_000, "count": 5,
                    "children": []}],
    }
    prof_cur = json.loads(json.dumps(prof_base))
    prof_cur["wall_ns"] = 16_000_000_000
    prof_cur["phases"][0]["inclusive_ns"] = 14_000_000_000
    run_case("prof-pair-regression", prof_base, prof_cur, EXIT_REGRESSION)
    run_case("prof-pair-identical", prof_base, prof_base, EXIT_OK)

    # A regression buried in a *nested* phase is still found: the
    # comparison flattens the tree by name.
    nested_base = json.loads(json.dumps(prof_base))
    nested_base["phases"][0]["exclusive_ns"] = 4_000_000_000
    nested_base["phases"][0]["children"] = [
        {"name": "machine/epoch.replay", "inclusive_ns": 4_000_000_000,
         "exclusive_ns": 4_000_000_000, "count": 5, "children": []}]
    nested_cur = json.loads(json.dumps(nested_base))
    nested_cur["phases"][0]["children"][0]["inclusive_ns"] = 7_000_000_000
    run_case("nested-phase-regression", nested_base, nested_cur,
             EXIT_REGRESSION)

    # A profile whose phases claim more exclusive time than its wall
    # does not partition it (a waiting parent counted beside work that
    # ran in another thread's root): a schema error on either side.
    overlap = json.loads(json.dumps(nested_base))
    overlap["phases"].append(
        {"name": "alloc/select_bank", "inclusive_ns": 3_000_000_000,
         "exclusive_ns": 3_000_000_000, "count": 9, "children": []})
    run_case("exclusive-exceeds-wall", prof_base, overlap, EXIT_SCHEMA)
    run_case("exclusive-exceeds-wall-baseline", overlap, prof_base,
             EXIT_SCHEMA)

    # Runs of different configurations cannot be compared.
    for k, other in (("quick", False), ("jobs", 4)):
        run_case(f"{k}-mismatch", FIXTURE_BASE, _with_benches(**{k: other}),
                 EXIT_SCHEMA)

    # Mixed kinds cannot be compared.
    run_case("mixed-kinds", FIXTURE_BASE, prof_base, EXIT_SCHEMA)

    if failures:
        for f in failures:
            print(f"selftest FAILED: {f}", file=sys.stderr)
        return 1
    print("selftest: all cases passed")
    return 0


def main(argv):
    try:
        return run_diff(argv)
    except SchemaError as e:
        print(f"perf_diff: schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except SystemExit as e:
        # argparse error (bad flags) is a usage error, not a regression.
        return EXIT_SCHEMA if e.code not in (0, None) else 0


if __name__ == "__main__":
    if len(sys.argv) == 2 and sys.argv[1] == "--selftest":
        sys.exit(selftest())
    sys.exit(main(sys.argv[1:]))
