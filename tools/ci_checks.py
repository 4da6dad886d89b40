#!/usr/bin/env python3
"""CI's checks as one table, run against build/.

Every determinism comparison, smoke run and flag rejection CI makes is
one row of TABLE. Each row is one of five kinds:

  same     run cmds[0] plus each variant's extra args; every variant
           exits 0 and prints an equal key: `digest` (the digest lines),
           `stdout`, `body` (stdout after its header line) or
           `file:NAME` (NAME in the variant's {dir})
  differ   the keys of two row/variant pairs must differ
  ok       each command exits 0, its stdout matching `stdout` if set
  rejects  each command exits nonzero, matching `stderr`/`stdout` if set
  json     each command exits 0 and every `files` match parses as JSON
           (and passes `check`)

`files` are globs under the row's directory ci_out/ROW that must each
match; `deps` are rows run first because this row reads their outputs.
Commands may use {dir}, this row's (or variant's) output directory.

Usage: ci_checks.py [ROW...]     run the named rows, or every row
       ci_checks.py --selftest   check the engine on synthetic fixtures
Exit 0 when every row passes, 1 naming the failed rows, 2 on an
unknown row name.
"""

import difflib
import glob
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import perf_diff

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = "build/tools/affalloc_cli"
FIG12 = "build/bench/fig12_overall --quick"
FAULTS = "--offline-banks=4 --offload-reject-rate=0.2"
# Test binaries with sweep threads, fiber switches or the profiler's
# relaxed atomics: the ones the TSan leg runs.
THREADED = ("test_tenant", "test_serve", "test_prof")


@dataclass
class Row:
    name: str
    kind: str
    cmds: object = ()      # command strings, or a callable returning them
    variants: dict = None  # same: label -> extra args
    key: str = "digest"
    pair: tuple = ()       # differ: ("row/variant", "row/variant")
    stdout: str = None
    stderr: str = None
    files: tuple = ()
    deps: tuple = ()
    env: dict = field(default_factory=dict)
    check: object = None   # json: callable(doc), raises on a bad doc


def gtest_binaries(only=None, skip=()):
    """Each test binary whole, shuffled and repeated: ctest's one test
    per process hides state leaking from one test into the next."""
    def cmds():
        names = only or sorted(
            os.path.basename(p) for p in glob.glob(f"{REPO}/build/tests/test_*")
            if os.path.isfile(p) and os.access(p, os.X_OK))
        return [f"build/tests/{n} --gtest_shuffle --gtest_repeat=2 "
                "--gtest_brief=1" for n in names if n not in skip]
    return cmds


def bench_jobs(bench, j4_extra, variants=(), **kw):
    """A bench's digests at --jobs 1 and 4; the jobs 4 run also writes
    the bench's CSVs."""
    return Row(f"{bench}-jobs", "same",
               cmds=[f"build/bench/{bench} --quick --simcheck-digest"],
               variants={"j1": "--jobs 1", "j4": f"--jobs 4 {j4_extra}",
                         **dict(variants)}, **kw)


TABLE = [
    Row("whole-binaries", "ok", cmds=gtest_binaries(skip=THREADED)),
    Row("threaded-binaries", "ok", cmds=gtest_binaries(only=THREADED)),
    # The allocation-path, cache-tag and power-law generator
    # micro-benchmarks run briefly so they cannot rot.
    Row("micro-alloc", "ok", cmds=[
        "build/bench/micro_benchmarks --benchmark_min_time=0.01 "
        "--benchmark_filter="
        "BM_(HostTranslate|IrregularFree|IrregularAlloc|CacheAccess|"
        "PowerLaw)"]),
    Row("fault-smoke", "ok", cmds=[
        f"{CLI} run vecadd --mode aff {FAULTS}",
        f"{CLI} run bfs --mode near --scale 10 {FAULTS}"]),
    Row("chaos-smoke", "ok", cmds=[f"{CLI} chaos --campaigns 3 --seed "
                                   "20260808 --quick --jobs 2 --bundle-dir {dir}"]),
    # The sweep's per-call threads, for the TSan leg.
    Row("sweep-smoke", "ok", cmds=[
        f"build/bench/{b} --quick --jobs 4"
        for b in ("fig15_affine_scale", "fig19_degree")]),
    Row("fault-audited", "ok", cmds=[
        f"{CLI} run vecadd --mode aff --simcheck {FAULTS}",
        f"{CLI} run link_list --mode near --simcheck {FAULTS}",
        f"{CLI} run bfs --mode aff --scale 10 --simcheck {FAULTS}"]),
    # fig12 digests: reruns and faults that matter.
    Row("fig12-digest", "same", variants={"a": "", "b": ""},
        cmds=[f"{FIG12} --simcheck --simcheck-digest"]),
    Row("fig12-faulty-digest", "same", variants={"a": "", "b": ""},
        cmds=[f"{FIG12} --simcheck --simcheck-digest --faulty"]),
    Row("fig12-faults-matter", "differ",
        pair=("fig12-digest/a", "fig12-faulty-digest/a")),
    # Observability and the self-profiler are digest/stdout-neutral.
    Row("obs-digest", "same", cmds=[f"{FIG12} --simcheck-digest"],
        variants={"off": "", "on": "--trace-out={dir}/trace --heatmap=banks "
                  "--explain-placement={dir}/explain --obs-csv={dir}/spatial"},
        files=["on/spatial.banks.*.csv", "on/spatial.links.*.csv",
               "on/explain.*.txt"]),
    Row("prof-neutral", "same", key="stdout",
        cmds=[f"{FIG12} --simcheck-digest"], variants={
            "plain": "", "prof": "--prof-out={dir}/fig12.prof.json "
            "--progress=0.5"}),
    Row("cli-trace", "ok", cmds=[f"{CLI} run vecadd --trace-out {{dir}}/"
                                 "vecadd.json --heatmap banks --simcheck-digest"]),
    Row("trace-rerun", "same", key="file:bfs.json",
        cmds=[f"{CLI} run bfs --scale 10 --trace-out {{dir}}/bfs.json"],
        variants={"a": "--heatmap links --simcheck-digest", "b": ""}),
    Row("obs-json", "json",
        deps=("obs-digest", "prof-neutral", "cli-trace", "trace-rerun"),
        files=["../obs-digest/on/trace.*.json", "../cli-trace/vecadd.json",
               "../prof-neutral/prof/fig12.prof.json",
               "../trace-rerun/a/bfs.json"]),
    # Every bench at any job count.
    Row("sweep-jobs", "same", variants={"j1": "--jobs 1", "j4": "--jobs 4"},
        cmds=["./run_benches.sh --quick --simcheck-digest"]),
    # Each profile's phases partition its wall (perf_diff's own check).
    Row("self-profiles", "json", files=["*.prof.json"],
        check=perf_diff.check_wall_partition, cmds=[
        f"build/bench/{b} --quick --jobs 1 --prof-out={{dir}}/{b}.prof.json"
        for b in ("fig15_affine_scale", "fig19_degree", "serve_availability")]),
    # Co-run, serving and traffic classes.
    bench_jobs("corun_contention", "--qos-csv {dir}/qos "
               "--csv {dir}/corun_comparison.csv",
               files=["j4/corun_comparison.csv"]),
    Row("corun-cli", "ok", files=["cli_weighted.csv"], cmds=[
        f"{CLI} corun --tenants=hotspot --simcheck-digest",
        f"{CLI} corun --tenants=hotspot:2:3,bfs --sched weighted "
        "--csv {dir}/cli_weighted.csv"]),
    bench_jobs("serve_availability", "--csv {dir}/availability.csv",
               files=["j4/availability.csv"]),
    # A mid-flight bank kill and link degradation, then recovery.
    Row("serve-cli", "ok", files=["cli_serve.csv"], cmds=[
        f"{CLI} serve --quick --requests 16 --rate 4 --slots 2 --queue 4 "
        "--mix vecadd:2,hash_join:1 --fault-schedule "
        "bank:9@200000,link:16@300000x4 --simcheck-digest "
        "--csv {dir}/cli_serve.csv"]),
    Row("serve-bad-fault", "rejects", stderr="bank 999", cmds=[
        f"{CLI} serve --quick --requests 4 --fault-schedule bank:999@100"]),
    bench_jobs("host_interference", "--qos-csv {dir}/qos "
               "--csv {dir}/interference_comparison.csv",
               files=["j4/interference_comparison.csv"]),
    Row("traffic-cli", "ok", files=["cli_mixed.csv"], cmds=[
        f"{CLI} corun --tenants=hotspot,bfs --host-agents 2 --io-streams 2 "
        "--llc-policy way:2 --class-bw part:2,1,1 --quick --simcheck-digest "
        "--csv {dir}/cli_mixed.csv"]),
    Row("traffic-bad-flags", "rejects", stderr="fatal", cmds=[
        f"{CLI} corun --tenants=hotspot --quick {bad}"
        for bad in ("--host-agents 0", "--io-streams junk",
                    "--llc-policy way:0", "--class-bw part:1,2")]),
    # Count flags take whole numbers only: no sign, no suffix.
    Row("cli-bad-counts", "rejects", stderr="expected an integer|is not a number",
        cmds=[f"{CLI} serve --quick --requests -1",
              f"{CLI} run bfs --scale 10x",
              f"{CLI} chaos --campaigns 1 --quick --jobs foo",
              "build/tools/affalloc_sweep vecadd --scale 10x",
              "build/tools/affalloc_sweep vecadd --iters -1"]),
    # A bench reports a bad harness flag as a clean `fatal:` line (exit
    # 2), not through std::terminate's "what():  fatal:".
    Row("bench-bad-flags", "rejects", stderr=r"(?m)^fatal: \[harness\]",
        cmds=["build/bench/fig13_policy --quick --jobs -2",
              "env AFFALLOC_JOBS=abc build/bench/fig13_policy --quick"]),
    # So does a bad value of any other shared bench flag.
    Row("bench-bad-options", "rejects",
        stderr=r"(?m)^fatal: \[(tenant|harness)\]",
        cmds=["build/bench/corun_contention --quick --sched=bogus",
              "build/bench/fig12_overall --quick --heatmap=foo"]),
    # Eq. 4 inputs: an unknown policy or a non-finite/negative H.
    Row("cli-bad-eq4", "rejects", stderr=r"(?m)^fatal: \[cli\]",
        cmds=[f"{CLI} run vecadd --policy foo",
              f"{CLI} run vecadd --h nan",
              f"{CLI} run vecadd --h -1"]),
    # Names, reals and 64-bit counts are strict too: no silent default,
    # no NaN, no garbage read as 0.
    Row("cli-bad-values", "rejects", stderr=r"(?m)^fatal: \[cli\]",
        cmds=[f"{CLI} run vecadd --mode foo",
              f"{CLI} run vecadd --numbering bar",
              f"{CLI} run vecadd --offload-reject-rate nan",
              f"{CLI} run vecadd --offload-reject-rate 2",
              f"{CLI} run vecadd --fault-seed 0x10",
              f"{CLI} layout --intrlv 64k",
              f"{CLI} layout --bytes -1",
              f"{CLI} serve --quick --requests 4 --rate abc",
              f"{CLI} serve --quick --requests 4 --burstiness inf",
              f"{CLI} serve --quick --requests 4 --mix vecadd:x",
              f"{CLI} serve --quick --requests 4 --max-cycles 1e9",
              f"{CLI} serve --quick --requests 4 --seed -7"]),
    # A config error only the run itself can see is a clean `fatal:`
    # line and exit 2, not std::terminate's "what():  fatal:".
    Row("cli-run-errors", "rejects", stderr=r"(?m)^fatal: \[",
        cmds=[f"{CLI} run vecadd --offline-banks 64",
              f"{CLI} layout --intrlv 3"]),
    # Chaos: only the header's "jobs N" may differ between job counts;
    # a committed shrunk bundle still replays to the same failure.
    Row("chaos-jobs", "same", key="body",
        variants={"j4": "--jobs 4", "j1": "--jobs 1"},
        cmds=[f"{CLI} chaos --campaigns 32 --seed 20260808 --quick "
              "--bundle-dir {dir}"]),
    Row("chaos-replay", "ok", stdout="reproduced yes",
        cmds=[f"{CLI} chaos --replay tests/data/chaos/invalid-target.json"]),
]


class Engine:
    def __init__(self, table, cwd=REPO, log=sys.stdout):
        self.rows = {r.name: r for r in table}
        self.cwd, self.out, self.log = cwd, os.path.join(cwd, "ci_out"), log
        self.keys, self.errs, self.secs = {}, {}, {}

    def say(self, msg):
        print(msg, file=self.log, flush=True)

    def run(self, names):
        for name in names:
            self.run_row(self.rows[name])
        self.say("\n== summary")
        for name, errs in self.errs.items():
            self.say(f"{'FAIL' if errs else 'ok  '} {name:32s} "
                     f"{self.secs[name]:7.1f}s")
        failed = [n for n, e in self.errs.items() if e]
        self.say(f"ci_checks: {len(failed)} of {len(self.errs)} row(s) "
                 f"failed {' '.join(failed)}")
        return 1 if failed else 0

    def run_row(self, row):
        if row.name in self.errs:
            return
        deps = sorted(set(row.deps) | {p.split("/")[0] for p in row.pair})
        for dep in deps:
            self.run_row(self.rows[dep])
        self.say(f"== {row.name} ({row.kind})")
        t0, d = time.monotonic(), os.path.join(self.out, row.name)
        errs = [f"dependency {dep} failed" for dep in deps if self.errs[dep]]
        if not errs:
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
            errs = {"same": self.same, "differ": self.differ}.get(
                row.kind, self.commands)(row, d)
            errs += [f"missing expected file {p}" for p in row.files
                     if not glob.glob(os.path.join(d, p))]
        self.secs[row.name], self.errs[row.name] = time.monotonic() - t0, errs
        for e in errs:
            self.say(f"FAIL {row.name}: {e}")

    def execute(self, cmd, d, env):
        os.makedirs(d, exist_ok=True)
        argv = [a.replace("{dir}", d) for a in shlex.split(cmd)]
        self.say("$ " + " ".join(argv))
        p = subprocess.run(argv, cwd=self.cwd, capture_output=True, text=True,
                           errors="replace", env={**os.environ, **env})
        with open(os.path.join(d, "log.txt"), "a") as f:
            f.write(f"$ {' '.join(argv)}\n{p.stdout}{p.stderr}"
                    f"[exit {p.returncode}]\n")
        return p

    def same(self, row, d):
        errs, ref = [], None
        for label, extra in row.variants.items():
            vdir = os.path.join(d, label)
            p = self.execute(f"{row.cmds[0]} {extra}", vdir, row.env)
            key = extract(row.key, p.stdout, vdir)
            if p.returncode != 0 or key is None:
                errs.append(f"variant {label} exited {p.returncode}, "
                            f"{row.key} {'missing' if key is None else 'ok'}")
            elif ref is None:
                ref = (label, key)
            elif key != ref[1]:
                diff = difflib.unified_diff(ref[1].splitlines(),
                                            key.splitlines(), ref[0], label,
                                            lineterm="")
                errs.append(f"{row.key} of {label} differs from {ref[0]}:\n"
                            + "\n".join(list(diff)[:40]))
            self.keys[f"{row.name}/{label}"] = key
        return errs

    def differ(self, row, d):
        a, b = (self.keys[p] for p in row.pair)
        return [f"{' and '.join(row.pair)} are equal"] if a == b else []

    def commands(self, row, d):
        errs, want_ok = [], row.kind != "rejects"
        for cmd in row.cmds() if callable(row.cmds) else row.cmds:
            p = self.execute(cmd, d, row.env)
            if (p.returncode == 0) != want_ok:
                errs.append(f"`{cmd}` exited {p.returncode}")
            for text, pat in ((p.stdout, row.stdout), (p.stderr, row.stderr)):
                if pat and not re.search(pat, text):
                    errs.append(f"`{cmd}` output lacks /{pat}/")
        paths = [p for g in row.files for p in glob.glob(os.path.join(d, g))]
        for path in sorted(paths) if row.kind == "json" else ():
            try:
                with open(path) as f:
                    doc = json.load(f)
                if row.check:
                    row.check(doc)
            except (ValueError, AssertionError, KeyError) as e:
                errs.append(f"{os.path.relpath(path, d)}: {e!r}")
        return errs


def extract(key, stdout, vdir):
    """The part of a variant's output a same row compares, or None."""
    if key == "digest":
        lines = [l for l in stdout.splitlines() if l.startswith("digest")]
        return "\n".join(lines) if lines else None
    if key in ("stdout", "body"):
        return stdout if key == "stdout" else stdout.partition("\n")[2]
    path = os.path.join(vdir, key.removeprefix("file:"))
    if os.path.exists(path):
        with open(path) as f:
            return f.read()


def selftest():
    import io
    import tempfile

    def py(code, *args):
        return shlex.join((sys.executable, "-c", "import sys; " + code) + args)

    def echo(text, rc=0, to="stdout"):
        return py(f"sys.{to}.write({text!r}); sys.exit({rc})")

    write = py("open(sys.argv[1], 'w').write(sys.argv[2])", "{dir}/o.json")
    clean = [
        Row("digest", "same", cmds=[py("print('hdr'); print('digest', 1)")],
            variants={"a": "", "b": "x"}),
        Row("body", "same", key="body",
            cmds=[py("print('jobs', sys.argv[1]); print('v')")],
            variants={"j1": "1", "j4": "4"}),
        Row("file", "same", key="file:o.json", files=["*/o.json"],
            cmds=[write], variants={"a": "1", "b": "1"}),
        Row("other", "same", cmds=[echo("digest 2\n")], variants={"a": ""}),
        Row("differ", "differ", pair=("digest/a", "other/a")),
        Row("ok", "ok", stdout="yes", cmds=[echo("reproduced yes\n")]),
        Row("rejects", "rejects", stderr="fatal",
            cmds=[echo("fatal: bad\n", rc=2, to="stderr")]),
        Row("json", "json", deps=("file",), files=["../file/*/o.json"],
            check=lambda doc: doc + 1),
    ]
    broken = {
        "one differing digest line": Row(
            "digest", "same", variants={"a": "2", "b": "3"},
            cmds=[py("print('digest 1'); print('digest', sys.argv[1])")]),
        "differ with equal outputs": Row(
            "differ", "differ", pair=("digest/a", "digest/b")),
        "rejects command exiting 0": Row(
            "rejects", "rejects", cmds=[echo("fatal\n", to="stderr")]),
        "missing expected file": Row(
            "ok", "ok", cmds=[echo("hi\n")], files=["never-written.json"]),
        "unparsable json": Row(
            "json", "json", cmds=[write + " '{not json'"], files=["o.json"]),
    }
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        def run(table, names):
            eng = Engine(table, cwd=tmp, log=io.StringIO())
            return eng.run(names), eng.errs

        if run(clean, [r.name for r in clean])[0] != 0:
            failures.append("the clean fixture failed")
        for case, bad in broken.items():
            rc, errs = run([bad if r.name == bad.name else r for r in clean],
                           [bad.name])
            if rc != 1 or not errs[bad.name]:
                failures.append(f"{case}: row {bad.name} passed")
            print(f"selftest: {case}: {'flagged' if rc else 'MISSED'}")
    names = [r.name for r in TABLE]
    for i, r in enumerate(TABLE):
        deps = set(r.deps) | {p.split("/")[0] for p in r.pair}
        if (names.count(r.name) > 1 or not deps <= set(names[:i])
                or r.kind not in ("same", "differ", "ok", "rejects", "json")):
            failures.append(f"{r.name}: duplicate, unknown kind, or deps "
                            "not earlier rows")
    for f in failures:
        print(f"selftest FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    names = [r.name for r in TABLE]
    unknown = [a for a in argv if a not in names]
    if unknown:
        print(f"ci_checks: unknown row(s) {' '.join(unknown)}; rows: "
              + " ".join(names), file=sys.stderr)
        return 2
    return Engine(TABLE).run(argv or names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
