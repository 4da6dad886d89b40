"""Arithmetic of the benchmark: turns the driver's JSON records into
the checked, named metrics that run.py prints.

Everything here is pure (records in, numbers out) so that
test_metrics.py can check it without building the simulator.
"""

import json
import math
import os
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))

# The seed whose run digests are pinned in goldens.json.
DEFAULT_SEED = 1
# The held-out seed: validity checks only, and never run by steady.py,
# so claims tuned on seeds 1..N can be checked on inputs not looked at.
HELD_OUT_SEED = 1001

# Host times are scaled to this mean time (ns) of the driver's
# calibration loop: a pass timed while the host ran slow, and so the
# loop too, is scaled down by as much. The value is about the loop's
# median on the 4-vCPU x86-64 VM the bounds were tuned on, so scaled
# and raw times agree there.
CAL_REF_NS = 10e6

# max_rate_at_slo: the Aff-Alloc p90 slowdown a rate must meet. At 2,
# nine requests in ten lose no more time to queueing and sharing than
# their unloaded service time.
SLO_P90_SLOWDOWN = 2.0

# Percentiles a tail may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

# Span names of the timed calls, one per kernel.
KERNELS = ("hotspot", "srad", "pathfinder", "hotspot3D", "pr_push", "sssp",
           "serve")

AFF = "Aff-Alloc"
NEAR = "Near-L3"


def load_declared(path=None):
    """Return (end_to_end, per_layer) metric lists from BENCHMARK.json."""
    path = path or os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def load_goldens(path=None):
    path = path or os.path.join(HERE, "goldens.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------ quantiles

def tail_percentile(n):
    """The highest percentile in PERCENTILES that leaves at least
    TAIL_SAMPLES of n samples beyond it, or None."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def quantile(values, p):
    """Nearest-rank p-th percentile. None stands for a request that
    never completed (shed or timed out) and sorts as +inf."""
    if not values:
        raise ValueError("quantile of no samples")
    xs = sorted(math.inf if v is None else v for v in values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def max_rate_at_slo(points, limit=SLO_P90_SLOWDOWN):
    """Highest rate whose p90 slowdown meets @p limit with every request
    completed. @p points: (rate, slowdowns) pairs; each needs enough
    samples for a p90 with TAIL_SAMPLES beyond it. 0 when none meets
    the limit."""
    best = 0.0
    for rate, slowdowns in points:
        if (tail_percentile(len(slowdowns)) or 0.0) < 90.0:
            raise ValueError("rate %g: %d samples cannot give a p90 with "
                             "%d beyond it" % (rate, len(slowdowns),
                                               TAIL_SAMPLES))
        if all(v is not None for v in slowdowns) and \
                quantile(slowdowns, 90.0) <= limit:
            best = max(best, rate)
    return best


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------- checks

def run_name(run):
    return "%s/%s" % (run["key"], run["mode"])


def check_runs(runs, goldens, check_goldens):
    """Return the failures among @p runs, one message per failed run.

    A run fails when it is invalid, when any simulated number differs
    from the same run in the first pass, or (with @p check_goldens)
    when its digest differs from goldens or the golden is missing.
    """
    failures = []
    first = {}
    sim_fields = ("digest", "cycles", "completed", "shed", "timed_out",
                  "slowdowns", "accesses", "l1_accesses",
                  "l2_accesses", "l3_accesses", "dram_accesses")
    for run in runs:
        name = run_name(run)
        why = []
        if not run["valid"]:
            why.append("invalid")
        ref = first.setdefault(name, run)
        for f in sim_fields:
            if run.get(f) != ref.get(f):
                why.append("%s differs from pass %d" % (f, ref["pass"]))
        if check_goldens:
            want = goldens.get(name)
            if want is None:
                why.append("no golden digest")
            elif want != run["digest"]:
                why.append("digest %s != golden %s" % (run["digest"], want))
        if why:
            failures.append("pass %d %s: %s" % (run["pass"], name,
                                                "; ".join(why)))
    return failures


# ------------------------------------------------------------- metrics

def by_kind(records, kind):
    return [r for r in records if r["kind"] == kind]


def accesses(run):
    if "accesses" in run:
        return run["accesses"]
    return run["l1_accesses"] + run["l2_accesses"] + run["l3_accesses"]


def is_solo(run):
    """A serve solo run: priced off both clocks, not a timed call."""
    return run["key"].startswith("solo/")


def speed(p):
    """Host-time scale of pass record @p p (1 at the reference speed)."""
    return CAL_REF_NS / p["cal_ns"]


def raw_summary(records):
    """Unscaled medians of the measured passes, for the log."""
    passes = [p for p in by_kind(records, "pass") if not p["warmup"]]
    return "raw host medians: wall_s %.4f, setup_s %.6f; calibration " \
        "loop %.0f ns (reference %.0f)" % (
            median([p["wall_s"] for p in passes]),
            median([p["setup_s"] for p in passes]),
            median([p["cal_ns"] for p in passes]), CAL_REF_NS)


def end_to_end(workload, records):
    """The end-to-end metrics of one untraced workload run.

    Host times are scaled by speed() and their medians taken over the
    measured passes (the warm-up pass excluded). Simulated metrics come
    from one pass; check_runs has already proved every pass equal.
    """
    passes = [p for p in by_kind(records, "pass") if not p["warmup"]]
    measured = {p["pass"] for p in passes}
    runs = [r for r in by_kind(records, "run") if r["pass"] in measured]
    first = min(measured)
    one = [r for r in runs if r["pass"] == first]

    def per_pass(fn):
        return median([fn(p, [r for r in runs if r["pass"] == p["pass"]])
                       for p in passes])

    def wall(p):
        return p["wall_s"] * speed(p)

    m = {
        "wall_s": median([wall(p) for p in passes]),
        "setup_s": median([p["setup_s"] * speed(p) for p in passes]),
        "peak_rss_mb": by_kind(records, "rss")[-1]["peak_kb"] / 1024.0,
        "sim_accesses_per_s": per_pass(
            lambda p, rs: sum(accesses(r) for r in rs if not is_solo(r)) /
            wall(p)),
    }
    if workload == "serve":
        m.update(serve_metrics(one))
        m["requests_per_s"] = per_pass(
            lambda p, rs: sum(r.get("completed", 0) for r in rs) / wall(p))
    else:
        m.update(closed_metrics(one))
        m["requests_per_s"] = per_pass(lambda p, rs: len(rs) / wall(p))
    return m


def closed_metrics(one):
    """Serving metrics of a closed workload: one run call in flight at
    a time, so latency equals service time (slowdown 1) and the
    sustained rate is one Aff-Alloc run per its simulated time."""
    pairs = {}
    for r in one:
        pairs.setdefault(r["key"], {})[r["mode"]] = r["cycles"]
    aff = [r for r in one if r["mode"] == AFF]
    return {
        "sim_cycles": float(sum(r["cycles"] for r in aff)),
        "speedup_vs_near_l3": geomean(
            [c[NEAR] / c[AFF] for c in pairs.values()]),
        "latency_p50_slowdown": 1.0,
        "latency_p90_slowdown": 1.0,
        "availability": sum(r["valid"] for r in one) / len(one),
        "max_rate_at_slo": len(aff) / (sum(r["cycles"] for r in aff) / 1e6),
    }


def serve_samples(one):
    """Pooled slowdowns of the healthy Aff-Alloc points."""
    return [v for r in one if r["mode"] == AFF and r.get("healthy")
            for v in r["slowdowns"]]


def serve_metrics(one):
    """Serving metrics of one pass: its points, and the classes' solo
    runs, which give the cost of one request in each mode."""
    pooled = serve_samples(one)
    if tail_percentile(len(pooled)) is None or \
            tail_percentile(len(pooled)) < 90.0:
        raise ValueError("%d latency samples cannot give a p90 with %d "
                         "beyond it" % (len(pooled), TAIL_SAMPLES))
    healthy = {(r["mode"], r["rate"]): r for r in one if r.get("healthy")}
    points = [r for r in one if not is_solo(r)]
    cycles = {(r["key"], r["mode"]): r["cycles"] for r in one if is_solo(r)}
    classes = sorted({key for key, _ in cycles})
    return {
        # The loaded points' end cycles follow the seeded arrival gaps,
        # not the machine; the solo runs measure the machine.
        "sim_cycles": float(sum(cycles[(k, AFF)] for k in classes)),
        "speedup_vs_near_l3": geomean(
            [cycles[(k, NEAR)] / cycles[(k, AFF)] for k in classes]),
        "latency_p50_slowdown": quantile(pooled, 50.0),
        "latency_p90_slowdown": quantile(pooled, 90.0),
        "availability": sum(r["completed"] for r in points) /
                        sum(r["offered"] for r in points),
        "max_rate_at_slo": max_rate_at_slo(
            [(rate, r["slowdowns"]) for (mode, rate), r in healthy.items()
             if mode == AFF]),
    }


# ------------------------------------------------------------ per layer

def self_times(spans):
    """Self ns of each span: its duration minus its children's."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0) + \
                s["end_ns"] - s["start_ns"]
    return {s["id"]: s["end_ns"] - s["start_ns"] - child.get(s["id"], 0)
            for s in spans}


def profile_sections(records):
    """Group phase and pool records under the profile label printed
    before them."""
    out, cur = {}, None
    for r in records:
        if r["kind"] == "profile":
            cur = out.setdefault(r["label"], {"phases": {}, "pools": []})
        elif cur is not None and r["kind"] == "phase":
            ph = cur["phases"].setdefault(
                r["name"], {"inclusive_ns": 0, "count": 0})
            ph["inclusive_ns"] += r["inclusive_ns"]
            ph["count"] += r["count"]
        elif cur is not None and r["kind"] == "pool":
            cur["pools"].append(r)
    return out


def per_layer(records):
    """The per-layer metrics of one traced workload run."""
    passes = by_kind(records, "pass")
    spans = by_kind(records, "span")
    traced = sorted({s["pass"] for s in spans})
    st1 = next(p for p in passes if p["pass"] == traced[0])
    st2 = [p for p in passes if p["pass"] in traced and p["sim_threads"] > 1]
    untraced = [p["wall_s"] * speed(p) for p in passes
                if not p["warmup"] and p["pass"] not in traced]
    runs = [r for r in by_kind(records, "run") if r["pass"] == st1["pass"]]
    probes = {p["name"]: p["ns"] for p in by_kind(records, "probe")}
    prof = profile_sections(records)
    ph1 = prof.get("st1", {}).get("phases", {})
    ph2 = prof.get("st2", {}).get("phases", {})

    selft = self_times(spans)
    span_s, span_n = {}, {}
    for s in spans:
        if s["pass"] == st1["pass"]:
            name = s["name"]
            span_s[name] = span_s.get(name, 0) + selft[s["id"]] * 1e-9
            span_n[name] = span_n.get(name, 0) + 1

    def total(field):
        return sum(r.get(field, 0) for r in runs)

    def phase_s(table, name):
        return table.get(name, {}).get("inclusive_ns", 0) * 1e-9

    def phase_n(table, name):
        return table.get(name, {}).get("count", 0)

    inputs = [r for r in by_kind(records, "input")
              if r["pass"] == st1["pass"]]
    cache_accesses = sum(accesses(r) for r in runs)
    allocs = phase_n(ph1, "alloc/malloc_aff.affine") + \
        phase_n(ph1, "alloc/malloc_aff.irregular")
    l3 = total("l3_accesses")

    m = {
        "graph.generate_s": span_s.get("graph/generate", 0.0),
        "graph.edges": sum(r["edges"] for r in inputs),
        "nsc.context_build_s": span_s.get("nsc/context_build", 0.0),
        "nsc.contexts": span_n.get("nsc/context_build", 0),
        "workloads.runs": sum(span_n.get(k, 0) for k in KERNELS),
        "mem.cache.accesses": cache_accesses,
        "mem.l3.accesses": l3,
        "mem.l3.miss_rate": total("l3_misses") / l3 if l3 else 0.0,
        "mem.tlb.walks": total("tlb_walks"),
        "mem.cache.access_ns": probes["cache_access"],
        "mem.cache.est_s": cache_accesses * probes["cache_access"] * 1e-9,
        "mem.dram.accesses": total("dram_accesses"),
        "mem.dram.bytes": total("dram_bytes"),
        # The deferred DRAM charge and the NoC delta fold run only in
        # the replay engine, so they come from the st-2 pass.
        "mem.dram.charge_deferred_s":
            phase_s(ph2, "mem/dram.charge_deferred"),
        "noc.hops": total("hops"),
        "noc.flit_hops": total("flit_hops"),
        "noc.send_ns": probes["noc_send"],
        "noc.merge_delta_s": phase_s(ph2, "noc/net.merge_delta"),
        "alloc.affine_allocs": phase_n(ph1, "alloc/malloc_aff.affine"),
        "alloc.irregular_allocs":
            phase_n(ph1, "alloc/malloc_aff.irregular"),
        "alloc.frees": phase_n(ph1, "alloc/free_aff"),
        "alloc.fallbacks": total("fallbacks"),
        "alloc.placed_frac": 1.0 - total("fallbacks") / allocs if allocs
        else 1.0,
        "alloc.region_reuses": total("region_reuses"),
        "alloc.select_bank_calls": phase_n(ph1, "alloc/select_bank"),
        "alloc.select_bank_s": phase_s(ph1, "alloc/select_bank"),
        "alloc.malloc_irregular_s":
            phase_s(ph1, "alloc/malloc_aff.irregular"),
        "alloc.free_s": phase_s(ph1, "alloc/free_aff"),
        "alloc.select_bank_ns": probes["select_bank"],
        "alloc.malloc_irregular_ns": probes["malloc_irregular"],
        "alloc.free_ns": probes["free"],
        "nsc.epochs": total("epochs"),
        "nsc.stream_configs": total("stream_configs"),
        "nsc.aborted_epochs": total("aborted_epochs"),
        "nsc.offload_retries": total("offload_retries"),
        "nsc.epoch_record_s": phase_s(ph1, "machine/epoch.record"),
        "nsc.replay_s": phase_s(ph2, "machine/epoch.replay"),
        "nsc.replay.wave1_s": phase_s(ph2, "machine/epoch.replay/wave1"),
        "nsc.replay.fold_s": phase_s(ph2, "machine/epoch.replay/fold"),
        "nsc.replay.wave2_s": phase_s(ph2, "machine/epoch.replay/wave2"),
        "nsc.st2_speedup": st1["wall_s"] * speed(st1) /
        (st2[0]["wall_s"] * speed(st2[0])) if st2 else 0.0,
        "tenant.quanta": phase_n(ph1, "tenant/quantum"),
        "tenant.quantum_s": phase_s(ph1, "tenant/quantum"),
        "serve.admitted": total("offered") - total("shed"),
        "serve.shed_attempts": total("shed_attempts"),
        "serve.retries": total("retries"),
        "serve.timed_out": total("timed_out"),
        "serve.peak_queue_depth": max([r.get("peak_queue_depth", 0)
                                       for r in runs]),
        "serve.admit_s": phase_s(ph1, "serve/admit"),
        "serve.host_ms_per_request":
            1e3 * span_s.get("serve", 0.0) / total("offered")
            if total("offered") else 0.0,
        "trace.overhead_frac":
            st1["wall_s"] * speed(st1) / median(untraced) - 1.0,
    }
    for k in KERNELS:
        m["workloads.kernel_s." + k] = span_s.get(k, 0.0)

    pools = prof.get("st2", {}).get("pools", [])
    busy = sum(p["busy_ns"] for p in pools)
    replay_ns = ph2.get("machine/epoch.replay", {}).get("inclusive_ns", 0)
    threads = max([p["threads"] for p in pools], default=0)
    task = sum(p["sum_task_ns"] for p in pools)
    m["sim.pool.utilization"] = busy / (threads * replay_ns) \
        if threads and replay_ns else 0.0
    m["sim.pool.shard_imbalance"] = \
        sum(p["sum_max_task_ns"] * p["threads"] for p in pools) / task \
        if task else 0.0
    return m


# --------------------------------------------------------------- output

def result_line(correct, attempted, failed, values, declared):
    """The final JSON line: every declared metric, with its unit."""
    names = [d["name"] for d in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise ValueError("metric set mismatch: missing %s, extra %s"
                         % (missing, extra))
    metrics = {}
    for d in declared:
        v = values[d["name"]]
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError("metric %s is %r" % (d["name"], v))
        metrics[d["name"]] = {"value": v, "unit": d["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
