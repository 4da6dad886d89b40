#!/usr/bin/env python3
"""Self-tests of the benchmark's own arithmetic (metrics.py).

    python3 perfbench/test_metrics.py

Needs no build: every test feeds hand-made driver records.
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

E2E, PER_LAYER = metrics.load_declared()


def run(pass_, key, mode, cycles, digest="0x1", valid=True, **extra):
    r = {"kind": "run", "pass": pass_, "key": key, "mode": mode,
         "valid": valid, "digest": digest, "cycles": cycles,
         "setup_s": 0.001, "wall_s": 0.5, "l1_accesses": 10,
         "l2_accesses": 20, "l3_accesses": 30, "l3_misses": 3,
         "tlb_walks": 1, "dram_accesses": 3, "dram_bytes": 192,
         "hops": 7, "flit_hops": 9, "epochs": 2, "stream_configs": 4,
         "aborted_epochs": 0, "offload_retries": 0, "fallbacks": 0,
         "region_reuses": 0}
    r.update(extra)
    return r


def serve_run(pass_, rate, mode, slowdowns, healthy=True):
    done = sum(v is not None for v in slowdowns)
    return {"kind": "run", "pass": pass_,
            "key": "rate%d/%s" % (rate, "healthy" if healthy else "bankkill"),
            "mode": mode, "valid": True, "digest": "0x2", "cycles": 1000,
            "wall_s": 1.0, "rate": rate,
            "healthy": healthy, "offered": len(slowdowns), "completed": done,
            "shed": len(slowdowns) - done, "timed_out": 0, "retries": 1,
            "shed_attempts": 2, "peak_queue_depth": 3, "accesses": 500,
            "slowdowns": slowdowns}


def a_pass(index, wall, setup, warmup=False, threads=1, speed=1.0):
    return {"kind": "pass", "pass": index, "warmup": warmup,
            "sim_threads": threads, "wall_s": wall, "setup_s": setup,
            "cal_ns": metrics.CAL_REF_NS / speed}


def closed_records(passes=3):
    recs = []
    for p in range(passes + 1):
        recs += [run(p, "fit/hotspot", metrics.NEAR, 400),
                 run(p, "fit/hotspot", metrics.AFF, 100),
                 run(p, "spill/srad", metrics.NEAR, 900),
                 run(p, "spill/srad", metrics.AFF, 900),
                 a_pass(p, 2.0 + p, 0.1 * (p + 1), warmup=p == 0)]
    recs.append({"kind": "rss", "peak_kb": 2048})
    return recs


def serve_records(samples=100, passes=3):
    """@p samples requests at each healthy Aff-Alloc point, 20 at the
    others, as the driver runs them."""
    recs = []
    for p in range(passes + 1):
        recs += [run(p, "solo/a", metrics.NEAR, 200),
                 run(p, "solo/b", metrics.NEAR, 400),
                 run(p, "solo/a", metrics.AFF, 100),
                 run(p, "solo/b", metrics.AFF, 100)]
        for rate, slow in ((2, 1.0), (8, 1.5), (32, 4.0)):
            recs.append(serve_run(p, rate, metrics.NEAR, [slow] * 20))
            recs.append(serve_run(p, rate, metrics.AFF, [slow] * samples))
        recs.append(serve_run(p, 8, metrics.AFF, [None] * 20,
                              healthy=False))
        recs.append(a_pass(p, 10.0, 0.01, warmup=p == 0))
    recs.append({"kind": "rss", "peak_kb": 1024})
    return recs


def traced_records():
    recs = closed_records()
    recs.append(a_pass(4, 3.3, 0.1))
    recs += [run(4, "fit/hotspot", metrics.NEAR, 400),
             run(4, "fit/hotspot", metrics.AFF, 100)]
    recs.append({"kind": "profile", "label": "st1", "wall_ns": 5})
    recs.append({"kind": "phase", "name": "alloc/malloc_aff.affine",
                 "inclusive_ns": 2000, "count": 4})
    recs.append(a_pass(5, 1.1, 0.1, threads=2))
    recs.append({"kind": "profile", "label": "st2", "wall_ns": 5})
    recs.append({"kind": "phase", "name": "machine/epoch.replay",
                 "inclusive_ns": 10**9, "count": 2})
    recs.append({"kind": "pool", "threads": 2,
                 "busy_ns": 10**9, "sum_max_task_ns": 600,
                 "sum_task_ns": 1000})
    spans = [(0, -1, 4, "pass", 0, 1000),
             (1, 0, 4, "nsc/context_build", 0, 100),
             (2, 0, 4, "hotspot", 100, 600),
             (3, -1, 5, "pass", 2000, 3000)]
    recs += [{"kind": "span", "id": i, "parent": par, "pass": p, "name": n,
              "start_ns": s, "end_ns": e} for i, par, p, n, s, e in spans]
    recs += [{"kind": "probe", "name": n, "ns": 10.0} for n in
             ("cache_access", "noc_send", "select_bank", "malloc_irregular",
              "free")]
    return recs


class Quantiles(unittest.TestCase):
    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(metrics.tail_percentile(19))
        self.assertEqual(metrics.tail_percentile(20), 50.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(102), 90.0)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(metrics.quantile(xs, 50.0), 50)
        self.assertEqual(metrics.quantile(xs, 90.0), 90)
        self.assertEqual(metrics.quantile([7.0], 90.0), 7.0)

    def test_shed_requests_are_infinite(self):
        xs = [1.0] * 8 + [None, None]
        self.assertEqual(metrics.quantile(xs, 80.0), 1.0)
        self.assertEqual(metrics.quantile(xs, 90.0), math.inf)

    def test_max_rate_at_slo(self):
        limit = metrics.SLO_P90_SLOWDOWN
        pts = [(2.0, [1.0] * 100), (8.0, [limit] * 100),
               (32.0, [limit * 2] * 100)]
        self.assertEqual(metrics.max_rate_at_slo(pts), 8.0)
        # The p90 is judged on the rate's own samples: 10 slow requests
        # of 100 stay beyond it, 11 do not.
        pts[2] = (32.0, [1.0] * 90 + [limit * 2] * 10)
        self.assertEqual(metrics.max_rate_at_slo(pts), 32.0)
        pts[2] = (32.0, [1.0] * 89 + [limit * 2] * 11)
        self.assertEqual(metrics.max_rate_at_slo(pts), 8.0)
        # A shed request at a rate disqualifies it even below the limit.
        pts[1] = (8.0, [1.0] * 99 + [None])
        self.assertEqual(metrics.max_rate_at_slo(pts), 2.0)
        self.assertEqual(
            metrics.max_rate_at_slo([(2.0, [limit * 3] * 100)]), 0.0)

    def test_max_rate_at_slo_needs_a_tail_sample_per_rate(self):
        with self.assertRaises(ValueError):
            metrics.max_rate_at_slo([(2.0, [1.0] * 99)])


class Failures(unittest.TestCase):
    def test_identical_passes_pass(self):
        runs = [run(p, "k", metrics.AFF, 5) for p in range(3)]
        self.assertEqual(metrics.check_runs(runs, {}, False), [])

    def test_each_failed_run_counts_once_by_name(self):
        runs = [run(0, "k", metrics.AFF, 5),
                run(1, "k", metrics.AFF, 6, digest="0x9", valid=False),
                run(2, "k", metrics.AFF, 5)]
        fails = metrics.check_runs(runs, {}, False)
        self.assertEqual(len(fails), 1)
        self.assertIn("pass 1 k/Aff-Alloc", fails[0])
        self.assertIn("invalid", fails[0])
        self.assertIn("digest differs", fails[0])
        self.assertIn("cycles differs", fails[0])

    def test_goldens(self):
        runs = [run(0, "k", metrics.AFF, 5), run(0, "j", metrics.AFF, 5)]
        fails = metrics.check_runs(runs, {"k/Aff-Alloc": "0x2"}, True)
        self.assertEqual(len(fails), 2)
        self.assertIn("golden 0x2", fails[0])
        self.assertIn("no golden", fails[1])
        # Other seeds check validity and repeatability only.
        self.assertEqual(metrics.check_runs(runs, {}, False), [])

    def test_shed_requests_are_not_failures(self):
        runs = [serve_run(p, 32, metrics.AFF, [1.0, None]) for p in range(2)]
        self.assertEqual(metrics.check_runs(runs, {}, False), [])


class EndToEnd(unittest.TestCase):
    def test_closed_workload(self):
        m = metrics.end_to_end("stencil", closed_records())
        self.assertEqual(set(m), {d["name"] for d in E2E})
        self.assertEqual(m["wall_s"], 4.0)          # passes 1..3: 3, 4, 5
        self.assertAlmostEqual(m["setup_s"], 0.3)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(m["sim_cycles"], 1000.0)
        self.assertAlmostEqual(m["speedup_vs_near_l3"], 2.0)  # sqrt(4 * 1)
        self.assertAlmostEqual(m["sim_accesses_per_s"], 4 * 60 / 4.0)
        self.assertAlmostEqual(m["requests_per_s"], 1.0)
        self.assertAlmostEqual(m["max_rate_at_slo"], 2 / 1000 * 1e6)

    def test_host_times_follow_the_calibration(self):
        # A pass that ran while the calibration loop took twice its
        # reference time counts at half its raw host time.
        recs = closed_records()
        for r in recs:
            if r["kind"] == "pass" and r["pass"] == 3:
                r.update(a_pass(3, 10.0, 0.8, speed=0.5))
        m = metrics.end_to_end("stencil", recs)
        self.assertEqual(m["wall_s"], 4.0)          # 3, 4, 10 / 2
        self.assertAlmostEqual(m["setup_s"], 0.3)   # 0.2, 0.3, 0.8 / 2
        self.assertIn("wall_s 4.0000", metrics.raw_summary(recs))

    def test_serve(self):
        m = metrics.end_to_end("serve", serve_records())
        self.assertEqual(set(m), {d["name"] for d in E2E})
        self.assertEqual(m["latency_p50_slowdown"], 1.5)
        self.assertEqual(m["latency_p90_slowdown"], 4.0)
        self.assertEqual(m["max_rate_at_slo"], 8.0)
        self.assertAlmostEqual(m["availability"], 360 / 380)
        self.assertAlmostEqual(m["speedup_vs_near_l3"], math.sqrt(8))
        self.assertEqual(m["sim_cycles"], 200.0)     # Aff-Alloc solo runs
        self.assertAlmostEqual(m["requests_per_s"], 360 / 10.0)

    def test_serve_needs_a_tail_sample(self):
        # 3 x 30 pooled samples leave fewer than 10 beyond p90.
        with self.assertRaises(ValueError):
            metrics.end_to_end("serve", serve_records(samples=30))
        # 3 x 40 pooled are enough, but not 40 at one rate.
        with self.assertRaises(ValueError):
            metrics.end_to_end("serve", serve_records(samples=40))


class PerLayer(unittest.TestCase):
    def test_names_self_time_and_overhead(self):
        m = metrics.per_layer(traced_records())
        self.assertEqual(set(m), {d["name"] for d in PER_LAYER})
        self.assertAlmostEqual(m["workloads.kernel_s.hotspot"], 500e-9)
        self.assertEqual(m["nsc.contexts"], 1)
        self.assertEqual(m["alloc.affine_allocs"], 4)
        self.assertAlmostEqual(m["nsc.st2_speedup"], 3.0)
        self.assertAlmostEqual(m["trace.overhead_frac"], 3.3 / 4.0 - 1)
        self.assertAlmostEqual(m["sim.pool.utilization"], 0.5)
        self.assertAlmostEqual(m["sim.pool.shard_imbalance"], 1.2)

    def test_self_time_subtracts_children(self):
        spans = [{"id": 0, "parent": -1, "start_ns": 0, "end_ns": 10},
                 {"id": 1, "parent": 0, "start_ns": 2, "end_ns": 5},
                 {"id": 2, "parent": 0, "start_ns": 5, "end_ns": 9}]
        self.assertEqual(metrics.self_times(spans), {0: 3, 1: 3, 2: 4})


class Steadiness(unittest.TestCase):
    def test_held_out_seed_is_never_run(self):
        import steady
        self.assertEqual(steady.seeds(3), [1, 2, 3])
        held = metrics.HELD_OUT_SEED
        self.assertNotIn(held, steady.seeds(held + 5))
        self.assertEqual(len(steady.seeds(held + 5)), held + 5)


class Output(unittest.TestCase):
    def test_result_line(self):
        values = {d["name"]: 1.5 for d in E2E}
        line = json.loads(metrics.result_line(True, 7, 0, values, E2E))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["attempted"], 7)
        for d in E2E:
            self.assertEqual(line["metrics"][d["name"]],
                             {"value": 1.5, "unit": d["unit"]})

    def test_result_line_rejects_missing_and_infinite(self):
        values = {d["name"]: 1.0 for d in E2E}
        del values["wall_s"]
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, values, E2E)
        values["wall_s"] = math.inf
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, values, E2E)

    def test_declared_names_follow_the_format(self):
        names = [d["name"] for d in E2E + PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for d in E2E + PER_LAYER:
            self.assertRegex(d["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(d["better"], ("higher", "lower"))
        for d in E2E:
            self.assertLessEqual(d["bound"], 0.25)
        setup = next(d for d in E2E if d["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(d["bound"] for d in E2E))


if __name__ == "__main__":
    unittest.main()
