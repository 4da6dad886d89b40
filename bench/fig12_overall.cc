/**
 * @file
 * Reproduces Fig. 12 (the headline result) with Table 3 workloads:
 * speedup, energy efficiency and NoC traffic of In-Core, Near-L3 and
 * Aff-Alloc on the ten evaluated workloads. Speedup/energy are
 * normalized to Near-L3 and traffic to In-Core, as in the paper.
 * Per §6, `pr` selects the best direction per configuration (pull for
 * In-Core, push for the NSC modes) and `bfs` uses the best switching
 * heuristic per configuration.
 */

#include <cstdio>
#include <functional>

#include "graph/generators.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

const ExecMode modes[3] = {ExecMode::inCore, ExecMode::nearL3,
                           ExecMode::affAlloc};

// Written once in main before any sweep point runs, read-only after.
harness::BenchSimCheck simcheckOpts;
harness::BenchObs obsOpts;

/** One row of the figure: a workload run under each of the 3 modes. */
struct Entry
{
    std::string name;
    std::function<RunResult(const RunConfig &, ExecMode)> run;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    simcheckOpts = harness::BenchSimCheck::parse(argc, argv);
    obsOpts = harness::BenchObs::parse(argc, argv);
    sim::MachineConfig cfg;
    simcheckOpts.apply(cfg);
    harness::printMachineBanner(cfg, "Fig. 12 - overall evaluation");
    if (simcheckOpts.faulty) {
        std::printf("Fault campaign: %u offline banks, %.0f%% offload "
                    "rejection (seeded, deterministic).\n\n",
                    cfg.faults.offlineBanks,
                    100.0 * cfg.faults.offloadRejectRate);
    }

    std::printf("Workload parameters (Table 3)%s:\n"
                "  pathfinder  affine      1.5M entries, 8 iters\n"
                "  srad        affine      1k x 2k, 8 iters\n"
                "  hotspot     affine      2k x 1k, 8 iters\n"
                "  hotspot3D   affine      256 x 1k x 8, 8 iters\n"
                "  pr/bfs/sssp linked CSR  Kronecker 128k V / ~4M E,\n"
                "                          A/B/C 0.57/0.19/0.19, "
                "w in [1,255]\n"
                "  link_list   ptr-chase   512 nodes/list, 1k lists\n"
                "  hash_join   ptr-chase   256k x 512k, hit rate 1/8\n"
                "  bin_tree    ptr-chase   128k nodes, 512k lookups\n\n",
                quick ? " (REDUCED: --quick)" : "");

    const double shrink = quick ? 0.125 : 1.0;
    graph::KroneckerParams kp;
    kp.scale = quick ? 14 : 17;
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);

    harness::Comparison cmp({"In-Core", "Near-L3", "Aff-Alloc"});

    // Workload parameters are captured by value; the Kronecker graph
    // is shared read-only. Each sweep point then builds its own
    // machine, so all (workload, mode) pairs run independently.
    std::vector<Entry> entries;
    {
        PathfinderParams p;
        p.cols = std::uint64_t(1'500'000 * shrink);
        entries.push_back(
            {"pathfinder", [p](const RunConfig &rc, ExecMode) {
                 return runPathfinder(rc, p);
             }});
    }
    {
        HotspotParams p;
        if (quick) {
            p.rows = 512;
            p.cols = 512;
        }
        entries.push_back({"hotspot", [p](const RunConfig &rc, ExecMode) {
                               return runHotspot(rc, p);
                           }});
    }
    {
        SradParams p;
        if (quick) {
            p.rows = 512;
            p.cols = 512;
        }
        entries.push_back({"srad", [p](const RunConfig &rc, ExecMode) {
                               return runSrad(rc, p);
                           }});
    }
    {
        Hotspot3dParams p;
        if (quick) {
            p.ny = 256;
        }
        entries.push_back(
            {"hotspot3D", [p](const RunConfig &rc, ExecMode) {
                 return runHotspot3d(rc, p);
             }});
    }
    {
        GraphParams p;
        p.graph = &g;
        p.iters = quick ? 2 : 8;
        // §6: pull for In-Core, push for the NSC configurations.
        entries.push_back({"pr", [p](const RunConfig &rc, ExecMode m) {
                               return m == ExecMode::inCore
                                          ? runPageRankPull(rc, p)
                                          : runPageRankPush(rc, p);
                           }});
        entries.push_back({"bfs", [p](const RunConfig &rc, ExecMode m) {
                               return runBfs(rc, p,
                                             defaultBfsStrategy(m))
                                   .run;
                           }});
        entries.push_back({"sssp", [p](const RunConfig &rc, ExecMode) {
                               return runSssp(rc, p);
                           }});
    }
    {
        LinkListParams p;
        if (quick) {
            p.numLists = 256;
            p.nodesPerList = 128;
        }
        entries.push_back(
            {"link_list", [p](const RunConfig &rc, ExecMode) {
                 return runLinkList(rc, p);
             }});
    }
    {
        HashJoinParams p;
        if (quick) {
            p.buildRows = 32 * 1024;
            p.probeRows = 64 * 1024;
            p.numBuckets = 8 * 1024;
        }
        entries.push_back(
            {"hash_join", [p](const RunConfig &rc, ExecMode) {
                 return runHashJoin(rc, p);
             }});
    }
    {
        BinTreeParams p;
        if (quick) {
            p.numNodes = 32 * 1024;
            p.numLookups = 64 * 1024;
        }
        entries.push_back(
            {"bin_tree", [p](const RunConfig &rc, ExecMode) {
                 return runBinTree(rc, p);
             }});
    }

    std::vector<std::function<RunResult()>> points;
    for (const auto &e : entries) {
        for (ExecMode m : modes) {
            points.push_back([&e, m] {
                RunConfig rc = RunConfig::forMode(m);
                simcheckOpts.apply(rc.machine);
                obsOpts.apply(rc, e.name, execModeName(m));
                return e.run(rc, m);
            });
        }
    }
    const std::vector<RunResult> results =
        harness::runSweep(jobs, points);

    for (std::size_t i = 0; i < entries.size(); ++i) {
        cmp.add(entries[i].name,
                {results[i * 3 + 0], results[i * 3 + 1],
                 results[i * 3 + 2]});
    }

    // Paper normalization: speedup/energy to Near-L3, traffic to
    // In-Core.
    cmp.print("Fig. 12", /*speedup baseline=*/1, /*traffic baseline=*/0);
    simcheckOpts.printDigests(cmp);
    obsOpts.report(cmp);

    std::printf(
        "Headline comparison (paper): Aff-Alloc = 2.26x speedup / 1.76x "
        "energy over Near-L3,\n7.53x / 4.69x over In-Core, 72%% traffic "
        "reduction vs Near-L3, 34%% NoC utilization.\n"
        "This run: Aff-Alloc = %.2fx speedup / %.2fx energy over "
        "Near-L3, %.2fx / %.2fx over In-Core,\n%.0f%% traffic reduction "
        "vs Near-L3.\n",
        cmp.geomeanSpeedup(2, 1), cmp.geomeanEnergyEff(2, 1),
        cmp.geomeanSpeedup(2, 0), cmp.geomeanEnergyEff(2, 0),
        100.0 * (1.0 - cmp.meanHops(2, 0) / cmp.meanHops(1, 0)));
    return 0;
}
