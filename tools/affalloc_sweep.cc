/**
 * @file
 * Batch sweep runner: runs a chosen workload over the full
 * (mode x policy) grid and writes one comparison CSV, ready for
 * plotting. Complements affalloc_cli (single runs) for users doing
 * design-space exploration.
 *
 *   affalloc_sweep <workload> [--scale N] [--iters N] [--out FILE]
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "graph/generators.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "harness/trace.hh"
#include "sim/parse.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: affalloc_sweep <workload> [--scale N] "
                     "[--iters N] [--out FILE]\n");
        return 2;
    }
    const std::string workload = argv[1];
    std::uint32_t scale = 13;
    int iters = 4;
    std::string out = "sweep.csv";
    try {
        for (int i = 2; i + 1 < argc; i += 2) {
            if (!std::strcmp(argv[i], "--scale"))
                scale = std::uint32_t(
                    sim::parseCount("cli", "--scale", argv[i + 1], 30));
            else if (!std::strcmp(argv[i], "--iters"))
                iters = int(sim::parseCount("cli", "--iters", argv[i + 1], 1000));
            else if (!std::strcmp(argv[i], "--out"))
                out = argv[i + 1];
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    graph::KroneckerParams kp;
    kp.scale = scale;
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);

    std::function<RunResult(const RunConfig &)> runner;
    if (workload == "vecadd") {
        runner = [&](const RunConfig &rc) {
            VecAddParams p;
            p.layout = rc.mode == ExecMode::affAlloc
                           ? VecAddLayout::affinity
                           : VecAddLayout::heapLinear;
            return runVecAdd(rc, p);
        };
    } else if (workload == "hotspot") {
        runner = [&](const RunConfig &rc) {
            HotspotParams p;
            p.iters = iters;
            return runHotspot(rc, p);
        };
    } else if (workload == "pr_push") {
        runner = [&](const RunConfig &rc) {
            GraphParams p;
            p.graph = &g;
            p.iters = iters;
            return runPageRankPush(rc, p);
        };
    } else if (workload == "bfs") {
        runner = [&](const RunConfig &rc) {
            GraphParams p;
            p.graph = &g;
            return runBfs(rc, p, defaultBfsStrategy(rc.mode)).run;
        };
    } else if (workload == "sssp") {
        runner = [&](const RunConfig &rc) {
            GraphParams p;
            p.graph = &g;
            return runSssp(rc, p);
        };
    } else if (workload == "bin_tree") {
        runner = [&](const RunConfig &rc) {
            return runBinTree(rc, BinTreeParams{});
        };
    } else if (workload == "hash_join") {
        runner = [&](const RunConfig &rc) {
            return runHashJoin(rc, HashJoinParams{});
        };
    } else if (workload == "link_list") {
        runner = [&](const RunConfig &rc) {
            return runLinkList(rc, LinkListParams{});
        };
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }

    const std::vector<std::pair<std::string, RunConfig>> grid = [] {
        std::vector<std::pair<std::string, RunConfig>> v;
        v.emplace_back("In-Core", RunConfig::forMode(ExecMode::inCore));
        v.emplace_back("Near-L3", RunConfig::forMode(ExecMode::nearL3));
        for (auto [name, policy, h] :
             {std::tuple{"Aff-Rnd", alloc::BankPolicy::random, 0.0},
              std::tuple{"Aff-Lnr", alloc::BankPolicy::linear, 0.0},
              std::tuple{"Aff-MinHop", alloc::BankPolicy::minHop, 0.0},
              std::tuple{"Aff-Hybrid5", alloc::BankPolicy::hybrid,
                         5.0}}) {
            RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
            rc.allocOpts.policy = policy;
            rc.allocOpts.hybridH = h;
            v.emplace_back(name, rc);
        }
        return v;
    }();

    std::vector<std::string> labels;
    for (const auto &[label, rc] : grid)
        labels.push_back(label);
    harness::Comparison cmp(labels);

    std::vector<RunResult> runs;
    for (const auto &[label, rc] : grid) {
        std::printf("running %s / %s...\n", workload.c_str(),
                    label.c_str());
        runs.push_back(runner(rc));
    }
    cmp.add(workload, std::move(runs));
    cmp.print("sweep: " + workload, /*speedup baseline=*/1,
              /*traffic baseline=*/0);
    harness::writeComparisonCsv(cmp, labels, out);
    std::printf("CSV written to %s\n", out.c_str());
    return cmp.allValid() ? 0 : 1;
}
