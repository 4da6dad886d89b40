/**
 * @file
 * Ablation of the data-structure co-design (§5.3, Insight III):
 * starting from plain Near-L3 and adding the Aff-Alloc ingredients
 * one at a time —
 *
 *   1. Near-L3 baseline (oblivious CSR, global queue)
 *   2. + partitioned/aligned vertex properties (affine API only)
 *   3. + Linked CSR edge placement (irregular API)
 *   4. + spatially distributed frontier queue (full co-design)
 *
 * and a node-size sweep of the Linked CSR (§5.3's capacity/pointer
 * overhead tradeoff).
 */

#include <cstdio>
#include <functional>

#include "graph/generators.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/graph_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    sim::MachineConfig cfg;
    harness::printMachineBanner(cfg,
                                "Ablation - data structure co-design");

    graph::KroneckerParams kp;
    kp.scale = quick ? 13 : 17;
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);

    struct Step
    {
        std::string label;
        ExecMode mode;
        EdgeLayout layout;
        bool spatial_queue;
    };
    const std::vector<Step> steps = {
        {"Near-L3", ExecMode::nearL3, EdgeLayout::csr, false},
        {"+aligned props", ExecMode::affAlloc, EdgeLayout::csr, false},
        {"+linked CSR", ExecMode::affAlloc, EdgeLayout::linked, false},
        {"+spatial queue", ExecMode::affAlloc, EdgeLayout::linked, true},
    };

    using Runner = std::function<RunResult(const RunConfig &,
                                           const GraphParams &)>;
    const std::vector<std::pair<std::string, Runner>> workloads = {
        {"pr_push", [](const RunConfig &rc, const GraphParams &p) {
             return runPageRankPush(rc, p);
         }},
        {"bfs", [](const RunConfig &rc, const GraphParams &p) {
             return runBfs(rc, p, defaultBfsStrategy(rc.mode)).run;
         }},
        {"sssp", [](const RunConfig &rc, const GraphParams &p) {
             return runSssp(rc, p);
         }},
    };

    std::vector<std::string> labels;
    for (const auto &s : steps)
        labels.push_back(s.label);
    harness::Comparison cmp(labels);

    // Sweep points: (workload, step) plus the two node-size runs, all
    // independent; printed in order afterwards.
    const std::uint32_t node_sizes[2] = {64u, 128u};
    std::vector<std::function<RunResult()>> points;
    for (const auto &[name, runner] : workloads) {
        for (const auto &s : steps) {
            points.push_back([&g, quick, &s, &runner] {
                GraphParams p;
                p.graph = &g;
                p.iters = quick ? 2 : 8;
                p.layout = s.layout;
                p.useSpatialQueue = s.spatial_queue;
                return runner(RunConfig::forMode(s.mode), p);
            });
        }
    }
    for (std::uint32_t node_bytes : node_sizes) {
        points.push_back([&g, quick, node_bytes] {
            GraphParams p;
            p.graph = &g;
            p.iters = quick ? 2 : 8;
            p.nodeBytes = node_bytes;
            return runPageRankPush(RunConfig::forMode(ExecMode::affAlloc),
                                   p);
        });
    }
    const std::vector<RunResult> results =
        harness::runSweep(jobs, points);

    std::size_t at = 0;
    for (const auto &[name, runner] : workloads) {
        std::vector<RunResult> runs(results.begin() + at,
                                    results.begin() + at +
                                        steps.size());
        at += steps.size();
        cmp.add(name, std::move(runs));
    }
    cmp.print("Co-design ablation", 0, 0);

    // ------------------------- Linked CSR node size sweep (§5.3)
    std::printf("Linked CSR node size sweep (pr_push, Aff-Alloc, "
                "speedup vs 64B nodes):\n");
    const RunResult &base = results[at];
    for (std::uint32_t node_bytes : node_sizes) {
        const RunResult &r = results[at++];
        std::printf("  %4uB nodes (%2u edges each): %8llu cycles "
                    "(%.2fx), %10llu hops%s\n",
                    node_bytes,
                    std::min((node_bytes - 8) / 4, 31u),
                    (unsigned long long)r.cycles(),
                    double(base.cycles()) / double(r.cycles()),
                    (unsigned long long)r.hops(),
                    r.valid ? "" : " INVALID");
    }
    std::printf("\nLarger nodes amortize pointer overhead but bind "
                "more edges to one placement decision,\nso per-edge "
                "affinity quality drops — the paper's 64 B default "
                "balances the two.\n");
    return 0;
}
