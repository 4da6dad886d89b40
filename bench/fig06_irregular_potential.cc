/**
 * @file
 * Reproduces Fig. 6: the potential of irregular data layout. The CSR
 * edge array is broken into chunks of 4 kB / 1 kB / 256 B / 64 B,
 * each freely mapped to the bank minimizing its indirect traffic
 * (subject to 2% load imbalance), plus an ideal configuration with
 * zero indirect hops. Executed under Near-L3 on the five graph
 * kernels of the figure; speedup and hops are normalized to the
 * unmodified Near-L3 baseline ("Base").
 */

#include <cstdio>
#include <functional>
#include <vector>

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
    harness::printMachineBanner(
        cfg, "Fig. 6 - irregular layout potential (chunked edge remap)");

    graph::KroneckerParams kp;
    kp.scale = quick ? 13 : 17; // Table 3: 128k vertices, ~4M edges
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);
    std::printf("graph: %u vertices, %llu edges (Kronecker %g/%g/%g)\n\n",
                g.numVertices, (unsigned long long)g.numEdges(), kp.a,
                kp.b, kp.c);

    struct Config
    {
        std::string label;
        EdgeLayout layout;
        std::uint32_t chunk;
        bool ideal;
    };
    const std::vector<Config> configs = {
        {"Base", EdgeLayout::csr, 0, false},
        {"Ind-4kB", EdgeLayout::chunkRemap, 4096, false},
        {"Ind-1kB", EdgeLayout::chunkRemap, 1024, false},
        {"Ind-256B", EdgeLayout::chunkRemap, 256, false},
        {"Ind-64B", EdgeLayout::chunkRemap, 64, false},
        {"Ind-Ideal", EdgeLayout::csr, 0, true},
    };

    using Runner = std::function<RunResult(const RunConfig &,
                                           const GraphParams &)>;
    const std::vector<std::pair<std::string, Runner>> workloads = {
        {"pr_push", [](const RunConfig &rc, const GraphParams &p) {
             return runPageRankPush(rc, p);
         }},
        {"bfs_push", [](const RunConfig &rc, const GraphParams &p) {
             return runBfs(rc, p, BfsStrategy::pushOnly).run;
         }},
        {"sssp", [](const RunConfig &rc, const GraphParams &p) {
             return runSssp(rc, p);
         }},
        {"pr_pull", [](const RunConfig &rc, const GraphParams &p) {
             return runPageRankPull(rc, p);
         }},
        {"bfs_pull", [](const RunConfig &rc, const GraphParams &p) {
             return runBfs(rc, p, BfsStrategy::pullOnly).run;
         }},
    };

    std::vector<std::string> labels;
    for (const auto &c : configs)
        labels.push_back(c.label);
    harness::Comparison cmp(labels);

    // One sweep point per (workload, config); the shared graph is
    // read-only across points.
    std::vector<std::function<RunResult()>> points;
    for (const auto &[name, runner] : workloads) {
        for (const auto &c : configs) {
            points.push_back([&g, quick, c, runner] {
                GraphParams p;
                p.graph = &g;
                p.iters = quick ? 2 : 8;
                p.layout = c.layout;
                p.chunkBytes = c.chunk;
                p.idealIndirect = c.ideal;
                return runner(RunConfig::forMode(ExecMode::nearL3), p);
            });
        }
    }
    const std::vector<RunResult> results =
        harness::runSweep(jobs, points);

    std::size_t at = 0;
    for (const auto &[name, runner] : workloads) {
        std::vector<RunResult> runs(results.begin() + at,
                                    results.begin() + at +
                                        configs.size());
        at += configs.size();
        cmp.add(name, std::move(runs));
    }

    cmp.print("Fig. 6", /*speedup baseline=*/0, /*traffic baseline=*/0);
    std::printf("Expected shape (paper): finer chunks help more; "
                "Ind-64B ~2.1x, Ind-Ideal ~4.1x on the push kernels.\n");
    return 0;
}
