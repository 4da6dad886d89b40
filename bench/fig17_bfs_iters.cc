/**
 * @file
 * Reproduces Fig. 17: per-iteration BFS characteristics on the
 * Kronecker graph — visited nodes, active nodes and scout edges per
 * iteration, normalized to total vertices / edges.
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
    // A single run: --jobs is accepted for harness uniformity (the
    // sweep degenerates to inline execution).
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    const harness::BenchObs obs = harness::BenchObs::parse(argc, argv);
    sim::MachineConfig cfg;
    harness::printMachineBanner(cfg,
                                "Fig. 17 - BFS iteration characteristics");

    graph::KroneckerParams kp;
    kp.scale = quick ? 13 : 17;
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);
    GraphParams p;
    p.graph = &g;

    // Direction choices do not change the traversal set; use push so
    // every iteration's scout edges are meaningful.
    const std::vector<std::function<BfsResult()>> points = {[&p, &obs] {
        RunConfig rc = RunConfig::forMode(ExecMode::nearL3);
        obs.apply(rc, "bfs", "push");
        return runBfs(rc, p, BfsStrategy::pushOnly);
    }};
    const BfsResult res = harness::runSweep(jobs, points)[0];

    std::printf("graph: %u vertices, %llu edges; valid=%s\n\n",
                g.numVertices, (unsigned long long)g.numEdges(),
                res.run.valid ? "yes" : "NO");
    std::printf("%5s %14s %14s %14s\n", "iter", "visited", "active",
                "scout edges");
    for (std::size_t i = 0; i < res.iters.size(); ++i) {
        const auto &it = res.iters[i];
        std::printf("%5zu %13.3f%% %13.3f%% %13.3f%%\n", i,
                    100.0 * double(it.visited) / g.numVertices,
                    100.0 * double(it.active) / g.numVertices,
                    100.0 * double(it.scoutEdges) / double(g.numEdges()));
    }
    std::printf("\nExpected shape (paper): active nodes and scout edges "
                "peak in the middle iterations\n(iters 2-3), with "
                "visited saturating shortly after.\n");
    obs.reportRun(res.run, "bfs", "push");
    return 0;
}
