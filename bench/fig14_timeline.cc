/**
 * @file
 * Reproduces Fig. 14: the distribution of atomic-stream occupancy
 * across L3 banks over the run of push-based BFS, under Rnd, Min-Hop
 * and Hybrid-5. For each configuration the timeline is resampled to
 * 20 buckets of normalized execution time and the min / 25% / mean /
 * 75% / max bands over banks are printed (the figure's five lines).
 */

#include <algorithm>
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
        cfg, "Fig. 14 - atomic stream distribution in bfs_push");

    graph::KroneckerParams kp;
    kp.scale = quick ? 13 : 17;
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);
    GraphParams p;
    p.graph = &g;

    struct Config
    {
        std::string label;
        alloc::BankPolicy policy;
        double h;
    };
    const std::vector<Config> configs = {
        {"Rnd", alloc::BankPolicy::random, 0},
        {"Min-Hops", alloc::BankPolicy::minHop, 0},
        {"Hybrid-5", alloc::BankPolicy::hybrid, 5},
    };

    std::vector<std::function<BfsResult()>> points;
    for (const auto &c : configs) {
        points.push_back([&c, &p] {
            RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
            rc.allocOpts.policy = c.policy;
            rc.allocOpts.hybridH = c.h;
            return runBfs(rc, p, BfsStrategy::pushOnly);
        });
    }
    const std::vector<BfsResult> runs = harness::runSweep(jobs, points);

    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        const auto &c = configs[ci];
        const BfsResult &res = runs[ci];

        // Keep only epochs that performed atomic work (the push
        // passes), then resample into 20 normalized-time buckets.
        std::vector<const sim::EpochRecord *> active;
        for (const auto &rec : res.run.timeline.records()) {
            std::uint64_t total = 0;
            for (auto a : rec.atomicStreamsPerBank)
                total += a;
            if (total > 0)
                active.push_back(&rec);
        }
        std::printf("--- %s (total %llu cycles, %zu active epochs, "
                    "valid=%s) ---\n",
                    c.label.c_str(),
                    (unsigned long long)res.run.cycles(), active.size(),
                    res.run.valid ? "yes" : "NO");
        std::printf("%6s %10s %10s %10s %10s %10s\n", "time", "min",
                    "25%", "avg", "75%", "max");
        const std::size_t buckets =
            std::min<std::size_t>(20, active.size());
        for (std::size_t b = 0; b < buckets; ++b) {
            // Aggregate the records of this bucket bank-wise.
            const std::size_t lo = b * active.size() / buckets;
            const std::size_t hi =
                (b + 1) * active.size() / buckets;
            sim::EpochRecord agg;
            agg.atomicStreamsPerBank.assign(cfg.numBanks(), 0);
            for (std::size_t i = lo; i < hi && i < active.size(); ++i) {
                for (std::uint32_t bank = 0; bank < cfg.numBanks();
                     ++bank) {
                    agg.atomicStreamsPerBank[bank] +=
                        active[i]->atomicStreamsPerBank[bank];
                }
            }
            const auto bands = sim::Timeline::bands(agg);
            std::printf("%6.2f %10.0f %10.0f %10.1f %10.0f %10.0f\n",
                        double(b) / buckets, bands[0], bands[1],
                        bands[2], bands[3], bands[4]);
        }
        std::printf("\n");
    }
    std::printf(
        "Expected shape (paper): Min-Hops shows the widest max/min "
        "spread (poor balance);\nHybrid-5 lifts the 25%% line (better "
        "balance); Rnd keeps streams occupied longest.\n");
    return 0;
}
