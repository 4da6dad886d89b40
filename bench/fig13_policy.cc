/**
 * @file
 * Reproduces Fig. 13: sensitivity of Aff-Alloc to the irregular
 * bank-selection policy (Eq. 4). Seven workloads run under Rnd, Lnr,
 * Min-Hop and Hybrid-H for H in {1,3,5,7}; speedup and traffic are
 * normalized to Rnd.
 */

#include <cstdio>
#include <functional>

#include "graph/generators.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    sim::MachineConfig cfg;
    harness::printMachineBanner(cfg,
                                "Fig. 13 - bank selection policies");

    graph::KroneckerParams kp;
    kp.scale = quick ? 13 : 17;
    kp.edgeFactor = 16;
    const auto g = graph::kronecker(kp);

    struct Policy
    {
        std::string label;
        alloc::BankPolicy policy;
        double h;
    };
    const std::vector<Policy> policies = {
        {"Rnd", alloc::BankPolicy::random, 0},
        {"Lnr", alloc::BankPolicy::linear, 0},
        {"Min-Hop", alloc::BankPolicy::minHop, 0},
        {"Hybrid-1", alloc::BankPolicy::hybrid, 1},
        {"Hybrid-3", alloc::BankPolicy::hybrid, 3},
        {"Hybrid-5", alloc::BankPolicy::hybrid, 5},
        {"Hybrid-7", alloc::BankPolicy::hybrid, 7},
    };

    auto config_for = [&](const Policy &pol) {
        RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
        rc.allocOpts.policy = pol.policy;
        rc.allocOpts.hybridH = pol.h;
        return rc;
    };

    GraphParams gp;
    gp.graph = &g;
    gp.iters = quick ? 2 : 8;
    LinkListParams lp;
    HashJoinParams hp;
    BinTreeParams bp;
    if (quick) {
        lp.numLists = 256;
        lp.nodesPerList = 128;
        hp.buildRows = 32 * 1024;
        hp.probeRows = 64 * 1024;
        hp.numBuckets = 8 * 1024;
        bp.numNodes = 32 * 1024;
        bp.numLookups = 64 * 1024;
    }

    using Runner = std::function<RunResult(const RunConfig &)>;
    const std::vector<std::pair<std::string, Runner>> workloads = {
        {"pr_push",
         [&](const RunConfig &rc) { return runPageRankPush(rc, gp); }},
        {"pr_pull",
         [&](const RunConfig &rc) { return runPageRankPull(rc, gp); }},
        {"bfs",
         [&](const RunConfig &rc) {
             return runBfs(rc, gp, defaultBfsStrategy(rc.mode)).run;
         }},
        {"sssp", [&](const RunConfig &rc) { return runSssp(rc, gp); }},
        {"link_list",
         [&](const RunConfig &rc) { return runLinkList(rc, lp); }},
        {"hash_join",
         [&](const RunConfig &rc) { return runHashJoin(rc, hp); }},
        {"bin_tree",
         [&](const RunConfig &rc) { return runBinTree(rc, bp); }},
    };

    std::vector<std::string> labels;
    for (const auto &p : policies)
        labels.push_back(p.label);
    harness::Comparison cmp(labels);

    // One sweep point per (workload, policy) pair.
    std::vector<std::function<RunResult()>> points;
    for (const auto &[name, runner] : workloads) {
        for (const auto &pol : policies) {
            points.push_back(
                [&config_for, &runner, &pol] {
                    return runner(config_for(pol));
                });
        }
    }
    const std::vector<RunResult> results =
        harness::runSweep(jobs, points);

    std::size_t at = 0;
    for (const auto &[name, runner] : workloads) {
        std::vector<RunResult> runs(results.begin() + at,
                                    results.begin() + at +
                                        policies.size());
        at += policies.size();
        cmp.add(name, std::move(runs));
    }

    cmp.print("Fig. 13", /*speedup baseline=*/0, /*traffic baseline=*/0);
    std::printf(
        "Expected shape (paper): Rnd ~ Lnr (Lnr ~25%% better on "
        "link_list only); Min-Hop strong on most\nworkloads but "
        "pathological on bin_tree (single-bank pileup); Hybrid-5 best "
        "overall.\n");
    return 0;
}
