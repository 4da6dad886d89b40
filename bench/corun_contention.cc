/**
 * @file
 * Multi-tenant co-run contention sweep: N workload instances share
 * one machine (banks, NoC, DRAM) under the epoch-interleaving
 * TenantScheduler, across tenant counts and affine/graph/pointer
 * mixes, comparing baseline static-NUCA placement (Near-L3) against
 * affinity allocation (Aff-Alloc). For each co-run the QoS report
 * gives per-tenant slowdown vs. a solo baseline, weighted speedup
 * (STP) and Jain fairness; the headline check is that Aff-Alloc keeps
 * its edge when tenants contend for shared banks.
 *
 * Flags: --quick --jobs N --simcheck [--simcheck-digest]
 *        --qos-csv PREFIX (per-co-run QoS CSV files)
 *        --csv PATH (per-tenant comparison CSV across configs)
 *        --sched rr|weighted --quantum N
 *        --trace-out PREFIX --heatmap banks (per-tenant overlays)
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "harness/trace.hh"
#include "obs/heatmap.hh"
#include "sim/simcheck.hh"
#include "tenant/qos.hh"
#include "tenant/scheduler.hh"

using namespace affalloc;
using namespace affalloc::tenant;

namespace
{

/** One co-run sweep point: a tenant mix at a count, under a mode. */
struct Point
{
    std::string label;    // e.g. "blend-x4"
    std::vector<TenantSpec> specs;
    ExecMode mode = ExecMode::affAlloc;
};

} // namespace

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    const harness::BenchSimCheck simcheckOpts =
        harness::BenchSimCheck::parse(argc, argv);
    const harness::BenchObs obsOpts = harness::BenchObs::parse(argc, argv);

    const harness::BenchCorun corunOpts =
        harness::BenchCorun::parse(argc, argv);
    const SchedPolicy policy = corunOpts.policy;
    const std::uint32_t quantum = corunOpts.quantumEpochs;
    const std::string &qosPrefix = corunOpts.qosPrefix;

    sim::MachineConfig cfg;
    simcheckOpts.apply(cfg);
    harness::printMachineBanner(cfg, "Co-run contention (multi-tenant)");
    std::printf("Scheduler: %s, quantum %u epochs%s\n\n",
                schedPolicyName(policy), quantum,
                quick ? " (REDUCED: --quick)" : "");

    // Mixes cover the three workload classes; counts cycle through
    // the mix, so e.g. blend-x4 = hotspot + bfs + hash_join + hotspot.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        mixes = {
            {"affine", {"hotspot", "srad"}},
            {"pointer", {"hash_join", "bin_tree"}},
            {"blend", {"hotspot", "bfs", "hash_join"}},
        };
    const std::vector<std::size_t> counts = {2, 4};
    const ExecMode modes[2] = {ExecMode::nearL3, ExecMode::affAlloc};

    std::vector<Point> points;
    for (const auto &[mixName, mix] : mixes) {
        for (const std::size_t n : counts) {
            for (const ExecMode mode : modes) {
                Point pt;
                pt.label = mixName + "-x" + std::to_string(n);
                pt.mode = mode;
                for (std::size_t i = 0; i < n; ++i)
                    pt.specs.push_back(
                        {.workload = mix[i % mix.size()],
                         .weight = 1});
                points.push_back(std::move(pt));
            }
        }
    }

    std::vector<std::function<CorunReport()>> tasks;
    for (const Point &pt : points) {
        tasks.push_back([&pt, &cfg, &obsOpts, policy, quantum, quick] {
            CorunOptions opts;
            opts.machine = cfg;
            opts.mode = pt.mode;
            opts.policy = policy;
            opts.quantumEpochs = quantum;
            opts.quick = quick;
            if (!obsOpts.tracePrefix.empty()) {
                opts.obs.tracePath = harness::BenchObs::runFile(
                    obsOpts.tracePrefix, pt.label,
                    execModeName(pt.mode), ".json");
            }
            opts.obs.metrics = !obsOpts.heatmap.empty();
            return runCorun(pt.specs, opts);
        });
    }
    const std::vector<CorunReport> reports =
        harness::runSweep(jobs, tasks);

    // Near-L3 and Aff-Alloc alternate per (mix, count); compare pairs.
    std::printf("%-12s %6s | %14s %14s | %8s | %7s %7s | %7s %7s\n",
                "corun", "mode", "makespan", "vs near", "speedup",
                "stp", "stp_n", "fair", "fair_n");
    bool allValid = true;
    double worstAffSpeedup = 1e9;
    for (std::size_t i = 0; i + 1 < reports.size(); i += 2) {
        const Point &pt = points[i + 1];
        const CorunReport &near = reports[i];
        const CorunReport &aff = reports[i + 1];
        const double speedup =
            static_cast<double>(near.makespan) /
            static_cast<double>(aff.makespan ? aff.makespan : 1);
        worstAffSpeedup = std::min(worstAffSpeedup, speedup);
        allValid = allValid && near.allValid && aff.allValid;
        std::printf("%-12s %6s | %14llu %14llu | %7.2fx | %7.3f %7.3f "
                    "| %7.3f %7.3f\n",
                    pt.label.c_str(), "aff",
                    (unsigned long long)aff.makespan,
                    (unsigned long long)near.makespan, speedup,
                    aff.weightedSpeedup, near.weightedSpeedup,
                    aff.fairness, near.fairness);
    }
    std::printf("\n");

    if (!corunOpts.comparisonCsv.empty()) {
        // Per-tenant rows across the two configs, through the same
        // writeComparisonCsv surface the figure benches use.
        harness::Comparison cmp({execModeName(ExecMode::nearL3),
                                 execModeName(ExecMode::affAlloc)});
        for (std::size_t i = 0; i + 1 < reports.size(); i += 2) {
            const Point &pt = points[i];
            const CorunReport &near = reports[i];
            const CorunReport &aff = reports[i + 1];
            for (std::size_t t = 0; t < near.tenants.size(); ++t)
                cmp.add(pt.label + ":" + near.tenants[t].name,
                        {near.tenants[t].run, aff.tenants[t].run});
        }
        harness::writeComparisonCsv(
            cmp, {execModeName(ExecMode::nearL3),
                  execModeName(ExecMode::affAlloc)},
            corunOpts.comparisonCsv);
        std::printf("Per-tenant comparison csv written to %s\n\n",
                    corunOpts.comparisonCsv.c_str());
    }

    for (std::size_t i = 0; i < reports.size(); ++i) {
        const Point &pt = points[i];
        const std::string config = execModeName(pt.mode);
        printCorunReport(reports[i]);
        if (!qosPrefix.empty()) {
            const std::string path = harness::BenchObs::runFile(
                qosPrefix, pt.label, config, ".csv");
            writeQosCsv(path, reports[i], config);
            std::printf("  QoS csv written to %s\n", path.c_str());
        }
        if (obsOpts.heatmap == "banks" &&
            !reports[i].obsSnapshot.tenantBankAccesses.empty()) {
            std::fputs(
                obs::renderTenantBankHeatmaps(reports[i].obsSnapshot)
                    .c_str(),
                stdout);
        }
        std::printf("\n");
    }

    if (simcheckOpts.digest) {
        std::uint64_t overall = 0;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const std::uint64_t d = reports[i].digest();
            overall = overall * 0x100000001b3ULL + d;
            std::printf("digest %s %s %s\n", points[i].label.c_str(),
                        execModeName(points[i].mode),
                        simcheck::digestToString(d).c_str());
        }
        std::printf("digest overall - %s\n",
                    simcheck::digestToString(overall).c_str());
    }

    std::printf("Aff-Alloc vs static-NUCA under contention: worst-case "
                "makespan speedup %.2fx across %zu co-runs; %s\n",
                worstAffSpeedup, reports.size() / 2,
                allValid ? "all runs validated"
                         : "VALIDATION FAILURES (see above)");
    return allValid ? 0 : 1;
}
