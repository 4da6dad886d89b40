/**
 * @file
 * Host & I/O interference sweep: NDC tenants co-run with non-offload
 * traffic classes — host-core agents issuing ordinary cacheline
 * streams through the TLB/cache/NoC/DRAM path, and DMA/NIC-style I/O
 * injectors whose writes allocate straight into L3 (DDIO-like) and
 * evict tenant lines. The sweep crosses interference intensity with
 * the LLC I/O-management policy ablation (unrestricted DDIO vs.
 * way-restricted allocation vs. bypass-to-DRAM) and with per-class
 * bandwidth partitioning, each under baseline static-NUCA placement
 * (Near-L3) and affinity allocation (Aff-Alloc). The headline check
 * is that Aff-Alloc keeps a foreground-makespan edge over Near-L3
 * while the machine is being trampled by host and I/O traffic.
 *
 * Flags: --quick --jobs N --simcheck [--simcheck-digest]
 *        --qos-csv PREFIX (per-co-run QoS CSVs, with class column)
 *        --csv PATH (per-tenant comparison CSV across configs)
 *        --sched rr|weighted --quantum N
 *        --trace-out PREFIX --heatmap banks (per-agent overlays)
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
#include "traffic/traffic.hh"

using namespace affalloc;
using namespace affalloc::tenant;

namespace
{

/** One sweep point: an interference level under an LLC/arb config. */
struct Point
{
    std::string label; // e.g. "hostio-way2"
    traffic::TrafficConfig traffic;
    sim::LlcIoPolicy llcPolicy = sim::LlcIoPolicy::ddio;
    std::uint32_t llcIoWays = 2;
    sim::ClassArbConfig arb;
    ExecMode mode = ExecMode::affAlloc;
};

/** Makespan over the NDC tenants only — the metric the paper's user
 *  cares about; background agents drain slightly later by design. */
Cycles
foregroundMakespan(const CorunReport &r)
{
    Cycles m = 0;
    for (const TenantResult &t : r.tenants)
        if (t.cls == AgentClass::ndc)
            m = std::max(m, t.finishCycle);
    return m;
}

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
    // Interference needs fine-grained interleaving: with the harness
    // default of 8 epochs per quantum, a --quick foreground finishes
    // inside its first grant and the background agents never run.
    // Default to single-epoch quanta unless the user chose a value.
    bool quantumSet = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--quantum", 0) == 0)
            quantumSet = true;
    const std::uint32_t quantum = quantumSet ? corunOpts.quantumEpochs : 1;

    sim::MachineConfig cfg;
    simcheckOpts.apply(cfg);
    harness::printMachineBanner(cfg, "Host & I/O interference");
    std::printf("Scheduler: %s, quantum %u epochs%s\n\n",
                schedPolicyName(policy), quantum,
                quick ? " (REDUCED: --quick)" : "");

    // An affine+graph foreground pair: bulk structures placed up
    // front, so the affinity edge survives epoch-interleaved co-runs,
    // while the irregular BFS side stays sensitive to L3 eviction
    // (I/O allocation) and bank queueing (host load).
    const std::vector<std::string> fgMix = {"hotspot", "bfs"};

    traffic::TrafficConfig none;
    traffic::TrafficConfig hostio;
    hostio.hostAgents = 2;
    hostio.ioStreams = 2;

    sim::ClassArbConfig noArb;
    sim::ClassArbConfig part;
    part.mode = sim::ClassArbMode::partition;
    part.share[int(AgentClass::ndc)] = 2.0;
    part.share[int(AgentClass::host)] = 1.0;
    part.share[int(AgentClass::io)] = 1.0;

    struct Level
    {
        const char *label;
        traffic::TrafficConfig traffic;
        sim::LlcIoPolicy llc;
        std::uint32_t ways;
        sim::ClassArbConfig arb;
    };
    const std::vector<Level> levels = {
        {"none", none, sim::LlcIoPolicy::ddio, 2, noArb},
        {"hostio-ddio", hostio, sim::LlcIoPolicy::ddio, 2, noArb},
        {"hostio-way2", hostio, sim::LlcIoPolicy::wayRestrict, 2, noArb},
        {"hostio-bypass", hostio, sim::LlcIoPolicy::bypass, 2, noArb},
        {"hostio-part", hostio, sim::LlcIoPolicy::ddio, 2, part},
    };
    const ExecMode modes[2] = {ExecMode::nearL3, ExecMode::affAlloc};

    std::vector<Point> points;
    for (const Level &lv : levels) {
        for (const ExecMode mode : modes) {
            Point pt;
            pt.label = lv.label;
            pt.traffic = lv.traffic;
            pt.llcPolicy = lv.llc;
            pt.llcIoWays = lv.ways;
            pt.arb = lv.arb;
            pt.mode = mode;
            points.push_back(std::move(pt));
        }
    }

    std::vector<std::function<CorunReport()>> tasks;
    for (const Point &pt : points) {
        tasks.push_back([&pt, &fgMix, &cfg, &obsOpts, policy, quantum,
                         quick] {
            CorunOptions opts;
            opts.machine = cfg;
            opts.machine.llcIoPolicy = pt.llcPolicy;
            opts.machine.llcIoWays = pt.llcIoWays;
            opts.machine.classArb = pt.arb;
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
            std::vector<TenantSpec> specs;
            for (const std::string &w : fgMix)
                specs.push_back({.workload = w, .weight = 1});
            for (TenantSpec &s :
                 traffic::makeBackgroundSpecs(pt.traffic))
                specs.push_back(std::move(s));
            return runCorun(specs, opts);
        });
    }
    const std::vector<CorunReport> reports =
        harness::runSweep(jobs, tasks);

    // Near-L3 and Aff-Alloc alternate per level; compare pairs on the
    // foreground makespan (the background drains by design later).
    std::printf("%-14s %6s | %14s %14s | %8s | %7s %7s\n", "level",
                "mode", "fg_makespan", "vs near", "speedup", "stp",
                "fair");
    bool allValid = true;
    bool affWinsUnderLoad = false;
    for (std::size_t i = 0; i + 1 < reports.size(); i += 2) {
        const Point &pt = points[i + 1];
        const CorunReport &near = reports[i];
        const CorunReport &aff = reports[i + 1];
        const Cycles nearFg = foregroundMakespan(near);
        const Cycles affFg = foregroundMakespan(aff);
        const double speedup = static_cast<double>(nearFg) /
                               static_cast<double>(affFg ? affFg : 1);
        if (pt.traffic.any() && affFg < nearFg)
            affWinsUnderLoad = true;
        allValid = allValid && near.allValid && aff.allValid;
        std::printf("%-14s %6s | %14llu %14llu | %7.2fx | %7.3f "
                    "%7.3f\n",
                    pt.label.c_str(), "aff",
                    (unsigned long long)affFg,
                    (unsigned long long)nearFg, speedup,
                    aff.weightedSpeedup, aff.fairness);
    }
    std::printf("\n");

    if (!corunOpts.comparisonCsv.empty()) {
        // Per-tenant rows across the two configs; the trailing class
        // column separates NDC tenants from host/io agents.
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
        const std::string config = std::string(execModeName(pt.mode)) +
                                   "/" + pt.label;
        printCorunReport(reports[i]);
        if (!corunOpts.qosPrefix.empty()) {
            const std::string path = harness::BenchObs::runFile(
                corunOpts.qosPrefix, pt.label, execModeName(pt.mode),
                ".csv");
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

    std::printf("Aff-Alloc vs static-NUCA under host+I/O load: %s; "
                "%s\n",
                affWinsUnderLoad
                    ? "wins at >= 1 interference point"
                    : "NO WIN under load (regression)",
                allValid ? "all runs validated"
                         : "VALIDATION FAILURES (see above)");
    return allValid && affWinsUnderLoad ? 0 : 1;
}
