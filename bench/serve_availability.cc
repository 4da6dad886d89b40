/**
 * @file
 * Open-system serving availability sweep: requests arrive online on a
 * seeded Poisson schedule, pass admission control into recycled
 * tenant slots, and run on the shared machine while a mid-flight
 * fault campaign kills banks and degrades links. For each arrival
 * rate x campaign x {Near-L3, Aff-Alloc} point the report gives
 * per-class tail latency (p50/p99/p999 slowdown vs the unloaded
 * service time), goodput, shed/timeout/retry counts and availability;
 * a third arm re-runs the bank-kill campaign with re-affinity
 * recovery disabled to isolate what the recovery path buys.
 *
 * Flags: --quick --jobs N --simcheck [--simcheck-digest]
 *        --csv PATH (availability CSV across all sweep points)
 *        --sched rr|weighted --quantum N --trace-out PREFIX
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "serve/serve.hh"
#include "sim/simcheck.hh"

using namespace affalloc;
using namespace affalloc::serve;

namespace
{

/** One sweep point: an arrival rate under a campaign and a mode. */
struct Point
{
    std::string label;  // e.g. "rate8/bankkill"
    std::string config; // e.g. "affAlloc" or "affAlloc-norec"
    double rate = 2.0;
    ExecMode mode = ExecMode::affAlloc;
    std::vector<sim::TimedFault> campaign;
    bool reaffinity = true;
};

/** The mid-flight drill: two bank kills plus one link degrade. */
std::vector<sim::TimedFault>
bankKillCampaign()
{
    sim::TimedFault k1, k2, dl;
    k1.kind = sim::FaultKind::killBank;
    k1.target = 9;
    k1.atCycle = 500'000;
    dl.kind = sim::FaultKind::degradeLink;
    dl.target = 4 * 4 + 0; // tile 4 east
    dl.atCycle = 750'000;
    dl.factor = 4;
    k2.kind = sim::FaultKind::killBank;
    k2.target = 10;
    k2.atCycle = 1'000'000;
    return {k1, dl, k2};
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
    const tenant::SchedPolicy policy = corunOpts.policy;

    sim::MachineConfig cfg;
    simcheckOpts.apply(cfg);
    harness::printMachineBanner(cfg, "Open-system serving availability");
    std::printf("Scheduler: %s, quantum %u epochs%s\n\n",
                tenant::schedPolicyName(policy), corunOpts.quantumEpochs,
                quick ? " (REDUCED: --quick)" : "");

    const std::vector<double> rates = {2.0, 8.0, 32.0};
    const ExecMode modes[2] = {ExecMode::nearL3, ExecMode::affAlloc};

    std::vector<Point> points;
    for (const double rate : rates) {
        const std::string rl = "rate" + std::to_string(int(rate));
        for (const char *campaign : {"healthy", "bankkill"}) {
            for (const ExecMode mode : modes) {
                Point pt;
                pt.label = rl + "/" + campaign;
                pt.config = execModeName(mode);
                pt.rate = rate;
                pt.mode = mode;
                if (std::string(campaign) == "bankkill")
                    pt.campaign = bankKillCampaign();
                points.push_back(std::move(pt));
            }
        }
        // Recovery-off contrast arm: same campaign, spares stay on
        // the default next-in-order banks.
        Point pt;
        pt.label = rl + "/bankkill";
        pt.config = std::string(execModeName(ExecMode::affAlloc)) +
                    "-norec";
        pt.rate = rate;
        pt.mode = ExecMode::affAlloc;
        pt.campaign = bankKillCampaign();
        pt.reaffinity = false;
        points.push_back(std::move(pt));
    }

    std::vector<std::function<ServeReport()>> tasks;
    for (const Point &pt : points) {
        tasks.push_back([&pt, &cfg, &obsOpts, &corunOpts, policy,
                         quick] {
            ServeOptions opts;
            opts.machine = cfg;
            opts.mode = pt.mode;
            opts.policy = policy;
            opts.quantumEpochs = corunOpts.quantumEpochs;
            opts.quick = quick;
            opts.numRequests = quick ? 24 : 48;
            opts.arrivalsPerMcycle = pt.rate;
            opts.faultSchedule = pt.campaign;
            opts.reaffinity = pt.reaffinity;
            if (!obsOpts.tracePrefix.empty()) {
                opts.obs.tracePath = harness::BenchObs::runFile(
                    obsOpts.tracePrefix,
                    pt.label.substr(0, pt.label.find('/')),
                    pt.config, ".json");
            }
            return runServe(opts);
        });
    }
    const std::vector<ServeReport> reports =
        harness::runSweep(jobs, tasks);

    std::printf("%-14s %-14s | %5s %4s %4s | %6s | %9s %9s | %8s\n",
                "point", "config", "ok", "shed", "tmo", "avail",
                "p99 slow", "goodput", "reaff");
    bool allValid = true;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const Point &pt = points[i];
        const ServeReport &r = reports[i];
        allValid = allValid && r.allValid;
        std::printf("%-14s %-14s | %5u %4u %4u | %5.1f%% | %8.2fx "
                    "%9.3f | %8u\n",
                    pt.label.c_str(), pt.config.c_str(), r.completed,
                    r.shed, r.timedOut, 100.0 * r.availability,
                    r.worstP99Slowdown, r.goodputPerMcycle,
                    r.reaffinityMoves);
    }
    std::printf("\n");

    for (std::size_t i = 0; i < reports.size(); ++i) {
        printServeReport(reports[i],
                         points[i].label + "/" + points[i].config);
        std::printf("\n");
    }

    if (!corunOpts.comparisonCsv.empty()) {
        std::ofstream out(corunOpts.comparisonCsv);
        out << serveCsvHeader() << '\n';
        for (std::size_t i = 0; i < reports.size(); ++i) {
            appendServeCsv(out, reports[i],
                           points[i].label + "/" + points[i].config);
        }
        std::printf("Availability csv written to %s\n\n",
                    corunOpts.comparisonCsv.c_str());
    }

    // The recovery arm should hold availability at least as high as
    // the no-recovery contrast at every rate.
    double worstRecoveryDelta = 1e9;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (points[i].reaffinity)
            continue;
        // The matching recovery-on run is the affAlloc bankkill point
        // two slots earlier (nearL3, affAlloc, affAlloc-norec).
        const ServeReport &rec = reports[i - 1];
        const ServeReport &norec = reports[i];
        worstRecoveryDelta =
            std::min(worstRecoveryDelta,
                     rec.availability - norec.availability);
    }

    if (simcheckOpts.digest) {
        std::uint64_t overall = 0;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const std::uint64_t d = reports[i].digest();
            overall = overall * 0x100000001b3ULL + d;
            std::printf("digest %s %s %s\n", points[i].label.c_str(),
                        points[i].config.c_str(),
                        simcheck::digestToString(d).c_str());
        }
        std::printf("digest overall - %s\n",
                    simcheck::digestToString(overall).c_str());
    }

    std::printf("Re-affinity recovery vs default spares under bank "
                "kills: worst availability delta %+.3f across %zu "
                "rates; %s\n",
                worstRecoveryDelta, rates.size(),
                allValid ? "all completed requests validated"
                         : "VALIDATION FAILURES (see above)");
    return allValid ? 0 : 1;
}
