#include "harness/report.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "harness/sweep.hh"
#include "harness/trace.hh"
#include "obs/heatmap.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "sim/simcheck.hh"
#include "sim/stats.hh"

namespace affalloc::harness
{

void
Comparison::add(const std::string &workload, std::vector<RunResult> runs)
{
    if (runs.size() != configLabels_.size())
        SIM_FATAL("harness", "comparison row '%s' has %zu runs, expected %zu",
              workload.c_str(), runs.size(), configLabels_.size());
    rows_.push_back(WorkloadResults{workload, std::move(runs)});
}

const RunResult &
Comparison::at(std::size_t w, std::size_t c) const
{
    return rows_.at(w).byConfig.at(c);
}

double
Comparison::speedup(std::size_t w, std::size_t c,
                    std::size_t baseline) const
{
    return double(at(w, baseline).cycles()) / double(at(w, c).cycles());
}

double
Comparison::energyEff(std::size_t w, std::size_t c,
                      std::size_t baseline) const
{
    return at(w, baseline).joules / at(w, c).joules;
}

double
Comparison::hopsNorm(std::size_t w, std::size_t c,
                     std::size_t baseline) const
{
    const double base = double(at(w, baseline).hops());
    return base == 0.0 ? 0.0 : double(at(w, c).hops()) / base;
}

double
Comparison::hopsClassNorm(std::size_t w, std::size_t c,
                          std::size_t baseline, TrafficClass tc) const
{
    const double base = double(at(w, baseline).hops());
    return base == 0.0
               ? 0.0
               : double(at(w, c).stats.hops[int(tc)]) / base;
}

double
Comparison::geomeanSpeedup(std::size_t c, std::size_t baseline) const
{
    std::vector<double> v;
    for (std::size_t w = 0; w < rows_.size(); ++w)
        v.push_back(speedup(w, c, baseline));
    return sim::geomean(v);
}

double
Comparison::geomeanEnergyEff(std::size_t c, std::size_t baseline) const
{
    std::vector<double> v;
    for (std::size_t w = 0; w < rows_.size(); ++w)
        v.push_back(energyEff(w, c, baseline));
    return sim::geomean(v);
}

double
Comparison::meanHops(std::size_t c, std::size_t baseline) const
{
    double sum = 0.0;
    for (std::size_t w = 0; w < rows_.size(); ++w)
        sum += hopsNorm(w, c, baseline);
    return rows_.empty() ? 0.0 : sum / double(rows_.size());
}

bool
Comparison::allValid() const
{
    for (const auto &row : rows_)
        for (const auto &run : row.byConfig)
            if (!run.valid)
                return false;
    return true;
}

void
Comparison::print(const std::string &title, std::size_t speedup_baseline,
                  std::size_t traffic_baseline) const
{
    std::printf("=== %s ===\n", title.c_str());

    // ------------------------------------------------------- speedup
    std::printf("\nSpeedup (normalized to %s):\n%-12s",
                configLabels_[speedup_baseline].c_str(), "");
    for (const auto &row : rows_)
        std::printf(" %10.10s", row.name.c_str());
    std::printf(" %10s\n", "geomean");
    for (std::size_t c = 0; c < configLabels_.size(); ++c) {
        std::printf("%-12s", configLabels_[c].c_str());
        for (std::size_t w = 0; w < rows_.size(); ++w)
            std::printf(" %10.2f", speedup(w, c, speedup_baseline));
        std::printf(" %10.2f\n", geomeanSpeedup(c, speedup_baseline));
    }

    // -------------------------------------------------------- energy
    std::printf("\nEnergy efficiency (normalized to %s):\n%-12s",
                configLabels_[speedup_baseline].c_str(), "");
    for (const auto &row : rows_)
        std::printf(" %10.10s", row.name.c_str());
    std::printf(" %10s\n", "geomean");
    for (std::size_t c = 0; c < configLabels_.size(); ++c) {
        std::printf("%-12s", configLabels_[c].c_str());
        for (std::size_t w = 0; w < rows_.size(); ++w)
            std::printf(" %10.2f", energyEff(w, c, speedup_baseline));
        std::printf(" %10.2f\n", geomeanEnergyEff(c, speedup_baseline));
    }

    // ------------------------------------------------------- traffic
    std::printf("\nNoC hops (normalized to %s; "
                "offload/data/control breakdown):\n%-12s",
                configLabels_[traffic_baseline].c_str(), "");
    for (const auto &row : rows_)
        std::printf(" %16.16s", row.name.c_str());
    std::printf(" %10s\n", "avg");
    for (std::size_t c = 0; c < configLabels_.size(); ++c) {
        std::printf("%-12s", configLabels_[c].c_str());
        for (std::size_t w = 0; w < rows_.size(); ++w) {
            std::printf(" %4.2f=%4.2f+%4.2f+%4.2f",
                        hopsNorm(w, c, traffic_baseline),
                        hopsClassNorm(w, c, traffic_baseline,
                                      TrafficClass::offload),
                        hopsClassNorm(w, c, traffic_baseline,
                                      TrafficClass::data),
                        hopsClassNorm(w, c, traffic_baseline,
                                      TrafficClass::control));
        }
        std::printf(" %10.2f\n", meanHops(c, traffic_baseline));
    }

    // --------------------------------------------------- degradation
    // Printed only when some run actually degraded, so healthy
    // reports are unchanged.
    bool any_degraded = false;
    for (const auto &row : rows_) {
        for (const auto &run : row.byConfig) {
            const sim::Stats &s = run.stats;
            if (s.offlineBanks || s.offloadRetries || s.offloadFallbacks ||
                s.allocFallbacks || s.victimMigrations ||
                s.degradedLinkFlits) {
                any_degraded = true;
                break;
            }
        }
        if (any_degraded)
            break;
    }
    if (any_degraded) {
        std::printf("\nDegradation (faults absorbed per config; "
                    "offline banks are the max across workloads):\n");
        std::printf("%-12s %8s %8s %8s %8s %8s %12s\n", "",
                    "offl.bk", "retries", "offl.fb", "alloc.fb",
                    "migr", "degr.flits");
        for (std::size_t c = 0; c < configLabels_.size(); ++c) {
            std::uint64_t offline = 0, retries = 0, offl_fb = 0,
                          alloc_fb = 0, migr = 0, degr = 0;
            for (std::size_t w = 0; w < rows_.size(); ++w) {
                const sim::Stats &s = at(w, c).stats;
                offline = std::max(offline, s.offlineBanks);
                retries += s.offloadRetries;
                offl_fb += s.offloadFallbacks;
                alloc_fb += s.allocFallbacks;
                migr += s.victimMigrations;
                degr += s.degradedLinkFlits;
            }
            std::printf("%-12s %8llu %8llu %8llu %8llu %8llu %12llu\n",
                        configLabels_[c].c_str(),
                        (unsigned long long)offline,
                        (unsigned long long)retries,
                        (unsigned long long)offl_fb,
                        (unsigned long long)alloc_fb,
                        (unsigned long long)migr,
                        (unsigned long long)degr);
        }
    }

    // --------------------------------------------------- utilization
    std::printf("\nNoC utilization:\n");
    for (std::size_t c = 0; c < configLabels_.size(); ++c) {
        double sum = 0.0;
        for (std::size_t w = 0; w < rows_.size(); ++w)
            sum += at(w, c).nocUtilization;
        std::printf("%-12s %5.1f%%\n", configLabels_[c].c_str(),
                    100.0 * sum / double(rows_.size()));
    }

    std::printf("\nValidation: %s\n\n",
                allValid() ? "all runs produced correct results"
                           : "SOME RUNS FAILED VALIDATION");
}

void
printMachineBanner(const sim::MachineConfig &cfg,
                   const std::string &bench_name)
{
    std::printf("affinity-alloc reproduction | %s\n", bench_name.c_str());
    std::printf("---------------- machine (Table 2) ----------------\n"
                "%s\n"
                "----------------------------------------------------\n\n",
                cfg.toString().c_str());
}

bool
quickMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            return true;
    return false;
}

BenchSimCheck
BenchSimCheck::parse(int argc, char **argv)
{
    BenchSimCheck sc;
    // Honour the env-var opt-in so `AFFALLOC_SIMCHECK=1 ./bench` audits
    // without flag plumbing; flags can only turn checking *on*.
    sc.audit = simcheck::SimCheckConfig::fromEnv().audit;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--simcheck") == 0)
            sc.audit = true;
        else if (std::strcmp(argv[i], "--simcheck-digest") == 0)
            sc.digest = true;
        else if (std::strcmp(argv[i], "--faulty") == 0)
            sc.faulty = true;
    }
    return sc;
}

void
BenchSimCheck::apply(sim::MachineConfig &cfg) const
{
    if (audit)
        cfg.simcheck.audit = true;
    if (faulty) {
        // Canned, seeded campaign: dead banks force spare redirection
        // and victim migration; rejected offloads force retry/backoff
        // and in-core fallback. Deterministic by construction, so the
        // digest must still be reproducible under it.
        cfg.faults.offlineBanks = 2;
        cfg.faults.offloadRejectRate = 0.05;
    }
}

BenchObs
BenchObs::parse(int argc, char **argv)
{
    const auto value = [](const char *arg, const char *flag) -> const char * {
        const std::size_t n = std::strlen(flag);
        if (std::strncmp(arg, flag, n) == 0 && arg[n] == '=')
            return arg + n + 1;
        return nullptr;
    };
    return exitOnBadFlag([&] {
        BenchObs ob;
        for (int i = 1; i < argc; ++i) {
            if (const char *v = value(argv[i], "--trace-out"))
                ob.tracePrefix = v;
            else if (const char *h = value(argv[i], "--heatmap"))
                ob.heatmap = h;
            else if (std::strcmp(argv[i], "--explain-placement") == 0)
                ob.explainPrefix = "placement_explain";
            else if (const char *e = value(argv[i], "--explain-placement"))
                ob.explainPrefix = e;
            else if (const char *c = value(argv[i], "--obs-csv"))
                ob.csvPrefix = c;
        }
        if (!ob.heatmap.empty() && ob.heatmap != "banks" &&
            ob.heatmap != "links") {
            SIM_FATAL("harness", "--heatmap=%s: expected 'banks' or 'links'",
                      ob.heatmap.c_str());
        }
        return ob;
    });
}

std::string
BenchObs::runFile(const std::string &prefix, const std::string &workload,
                  const std::string &config, const std::string &ext)
{
    std::string name = prefix + "." + workload + "." + config;
    for (char &ch : name) {
        const bool ok = (ch >= 'a' && ch <= 'z') ||
                        (ch >= 'A' && ch <= 'Z') ||
                        (ch >= '0' && ch <= '9') || ch == '.' ||
                        ch == '_' || ch == '-' || ch == '/';
        if (!ok)
            ch = '-';
    }
    return name + ext;
}

BenchCorun
BenchCorun::parse(int argc, char **argv)
{
    return exitOnBadFlag([&] {
        BenchCorun co;
        if (const char *v = flagValue(argc, argv, "--sched"))
            co.policy = tenant::parseSchedPolicy(v);
        if (const char *v = flagValue(argc, argv, "--quantum")) {
            co.quantumEpochs = static_cast<std::uint32_t>(
                sim::parseCount("harness", "--quantum", v, 1'000'000, 1));
        }
        if (const char *v = flagValue(argc, argv, "--qos-csv"))
            co.qosPrefix = v;
        if (const char *v = flagValue(argc, argv, "--csv"))
            co.comparisonCsv = v;
        return co;
    });
}

void
BenchObs::apply(workloads::RunConfig &rc, const std::string &workload,
                const std::string &config) const
{
    // Heatmaps and CSVs both need the spatial counters collected.
    if (!heatmap.empty() || !csvPrefix.empty())
        rc.obs.metrics = true;
    if (!tracePrefix.empty())
        rc.obs.tracePath = runFile(tracePrefix, workload, config, ".json");
    if (!explainPrefix.empty())
        rc.obs.explainPath =
            runFile(explainPrefix, workload, config, ".txt");
}

void
BenchObs::reportRun(const workloads::RunResult &run,
                    const std::string &workload,
                    const std::string &config) const
{
    const obs::SpatialSnapshot &s = run.obsSnapshot;
    if (s.empty())
        return;
    if (heatmap == "banks") {
        std::fputs(obs::renderBankHeatmap(
                       workload + "/" + config + " L3 accesses per bank",
                       s.bankAccesses, s.bankTile, s.meshX, s.meshY)
                       .c_str(),
                   stdout);
    } else if (heatmap == "links") {
        std::fputs(obs::renderLinkHeatmap(
                       workload + "/" + config + " link flit-hops",
                       s.linkFlits, s.meshX, s.meshY)
                       .c_str(),
                   stdout);
    }
    if (!csvPrefix.empty()) {
        writeBankMetricsCsv(
            run, runFile(csvPrefix + ".banks", workload, config, ".csv"));
        writeLinkMetricsCsv(
            run, runFile(csvPrefix + ".links", workload, config, ".csv"));
    }
}

void
BenchObs::report(const Comparison &cmp) const
{
    if (heatmap.empty() && csvPrefix.empty())
        return;
    for (const auto &row : cmp.rows())
        for (const auto &run : row.byConfig)
            reportRun(run, row.name, run.label);
}

void
BenchSimCheck::printDigests(const Comparison &cmp) const
{
    if (!digest)
        return;
    simcheck::Digest overall;
    for (const auto &row : cmp.rows()) {
        for (const auto &run : row.byConfig) {
            const std::uint64_t d = run.digest();
            std::printf("digest %-12s %-8s %s\n", row.name.c_str(),
                        run.label.c_str(),
                        simcheck::digestToString(d).c_str());
            overall.fold(row.name + "/" + run.label, d);
        }
    }
    std::printf("digest overall %s\n",
                simcheck::digestToString(overall.value()).c_str());
}

} // namespace affalloc::harness
