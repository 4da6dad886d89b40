/**
 * @file
 * Figure/table reporting: turns collections of RunResults into the
 * normalized rows the paper's figures plot (speedup, energy
 * efficiency, NoC hops with per-class breakdown, NoC utilization).
 */

#ifndef AFFALLOC_HARNESS_REPORT_HH
#define AFFALLOC_HARNESS_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

#include "tenant/scheduler.hh"
#include "workloads/run_context.hh"

namespace affalloc::harness
{

using workloads::RunResult;

/** Results for one workload across all compared configurations. */
struct WorkloadResults
{
    std::string name;
    std::vector<RunResult> byConfig;
};

/**
 * A figure-style comparison: N workloads x M configurations with a
 * chosen speedup baseline and traffic baseline (the paper normalizes
 * speedup to Near-L3 and traffic to In-Core in Fig. 12).
 */
class Comparison
{
  public:
    /** @param config_labels one label per configuration column. */
    explicit Comparison(std::vector<std::string> config_labels)
        : configLabels_(std::move(config_labels))
    {}

    /** Add one workload's results (must match the label count). */
    void add(const std::string &workload, std::vector<RunResult> runs);

    /** Number of configurations. */
    std::size_t numConfigs() const { return configLabels_.size(); }
    /** The collected rows. */
    const std::vector<WorkloadResults> &rows() const { return rows_; }

    /** Speedup of config @p c on workload @p w over @p baseline. */
    double speedup(std::size_t w, std::size_t c,
                   std::size_t baseline) const;
    /** Energy efficiency of config @p c over @p baseline. */
    double energyEff(std::size_t w, std::size_t c,
                     std::size_t baseline) const;
    /** Total hops of config @p c normalized to @p baseline. */
    double hopsNorm(std::size_t w, std::size_t c,
                    std::size_t baseline) const;
    /** Hops of one traffic class normalized to baseline *total*. */
    double hopsClassNorm(std::size_t w, std::size_t c,
                         std::size_t baseline, TrafficClass tc) const;

    /** Geomean of speedups across workloads for config @p c. */
    double geomeanSpeedup(std::size_t c, std::size_t baseline) const;
    /** Geomean of energy efficiency across workloads. */
    double geomeanEnergyEff(std::size_t c, std::size_t baseline) const;
    /** Arithmetic mean of normalized hops across workloads. */
    double meanHops(std::size_t c, std::size_t baseline) const;

    /** True if every collected run validated. */
    bool allValid() const;

    /**
     * Print the paper-style blocks: a speedup table, an energy table
     * and a traffic table (with Offload/Data/Control breakdown),
     * normalized to the given baseline columns.
     */
    void print(const std::string &title, std::size_t speedup_baseline,
               std::size_t traffic_baseline) const;

  private:
    const RunResult &at(std::size_t w, std::size_t c) const;

    std::vector<std::string> configLabels_;
    std::vector<WorkloadResults> rows_;
};

/** Print the Table 2 machine description banner once per bench. */
void printMachineBanner(const sim::MachineConfig &cfg,
                        const std::string &bench_name);

/** Parse a --quick flag (smaller inputs for smoke runs). */
bool quickMode(int argc, char **argv);

/**
 * SimCheck-related flags shared by every figure binary:
 *   --simcheck         run the invariant audits at epoch boundaries
 *   --simcheck-digest  print one determinism digest per run + overall
 *   --faulty           run under a canned fault campaign (offline
 *                      banks + offload rejection) so CI exercises the
 *                      degradation paths under audit
 * The audit default also honours AFFALLOC_SIMCHECK=1 (env) so whole
 * bench suites can be audited without touching their command lines.
 */
struct BenchSimCheck
{
    bool audit = false;
    bool digest = false;
    bool faulty = false;

    static BenchSimCheck parse(int argc, char **argv);

    /** Apply the requests to one run's machine config. */
    void apply(sim::MachineConfig &cfg) const;

    /**
     * Print `digest <workload> <config> 0x...` lines for every run of
     * @p cmp plus a final `digest overall` fold, when --simcheck-digest
     * was given. CI runs a figure twice and diffs these lines.
     */
    void printDigests(const Comparison &cmp) const;
};

/**
 * Observability flags shared by every figure binary (all opt-in and
 * digest-neutral; see src/obs/):
 *   --trace-out=PREFIX     write Chrome trace JSON per run to
 *                          PREFIX.<workload>.<config>.json
 *   --heatmap=banks|links  print an ASCII mesh heatmap per run
 *   --explain-placement[=PREFIX]
 *                          write the Eq. 4 placement-explain log per
 *                          run to PREFIX.<workload>.<config>.txt
 *                          (default PREFIX: placement_explain)
 *   --obs-csv=PREFIX       write per-bank / per-link counter CSVs per
 *                          run to PREFIX.{banks,links}.<wl>.<cfg>.csv
 */
struct BenchObs
{
    std::string tracePrefix;
    std::string heatmap;
    std::string explainPrefix;
    std::string csvPrefix;

    static BenchObs parse(int argc, char **argv);

    /** Whether any observability was requested. */
    bool
    any() const
    {
        return !tracePrefix.empty() || !heatmap.empty() ||
               !explainPrefix.empty() || !csvPrefix.empty();
    }

    /** Fill @p rc.obs for the run of @p workload under @p config. */
    void apply(workloads::RunConfig &rc, const std::string &workload,
               const std::string &config) const;

    /** Print heatmaps and write spatial CSVs for every collected run. */
    void report(const Comparison &cmp) const;

    /** Heatmap + CSVs for one run (benches without a Comparison). */
    void reportRun(const workloads::RunResult &run,
                   const std::string &workload,
                   const std::string &config) const;

    /** `PREFIX.<workload>.<config><ext>` with labels made path-safe. */
    static std::string runFile(const std::string &prefix,
                               const std::string &workload,
                               const std::string &config,
                               const std::string &ext);
};

/**
 * Co-run flags shared by multi-tenant benches (see src/tenant/):
 *   --sched=rr|weighted  scheduling policy (tenant::parseSchedPolicy,
 *                        so the error message lists the valid
 *                        policies)
 *   --quantum=N          epochs per scheduling quantum
 *   --qos-csv=PREFIX     one QoS CSV per co-run:
 *                        PREFIX.<corun>.<config>.csv
 *   --csv=PATH           one per-tenant comparison CSV across all
 *                        co-runs and configs (writeComparisonCsv)
 * Both `--flag=value` and `--flag value` spellings are accepted.
 */
struct BenchCorun
{
    tenant::SchedPolicy policy = tenant::SchedPolicy::roundRobin;
    std::uint32_t quantumEpochs = 8;
    std::string qosPrefix;
    std::string comparisonCsv;

    static BenchCorun parse(int argc, char **argv);
};

} // namespace affalloc::harness

#endif // AFFALLOC_HARNESS_REPORT_HH
