/**
 * @file
 * Open-system serving front-end. Where every other driver in the repo
 * is closed (a fixed batch of jobs, makespan as the metric), this one
 * is open: requests *arrive* on a seeded Poisson/bursty schedule, pass
 * an admission controller into a bounded queue, are dispatched into
 * recycled tenant arena slots on the shared machine, run under the
 * epoch-quantum scheduler, and free — so pool fragmentation, arena
 * reuse and scheduler churn are exercised continuously, and the
 * reported metric is what a *user* sees: per-class tail latency
 * (p50/p99/p999 slowdown vs the unloaded service time), goodput, and
 * availability.
 *
 * Overload policy, all deterministic in the simulated clock:
 *  - a full admission queue sheds the arrival; the client retries
 *    with capped exponential backoff up to a per-class retry budget,
 *    after which the request counts as shed;
 *  - queued requests older than the per-class give-up age time out;
 *  - the run has a hard horizon (maxCycles): admission stops there
 *    and everything still pending is marked timed out, so an
 *    overloaded system terminates with bounded work.
 *
 * Mid-flight fault campaigns (sim::TimedFault) kill banks / degrade
 * links at scheduled cycles while requests are in service. On a bank
 * kill with re-affinity recovery enabled, each dead bank's spare is
 * re-targeted to the least-contended surviving bank (ranked by the
 * shared BankLoadBoard) instead of the default next-in-order spare,
 * the migration traffic is charged, and every decision is logged
 * through the placement explainer and tracer.
 */

#ifndef AFFALLOC_SERVE_SERVE_HH
#define AFFALLOC_SERVE_SERVE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tenant/scheduler.hh"

namespace affalloc::serve
{

/** One request class: a workload plus its arrival mix and patience. */
struct ServeClass
{
    /** Registry workload name. */
    std::string workload;
    /** Relative arrival weight in the mix. */
    double weight = 1.0;
    /** Client retries after shed admissions before giving up. */
    std::uint32_t maxRetries = 3;
    /** Base client backoff in cycles; doubles per retry (capped). */
    Cycles retryBackoff = 50'000;
    /** Queued requests older than this (since arrival) time out. */
    Cycles giveUpAfter = 8'000'000;
};

/** Configuration of one open-system serving run. */
struct ServeOptions
{
    sim::MachineConfig machine{};
    ExecMode mode = ExecMode::affAlloc;
    alloc::AllocatorOptions allocOpts{};
    tenant::SchedPolicy policy = tenant::SchedPolicy::roundRobin;
    std::uint64_t seed = 42;
    std::uint32_t quantumEpochs = 8;
    /** Use the reduced CI-scale workload inputs. */
    bool quick = false;
    obs::ObsConfig obs{};

    /** Request classes (empty: defaultServeClasses()). */
    std::vector<ServeClass> classes;
    /** Requests offered over the run. */
    std::uint32_t numRequests = 48;
    /** Mean arrival rate in requests per million cycles. */
    double arrivalsPerMcycle = 2.0;
    /**
     * Fraction of interarrival gaps drawn 8x compressed (bursty
     * arrivals); 0 = pure Poisson.
     */
    double burstiness = 0.0;
    /** Tenant arena slots == max requests in service at once. */
    std::uint32_t slots = 4;
    /** Bounded admission queue capacity. */
    std::uint32_t queueCapacity = 8;
    /** Hard horizon; 0 is rejected (the run must terminate). */
    Cycles maxCycles = 400'000'000;
    /** Mid-flight fault campaign, applied at scheduling rounds. */
    std::vector<sim::TimedFault> faultSchedule;
    /** Re-target dead banks' spares to least-contended survivors. */
    bool reaffinity = true;
    /**
     * Background interference agents (host traffic / I/O injectors
     * from src/traffic) admitted at run start alongside the request
     * stream. They occupy dedicated arena slots beyond `slots`, never
     * consume request slots, and are drained once every request
     * resolves.
     */
    std::vector<tenant::TenantSpec> background;
};

/** The workload mix used when ServeOptions::classes is empty. */
std::vector<ServeClass> defaultServeClasses();

/** Final state of one offered request. */
enum class RequestOutcome : std::uint8_t
{
    /** Still in flight (never appears in a finished report). */
    pending,
    /** Ran and finished. */
    completed,
    /** Dropped by admission after exhausting its retry budget. */
    shed,
    /** Gave up in the queue, or was pending when the horizon hit. */
    timedOut
};

/** Short outcome name ("ok" / "shed" / "timeout" / "pending"). */
const char *requestOutcomeName(RequestOutcome o);

/** The lifecycle of one offered request. */
struct RequestRecord
{
    std::uint64_t id = 0;
    std::uint32_t classIdx = 0;
    /** First arrival attempt (cycle). */
    Cycles arrival = 0;
    /** Cycle it entered the admission queue (0: never admitted). */
    Cycles enqueue = 0;
    /** Cycle it left the queue into a slot (0: never served). */
    Cycles admit = 0;
    /** Cycle its job finished (0: never finished). */
    Cycles finish = 0;
    /** Shed admissions that were retried. */
    std::uint32_t retries = 0;
    RequestOutcome outcome = RequestOutcome::pending;
    /** Workload self-validation (completed requests only). */
    bool valid = false;
};

/** Per-class availability summary. */
struct ClassSummary
{
    std::string workload;
    std::uint32_t offered = 0;
    std::uint32_t completed = 0;
    std::uint32_t shed = 0;
    std::uint32_t timedOut = 0;
    std::uint64_t retries = 0;
    /** Healthy unloaded service time (solo run, no faults). */
    Cycles unloadedCycles = 0;
    /** End-to-end latency (finish - arrival) quantile upper bounds. */
    Cycles p50 = 0;
    Cycles p99 = 0;
    Cycles p999 = 0;
    /** pXX / unloadedCycles. */
    double p50Slowdown = 0.0;
    double p99Slowdown = 0.0;
    double p999Slowdown = 0.0;
    /** completed / offered. */
    double availability = 0.0;
};

/** The outcome of one serving run. */
struct ServeReport
{
    std::vector<RequestRecord> requests;
    std::vector<ClassSummary> classes;

    std::uint32_t offered = 0;
    std::uint32_t completed = 0;
    std::uint32_t shed = 0;
    std::uint32_t timedOut = 0;
    /** Total client retry attempts. */
    std::uint64_t retries = 0;
    /** Admission rejections (each may later be retried). */
    std::uint64_t shedAttempts = 0;
    /** Largest queue depth observed. */
    std::uint32_t peakQueueDepth = 0;

    /** Fault campaign bookkeeping. */
    std::uint32_t banksKilled = 0;
    std::uint32_t linksDegraded = 0;
    /** Re-affinity redirect re-targets performed. */
    std::uint32_t reaffinityMoves = 0;
    /**
     * Scheduled bank kills that would have taken the last live bank
     * offline and were suppressed instead of crashing the run. The
     * system keeps serving on the surviving bank in degraded mode.
     */
    std::uint32_t killsSuppressed = 0;
    /** NACK-storm rate changes applied from the fault schedule. */
    std::uint32_t nackStorms = 0;

    /** Shared-clock cycle at which the system drained. */
    Cycles endCycle = 0;
    /** completed / offered. */
    double availability = 0.0;
    /** Completed requests per million cycles of run time. */
    double goodputPerMcycle = 0.0;
    /** Worst per-class p99 slowdown (the headline tail metric). */
    double worstP99Slowdown = 0.0;
    /** Whether every completed request validated. */
    bool allValid = false;
    /** Digest of the underlying co-run (per-job stats). */
    std::uint64_t corunDigest = 0;

    /**
     * Determinism digest: every request record folded in id order
     * with the co-run digest and the end cycle. Bit-identical across
     * reruns and sweep --jobs counts.
     */
    std::uint64_t digest() const;
};

/** Run one open-system serving experiment to completion. */
ServeReport runServe(const ServeOptions &opts);

/** Header line of the availability CSV. */
std::string serveCsvHeader();

/**
 * Append one row per class plus a "total" row for this run to @p os.
 * @p config labels the sweep point (e.g. "affAlloc/rate2/bankkill").
 */
void appendServeCsv(std::ostream &os, const ServeReport &report,
                    const std::string &config);

/** Human-readable availability table on stdout. */
void printServeReport(const ServeReport &report,
                      const std::string &config = "");

} // namespace affalloc::serve

#endif // AFFALLOC_SERVE_SERVE_HH
