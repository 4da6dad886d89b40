/**
 * @file
 * Multi-tenant scheduling: N workload instances share one machine (L3
 * banks, NoC, DRAM, IOT) while each owns a private allocator arena
 * and RNG substream. A TenantScheduler runs each tenant as a fiber on
 * one OS thread and advances them in deterministic epoch-interleaved
 * rounds — at every epoch boundary the running tenant's quantum is
 * charged, and when it expires the tenant yields the machine to the
 * next one. Closed co-runs (runCorun) and serving runs (src/serve)
 * drive the same loop through an AdmissionControl. Timing remains a
 * single shared clock, so co-run interference (bank pressure via the
 * shared BankLoadBoard, queueing for the machine) is visible in each
 * tenant's finish time, and the QoS report quantifies it against
 * solo-run baselines.
 */

#ifndef AFFALLOC_TENANT_SCHEDULER_HH
#define AFFALLOC_TENANT_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/observer.hh"
#include "tenant/workload_registry.hh"
#include "workloads/run_context.hh"

namespace affalloc::tenant
{

/** How the scheduler orders tenant quanta. */
enum class SchedPolicy : std::uint8_t
{
    /** Equal quanta, cyclic order. */
    roundRobin,
    /** Quantum scaled by each tenant's weight, cyclic order. */
    weighted
};

/** Short policy name ("rr" / "weighted"). */
const char *schedPolicyName(SchedPolicy p);

/** Parse "rr" or "weighted"; anything else SIM_FATALs. */
SchedPolicy parseSchedPolicy(const std::string &s);

/** Configuration of one co-run. */
struct CorunOptions
{
    sim::MachineConfig machine{};
    ExecMode mode = ExecMode::affAlloc;
    alloc::AllocatorOptions allocOpts{};
    SchedPolicy policy = SchedPolicy::roundRobin;
    /** Root seed; tenant i uses Rng::substreamSeed(seed, i). */
    std::uint64_t seed = 42;
    /** Epochs per quantum (x weight under the weighted policy). */
    std::uint32_t quantumEpochs = 8;
    /** Use the reduced CI-scale workload inputs. */
    bool quick = false;
    /** Also run per-tenant solo baselines to fill the QoS columns. */
    bool solo = true;
    /** Observability on the shared machine (per-tenant lanes). */
    obs::ObsConfig obs{};
};

/**
 * Run registry workload @p workload alone on a fresh machine as
 * tenant substream @p stream: a solo baseline.
 */
workloads::RunResult runSolo(const CorunOptions &opts,
                             const std::string &workload,
                             std::uint64_t stream);

/**
 * One job admitted into the scheduler (see AdmissionControl): a
 * TenantSpec plus where it runs. Each job runs one workload in an
 * arena slot (recycled across jobs in serving runs) and reports back
 * through AdmissionControl::onFinish.
 */
struct AdmittedJob : TenantSpec
{
    /** Caller's request id; also the job's RNG substream index. */
    std::uint64_t requestId = 0;
    /** Instance label, e.g. "bfs#17". */
    std::string name;
    /** Arena slot the job allocates from. */
    std::uint32_t arena = 0;
};

/**
 * Driver of a scheduler run (TenantScheduler::runOpen): decides which
 * jobs enter the machine and when, and is told when they leave. All
 * three hooks run on the scheduler's thread between quanta, while no
 * job is mid-quantum, so implementations need no locking; they must
 * be deterministic functions of the simulated clock for the run to be
 * digest-stable.
 */
class AdmissionControl
{
  public:
    virtual ~AdmissionControl() = default;

    /**
     * Called at every scheduling round with the shared clock. Returns
     * the jobs to admit now (possibly none). Each returned job must
     * name a free arena slot in [0, numSlots).
     */
    virtual std::vector<AdmittedJob> admit(Cycles now) = 0;

    /**
     * Called when no admitted job is runnable. Returns how many
     * cycles to fast-forward the idle machine (to the next arrival,
     * retry, or fault event), or 0 to end the run.
     */
    virtual Cycles idleAdvance(Cycles now) = 0;

    /**
     * Called after @p job's workload returned and its fiber was
     * released. @p finish_cycle is the shared-clock cycle of its last
     * epoch.
     */
    virtual void onFinish(const AdmittedJob &job,
                          const workloads::RunResult &result,
                          Cycles finish_cycle) = 0;
};

/** One tenant's outcome inside a co-run. */
struct TenantResult
{
    std::uint32_t id = 0;
    /** Instance label, e.g. "bfs#0". */
    std::string name;
    std::string workload;
    std::uint32_t weight = 1;
    /** Traffic class of the agent (ndc = classic tenant). */
    AgentClass cls = AgentClass::ndc;
    /** Attributed run record (stats = this tenant's share only). */
    workloads::RunResult run;
    /** Shared-clock cycle at which the tenant finished. */
    Cycles finishCycle = 0;
    /** Epochs this tenant executed. */
    std::uint64_t epochs = 0;
    /** Solo-run cycles for the same work (0 when solo disabled). */
    Cycles soloCycles = 0;
    /** finishCycle / soloCycles (0 when solo disabled). */
    double slowdown = 0.0;
};

/** The co-run outcome plus QoS aggregates (see tenant/qos.hh). */
struct CorunReport
{
    std::vector<TenantResult> tenants;
    SchedPolicy policy = SchedPolicy::roundRobin;
    /** Shared-clock cycle at which the last tenant finished. */
    Cycles makespan = 0;
    /** System throughput: sum of solo_i / finish_i (0 w/o solo). */
    double weightedSpeedup = 0.0;
    /** Jain fairness index over per-tenant progress (1 w/o solo). */
    double fairness = 1.0;
    /** Whether every tenant's workload validated. */
    bool allValid = false;
    /**
     * Shared-machine spatial counters with the per-tenant overlay
     * (empty unless CorunOptions::obs.metrics was set).
     */
    obs::SpatialSnapshot obsSnapshot;

    /**
     * Determinism digest: per-tenant run digests and finish cycles
     * folded in tenant-id order. Independent of host thread timing
     * and of the sweep's --jobs value.
     */
    std::uint64_t digest() const;
};

/**
 * Runs one simulation's tenants to completion. Construction builds
 * the shared machine; runOpen() runs every admitted job as a fiber on
 * the calling thread and interleaves them under the configured
 * policy. Exactly one fiber touches the machine at a time and the
 * switch points are the epoch boundaries, so results are
 * bit-deterministic and no other OS thread is involved.
 */
class TenantScheduler
{
  public:
    /**
     * Jobs are admitted by an AdmissionControl into @p num_slots arena
     * slots (the machine's IOT is sized for the slots, not the job
     * count).
     */
    TenantScheduler(CorunOptions opts, std::uint32_t num_slots);

    ~TenantScheduler();

    TenantScheduler(const TenantScheduler &) = delete;
    TenantScheduler &operator=(const TenantScheduler &) = delete;

    /**
     * Execute the run (once): repeatedly ask @p adm for new jobs,
     * interleave the admitted ones under the quantum policy,
     * fast-forward the idle machine between arrivals, and report each
     * completion back. A finished job's fiber stack is released at
     * once. Ends when no job is running and @p adm.idleAdvance
     * returns 0. On an error (a job's or a hook's) admission stops,
     * the jobs in flight drain, and the first error is rethrown.
     */
    CorunReport runOpen(AdmissionControl &adm);

    /**
     * Declare the run's tenants up front: job i of the run is tenant
     * @p names[i] of the per-tenant metrics overlay. Only runs that
     * know every job before the first round (closed co-runs) can; in
     * others the overlay stays off.
     */
    void declareTenants(std::vector<std::string> names);

    /** The shared machine (valid for the scheduler's lifetime). */
    nsc::Machine &machine() { return *machine_; }

    /**
     * Ask open-ended background agents (host traffic / I/O injectors)
     * to finish at their next epoch boundary. Admission controls call
     * it from their hooks once all foreground work resolved; a job
     * error raises it too.
     */
    void requestBackgroundDrain() { drainBackground_ = true; }

    /** Shared cross-tenant bank-load board (Eq. 4's load input; the
     *  serving front-end's recovery ranking reads it too). */
    alloc::BankLoadBoard &loadBoard() { return board_; }

  private:
    struct Tenant;

    /** Fiber body: run the workload, keep any error inside. */
    void tenantMain(Tenant &t);
    /** Machine epoch hook; runs on the granted tenant's fiber. */
    void onEpoch();
    /** Next unfinished tenant in cyclic order, or -1 when done. */
    int pickNext();
    /** Spawn one admitted job as a tenant fiber. */
    void spawnJob(const AdmittedJob &job);
    /** Resume tenant @p next for one quantum, until it yields. */
    void grantQuantum(int next);
    /** Package tenants_ into a CorunReport. */
    CorunReport buildReport();

    CorunOptions opts_;
    std::unique_ptr<os::SimOS> os_;
    std::unique_ptr<nsc::Machine> machine_;
    std::unique_ptr<obs::Observer> observer_;
    alloc::BankLoadBoard board_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    bool ran_ = false;
    /** Arena slots jobs may name. */
    std::uint32_t slots_ = 0;
    /** Tenants declared to the metrics overlay (declareTenants). */
    std::size_t declaredTenants_ = 0;
    /** Bit mask of agent classes seen on this machine (bit 0 = ndc). */
    std::uint32_t presentMask_ = 0;
    /** Cooperative stop signal handed to background agents through
     *  RunConfig::stopRequested. */
    bool drainBackground_ = false;

    /** The granted tenant and its quantum, read by onEpoch(). */
    std::uint32_t current_ = 0;
    std::uint64_t quantum_ = 1;
    std::uint64_t quantumUsed_ = 0;
    std::uint32_t rrNext_ = 0;
};

/**
 * Run a closed co-run: every spec is admitted at the first round
 * (arena, request id and tenant id = spec index), then, per
 * opts.solo, the per-tenant solo baselines that fill the QoS fields
 * run.
 */
CorunReport runCorun(const std::vector<TenantSpec> &specs,
                     const CorunOptions &opts);

} // namespace affalloc::tenant

#endif // AFFALLOC_TENANT_SCHEDULER_HH
