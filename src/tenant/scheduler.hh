/**
 * @file
 * Multi-tenant co-run scheduling: N workload instances share one
 * machine (L3 banks, NoC, DRAM, IOT) while each owns a private
 * allocator arena and RNG substream. A TenantScheduler advances the
 * tenants in deterministic epoch-interleaved rounds — at every epoch
 * boundary the running tenant's quantum is charged, and when it
 * expires the machine is handed to the next tenant. Timing remains a
 * single shared clock, so co-run interference (bank pressure via the
 * shared BankLoadBoard, queueing for the machine) is visible in each
 * tenant's finish time, and the QoS report quantifies it against
 * solo-run baselines.
 */

#ifndef AFFALLOC_TENANT_SCHEDULER_HH
#define AFFALLOC_TENANT_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
    os::PagePolicy heapPolicy = os::PagePolicy::linear;
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
 * One job admitted into the open-system scheduler (see
 * AdmissionControl). Jobs are the dynamic analogue of boot-time
 * TenantSpecs: each runs one registry workload in a recycled arena
 * slot and reports back through AdmissionControl::onFinish.
 */
struct AdmittedJob
{
    /** Caller's request id; also the job's RNG substream index. */
    std::uint64_t requestId = 0;
    /** Registry workload name. */
    std::string workload;
    /** Instance label, e.g. "bfs#17". */
    std::string name;
    /** Arena slot the job allocates from (recycled across jobs). */
    std::uint32_t arena = 0;
    /** Scheduling weight under the weighted policy. */
    std::uint32_t weight = 1;
    /** Traffic class of the job (ndc = classic request). */
    AgentClass cls = AgentClass::ndc;
    /** Explicit runner for non-registry agents; null = registry. */
    RunnerFn runner = nullptr;
};

/**
 * Driver of an open-system run (TenantScheduler::runOpen): decides
 * which jobs enter the machine and when, and is told when they leave.
 * All three hooks run on the scheduler thread while every job thread
 * is parked, so implementations need no locking; they must be
 * deterministic functions of the simulated clock for the run to be
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
     * Called after @p job's thread finished and was joined.
     * @p finish_cycle is the shared-clock cycle of its last epoch.
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
 * Runs one co-run to completion. Construction builds the shared
 * machine; run() spawns one cooperative thread per tenant and
 * interleaves them under the configured policy. Handoffs are strictly
 * serialized (exactly one thread touches the machine at any time), so
 * results are bit-deterministic regardless of host scheduling.
 */
class TenantScheduler
{
  public:
    TenantScheduler(std::vector<TenantSpec> specs, CorunOptions opts);

    /**
     * Open-system mode: no boot-time tenants; jobs are admitted
     * dynamically by an AdmissionControl into @p num_slots recycled
     * arena slots (the machine's IOT is sized for the slots, not the
     * job count). Drive with runOpen().
     */
    TenantScheduler(CorunOptions opts, std::uint32_t num_slots);

    ~TenantScheduler();

    TenantScheduler(const TenantScheduler &) = delete;
    TenantScheduler &operator=(const TenantScheduler &) = delete;

    /** Execute the co-run (once) and return the report. */
    CorunReport run();

    /**
     * Execute an open-system run (once): repeatedly ask @p adm for
     * new jobs, interleave the admitted ones under the quantum
     * policy, fast-forward the idle machine between arrivals, and
     * report each completion back. Finished job threads are joined
     * eagerly so at most num_slots threads exist at a time. Ends when
     * no job is running and @p adm.idleAdvance returns 0.
     */
    CorunReport runOpen(AdmissionControl &adm);

    /** The shared machine (valid for the scheduler's lifetime). */
    nsc::Machine &machine() { return *machine_; }

    /**
     * Ask open-ended background agents (host traffic / I/O injectors)
     * to finish at their next epoch boundary. Closed co-runs raise
     * this automatically once every NDC tenant finished; open-system
     * admission controls call it (on the scheduler thread, e.g. from
     * admit()) once all real requests resolved.
     */
    void requestBackgroundDrain() { drainBackground_ = true; }

    /** Shared cross-tenant bank-load board (Eq. 4's load input; the
     *  serving front-end's recovery ranking reads it too). */
    alloc::BankLoadBoard &loadBoard() { return board_; }

  private:
    struct Tenant
    {
        std::uint32_t id = 0;
        std::string name;
        TenantSpec spec;
        RunnerFn fn;
        workloads::TenantBinding binding;
        std::thread thread;
        bool finished = false;
        std::uint64_t epochsRun = 0;
        workloads::RunResult result;
        std::exception_ptr error;
        /** Arena the tenant allocates from (== id in closed co-runs). */
        std::uint32_t arena = 0;
        /** RNG substream index (== id in closed co-runs). */
        std::uint64_t seedIndex = 0;
        /** The admission record (open-system mode only). */
        AdmittedJob job;
        /** Whether the finished thread was already joined. */
        bool joined = false;
    };

    /** Tenant-thread body: wait for the grant, run the workload. */
    void tenantMain(Tenant &t);
    /** Machine epoch hook; runs on the granted tenant's thread. */
    void onEpoch();
    /** Next unfinished tenant in cyclic order, or -1 when done. */
    int pickNext();
    /** Quantum (epochs) for one grant of @p t under the policy. */
    std::uint64_t quantumFor(const Tenant &t) const;
    /** Build the tenant's RunConfig (arena, board, substream seed). */
    workloads::RunConfig tenantRunConfig(const Tenant &t);
    /** Spawn one admitted job as a tenant thread (open mode). */
    Tenant &spawnJob(const AdmittedJob &job);
    /** Grant one quantum to tenant @p next and wait for its yield. */
    void grantQuantum(int next);
    /** Package tenants_ into a CorunReport (shared by both modes). */
    CorunReport buildReport();
    /** Whether every NDC (foreground) tenant has finished. */
    bool allForegroundDone() const;
    /** Fold @p cls into the machine's present-class mask. */
    void notePresentClass(AgentClass cls);
    /**
     * Size the IOT for @p arenas arenas and build the SimOS, Machine
     * and optional Observer (shared by both constructors).
     */
    void buildMachine(std::size_t arenas);

    CorunOptions opts_;
    std::unique_ptr<os::SimOS> os_;
    std::unique_ptr<nsc::Machine> machine_;
    std::unique_ptr<obs::Observer> observer_;
    alloc::BankLoadBoard board_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    bool ran_ = false;
    /** Arena slots in open-system mode (0: closed co-run). */
    std::uint32_t openSlots_ = 0;
    /** Bit mask of agent classes seen on this machine (bit 0 = ndc). */
    std::uint32_t presentMask_ = 0;
    /** Whether this run has at least one NDC (foreground) tenant. */
    bool haveForeground_ = false;
    /**
     * Cooperative stop signal handed to background agents through
     * RunConfig::stopRequested. Written on the scheduler thread while
     * all tenant threads are parked; the grant handoff mutex orders
     * the agents' reads.
     */
    bool drainBackground_ = false;

    // Cooperative handoff state. `running_` is the tenant id granted
    // the machine (-1: the scheduler thread). All transitions happen
    // under `mu_`; unlocked reads in the epoch fast path are ordered
    // by the grant handoff itself (strict alternation through the
    // mutex), so exactly one thread ever touches them at a time.
    std::mutex mu_;
    std::condition_variable cv_;
    int running_ = -1;
    std::uint32_t current_ = 0;
    std::uint64_t quantum_ = 1;
    std::uint64_t quantumUsed_ = 0;
    std::uint32_t rrNext_ = 0;
};

/**
 * Convenience: build a scheduler, run the co-run, and (per
 * opts.solo) the per-tenant solo baselines that fill the QoS fields.
 */
CorunReport runCorun(const std::vector<TenantSpec> &specs,
                     const CorunOptions &opts);

} // namespace affalloc::tenant

#endif // AFFALLOC_TENANT_SCHEDULER_HH
