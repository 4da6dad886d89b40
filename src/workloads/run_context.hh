/**
 * @file
 * Per-run wiring shared by every workload: one simulated process with
 * its OS, machine, allocator and stream executor, plus the result
 * record benchmarks consume.
 */

#ifndef AFFALLOC_WORKLOADS_RUN_CONTEXT_HH
#define AFFALLOC_WORKLOADS_RUN_CONTEXT_HH

#include <memory>
#include <string>

#include "alloc/affinity_alloc.hh"
#include "nsc/machine.hh"
#include "nsc/stream_executor.hh"
#include "obs/observer.hh"
#include "os/sim_os.hh"
#include "sim/energy.hh"
#include "sim/prof.hh"

namespace affalloc::workloads
{

/** How a run is configured (mode + allocator policy + machine). */
struct RunConfig
{
    ExecMode mode = ExecMode::affAlloc;
    alloc::AllocatorOptions allocOpts{};
    os::PagePolicy heapPolicy = os::PagePolicy::linear;
    sim::MachineConfig machine{};
    /** Observability (metrics / tracing / explain); default: all off. */
    obs::ObsConfig obs{};
    /**
     * Cooperative stop signal for open-ended background agents (host
     * traffic / I/O injectors): when non-null and *stopRequested turns
     * true, the agent finishes at its next epoch boundary. Null (the
     * default) for classic workloads, which run to completion.
     */
    const bool *stopRequested = nullptr;

    /** Convenience: a named baseline/evaluated configuration. */
    static RunConfig
    forMode(ExecMode mode)
    {
        RunConfig rc;
        rc.mode = mode;
        return rc;
    }
};

/** The measured outcome of one workload run. */
struct RunResult
{
    std::string workload;
    std::string label;
    ExecMode mode = ExecMode::affAlloc;
    sim::Stats stats;
    double joules = 0.0;
    double l3MissRate = 0.0;
    double nocUtilization = 0.0;
    bool valid = false;
    /**
     * Agent class this result belongs to (report labeling only —
     * deliberately outside digest() so classic digests are stable).
     */
    AgentClass cls = AgentClass::ndc;
    sim::Timeline timeline;
    /** Order-insensitive digest of the allocator's placement decisions. */
    std::uint64_t placementDigest = 0;
    /** Spatial counters (empty unless RunConfig::obs.metrics was set). */
    obs::SpatialSnapshot obsSnapshot;

    /** Cycles, the primary metric. */
    Cycles cycles() const { return stats.cycles; }
    /** Total NoC message-hops (traffic metric of the figures). */
    std::uint64_t hops() const { return stats.totalHops(); }
    /**
     * Determinism digest of the whole run: every stats counter folded
     * with the placement digest. Two runs of the same config and seed
     * must produce bit-identical digests (CI asserts this).
     */
    std::uint64_t
    digest() const
    {
        return simcheck::digestOfStats(stats) + placementDigest;
    }
};

/**
 * One tenant's identity inside a shared-machine co-run. The scheduler
 * owns these; a RunContext in tenant mode borrows one so finish() can
 * attribute only this tenant's share of the shared machine's stats.
 */
struct TenantBinding
{
    /** Tenant index (also its OS arena and RNG substream id). */
    std::uint32_t id = 0;
    /** Instance label, e.g. "bfs#1". */
    std::string name;
    /** Stats accumulated over this tenant's completed quanta. */
    sim::Stats attributed;
    /** Shared-machine stats snapshot at this tenant's last resume. */
    sim::Stats resumeSnapshot;
    /** Shared-clock cycle at which the tenant's workload finished. */
    Cycles finishCycle = 0;
    /**
     * Shared-clock cycle at the end of this tenant's most recent
     * epoch (maintained by the scheduler's epoch hook). finish() uses
     * it so a tenant preempted exactly at its final epoch is not
     * charged for other tenants' epochs that ran before its fiber was
     * resumed to do the bookkeeping.
     */
    Cycles lastEpochCycle = 0;
};

/**
 * One simulated process. Construction boots the OS and machine;
 * workloads allocate through `allocator` and emit events through
 * `exec` / `machine`. In tenant mode (the second constructor) the OS
 * and machine are *borrowed* from a co-run scheduler instead: several
 * RunContexts then share one machine, each with its own allocator
 * arena, and finish() reports the tenant's attributed share.
 */
struct RunContext
{
    RunConfig config;

  private:
    /** Backing storage when this context owns its OS/machine. */
    std::unique_ptr<os::SimOS> ownedOs_;
    std::unique_ptr<nsc::Machine> ownedMachine_;

  public:
    os::SimOS &os;
    nsc::Machine &machine;
    alloc::AffinityAllocator allocator;
    nsc::StreamExecutor exec;
    /** Enabled instruments, or null when RunConfig::obs is all-off. */
    std::unique_ptr<obs::Observer> observer;
    /** Tenant identity, or null for a classic whole-machine run. */
    TenantBinding *tenant = nullptr;

    explicit RunContext(const RunConfig &rc)
        : config(rc),
          ownedOs_(std::make_unique<os::SimOS>(rc.machine, rc.heapPolicy)),
          ownedMachine_(
              std::make_unique<nsc::Machine>(rc.machine, *ownedOs_)),
          os(*ownedOs_), machine(*ownedMachine_),
          allocator(machine, rc.allocOpts), exec(machine, rc.mode)
    {
        if (config.obs.any()) {
            observer = std::make_unique<obs::Observer>(config.obs);
            machine.attachObserver(observer.get());
            allocator.setExplainer(observer->explainer());
        }
    }

    /**
     * Tenant mode: run on a machine owned by the co-run scheduler.
     * @p rc.allocOpts must carry the tenant's arena and the shared
     * load board; @p rc.machine is ignored for construction (the
     * shared machine's config wins) but kept for energy reporting.
     */
    RunContext(const RunConfig &rc, nsc::Machine &shared_machine,
               TenantBinding *binding)
        : config(rc), os(shared_machine.simOs()), machine(shared_machine),
          allocator(machine, rc.allocOpts), exec(machine, rc.mode),
          tenant(binding)
    {
        if (obs::Observer *o = machine.observer())
            allocator.setExplainer(o->explainer());
    }

    /** Whether streams offload to L3 in this run. */
    bool offloaded() const { return config.mode != ExecMode::inCore; }
    /** Whether the affinity allocator drives layout in this run. */
    bool affinity() const { return config.mode == ExecMode::affAlloc; }

    /** Package the machine's final state into a result record. */
    RunResult
    finish(const std::string &workload, bool valid)
    {
        RunResult r;
        r.workload = workload;
        r.label = execModeName(config.mode);
        r.mode = config.mode;
        if (tenant) {
            // Attribute the still-unaccounted tail of the current
            // quantum, then report only this tenant's share. The
            // folded snapshot keeps the scheduler's own accounting
            // consistent when it attributes at the next switch.
            tenant->attributed += machine.stats() -
                                  tenant->resumeSnapshot;
            tenant->resumeSnapshot = machine.stats();
            tenant->finishCycle = tenant->lastEpochCycle
                                      ? tenant->lastEpochCycle
                                      : machine.now();
            r.stats = tenant->attributed;
            // The shared clock advanced for every tenant; this
            // tenant's cycle share is the epochs it executed.
            r.workload = workload;
        } else {
            r.stats = machine.stats();
            r.timeline = machine.timeline();
        }
        r.joules =
            sim::EnergyModel(machine.config()).totalJoules(r.stats);
        r.l3MissRate = r.stats.l3MissRate();
        r.nocUtilization = machine.nocUtilization();
        r.valid = valid;
        r.placementDigest = allocator.placementDigest();
        // Host-side memory telemetry: this run's arena pool footprint
        // high-watermark, plus a fresh RSS sample at run teardown.
        prof::noteArenaFootprint(allocator.arena(),
                                 allocator.footprintBytes());
        prof::rssEpochTick();
        if (observer) {
            if (obs::SpatialMetrics *m = observer->metrics()) {
                m->setLinkFlits(machine.network().lifetimeLinkFlits(),
                                machine.network().mesh().numLinks());
                r.obsSnapshot = m->snapshot();
            }
            // Flush file-backed instruments now so an I/O error fails
            // the run instead of being swallowed at destruction.
            observer->closeOutputs();
        }
        return r;
    }
};

} // namespace affalloc::workloads

#endif // AFFALLOC_WORKLOADS_RUN_CONTEXT_HH
