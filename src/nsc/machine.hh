/**
 * @file
 * The simulated machine: one object aggregating the mesh network, the
 * NUCA L3, the private-cache filters, DRAM, and the OS-owned address
 * translation / IOT. It exposes the *event primitives* that workload
 * models call (core accesses, stream accesses, forwards, migrations,
 * atomics) and an epoch-based timing model that converts per-resource
 * occupancy into simulated cycles.
 *
 * Timing model: work proceeds in epochs. Every event charges occupancy
 * to the resources it uses (L3 banks, SE compute threads, cores, NoC
 * links, DRAM channels). An epoch's duration is the maximum occupancy
 * over all resources (the bottleneck), floored by the caller-supplied
 * critical-path latency (serial dependence chains such as pointer
 * chasing). This reproduces bandwidth bottlenecks, bank load imbalance
 * and latency-bound behaviour with one mechanism.
 */

#ifndef AFFALLOC_NSC_MACHINE_HH
#define AFFALLOC_NSC_MACHINE_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "mem/address_space.hh"
#include "mem/bank_mapper.hh"
#include "mem/cache_model.hh"
#include "mem/dram.hh"
#include "noc/network.hh"
#include "nsc/epoch_log.hh"
#include "obs/observer.hh"
#include "os/sim_os.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "sim/worker_pool.hh"

namespace affalloc::nsc
{

/** Tunable event costs of the timing model. */
struct TimingParams
{
    /** L3 bank occupancy per line access (pipelined tag+data). */
    double l3ServiceCycles = 0.5;
    /** Extra L3 bank occupancy for an atomic RMW (serializes). */
    double atomicExtraCycles = 0.5;
    /** Core occupancy per issued memory instruction. */
    double coreIssueCycles = 0.5;
    /** Flops retired per cycle by a core (SIMD FMA throughput). */
    double coreFlopsPerCycle = 32.0;
    /** Flops retired per cycle by a near-stream SMT compute thread. */
    double seFlopsPerCycle = 32.0;
    /** Control message payload bytes (requests, credits). */
    std::uint32_t controlBytes = 16;
    /** Stream migration message payload bytes. */
    std::uint32_t migrateBytes = 64;
    /** Stream configuration message payload bytes. */
    std::uint32_t configBytes = 96;
    /** Fixed per-epoch overhead (sync, credit turnaround). */
    double epochOverheadCycles = 64.0;
    /** Max memory-level parallelism of one core (ROB/LQ bound). */
    double coreMaxMlp = 12.0;

    /**
     * Reject non-positive rates/costs that would silently produce
     * zero or negative epoch durations; fatal() with a clear message.
     */
    void validate() const;
};

/**
 * What happened on a simulated memory access (for callers/tests).
 * Inside a deferred epoch (see Machine::beginEpoch) the L3 probes and
 * SE-TLB lookups run only at replay, after the call returns: `bank`
 * and the L1/L2 levels of `servedBy` stay exact, but `servedBy`
 * reports 3 for every access that reached the L3, and `latency`
 * leaves out the L3-miss round trip to DRAM and the SE-TLB latency.
 */
struct AccessOutcome
{
    /** Total unloaded latency of the access. */
    Cycles latency = 0;
    /** Level that served it: 1/2/3 = cache level, 4 = DRAM. */
    int servedBy = 3;
    /** Home bank of the line. */
    BankId bank = 0;
};

/**
 * The machine. Constructed per experiment run; owns all hardware
 * state and statistics. Workload models drive it through the event
 * primitives, bracketed by beginEpoch()/endEpoch().
 */
class Machine
{
  public:
    /** Build a machine over a booted OS. */
    Machine(const sim::MachineConfig &cfg, os::SimOS &os,
            TimingParams tp = TimingParams{});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // --------------------------------------------------------- accessors
    const sim::MachineConfig &config() const { return cfg_; }
    const TimingParams &timing() const { return tp_; }
    sim::Stats &stats() { return stats_; }
    const sim::Stats &stats() const { return stats_; }
    noc::Network &network() { return net_; }
    os::SimOS &simOs() { return os_; }
    mem::AddressSpace &addressSpace() { return addrSpace_; }
    const sim::Timeline &timeline() const { return timeline_; }
    sim::Timeline &timeline() { return timeline_; }
    Cycles now() const { return stats_.cycles; }

    // ------------------------------------------------------ observability
    /**
     * Attach an observability aggregate (not owned; must outlive the
     * machine or be detached with attachObserver(nullptr)). Sizes the
     * spatial-metrics registry for this machine's mesh. Observe-only:
     * attaching changes no simulated behaviour (digest-neutral).
     */
    void attachObserver(obs::Observer *o);
    /** The attached observer, or nullptr (disabled). */
    obs::Observer *observer() { return obs_; }
    /** The attached tracer, or nullptr (hot paths branch on this). */
    obs::ChromeTracer *tracer() { return tracer_; }
    /** The attached metrics registry, or nullptr. */
    obs::SpatialMetrics *metrics() { return metrics_; }

    // ----------------------------------------------------------- simcheck
    /** Invariant-check registry; components register in their ctors. */
    simcheck::Auditor &auditor() { return auditor_; }
    const simcheck::Auditor &auditor() const { return auditor_; }
    /** Run every registered audit now; throws AuditError on violation. */
    void audit() const { auditor_.runAll(); }

    // ------------------------------------------------------ bank lookup
    /** Home bank of a simulated virtual address. */
    BankId
    bankOfSim(Addr vaddr) const
    {
        return mapper_.bankOf(os_.pageTable().translate(vaddr));
    }
    /** Home bank of a registered host pointer. */
    BankId bankOfHost(const void *p) const;
    /** Mesh tile hosting bank @p b (per the numbering scheme). */
    TileId tileOfBank(BankId b) const { return bankTile_[b]; }
    /** Manhattan distance in hops between two banks' tiles. */
    std::uint32_t
    hopsBetween(BankId a, BankId b) const
    {
        return net_.mesh().distance(bankTile_[a], bankTile_[b]);
    }

    // ---------------------------------------------- faults / degradation
    /** The machine's fault plan (owned by the OS). */
    sim::FaultPlan &faultPlan() { return os_.faultPlan(); }
    const sim::FaultPlan &faultPlan() const { return os_.faultPlan(); }
    /** Whether bank @p b is alive under the fault plan. */
    bool bankLive(BankId b) const { return os_.faultPlan().bankLive(b); }
    /**
     * Dynamically mark bank @p b offline (mid-run fault injection):
     * its cached lines are lost (the bank model resets) and future
     * lines homed there are served by its spare.
     */
    void injectBankFault(BankId b);
    /**
     * Dynamically degrade directed link @p link to @p factor x flit
     * occupancy (mid-run fault injection); routes through the fault
     * plan, which every subsequent link charge consults.
     */
    void injectLinkDegrade(std::uint32_t link, std::uint32_t factor);
    /**
     * Dynamically set the offload NACK rate to @p permille / 1000
     * (mid-run nackStorm event; 0 ends the storm). Every subsequent
     * stream configuration draws against the new rate.
     */
    void injectNackStorm(std::uint32_t permille);
    /**
     * Advance the shared clock by @p cycles with the machine idle —
     * the open-system front-end uses this to fast-forward between a
     * drained machine and the next request arrival or fault event.
     * Pure time: no occupancy, traffic, or energy is charged.
     */
    void advanceIdle(Cycles cycles);
    /**
     * Model one NACKed offload attempt: the rejected configuration
     * message plus the NACK response. Returns the round-trip latency
     * (the stream engine's retry backoff is added by the caller).
     */
    Cycles offloadNack(CoreId core, BankId bank);

    // ------------------------------------------------- epoch life-cycle
    /**
     * Start a new epoch: clears per-epoch occupancy.
     *
     * @param deferrable the epoch body tolerates deferred execution:
     *        it never reads AccessOutcome latencies or servedBy levels
     *        from inside the epoch (the bulk affine/graph kernels —
     *        pointer chasing, which feeds latencies back into its
     *        floor, must stay classic). With cfg.simThreads > 1 such
     *        an epoch records bank-owned work into an event log that
     *        endEpoch() replays shard-parallel; results are
     *        bit-identical to the serial simulator either way.
     */
    void beginEpoch(bool deferrable = false);
    /** Whether the open epoch is recording for parallel replay. */
    bool epochDeferred() const { return deferActive_; }
    /**
     * Close the epoch: duration = max(resource occupancy,
     * latency_floor) + fixed overhead. Advances simulated time,
     * records the timeline sample, and returns the duration.
     */
    Cycles endEpoch(double latency_floor = 0.0,
                    const std::string &phase = "");
    /**
     * Abandon an epoch after an error was thrown mid-epoch: restores
     * the Stats counters to their beginEpoch() snapshot and clears
     * all per-epoch occupancy, so a caught PanicError does not leave
     * stale link/DRAM/bank state corrupting the next run's timing.
     * Counts into Stats::abortedEpochs. A no-op when no epoch is open
     * (the error unwound from between epochs), so error paths can call
     * it unconditionally.
     */
    void abortEpoch();
    /** Whether a beginEpoch() is open (no endEpoch()/abortEpoch() yet). */
    bool inEpoch() const { return inEpoch_; }

    // ------------------------------------------------- traffic classes
    /**
     * Declare which agent class the *currently executing* agent
     * belongs to. The tenant scheduler calls this at every quantum
     * grant; everything charged to Stats until the next call is
     * attributed to this class (per-class side counters, outside the
     * digest). Also refreshes the arbitration scale applied to bank
     * and link occupancy in endEpoch(). Defaults to AgentClass::ndc,
     * and with a single present class the scale is exactly 1.0, so
     * classic runs are untouched.
     */
    void setActiveClass(AgentClass c);
    /** The class charged for current activity. */
    AgentClass activeClass() const { return activeClass_; }
    /**
     * Declare the set of classes sharing the machine this run, as a
     * bit mask over AgentClass values. Arbitration (partition /
     * priority scaling) only engages between *present* classes, so a
     * mask with one bit set always yields scale 1.0.
     */
    void setPresentClasses(std::uint32_t mask);
    /** Exact per-class slice of the global Stats (side counters). */
    const sim::Stats &classStats(AgentClass c) const
    {
        return classStats_[static_cast<int>(c)];
    }

    /**
     * A DMA/NIC-style I/O write of @p bytes at @p vaddr injected at
     * mesh tile @p ingress (no core, no TLB charge — device-side
     * IOMMU translation is off the critical path). Where the data
     * lands follows cfg.llcIoPolicy: ddio allocates freely into the
     * home L3 bank, wayRestrict confines allocation to cfg.llcIoWays
     * ways per set, bypass sends the line straight to DRAM. Returns
     * the injection latency. Not supported inside deferred epochs
     * (I/O injector epochs are classic).
     */
    Cycles ioWrite(TileId ingress, Addr vaddr, std::uint32_t bytes);

    /**
     * Hook invoked at the very end of every endEpoch() (after the
     * audit). The tenant scheduler uses this as its preemption point:
     * the hook may block the calling logical thread while other
     * tenants advance the same machine. Null (the default) costs one
     * never-taken branch; installing a hook changes no timing and is
     * digest-neutral when the hook itself mutates nothing.
     */
    void setEpochHook(std::function<void()> hook)
    {
        epochHook_ = std::move(hook);
    }

    // ----------------------------------------------- in-core primitives
    /**
     * A load/store/atomic executed by core @p core on simulated
     * address @p vaddr. Walks L1 -> L2 -> L3 -> DRAM, generating NoC
     * traffic and occupancy along the way. Spans lines if needed.
     *
     * @param prefetch_friendly sequential/strided accesses covered by
     *        the L1/L2 prefetchers (Table 2): their miss latency is
     *        hidden, so only issue bandwidth is charged. Irregular
     *        accesses instead charge latency divided by the core's
     *        maximum memory-level parallelism (ROB/LQ bound).
     */
    AccessOutcome coreAccess(CoreId core, Addr vaddr, std::uint32_t bytes,
                             AccessType type,
                             bool prefetch_friendly = false);

    /** Charge @p flops of computation to core @p core. */
    void coreCompute(CoreId core, double flops);

    // -------------------------------------------- near-stream primitives
    /**
     * A stream-engine access issued from bank @p requester to the
     * home bank of @p vaddr. Local when the line is homed at the
     * requester (the affinity-alloc goal); otherwise a remote
     * (indirect) request/response pair is modeled. Misses go to DRAM.
     */
    AccessOutcome l3StreamAccess(BankId requester, Addr vaddr,
                                 std::uint32_t bytes, AccessType type);

    /** Forward @p bytes of operand data from one bank to another. */
    Cycles forwardData(BankId from, BankId to, std::uint32_t bytes);

    /** Migrate a stream context between banks (offload traffic). */
    Cycles migrateStream(BankId from, BankId to);

    /** Configure (offload) a stream from a core to its first bank. */
    Cycles configStream(CoreId core, BankId first_bank);

    /** Coarse-grained credit/sync control message core <-> bank. */
    void creditMessage(CoreId core, BankId bank);

    /** Charge @p flops of near-stream compute to @p bank's SE thread. */
    void seCompute(BankId bank, double flops);

    /** Record one active atomic stream at @p bank for the timeline. */
    void noteAtomicStream(BankId bank);

    // -------------------------------------------------------- utilization
    /** Average NoC link utilization over the whole run, in [0,1]. */
    double nocUtilization() const;

    /** Resident lines currently tracked in bank @p b (tests). */
    const mem::CacheModel &l3Bank(BankId b) const { return l3Banks_.at(b); }

    /** Flush all private caches (phase boundaries between kernels). */
    void flushPrivateCaches();

    /**
     * Warm the L3 with a simulated range without charging stats or
     * occupancy (steady-state experiments skip cold-start DRAM).
     */
    void preloadL3Range(Addr sim_base, std::uint64_t bytes);

    /**
     * Fetch the host copy of the L3 tag set that a later probe of
     * @p vaddr's line will read. Changes no simulated state, so it can
     * never move a digest; a no-op in deferred epochs, whose probes
     * run later at replay.
     */
    void
    prefetchL3(Addr vaddr) const
    {
        if (deferActive_)
            return;
        const Addr paddr = os_.pageTable().translate(vaddr);
        l3Banks_[mapper_.bankOf(paddr)].prefetch(paddr / cfg_.lineSize);
    }

  private:
    /**
     * The access paths are written once, as templates over an event
     * sink that takes every bank-side charge: InlineSink applies it at
     * once (classic epochs), RecordSink appends it to the EpochLog for
     * shard-parallel replay (deferred epochs). Bank and SE busy time
     * is charged inline in both, in program order. An L3 probe counts
     * into InlineSink (the live stats_/net_/dram_) or, at replay, into
     * DeltaCounters (one worker's ReplayDelta).
     */
    struct InlineSink;
    struct RecordSink;
    struct DeltaCounters;

    /** One L3 probe as its sink reports it. */
    struct Probe
    {
        /** Hit at the home bank (a recorded probe reports a hit). */
        bool hit = true;
        /** Miss latency beyond the bank access (0 when recorded). */
        Cycles extra = 0;
        /** Recorded probe: its slot in EpochLog::missCycles. */
        std::uint32_t slot = 0;
    };

    /** Call @p body with the sink deferActive_ selects. */
    template <class Body>
    decltype(auto) withSink(Body &&body);

    template <class Sink>
    AccessOutcome coreAccessVia(Sink &sink, CoreId core, Addr vaddr,
                                std::uint32_t bytes, AccessType type,
                                bool prefetch_friendly);
    template <class Sink>
    AccessOutcome l3StreamAccessVia(Sink &sink, BankId requester,
                                    Addr vaddr, std::uint32_t bytes,
                                    AccessType type);

    /**
     * Send one message; a deferred epoch queues it on @p queue_bank's
     * replay queue. Returns its unloaded latency.
     */
    Cycles send(BankId queue_bank, TileId src, TileId dst,
                std::uint32_t bytes, TrafficClass tc);

    /**
     * Probe L3 at the line's home bank; on miss fetch from DRAM
     * (request + response messages, channel occupancy, writebacks),
     * all counted into @p to. The bank busy charge is the caller's.
     */
    template <class Counters>
    Probe probeL3Line(BankId home, Addr pline, bool is_write,
                      Counters &to);
    /** Send dirty L3 victim @p victim to its DRAM channel. */
    template <class Counters>
    void writeBackL3Victim(BankId home, Addr victim, Counters &to);

    /**
     * Core-side address translation: L1 dTLB -> L2 TLB -> page walk
     * (Table 2 latencies). Returns the added translation latency.
     */
    Cycles coreTranslate(CoreId core, Addr vaddr);

    /**
     * Look @p vpage up in bank @p bank's stream-engine TLB, counting
     * into @p s. Returns the added translation latency.
     */
    Cycles seTlbProbe(BankId bank, Addr vpage, sim::Stats &s);

    /** Busy charges funnel through these to keep running maxima. */
    void
    chargeBankBusy(BankId b, double cycles)
    {
        const double v = (bankBusy_[b] += cycles);
        if (v > bankBusyMax_)
            bankBusyMax_ = v;
    }
    void
    chargeCoreBusy(CoreId c, double cycles)
    {
        const double v = (coreBusy_[c] += cycles);
        if (v > coreBusyMax_)
            coreBusyMax_ = v;
    }
    void
    chargeSeBusy(BankId b, double cycles)
    {
        const double v = (seBusy_[b] += cycles);
        if (v > seBusyMax_)
            seBusyMax_ = v;
    }

    // ------------------------------------- deferred (parallel) epochs
    /** Replay one bank's queue into @p d (wave one; worker thread). */
    void replayBankEvents(BankId b, ReplayDelta &d);
    /** Replay one core's busy queue (wave two; worker thread). */
    void replayCoreEvents(CoreId c);
    /**
     * Run both replay waves on the worker pool and fold the deltas in
     * fixed worker order. @p commit false (abortEpoch) still replays
     * wave one — cache/TLB state and lifetime NoC counters must end
     * exactly where classic inline execution would have left them —
     * but skips the wave-two busy charges the abort wipes anyway.
     */
    void replayDeferred(bool commit);

    /**
     * Recompute the arbitration occupancy scale for the active class
     * from the configured mode, the per-class shares, and the set of
     * present classes. 1.0 whenever arbitration is off or the active
     * class runs alone.
     */
    void refreshArbScale();

    /** SimCheck audit: every cache model's internal consistency. */
    void auditCaches(simcheck::CheckContext &ctx) const;
    /**
     * SimCheck audit: bank-mapper <-> IOT <-> page-table
     * cross-consistency — sampled pool and page-at-bank pages must be
     * mapped where the OS placed them, covered by an IOT entry with
     * the pool's interleaving, and homed at the bank Eq. 1 predicts
     * (modulo fault-plan spare redirection).
     */
    void auditMapping(simcheck::CheckContext &ctx) const;

    sim::MachineConfig cfg_;
    TimingParams tp_;
    os::SimOS &os_;
    sim::Stats stats_;
    noc::Network net_;
    mem::BankMapper mapper_;
    mem::Dram dram_;
    mem::AddressSpace addrSpace_;

    /** Bank id -> tile per the configured numbering scheme. */
    std::vector<TileId> bankTile_;

    std::vector<mem::CacheModel> l3Banks_;
    std::vector<mem::CacheModel> l1_;
    std::vector<mem::CacheModel> l2_;
    // TLBs (Table 2): per-core L1 dTLB + L2 TLB, per-bank SEL3 TLB.
    // Modeled as set-associative tag stores over virtual page numbers.
    std::vector<mem::CacheModel> l1Tlb_;
    std::vector<mem::CacheModel> l2Tlb_;
    std::vector<mem::CacheModel> seTlb_;

    // Per-epoch occupancy (cycles of busy time per resource).
    std::vector<double> bankBusy_;
    std::vector<double> coreBusy_;
    std::vector<double> seBusy_;
    std::vector<std::uint32_t> epochAtomics_;
    // Running maxima over the occupancy vectors, maintained at charge
    // time (occupancy only grows within an epoch) so endEpoch() does
    // not rescan 3 x 64 accumulators per epoch.
    double bankBusyMax_ = 0.0;
    double coreBusyMax_ = 0.0;
    double seBusyMax_ = 0.0;

    /** Whether the open epoch records for shard-parallel replay. */
    bool deferActive_ = false;
    /** Event log for deferred epochs (lazily built; reused). */
    std::unique_ptr<EpochLog> log_;
    /** Persistent replay workers (lazily built on first replay). */
    std::unique_ptr<sim::WorkerPool> pool_;
    /** Per-worker replay accumulators (reused across epochs). */
    std::vector<ReplayDelta> replayDeltas_;
    /** Per-channel deferred DRAM access totals (merge scratch). */
    std::vector<std::uint64_t> dramDeferred_;

    // Per-class attribution (side counters; never in the digest).
    /** Class charged for current activity. */
    AgentClass activeClass_ = AgentClass::ndc;
    /** Bit mask of classes sharing the machine this run (bit 0=ndc). */
    std::uint32_t presentClasses_ = 1u << 0;
    /** Occupancy scale applied to bank/link terms for activeClass_. */
    double arbScale_ = 1.0;
    /** Exact per-class slices of stats_ (sum == attributed total). */
    std::array<sim::Stats, numAgentClasses> classStats_;
    /** stats_ snapshot at the last attribution flush. */
    sim::Stats classAttribSnap_;

    /** Stats snapshot taken at beginEpoch() (abortEpoch() restores). */
    sim::Stats epochStartStats_;
    /** Between beginEpoch() and endEpoch()/abortEpoch(). */
    bool inEpoch_ = false;
    /** Host ns at beginEpoch() when the profiler is enabled, else 0.
     *  The record phase spans the whole open epoch, so it cannot be an
     *  RAII scope; endEpoch()/abortEpoch() close it via addTimed(). */
    std::uint64_t epochProfT0_ = 0;

    sim::Timeline timeline_;

    // Observability (all null when no observer is attached).
    obs::Observer *obs_ = nullptr;
    obs::SpatialMetrics *metrics_ = nullptr;
    obs::ChromeTracer *tracer_ = nullptr;

    simcheck::Auditor auditor_;
    simcheck::LivelockWatchdog watchdog_;

    /** Epoch-boundary yield point (tenant scheduler); null = off. */
    std::function<void()> epochHook_;
};

} // namespace affalloc::nsc

#endif // AFFALLOC_NSC_MACHINE_HH
