/**
 * @file
 * Event log for shard-parallel epoch replay. In a deferred epoch the
 * workload body runs serially in *record* mode: all control flow,
 * RNG draws, host-data mutation, translation and core-private cache
 * state advance exactly as in the classic simulator, while the
 * bank-owned and order-free work (L3 probes, SE-TLB probes, NoC
 * traffic, DRAM accesses, core MLP penalties) is appended here as
 * compact events. endEpoch() then replays the per-bank queues on the
 * worker pool — each worker owns a contiguous bank shard, so every
 * cache/TLB model is mutated by exactly one thread, in the serial
 * program order projected onto that bank — followed by a second wave
 * that replays per-core busy charges (which need the probe hit/miss
 * results of wave one). The result is bit-identical to classic serial
 * execution at any thread count; see DESIGN.md §17.
 */

#ifndef AFFALLOC_NSC_EPOCH_LOG_HH
#define AFFALLOC_NSC_EPOCH_LOG_HH

#include <cstdint>
#include <vector>

#include "noc/network.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace affalloc::nsc
{

/**
 * One deferred event in a bank's replay queue. A queue entry either
 * probes the owning bank's L3, probes its SE TLB, or carries one NoC
 * message whose link charges this worker will account (the message's
 * endpoints may be any tiles — flit counters are integers, so it only
 * matters that exactly one worker charges it).
 */
struct BankEvent
{
    enum Kind : std::uint8_t
    {
        /** L3 probe at the owning bank; addr = physical line. */
        l3Probe,
        /** SE TLB probe at the owning bank; addr = virtual page. */
        seTlbProbe,
        /** One NoC message src -> dst of arg payload bytes. */
        netSend,
    };
    /** Bit in flags: the l3Probe is a write. */
    static constexpr std::uint8_t probeWrite = 1;

    Addr addr = 0;
    /** l3Probe: missCycles slot; netSend: payload bytes. */
    std::uint32_t arg = 0;
    /** netSend route endpoints (tile ids). */
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
    std::uint8_t kind = l3Probe;
    /** l3Probe: probeWrite bit; netSend: TrafficClass. */
    std::uint8_t flags = 0;
};

/**
 * One deferred busy charge in a core's replay queue, replayed in
 * record order so the floating-point accumulation matches classic
 * execution exactly.
 */
struct CoreEvent
{
    enum Kind : std::uint8_t
    {
        /** coreBusy += bit_cast<double>(a); amount fixed at record. */
        constBusy,
        /**
         * The irregular-access MLP penalty: coreBusy +=
         * double(a + missCycles[slot]) / coreMaxMlp, where wave one
         * stored the probe's miss latency (0 on a hit) at `slot`.
         * Both operands are integer cycle counts, so the conversion
         * and division reproduce the classic charge bit-exactly.
         */
        mlpPenalty,
    };

    /** constBusy: bit-cast double; mlpPenalty: latency cycles without
     *  the probe's miss latency. */
    std::uint64_t a = 0;
    /** mlpPenalty: index into EpochLog::missCycles. */
    std::uint32_t slot = 0;
    std::uint8_t kind = constBusy;
};

/** All deferred events of one epoch. */
struct EpochLog
{
    /** Per-bank replay queues (index == owning bank id). */
    std::vector<std::vector<BankEvent>> bank;
    /** Per-core replay queues (index == core id). */
    std::vector<std::vector<CoreEvent>> core;
    /** Probe miss latencies (0 on a hit), filled by wave one, read by
     *  wave two. */
    std::vector<std::uint32_t> missCycles;
    /** Probe slots allocated so far this epoch. */
    std::uint32_t numSlots = 0;

    void
    init(std::uint32_t banks, std::uint32_t cores)
    {
        bank.resize(banks);
        core.resize(cores);
    }

    /** Drop the epoch's events, keeping queue capacity warm. */
    void
    clear()
    {
        for (auto &q : bank)
            q.clear();
        for (auto &q : core)
            q.clear();
        numSlots = 0;
    }
};

/**
 * One replay worker's private accumulators, folded into the shared
 * machine state in fixed worker order at the epoch barrier. All
 * integer counters, so the fold is exact.
 */
struct ReplayDelta
{
    sim::Stats stats;
    noc::NetDelta net;
    /** Deferred DRAM accesses per channel (Dram::chargeDeferred). */
    std::vector<std::uint64_t> dramChannel;

    void
    reset(std::size_t net_pairs, std::uint32_t channels)
    {
        stats = sim::Stats{};
        net.reset(net_pairs);
        dramChannel.assign(channels, 0);
    }
};

} // namespace affalloc::nsc

#endif // AFFALLOC_NSC_EPOCH_LOG_HH
