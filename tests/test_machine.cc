#include <gtest/gtest.h>

#include <vector>

#include "mem/address.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

#include "test_helpers.hh"

using namespace affalloc;
using test::MachineFixture;

TEST(Machine, BankLookupThroughPools)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const auto *info = f.allocator->arrayInfo(p);
    ASSERT_NE(info, nullptr);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(f.machine->bankOfSim(info->simBase + i * 64), BankId(i));
    EXPECT_EQ(f.machine->bankOfHost(p), 0u);
}

TEST(Machine, CoreAccessColdMissGoesToDram)
{
    MachineFixture f;
    void *p = f.allocator->allocPlain(4096);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->beginEpoch();
    const auto out = f.machine->coreAccess(0, sim, 4, AccessType::read);
    EXPECT_EQ(out.servedBy, 4); // DRAM
    EXPECT_EQ(f.machine->stats().l1Misses, 1u);
    EXPECT_EQ(f.machine->stats().l3Misses, 1u);
    EXPECT_EQ(f.machine->stats().dramAccesses, 1u);
    // Second access hits L1.
    const auto out2 = f.machine->coreAccess(0, sim, 4, AccessType::read);
    EXPECT_EQ(out2.servedBy, 1);
    EXPECT_EQ(out2.latency, f.cfg.l1Latency);
}

TEST(Machine, CoreAccessL3HitAfterPreload)
{
    MachineFixture f;
    void *p = f.allocator->allocPlain(4096);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 4096);
    f.machine->beginEpoch();
    const auto out = f.machine->coreAccess(1, sim, 4, AccessType::read);
    EXPECT_EQ(out.servedBy, 3);
    EXPECT_EQ(f.machine->stats().dramAccesses, 0u);
}

TEST(Machine, PreloadChargesNothing)
{
    MachineFixture f;
    void *p = f.allocator->allocPlain(1 << 16);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 1 << 16);
    EXPECT_EQ(f.machine->stats().l3Accesses, 0u);
    EXPECT_EQ(f.machine->stats().cycles, 0u);
}

TEST(Machine, StreamAccessLocalVersusRemote)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 64 * 64);
    f.machine->beginEpoch();
    // Local access: line 0 homed at bank 0, requested from bank 0.
    const auto snap = f.machine->stats();
    f.machine->l3StreamAccess(0, sim, 64, AccessType::read);
    auto delta = f.machine->stats() - snap;
    EXPECT_EQ(delta.totalHops(), 0u);
    EXPECT_EQ(delta.l3Accesses, 1u);
    // Remote: line 5 homed at bank 5, requested from bank 0:
    // request + data response over 5 hops each.
    const auto snap2 = f.machine->stats();
    f.machine->l3StreamAccess(0, sim + 5 * 64, 64, AccessType::read);
    delta = f.machine->stats() - snap2;
    EXPECT_EQ(delta.hops[int(TrafficClass::control)], 5u);
    EXPECT_EQ(delta.hops[int(TrafficClass::data)], 5u);
}

TEST(Machine, AtomicStreamAccessCountsAtomics)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(4096, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 4096);
    f.machine->beginEpoch();
    f.machine->l3StreamAccess(3, sim, 8, AccessType::atomic);
    EXPECT_EQ(f.machine->stats().atomicOps, 1u);
    const auto dur = f.machine->endEpoch();
    EXPECT_GT(dur, 0u);
    // Timeline recorded the atomic at bank 0.
    ASSERT_EQ(f.machine->timeline().size(), 1u);
    EXPECT_EQ(f.machine->timeline().at(0).atomicStreamsPerBank[0], 1u);
}

TEST(Machine, EpochDurationTracksBottleneck)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(1 << 16, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 1 << 16);

    // Few accesses: duration is close to the overhead floor.
    f.machine->beginEpoch();
    f.machine->l3StreamAccess(0, sim, 64, AccessType::read);
    const Cycles small = f.machine->endEpoch();

    // Hammer one bank: duration grows with bank occupancy.
    f.machine->beginEpoch();
    for (int i = 0; i < 5000; ++i)
        f.machine->l3StreamAccess(0, sim, 64, AccessType::read);
    const Cycles big = f.machine->endEpoch();
    EXPECT_GT(big, small + 500);
}

TEST(Machine, LatencyFloorDominatesWhenSerial)
{
    MachineFixture f;
    f.machine->beginEpoch();
    const Cycles dur = f.machine->endEpoch(50000.0);
    EXPECT_GE(dur, 50000u);
}

TEST(Machine, ForwardAndOffloadPrimitives)
{
    MachineFixture f;
    f.machine->beginEpoch();
    f.machine->forwardData(0, 1, 64);
    f.machine->migrateStream(1, 2);
    f.machine->configStream(0, 5);
    f.machine->creditMessage(0, 5);
    const auto &s = f.machine->stats();
    EXPECT_EQ(s.messages[int(TrafficClass::data)], 1u);
    EXPECT_EQ(s.messages[int(TrafficClass::offload)], 2u);
    EXPECT_EQ(s.messages[int(TrafficClass::control)], 1u);
    EXPECT_EQ(s.streamMigrations, 1u);
    EXPECT_EQ(s.streamConfigs, 1u);
}

TEST(Machine, ComputePrimitivesSplitCoreAndSe)
{
    MachineFixture f;
    f.machine->beginEpoch();
    f.machine->coreCompute(0, 100.0);
    f.machine->seCompute(3, 200.0);
    EXPECT_EQ(f.machine->stats().coreOps, 100u);
    EXPECT_EQ(f.machine->stats().seOps, 200u);
}

TEST(Machine, NocUtilizationBounded)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(1 << 14, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->preloadL3Range(sim, 1 << 14);
    f.machine->beginEpoch();
    for (int i = 0; i < 256; ++i)
        f.machine->l3StreamAccess(63, sim + (i % 256) * 64, 64,
                                  AccessType::read);
    f.machine->endEpoch();
    const double util = f.machine->nocUtilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(Machine, DirtyL3EvictionsWriteBack)
{
    MachineFixture f;
    // Write 3 MB through one bank's slice of a 64 B-interleaved pool:
    // bank 0's share (~48 KB... need > 1 MB per bank) - use a large
    // region so bank 0 receives > its 1 MB capacity in dirty lines.
    const std::uint64_t bytes = 128ull << 20; // 2 MB per bank
    void *p = f.allocator->allocInterleaved(bytes, 64, 0);
    const Addr sim = f.machine->addressSpace().simAddrOf(p);
    f.machine->beginEpoch();
    for (Addr a = 0; a < bytes; a += 64 * 64) // bank 0 lines only
        f.machine->l3StreamAccess(0, sim + a, 64, AccessType::write);
    f.machine->endEpoch();
    const auto &s = f.machine->stats();
    EXPECT_GT(s.dramBytes, 0u);
    EXPECT_GT(s.l3Misses, 0u);
}

// ------------------------------------------------------ aborted epochs

namespace
{

/** Lines abortableWork() reads: twice the L1, well within the L2. */
constexpr Addr abortableLines = 1024;
/** Pages it touches with atomics: twice the L1 TLB's 64 entries. */
constexpr Addr abortablePages = 128;

/**
 * Every registered Stats counter of @p a equals @p b's. Compared one
 * by one: the digest's additive fold can cancel two counters that
 * move by the same power of two.
 */
void
expectSameStats(const sim::Stats &a, const sim::Stats &b)
{
    for (const sim::CounterRef &c : sim::statsCounters())
        EXPECT_EQ(c.get(a), c.get(b)) << c.name;
}

/** Index @p i of a walk up [0, n) and back down. */
Addr
upAndDown(Addr i, Addr n)
{
    return i < n ? i : 2 * n - 1 - i;
}

/**
 * Core reads, core atomics (which skip the L1/L2 and translate through
 * the core TLBs) and a remote stream write. Reads and atomics walk up
 * and back down, so a rerun starts on what the L1 and the L1 TLB hold.
 */
void
abortableWork(nsc::Machine &m, Addr sim)
{
    for (Addr i = 0; i < 2 * abortableLines; ++i)
        m.coreAccess(0, sim + upAndDown(i, abortableLines) * 64, 64,
                     AccessType::read);
    for (Addr i = 0; i < 2 * abortablePages; ++i)
        m.coreAccess(0, sim + upAndDown(i, abortablePages) * mem::pageSize,
                     8, AccessType::atomic);
    m.l3StreamAccess(5, sim, 512, AccessType::write);
}

} // namespace

TEST(MachineEpoch, AbortRewindsStatsExactly)
{
    // Degraded links put degraded-link flits among the rewound Stats.
    sim::MachineConfig cfg;
    cfg.faults.degradedLinks = 8;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});
    const Addr sim = machine.addressSpace().simAddrOf(
        allocator.allocPlain(abortablePages * mem::pageSize));

    const sim::Stats pre = machine.stats();
    machine.beginEpoch();
    abortableWork(machine, sim);
    EXPECT_GT(machine.stats().l3Misses, pre.l3Misses);
    machine.abortEpoch();

    sim::Stats post = machine.stats();
    EXPECT_EQ(post.abortedEpochs, pre.abortedEpochs + 1);
    post.abortedEpochs = pre.abortedEpochs;
    expectSameStats(post, pre);
    EXPECT_FALSE(machine.inEpoch());
}

TEST(MachineEpoch, AbortKeepsCacheStateAndLifetimeFlits)
{
    // Only Stats and the per-epoch occupancy rewind: the caches, TLBs
    // and lifetime link counters end where the committed epoch leaves
    // them, so a follow-up epoch of the same work charges the same.
    struct Outcome
    {
        std::vector<mem::CacheModel> l3;
        std::vector<std::uint64_t> lifetimeLinkFlits;
        sim::Stats followUp;
    };
    const auto run = [](bool abort) {
        sim::MachineConfig cfg;
        os::SimOS sim_os(cfg);
        nsc::Machine m(cfg, sim_os);
        alloc::AffinityAllocator allocator(m, {});
        const Addr sim = m.addressSpace().simAddrOf(
            allocator.allocPlain(abortablePages * mem::pageSize));
        m.beginEpoch();
        abortableWork(m, sim);
        if (abort)
            m.abortEpoch();
        else
            m.endEpoch();
        Outcome o;
        for (BankId b = 0; b < cfg.numBanks(); ++b)
            o.l3.push_back(m.l3Bank(b));
        o.lifetimeLinkFlits = m.network().lifetimeLinkFlits();
        const sim::Stats before = m.stats();
        m.beginEpoch();
        abortableWork(m, sim);
        m.endEpoch();
        o.followUp = m.stats() - before;
        return o;
    };
    const Outcome committed = run(false);
    const Outcome aborted = run(true);
    for (std::size_t b = 0; b < committed.l3.size(); ++b)
        EXPECT_TRUE(aborted.l3[b] == committed.l3[b]) << "L3 bank " << b;
    std::uint64_t flits = 0;
    for (const std::uint64_t f : committed.lifetimeLinkFlits)
        flits += f;
    EXPECT_GT(flits, 0u);
    EXPECT_EQ(aborted.lifetimeLinkFlits, committed.lifetimeLinkFlits);
    expectSameStats(aborted.followUp, committed.followUp);
}
