/**
 * @file
 * Traffic-class subsystem tests: flag-parser rejection, the
 * way-capped cache primitive, the LLC I/O-policy ablation (DDIO vs.
 * way-restricted vs. bypass), per-class stats attribution
 * conservation, class-arbitration scaling, and digest invariance of
 * mixed-class co-runs across rerun and --jobs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "mem/cache_model.hh"
#include "nsc/machine.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "sim/stats.hh"
#include "tenant/scheduler.hh"
#include "traffic/traffic.hh"
#include "workloads/run_context.hh"

using namespace affalloc;
using namespace affalloc::traffic;

// ------------------------------------------------------ flag parsing

namespace
{

/** An agent count as affalloc_cli reads it: 1..64 on the 8x8 mesh. */
std::uint64_t
agentCount(const char *flag, const std::string &text)
{
    return sim::parseCount("traffic", flag, text, 64, 1);
}

} // namespace

TEST(TrafficFlags, AgentCountAcceptsPositiveInRange)
{
    EXPECT_EQ(agentCount("--host-agents", "1"), 1u);
    EXPECT_EQ(agentCount("--host-agents", "64"), 64u);
    EXPECT_EQ(agentCount("--io-streams", "7"), 7u);
}

TEST(TrafficFlags, AgentCountRejectsGarbage)
{
    for (const char *bad : {"", "0", "abc", "4x", "-1", "65", "12345678901"})
        EXPECT_THROW(agentCount("--host-agents", bad), FatalError) << bad;
}

TEST(TrafficFlags, LlcPolicyGrammar)
{
    std::uint32_t ways = 2;
    EXPECT_EQ(parseLlcPolicy("ddio", &ways, 16),
              sim::LlcIoPolicy::ddio);
    EXPECT_EQ(parseLlcPolicy("bypass", &ways, 16),
              sim::LlcIoPolicy::bypass);
    EXPECT_EQ(parseLlcPolicy("way", &ways, 16),
              sim::LlcIoPolicy::wayRestrict);
    EXPECT_EQ(ways, 2u); // bare "way" keeps the configured default
    EXPECT_EQ(parseLlcPolicy("way:4", &ways, 16),
              sim::LlcIoPolicy::wayRestrict);
    EXPECT_EQ(ways, 4u);
}

TEST(TrafficFlags, LlcPolicyRejectsBadValues)
{
    std::uint32_t ways = 2;
    EXPECT_THROW(parseLlcPolicy("junk", &ways, 16), FatalError);
    EXPECT_THROW(parseLlcPolicy("", &ways, 16), FatalError);
    EXPECT_THROW(parseLlcPolicy("way:0", &ways, 16), FatalError);
    // K must leave at least one way for the tenants.
    EXPECT_THROW(parseLlcPolicy("way:16", &ways, 16), FatalError);
    EXPECT_THROW(parseLlcPolicy("way:x", &ways, 16), FatalError);
}

TEST(TrafficFlags, ClassBwGrammar)
{
    const sim::ClassArbConfig none = parseClassBw("none");
    EXPECT_EQ(none.mode, sim::ClassArbMode::none);

    const sim::ClassArbConfig prio = parseClassBw("prio");
    EXPECT_EQ(prio.mode, sim::ClassArbMode::priority);
    EXPECT_DOUBLE_EQ(prio.yieldPenalty, 0.5);
    const sim::ClassArbConfig prio2 = parseClassBw("prio:1.25");
    EXPECT_DOUBLE_EQ(prio2.yieldPenalty, 1.25);

    const sim::ClassArbConfig part = parseClassBw("part:4,2,1");
    EXPECT_EQ(part.mode, sim::ClassArbMode::partition);
    EXPECT_DOUBLE_EQ(part.share[int(AgentClass::ndc)], 4.0);
    EXPECT_DOUBLE_EQ(part.share[int(AgentClass::host)], 2.0);
    EXPECT_DOUBLE_EQ(part.share[int(AgentClass::io)], 1.0);
}

TEST(TrafficFlags, ClassBwRejectsBadValues)
{
    EXPECT_THROW(parseClassBw(""), FatalError);
    EXPECT_THROW(parseClassBw("junk"), FatalError);
    EXPECT_THROW(parseClassBw("prio:-1"), FatalError);
    EXPECT_THROW(parseClassBw("prio:abc"), FatalError);
    EXPECT_THROW(parseClassBw("prio:nan"), FatalError);
    EXPECT_THROW(parseClassBw("part:inf,1,1"), FatalError);
    // Exactly one share per agent class.
    EXPECT_THROW(parseClassBw("part:1,2"), FatalError);
    EXPECT_THROW(parseClassBw("part:1,2,3,4"), FatalError);
    EXPECT_THROW(parseClassBw("part:1,0,1"), FatalError);
    EXPECT_THROW(parseClassBw("part:1,-2,1"), FatalError);
    EXPECT_THROW(parseClassBw("part:1,x,1"), FatalError);
}

// ----------------------------------------------- way-capped primitive

TEST(CappedCache, ProtectedWaysAreNeverDisplaced)
{
    // One 4-way set; modulo indexing so every line we use maps there.
    mem::CacheModel c(4 * 64, 4, 64);
    ASSERT_EQ(c.numSets(), 1u);

    // Two "tenant" lines fill the MRU positions.
    c.access(4, false);
    c.access(8, false);
    ASSERT_TRUE(c.contains(4));
    ASSERT_TRUE(c.contains(8));

    // A capped stream of many distinct lines (max 2 ways) churns only
    // the LRU half of the set.
    for (Addr line = 100; line < 200; line += 4)
        c.accessCapped(line, true, 2);
    EXPECT_TRUE(c.contains(4));
    EXPECT_TRUE(c.contains(8));
    EXPECT_LE(c.residentLines(), 4u);
}

TEST(CappedCache, HitDoesNotPromoteAndVictimWritesBack)
{
    mem::CacheModel c(4 * 64, 4, 64);
    c.access(4, false);
    c.access(8, false);

    // Dirty capped fill, then one more: the first capped line is the
    // victim and must signal a writeback — never the tenant lines.
    const auto fill = c.accessCapped(100, true, 2);
    EXPECT_FALSE(fill.hit);
    const auto hit = c.accessCapped(100, false, 2);
    EXPECT_TRUE(hit.hit);
    c.accessCapped(104, true, 2); // set now full: [8,4,104,100]
    const auto evict = c.accessCapped(108, true, 2);
    EXPECT_FALSE(evict.hit);
    EXPECT_TRUE(evict.writeback);
    EXPECT_EQ(evict.victimLine, 100u);
    EXPECT_TRUE(c.contains(4));
    EXPECT_TRUE(c.contains(8));
}

TEST(CappedCache, FullWidthCapDegeneratesToPlainAccess)
{
    mem::CacheModel a(4 * 64, 4, 64);
    mem::CacheModel b(4 * 64, 4, 64);
    for (Addr line = 0; line < 64; line += 4) {
        const auto ra = a.access(line, line % 8 == 0);
        const auto rb = b.accessCapped(line, line % 8 == 0, 4);
        EXPECT_EQ(ra.hit, rb.hit);
        EXPECT_EQ(ra.writeback, rb.writeback);
        EXPECT_EQ(ra.victimLine, rb.victimLine);
    }
    EXPECT_EQ(a.residentLines(), b.residentLines());
}

// ------------------------------------------------- LLC policy ablation

namespace
{

/** A small machine so the I/O storm actually pressures the L3. */
workloads::RunConfig
smallMachineConfig(sim::LlcIoPolicy policy, std::uint32_t io_ways)
{
    workloads::RunConfig rc;
    rc.machine.meshX = 2;
    rc.machine.meshY = 2;
    rc.machine.l3BankSizeBytes = 16 * 1024; // 256 lines, 64 sets x 4
    rc.machine.l3Assoc = 4;
    rc.machine.llcIoPolicy = policy;
    rc.machine.llcIoWays = io_ways;
    return rc;
}

/** Count the tenant buffer's lines still resident in L3. */
std::uint64_t
residentTenantLines(workloads::RunContext &ctx, Addr base,
                    std::uint64_t bytes)
{
    nsc::Machine &m = ctx.machine;
    const std::uint32_t ls = m.config().lineSize;
    std::uint64_t n = 0;
    for (Addr a = base; a < base + bytes; a += ls) {
        const Addr pline = ctx.os.pageTable().translate(a) / ls;
        if (m.l3Bank(m.bankOfSim(a)).contains(pline))
            ++n;
    }
    return n;
}

/**
 * Fill a tenant working set into L3, unleash a deterministic I/O
 * write storm, and report (before, after) tenant residency.
 */
std::pair<std::uint64_t, std::uint64_t>
tenantResidencyUnderIoStorm(sim::LlcIoPolicy policy,
                            std::uint32_t io_ways)
{
    workloads::RunContext ctx(smallMachineConfig(policy, io_ways));
    nsc::Machine &m = ctx.machine;
    const std::uint32_t ls = m.config().lineSize;

    const std::uint64_t tenantBytes = 64 * 1024;
    const std::uint64_t ioBytes = 256 * 1024;
    void *tbuf = ctx.allocator.allocPlain(tenantBytes);
    void *ibuf = ctx.allocator.allocPlain(ioBytes);
    const Addr tbase = m.addressSpace().simAddrOf(tbuf);
    const Addr ibase = m.addressSpace().simAddrOf(ibuf);

    m.beginEpoch();
    for (Addr a = tbase; a < tbase + tenantBytes; a += ls)
        m.coreAccess(0, a, 8, AccessType::write, true);
    m.endEpoch(0.0, "tenant-fill");
    const std::uint64_t before =
        residentTenantLines(ctx, tbase, tenantBytes);
    EXPECT_GT(before, 0u);

    m.setPresentClasses((1u << int(AgentClass::ndc)) |
                        (1u << int(AgentClass::io)));
    m.setActiveClass(AgentClass::io);
    m.beginEpoch();
    for (Addr a = ibase; a < ibase + ioBytes; a += ls)
        m.ioWrite(/*ingress=*/0, a, ls);
    m.endEpoch(0.0, "io-storm");
    m.setActiveClass(AgentClass::ndc);

    return {before, residentTenantLines(ctx, tbase, tenantBytes)};
}

} // namespace

TEST(LlcPolicy, BypassLeavesTenantOccupancyUntouched)
{
    const auto [before, after] =
        tenantResidencyUnderIoStorm(sim::LlcIoPolicy::bypass, 1);
    EXPECT_EQ(after, before);
}

TEST(LlcPolicy, WayRestrictionBoundsTenantEviction)
{
    const auto [beforeDdio, afterDdio] =
        tenantResidencyUnderIoStorm(sim::LlcIoPolicy::ddio, 1);
    const auto [beforeWay, afterWay] =
        tenantResidencyUnderIoStorm(sim::LlcIoPolicy::wayRestrict, 1);
    ASSERT_EQ(beforeDdio, beforeWay); // identical fill phase

    // Unrestricted DDIO storms evict tenant lines; the way cap can
    // only ever displace lines sitting in the single LRU position of
    // each set, so the eviction count is hard-bounded.
    EXPECT_LT(afterDdio, beforeDdio);
    const workloads::RunContext probe(
        smallMachineConfig(sim::LlcIoPolicy::wayRestrict, 1));
    const std::uint64_t bound =
        std::uint64_t(probe.machine.config().numBanks()) *
        probe.machine.l3Bank(0).numSets() * 1 /*io way*/;
    EXPECT_GE(afterWay, beforeWay > bound ? beforeWay - bound : 0u);
    EXPECT_GT(afterWay, afterDdio);
}

// --------------------------------------- attribution and arbitration

TEST(ClassAttribution, PerClassStatsSumToGlobalTotal)
{
    workloads::RunConfig rc =
        smallMachineConfig(sim::LlcIoPolicy::ddio, 2);
    workloads::RunContext ctx(rc);
    nsc::Machine &m = ctx.machine;
    const std::uint32_t ls = m.config().lineSize;

    void *buf = ctx.allocator.allocPlain(64 * 1024);
    const Addr base = m.addressSpace().simAddrOf(buf);
    m.setPresentClasses(0b111);

    m.setActiveClass(AgentClass::ndc);
    m.beginEpoch();
    for (Addr a = base; a < base + 16 * 1024; a += ls)
        m.coreAccess(0, a, 8, AccessType::read, true);
    m.endEpoch(0.0, "ndc");

    m.setActiveClass(AgentClass::host);
    m.beginEpoch();
    for (Addr a = base; a < base + 16 * 1024; a += ls)
        m.coreAccess(1, a, 8, AccessType::write, false);
    m.endEpoch(0.0, "host");

    m.setActiveClass(AgentClass::io);
    m.beginEpoch();
    for (Addr a = base; a < base + 16 * 1024; a += ls)
        m.ioWrite(0, a, ls);
    m.endEpoch(0.0, "io");

    // Flush the io tail, then check exact conservation per counter.
    m.setActiveClass(AgentClass::ndc);
    for (const sim::CounterRef &ref : sim::statsCounters()) {
        std::uint64_t sum = 0;
        for (int c = 0; c < numAgentClasses; ++c)
            sum += ref.get(m.classStats(static_cast<AgentClass>(c)));
        EXPECT_EQ(sum, ref.get(m.stats())) << ref.name;
    }
    // Every class did attributable work.
    EXPECT_GT(m.classStats(AgentClass::ndc).cycles, 0u);
    EXPECT_GT(m.classStats(AgentClass::host).cycles, 0u);
    EXPECT_GT(m.classStats(AgentClass::io).cycles, 0u);
    EXPECT_GT(m.classStats(AgentClass::io).l3Accesses, 0u);
    // And the registered simcheck audit agrees.
    EXPECT_NO_THROW(m.audit());
}

TEST(ClassArb, PartitionScalesContendedOccupancy)
{
    // The same I/O epoch under no arbitration vs. a 1:1:1 partition
    // with two present classes: the partitioned run charges the
    // active class 2x bank/link occupancy, so the epoch is longer.
    auto runIoEpoch = [](sim::ClassArbMode mode) {
        workloads::RunConfig rc =
            smallMachineConfig(sim::LlcIoPolicy::ddio, 2);
        rc.machine.classArb.mode = mode;
        workloads::RunContext ctx(rc);
        nsc::Machine &m = ctx.machine;
        const std::uint32_t ls = m.config().lineSize;
        // 16 KB into a 64 KB L3: allocates without evictions, so the
        // epoch max is the (scaled) bank/link term, not DRAM.
        void *buf = ctx.allocator.allocPlain(16 * 1024);
        const Addr base = m.addressSpace().simAddrOf(buf);
        m.setPresentClasses((1u << int(AgentClass::ndc)) |
                            (1u << int(AgentClass::io)));
        m.setActiveClass(AgentClass::io);
        m.beginEpoch();
        for (Addr a = base; a < base + 16 * 1024; a += ls)
            m.ioWrite(0, a, ls);
        return m.endEpoch(0.0, "io");
    };
    const Cycles plain = runIoEpoch(sim::ClassArbMode::none);
    const Cycles part = runIoEpoch(sim::ClassArbMode::partition);
    EXPECT_GT(part, plain);
}

TEST(ClassArb, SinglePresentClassIsExactlyClassic)
{
    // Arbitration must not move a single-class run at all: same
    // machine, same work, arb none vs. partition with only ndc
    // present — identical epoch durations and stats.
    auto runNdcEpoch = [](sim::ClassArbMode mode) {
        workloads::RunConfig rc =
            smallMachineConfig(sim::LlcIoPolicy::ddio, 2);
        rc.machine.classArb.mode = mode;
        rc.machine.classArb.share[0] = 7.0; // must be irrelevant
        workloads::RunContext ctx(rc);
        nsc::Machine &m = ctx.machine;
        const std::uint32_t ls = m.config().lineSize;
        void *buf = ctx.allocator.allocPlain(32 * 1024);
        const Addr base = m.addressSpace().simAddrOf(buf);
        m.beginEpoch();
        for (Addr a = base; a < base + 32 * 1024; a += ls)
            m.coreAccess(0, a, 8, AccessType::write, true);
        return m.endEpoch(0.0, "ndc");
    };
    EXPECT_EQ(runNdcEpoch(sim::ClassArbMode::none),
              runNdcEpoch(sim::ClassArbMode::partition));
    EXPECT_EQ(runNdcEpoch(sim::ClassArbMode::none),
              runNdcEpoch(sim::ClassArbMode::priority));
}

// --------------------------------------------- mixed-class co-runs

namespace
{

tenant::CorunOptions
mixedOpts()
{
    tenant::CorunOptions opts;
    opts.quick = true;
    opts.solo = false;
    opts.machine.simcheck.audit = true; // class-conservation each epoch
    return opts;
}

std::vector<tenant::TenantSpec>
mixedSpecs()
{
    TrafficConfig tc;
    tc.hostAgents = 1;
    tc.ioStreams = 1;
    std::vector<tenant::TenantSpec> specs = {
        {.workload = "vecadd", .weight = 1}};
    for (tenant::TenantSpec &s : makeBackgroundSpecs(tc))
        specs.push_back(std::move(s));
    return specs;
}

} // namespace

TEST(TrafficCorun, MixedClassRerunDigestsIdentical)
{
    const tenant::CorunReport a = runCorun(mixedSpecs(), mixedOpts());
    const tenant::CorunReport b = runCorun(mixedSpecs(), mixedOpts());
    EXPECT_TRUE(a.allValid);
    EXPECT_EQ(a.digest(), b.digest());
    // Classes survive into the report, foreground first.
    ASSERT_EQ(a.tenants.size(), 3u);
    EXPECT_EQ(a.tenants[0].cls, AgentClass::ndc);
    EXPECT_EQ(a.tenants[1].cls, AgentClass::host);
    EXPECT_EQ(a.tenants[2].cls, AgentClass::io);
    EXPECT_EQ(a.tenants[1].run.cls, AgentClass::host);
    EXPECT_EQ(a.tenants[2].run.cls, AgentClass::io);
}

TEST(TrafficCorun, JobsSweepDigestInvariance)
{
    // The same two mixed-class points through the sweep pool at
    // --jobs 1 and --jobs 4: worker scheduling must not leak in.
    std::vector<std::function<tenant::CorunReport()>> tasks;
    for (int i = 0; i < 2; ++i)
        tasks.push_back(
            [] { return runCorun(mixedSpecs(), mixedOpts()); });
    const auto j1 = harness::runSweep(1u, tasks);
    const auto j4 = harness::runSweep(4u, tasks);
    ASSERT_EQ(j1.size(), 2u);
    ASSERT_EQ(j4.size(), 2u);
    EXPECT_EQ(j1[0].digest(), j1[1].digest());
    EXPECT_EQ(j1[0].digest(), j4[0].digest());
    EXPECT_EQ(j1[1].digest(), j4[1].digest());
}

TEST(TrafficCorun, BackgroundDrainsAfterForeground)
{
    // Background agents would run 256 quick epochs on their own; the
    // drain signal must wrap them up right after the foreground ends,
    // and their attributed work must be non-empty and class-tagged.
    // Single-epoch quanta force real interleaving even when the quick
    // foreground finishes in a handful of epochs.
    tenant::CorunOptions opts = mixedOpts();
    opts.quantumEpochs = 1;
    const tenant::CorunReport rep = runCorun(mixedSpecs(), opts);
    ASSERT_EQ(rep.tenants.size(), 3u);
    const auto &fg = rep.tenants[0];
    for (std::size_t i = 1; i < rep.tenants.size(); ++i) {
        const auto &bg = rep.tenants[i];
        EXPECT_GT(bg.epochs, 0u);
        EXPECT_GT(bg.run.stats.cycles, 0u);
        EXPECT_GE(bg.finishCycle, fg.finishCycle);
        EXPECT_TRUE(bg.run.valid);
    }
    // QoS aggregates exclude agents without a solo baseline.
    EXPECT_EQ(rep.tenants[1].soloCycles, 0u);
    EXPECT_EQ(rep.tenants[2].soloCycles, 0u);
}
