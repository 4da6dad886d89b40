/**
 * @file
 * SimCheck self-tests: deliberately corrupt simulator state (clobber a
 * free-list slot through a stale pointer, drop a flit in transit,
 * plant a stale IOT entry) and assert the corresponding audit catches
 * it; trip the livelock watchdog; and pin down the determinism-digest
 * contract (order-insensitive, value-sensitive, run-to-run stable).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/simcheck.hh"
#include "sim/stats.hh"
#include "workloads/affine_workloads.hh"

#include "test_helpers.hh"

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

sim::MachineConfig
auditedConfig()
{
    sim::MachineConfig cfg;
    cfg.simcheck.audit = true;
    cfg.simcheck.auditPeriodEpochs = 1;
    return cfg;
}

/** Machine stack with auditing (and allocator canaries) enabled. */
struct AuditedFixture
{
    sim::MachineConfig cfg = auditedConfig();
    os::SimOS os{cfg};
    nsc::Machine machine{cfg, os};
    alloc::AffinityAllocator allocator{machine, {}};
};

/** Expect machine.audit() to throw and return the first violation. */
simcheck::Violation
expectAuditFailure(nsc::Machine &machine)
{
    try {
        machine.audit();
    } catch (const simcheck::AuditError &e) {
        EXPECT_FALSE(e.report().empty());
        return e.report().empty() ? simcheck::Violation{}
                                  : e.report().front();
    }
    ADD_FAILURE() << "corruption was not detected by any audit";
    return {};
}

} // namespace

// ----------------------------------------------------- auditor basics

TEST(SimCheckAuditor, CollectsViolationsAcrossChecks)
{
    simcheck::Auditor auditor;
    const int ok = auditor.registerCheck(
        "a", "fine", [](simcheck::CheckContext &) {});
    auditor.registerCheck("b", "broken",
                          [](simcheck::CheckContext &ctx) {
                              ctx.failf("value %d out of range", 7);
                          });
    EXPECT_EQ(auditor.numChecks(), 2u);

    const auto violations = auditor.collect();
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].component, "b");
    EXPECT_EQ(violations[0].check, "broken");
    EXPECT_EQ(violations[0].message, "value 7 out of range");
    EXPECT_THROW(auditor.runAll(), simcheck::AuditError);

    auditor.unregisterCheck(ok);
    EXPECT_EQ(auditor.numChecks(), 1u);
}

TEST(SimCheckAuditor, EpochHookHonoursEnableAndPeriod)
{
    simcheck::Auditor auditor;
    int fires = 0;
    auditor.registerCheck("a", "count",
                          [&](simcheck::CheckContext &) { ++fires; });

    // Disabled: the epoch hook never runs checks.
    auditor.onEpochEnd(1);
    EXPECT_EQ(fires, 0);

    auditor.setEnabled(true);
    auditor.setPeriodEpochs(4);
    for (std::uint64_t e = 1; e <= 8; ++e)
        auditor.onEpochEnd(e);
    EXPECT_EQ(fires, 2);
}

// ------------------------------------------------ corruption injection

TEST(SimCheckCorruption, ClobberedFreeSlotCanaryDetected)
{
    AuditedFixture f;
    alloc::AffineArray anchor_req;
    anchor_req.elem_size = 64;
    anchor_req.num_elem = 1024;
    anchor_req.partition = true;
    char *anchor =
        static_cast<char *>(f.allocator.mallocAff(anchor_req));
    ASSERT_NE(anchor, nullptr);

    const void *aff = anchor;
    void *slot = f.allocator.mallocAff(std::size_t(64), 1, &aff);
    ASSERT_NE(slot, nullptr);
    f.allocator.freeAff(slot);
    EXPECT_NO_THROW(f.machine.audit());

    // Use-after-free: write through the stale pointer, clobbering the
    // canary the allocator stamped into the freed slot.
    std::memset(slot, 0xab, 8);

    const simcheck::Violation v = expectAuditFailure(f.machine);
    EXPECT_EQ(v.component, "alloc");
    EXPECT_EQ(v.check, "freelist-integrity");
    EXPECT_NE(v.message.find("canary"), std::string::npos) << v.message;
}

TEST(SimCheckCorruption, DroppedFlitDetected)
{
    AuditedFixture f;
    void *p = f.allocator.allocPlain(4096);
    const Addr sim = f.machine.addressSpace().simAddrOf(p);

    f.machine.beginEpoch();
    // Cold accesses generate real NoC traffic (core <-> L3 <-> DRAM).
    for (Addr off = 0; off < 4096; off += 64)
        f.machine.coreAccess(0, sim + off, 64, AccessType::read);
    EXPECT_NO_THROW(f.machine.audit());

    // Lose three flits in transit on link 0.
    f.machine.network().corruptLinkFlitsForTest(0, -3);

    const simcheck::Violation v = expectAuditFailure(f.machine);
    EXPECT_EQ(v.component, "noc");
    EXPECT_EQ(v.check, "flit-conservation");
    f.machine.abortEpoch();
}

TEST(SimCheckCorruption, StaleIotEntryDetected)
{
    AuditedFixture f;
    alloc::AffineArray req;
    req.elem_size = 64;
    req.num_elem = 4096;
    req.partition = true;
    ASSERT_NE(f.allocator.mallocAff(req), nullptr);
    EXPECT_NO_THROW(f.machine.audit());

    // Plant a stale interleaving in the entry covering the touched
    // pool: the hardware table and the OS's placement now disagree.
    mem::InterleaveOverrideTable &iot = f.os.iotForTest();
    ASSERT_GT(iot.size(), 0u);
    iot.entryForTest(0).intrlv *= 2;

    const simcheck::Violation v = expectAuditFailure(f.machine);
    EXPECT_EQ(v.component, "mem");
    EXPECT_EQ(v.check, "mapping-consistency");
}

TEST(SimCheckCorruption, DoubleFreeDetected)
{
    AuditedFixture f;
    alloc::AffineArray anchor_req;
    anchor_req.elem_size = 64;
    anchor_req.num_elem = 256;
    anchor_req.partition = true;
    char *anchor =
        static_cast<char *>(f.allocator.mallocAff(anchor_req));
    const void *aff = anchor;
    void *slot = f.allocator.mallocAff(std::size_t(64), 1, &aff);
    f.allocator.freeAff(slot);
    EXPECT_THROW(f.allocator.freeAff(slot), FatalError);
}

TEST(SimCheckCorruption, ForeignPointerFreeDetected)
{
    AuditedFixture f;
    int local = 0;
    EXPECT_THROW(f.allocator.freeAff(&local), FatalError);
}

// -------------------------------------------------- livelock watchdog

TEST(SimCheckWatchdog, TripsAfterConfiguredStallStreak)
{
    sim::MachineConfig cfg;
    cfg.simcheck.watchdogStallEpochs = 3;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);

    // Two empty epochs: stalled but under the limit.
    for (int i = 0; i < 2; ++i) {
        machine.beginEpoch();
        EXPECT_NO_THROW(machine.endEpoch());
    }
    machine.beginEpoch();
    EXPECT_THROW(machine.endEpoch(), simcheck::LivelockError);
}

TEST(SimCheckWatchdog, ProgressResetsTheStreak)
{
    sim::MachineConfig cfg;
    cfg.simcheck.watchdogStallEpochs = 3;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});
    void *p = allocator.allocPlain(4096);
    const Addr sim = machine.addressSpace().simAddrOf(p);

    for (int round = 0; round < 4; ++round) {
        // Two stalled epochs ...
        for (int i = 0; i < 2; ++i) {
            machine.beginEpoch();
            machine.endEpoch();
        }
        // ... then one with real work resets the streak.
        machine.beginEpoch();
        machine.coreAccess(0, sim + Addr(round) * 64, 64,
                           AccessType::read);
        EXPECT_NO_THROW(machine.endEpoch());
    }
}

TEST(SimCheckWatchdog, DisabledByDefaultThreshold)
{
    sim::MachineConfig cfg;
    cfg.simcheck.watchdogStallEpochs = 0; // explicit off
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    for (int i = 0; i < 64; ++i) {
        machine.beginEpoch();
        EXPECT_NO_THROW(machine.endEpoch());
    }
}

// ------------------------------------------------ determinism digests

TEST(SimCheckDigest, OrderInsensitiveAndValueSensitive)
{
    simcheck::Digest a;
    a.fold("cycles", 123);
    a.fold("hops", 456);
    simcheck::Digest b;
    b.fold("hops", 456);
    b.fold("cycles", 123);
    EXPECT_EQ(a.value(), b.value());

    simcheck::Digest c;
    c.fold("cycles", 456);
    c.fold("hops", 123);
    EXPECT_NE(a.value(), c.value());

    simcheck::Digest d;
    d.fold("cycles", 123);
    EXPECT_NE(a.value(), d.value());
}

TEST(SimCheckDigest, RunDigestIsDeterministicAcrossRuns)
{
    auto run = [](ExecMode mode) {
        RunConfig rc = RunConfig::forMode(mode);
        rc.machine.simcheck.audit = true;
        rc.machine.simcheck.auditPeriodEpochs = 4;
        VecAddParams p;
        p.n = 1 << 14;
        p.layout = mode == ExecMode::affAlloc ? VecAddLayout::affinity
                                              : VecAddLayout::heapLinear;
        return runVecAdd(rc, p);
    };
    const RunResult a = run(ExecMode::affAlloc);
    const RunResult b = run(ExecMode::affAlloc);
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.placementDigest, 0u);
    EXPECT_EQ(a.placementDigest, b.placementDigest);

    // A different configuration must not collide.
    const RunResult c = run(ExecMode::inCore);
    EXPECT_NE(a.digest(), c.digest());
}

TEST(SimCheckDigest, StatsDigestTracksTheCounterRegistry)
{
    ASSERT_FALSE(sim::statsCounters().empty());
    // The registry must be duplicate-free (it already validated itself
    // once at load; re-validating here exercises the public path).
    EXPECT_NO_THROW(sim::validateCounterNames(sim::statsCounters()));

    sim::Stats zero{};
    for (const sim::CounterRef &c : sim::statsCounters())
        EXPECT_EQ(c.get(zero), 0u) << c.name;

    sim::Stats s{};
    s.cycles = 1;
    EXPECT_NE(simcheck::digestOfStats(s), simcheck::digestOfStats(zero));
    s.cycles = 0;
    s.epochs = 1;
    EXPECT_NE(simcheck::digestOfStats(s), simcheck::digestOfStats(zero));
}

TEST(SimCheckDigest, DigestStringIsCanonical)
{
    EXPECT_EQ(simcheck::digestToString(0), "0x0000000000000000");
    EXPECT_EQ(simcheck::digestToString(0xdeadbeefull),
              "0x00000000deadbeef");
}

// ------------------------------------------------------ stats hygiene

TEST(SimCheckStats, DuplicateCounterRegistrationFailsFast)
{
    const std::vector<sim::CounterRef> dup = {
        {"cycles", +[](const sim::Stats &s) { return s.cycles; }},
        {"cycles", +[](const sim::Stats &s) { return s.cycles; }},
    };
    EXPECT_THROW(sim::validateCounterNames(dup), FatalError);

    const std::vector<sim::CounterRef> ok = {
        {"cycles", +[](const sim::Stats &s) { return s.cycles; }},
        {"epochs", +[](const sim::Stats &s) { return s.epochs; }},
    };
    EXPECT_NO_THROW(sim::validateCounterNames(ok));
}

// ---------------------------------------------------- healthy baseline

TEST(SimCheck, HealthyRunPassesEveryAudit)
{
    RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
    rc.machine.simcheck.audit = true;
    rc.machine.simcheck.auditPeriodEpochs = 1;
    VecAddParams p;
    p.n = 1 << 15;
    p.layout = VecAddLayout::affinity;
    const RunResult r = runVecAdd(rc, p); // throws on any violation
    EXPECT_TRUE(r.valid);
}
