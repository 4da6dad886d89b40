/**
 * @file
 * Unit tests for the fault-injection subsystem: FaultPlan drawing,
 * bank redirection, link degradation, offload rejection, and the
 * Machine-level degradation hooks (dynamic injection, NACK charging,
 * epoch abort, victim migration). Also pins the zero-overhead
 * guarantee: an empty FaultConfig must not perturb cycle counts.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/simcheck.hh"
#include "workloads/affine_workloads.hh"

#include "test_helpers.hh"

using namespace affalloc;
using test::MachineFixture;

namespace
{

constexpr std::uint32_t kMeshX = 8;
constexpr std::uint32_t kMeshY = 8;
constexpr std::uint32_t kBanks = kMeshX * kMeshY;

sim::FaultConfig
faultyConfig(std::uint32_t offline, double reject = 0.0,
             std::uint32_t links = 0)
{
    sim::FaultConfig fc;
    fc.seed = 12345;
    fc.offlineBanks = offline;
    fc.offloadRejectRate = reject;
    fc.degradedLinks = links;
    return fc;
}

} // namespace

// ---------------------------------------------------------- FaultPlan

TEST(FaultPlan, EmptyConfigIsHealthy)
{
    sim::FaultPlan plan(sim::FaultConfig{}, kMeshX, kMeshY);
    EXPECT_FALSE(plan.any());
    EXPECT_EQ(plan.numOfflineBanks(), 0u);
    EXPECT_EQ(plan.numLiveBanks(), kBanks);
    EXPECT_EQ(plan.numDegradedLinks(), 0u);
    EXPECT_FALSE(plan.rejectsOffloads());
    for (BankId b = 0; b < kBanks; ++b) {
        EXPECT_TRUE(plan.bankLive(b));
        EXPECT_EQ(plan.redirect(b), b);
    }
    for (std::uint32_t l = 0; l < kBanks * 4; ++l)
        EXPECT_EQ(plan.linkFlitMultiplier(l), 1u);
    // Rate 0 must never admit a rejection (and never draw the Rng).
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(plan.rejectOffload());
}

TEST(FaultPlan, DrawsRequestedOfflineBanks)
{
    sim::FaultPlan plan(faultyConfig(6), kMeshX, kMeshY);
    EXPECT_TRUE(plan.any());
    EXPECT_EQ(plan.numOfflineBanks(), 6u);
    EXPECT_EQ(plan.numLiveBanks(), kBanks - 6);
    std::uint32_t dead = 0;
    for (BankId b = 0; b < kBanks; ++b)
        dead += plan.bankLive(b) ? 0 : 1;
    EXPECT_EQ(dead, 6u);
    EXPECT_EQ(plan.liveBankMask().size(), kBanks);
}

TEST(FaultPlan, SameSeedSamePlan)
{
    sim::FaultPlan a(faultyConfig(8, 0.0, 4), kMeshX, kMeshY);
    sim::FaultPlan b(faultyConfig(8, 0.0, 4), kMeshX, kMeshY);
    EXPECT_EQ(a.liveBankMask(), b.liveBankMask());
    for (std::uint32_t l = 0; l < kBanks * 4; ++l)
        EXPECT_EQ(a.linkFlitMultiplier(l), b.linkFlitMultiplier(l));
}

TEST(FaultPlan, DifferentSeedDifferentPlan)
{
    sim::FaultConfig fc = faultyConfig(8);
    sim::FaultPlan a(fc, kMeshX, kMeshY);
    fc.seed = 54321;
    sim::FaultPlan b(fc, kMeshX, kMeshY);
    EXPECT_NE(a.liveBankMask(), b.liveBankMask());
}

TEST(FaultPlan, RedirectTargetsNextLiveBank)
{
    sim::FaultPlan plan(faultyConfig(10), kMeshX, kMeshY);
    for (BankId b = 0; b < kBanks; ++b) {
        const BankId spare = plan.redirect(b);
        EXPECT_TRUE(plan.bankLive(spare));
        if (plan.bankLive(b)) {
            EXPECT_EQ(spare, b);
        } else {
            // The spare is the *next* live bank in numbering order:
            // every bank strictly between b and spare is dead.
            for (BankId i = (b + 1) % kBanks; i != spare;
                 i = (i + 1) % kBanks)
                EXPECT_FALSE(plan.bankLive(i));
        }
    }
}

TEST(FaultPlan, DegradedLinksAreRealAndCounted)
{
    sim::FaultConfig fc = faultyConfig(0, 0.0, 5);
    fc.linkDegradeFactor = 4;
    sim::FaultPlan plan(fc, kMeshX, kMeshY);
    EXPECT_EQ(plan.numDegradedLinks(), 5u);
    std::uint32_t degraded = 0;
    for (std::uint32_t l = 0; l < kBanks * 4; ++l) {
        const std::uint32_t m = plan.linkFlitMultiplier(l);
        EXPECT_TRUE(m == 1 || m == 4);
        degraded += m > 1 ? 1 : 0;
    }
    EXPECT_EQ(degraded, 5u);
}

TEST(FaultPlan, RejectRateOneAlwaysRejects)
{
    sim::FaultPlan plan(faultyConfig(0, 1.0), kMeshX, kMeshY);
    EXPECT_TRUE(plan.rejectsOffloads());
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(plan.rejectOffload());
}

TEST(FaultPlan, DynamicOfflineUpdatesRedirect)
{
    sim::FaultPlan plan(sim::FaultConfig{}, kMeshX, kMeshY);
    EXPECT_TRUE(plan.offlineBank(3));
    EXPECT_FALSE(plan.bankLive(3));
    EXPECT_EQ(plan.numOfflineBanks(), 1u);
    EXPECT_EQ(plan.redirect(3), 4u);
    // Offlining the spare too pushes the redirect one further.
    EXPECT_TRUE(plan.offlineBank(4));
    EXPECT_EQ(plan.redirect(3), 5u);
    // Re-offlining is a no-op.
    EXPECT_FALSE(plan.offlineBank(3));
    EXPECT_EQ(plan.numOfflineBanks(), 2u);
    EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, LastLiveBankIsProtected)
{
    sim::FaultPlan plan(sim::FaultConfig{}, 2, 1);
    EXPECT_TRUE(plan.offlineBank(0));
    EXPECT_THROW(plan.offlineBank(1), FatalError);
    EXPECT_THROW(plan.offlineBank(7), FatalError); // out of range
}

TEST(FaultPlan, InvalidConfigsAreFatal)
{
    EXPECT_THROW(sim::FaultPlan(sim::FaultConfig{}, 0, 0), FatalError);
    EXPECT_THROW(sim::FaultPlan(faultyConfig(kBanks), kMeshX, kMeshY),
                 FatalError);
    sim::FaultConfig bad_rate;
    bad_rate.offloadRejectRate = 1.5;
    EXPECT_THROW(sim::FaultPlan(bad_rate, kMeshX, kMeshY), FatalError);
    bad_rate.offloadRejectRate = std::nan("");
    EXPECT_THROW(sim::FaultPlan(bad_rate, kMeshX, kMeshY), FatalError);
    sim::FaultConfig bad_factor;
    bad_factor.degradedLinks = 1;
    bad_factor.linkDegradeFactor = 0;
    EXPECT_THROW(sim::FaultPlan(bad_factor, kMeshX, kMeshY),
                 FatalError);
}

// ---------------------------------------------------- machine hooks

TEST(MachineFault, BootPlanSurfacesInStats)
{
    sim::MachineConfig cfg;
    cfg.faults = faultyConfig(4);
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    EXPECT_EQ(machine.stats().offlineBanks, 4u);
    EXPECT_EQ(machine.faultPlan().numOfflineBanks(), 4u);
    // The topology export carries the live mask.
    const os::Topology topo = sim_os.topology();
    ASSERT_EQ(topo.liveBanks.size(), cfg.numBanks());
    std::uint32_t live = 0;
    for (auto v : topo.liveBanks)
        live += v;
    EXPECT_EQ(live, cfg.numBanks() - 4);
}

TEST(MachineFault, MapperNeverHomesLinesAtDeadBanks)
{
    sim::MachineConfig cfg;
    cfg.faults = faultyConfig(12);
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});
    char *p = static_cast<char *>(
        allocator.allocInterleaved(64 * kBanks, 64, 0));
    for (std::uint32_t i = 0; i < kBanks; ++i) {
        const BankId b = machine.bankOfHost(p + i * 64);
        EXPECT_TRUE(machine.bankLive(b))
            << "line " << i << " homed at dead bank " << b;
    }
}

TEST(MachineFault, InjectBankFaultCountsAndRedirects)
{
    MachineFixture f;
    EXPECT_EQ(f.machine->stats().offlineBanks, 0u);
    f.machine->injectBankFault(7);
    EXPECT_EQ(f.machine->stats().offlineBanks, 1u);
    EXPECT_FALSE(f.machine->bankLive(7));
    // Repeat injection is a no-op on the counter.
    f.machine->injectBankFault(7);
    EXPECT_EQ(f.machine->stats().offlineBanks, 1u);
    EXPECT_THROW(f.machine->injectBankFault(kBanks), FatalError);
}

TEST(MachineFault, OffloadNackChargesRetryTraffic)
{
    MachineFixture f;
    const std::uint64_t hops_before = f.machine->stats().totalHops();
    const Cycles lat = f.machine->offloadNack(0, 63);
    EXPECT_GT(lat, 0u);
    EXPECT_EQ(f.machine->stats().offloadRetries, 1u);
    EXPECT_GT(f.machine->stats().totalHops(), hops_before);
}

TEST(MachineFault, AbortEpochRestoresStats)
{
    MachineFixture f;
    f.machine->beginEpoch();
    const sim::Stats before = f.machine->stats();
    f.machine->forwardData(0, 63, 4096);
    f.machine->forwardData(5, 20, 4096);
    EXPECT_GT(f.machine->stats().totalHops(), before.totalHops());
    f.machine->abortEpoch();
    EXPECT_EQ(f.machine->stats().totalHops(), before.totalHops());
    EXPECT_EQ(f.machine->stats().cycles, before.cycles);
    // The machine is reusable: a fresh epoch still works.
    f.machine->beginEpoch();
    f.machine->forwardData(0, 1, 64);
    EXPECT_GT(f.machine->endEpoch(), 0u);
}

TEST(MachineFault, DegradedLinksInflateFlits)
{
    sim::MachineConfig cfg;
    cfg.faults = faultyConfig(0, 0.0, 8);
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    machine.beginEpoch();
    // All-pairs traffic crosses every real mesh link at least once,
    // so some of it must hit a degraded link.
    for (BankId from = 0; from < kBanks; ++from)
        for (BankId to = 0; to < kBanks; ++to)
            if (from != to)
                machine.forwardData(from, to, 256);
    machine.endEpoch();
    EXPECT_GT(machine.stats().degradedLinkFlits, 0u);
}

// ------------------------------------------------- victim migration

TEST(MachineFault, MigrateVictimsMovesSlotsOffDeadBanks)
{
    MachineFixture f;
    // A partitioned array gives every bank some elements to anchor
    // irregular slots at.
    alloc::AffineArray req;
    req.elem_size = 64;
    req.num_elem = kBanks * 8;
    req.partition = true;
    char *anchor = static_cast<char *>(f.allocator->mallocAff(req));
    ASSERT_NE(anchor, nullptr);

    std::vector<void *> slots;
    std::vector<BankId> homes;
    for (std::uint64_t i = 0; i < req.num_elem; ++i) {
        const void *aff = anchor + i * 64;
        void *slot = f.allocator->mallocAff(64, 1, &aff);
        std::memset(slot, int('a' + i % 26), 64);
        slots.push_back(slot);
        homes.push_back(f.machine->bankOfHost(slot));
    }

    // Kill the bank hosting slot 0 and migrate.
    const BankId dead = homes[0];
    f.machine->injectBankFault(dead);
    const auto moved = f.allocator->migrateVictims();
    ASSERT_FALSE(moved.empty());
    EXPECT_EQ(f.machine->stats().victimMigrations, moved.size());

    for (const auto &[old_p, new_p] : moved) {
        EXPECT_TRUE(f.machine->bankLive(f.machine->bankOfHost(new_p)));
        // Contents survived the copy.
        const char *np = static_cast<const char *>(new_p);
        for (int j = 1; j < 64; ++j)
            EXPECT_EQ(np[j], np[0]);
    }
    // A second sweep finds nothing left to move.
    EXPECT_TRUE(f.allocator->migrateVictims().empty());
}

// ------------------------------------------------- zero overhead

TEST(MachineFault, EmptyPlanIsDeterministicAcrossSeeds)
{
    // The fault seed must not leak into healthy runs: with no fault
    // class enabled, changing the seed cannot change a single cycle.
    auto run = [](std::uint64_t fault_seed) {
        workloads::RunConfig rc =
            workloads::RunConfig::forMode(ExecMode::affAlloc);
        rc.machine.faults.seed = fault_seed;
        workloads::VecAddParams p;
        p.n = 1 << 14;
        p.layout = workloads::VecAddLayout::affinity;
        return workloads::runVecAdd(rc, p);
    };
    const workloads::RunResult a = run(1);
    const workloads::RunResult b = run(0xdeadbeef);
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.hops(), b.hops());
    EXPECT_EQ(a.stats.offloadRetries, 0u);
    EXPECT_EQ(a.stats.offlineBanks, 0u);
}

// ---------------------------------------------- timed fault campaigns

TEST(FaultSchedule, ParsesBankAndLinkEvents)
{
    const auto sched = sim::parseFaultSchedule(
        "bank:3@50000,link:12@80000x8,link:13@90000");
    ASSERT_EQ(sched.size(), 3u);
    EXPECT_EQ(sched[0].kind, sim::FaultKind::killBank);
    EXPECT_EQ(sched[0].target, 3u);
    EXPECT_EQ(sched[0].atCycle, 50000u);
    EXPECT_EQ(sched[1].kind, sim::FaultKind::degradeLink);
    EXPECT_EQ(sched[1].target, 12u);
    EXPECT_EQ(sched[1].factor, 8u);
    EXPECT_EQ(sched[2].factor, 4u); // default degrade factor
    EXPECT_TRUE(sim::parseFaultSchedule("").empty());
}

TEST(FaultSchedule, MalformedSpecsAreFatal)
{
    EXPECT_THROW(sim::parseFaultSchedule("bank:3"), FatalError);
    EXPECT_THROW(sim::parseFaultSchedule("core:1@5"), FatalError);
    EXPECT_THROW(sim::parseFaultSchedule("bank:x@5"), FatalError);
    EXPECT_THROW(sim::parseFaultSchedule("link:1@z"), FatalError);
    EXPECT_THROW(sim::parseFaultSchedule("link:1@5xq"), FatalError);
}

TEST(FaultSchedule, ValidationRejectsBadTargetsAndLateEvents)
{
    auto one = [](sim::FaultKind k, std::uint32_t tgt, Cycles at,
                  std::uint32_t factor = 4) {
        sim::TimedFault f;
        f.kind = k;
        f.target = tgt;
        f.atCycle = at;
        f.factor = factor;
        return std::vector<sim::TimedFault>{f};
    };
    using sim::FaultKind;
    // In-range events pass (bank 63 east link does not exist; its
    // west link 63*4+1 does).
    sim::validateFaultSchedule(one(FaultKind::killBank, kBanks - 1, 10),
                               kMeshX, kMeshY, 100);
    sim::validateFaultSchedule(
        one(FaultKind::degradeLink, (kBanks - 1) * 4 + 1, 10), kMeshX,
        kMeshY, 100);
    // Bank id outside the mesh.
    EXPECT_THROW(sim::validateFaultSchedule(
                     one(FaultKind::killBank, kBanks, 10), kMeshX,
                     kMeshY),
                 FatalError);
    // Edge slot: the top-right tile has no east link.
    EXPECT_THROW(sim::validateFaultSchedule(
                     one(FaultKind::degradeLink, (kMeshX - 1) * 4 + 0,
                         10),
                     kMeshX, kMeshY),
                 FatalError);
    // Link id past the link table entirely.
    EXPECT_THROW(sim::validateFaultSchedule(
                     one(FaultKind::degradeLink, kBanks * 4, 10),
                     kMeshX, kMeshY),
                 FatalError);
    // Factor 0 can never be a flit multiplier.
    EXPECT_THROW(sim::validateFaultSchedule(
                     one(FaultKind::degradeLink, 1, 10, 0), kMeshX,
                     kMeshY),
                 FatalError);
    // An event beyond the horizon would silently never fire.
    EXPECT_THROW(sim::validateFaultSchedule(
                     one(FaultKind::killBank, 0, 101), kMeshX, kMeshY,
                     100),
                 FatalError);
    // ... but with no horizon given, any time is acceptable.
    sim::validateFaultSchedule(one(FaultKind::killBank, 0, 101), kMeshX,
                               kMeshY, 0);
}

TEST(FaultPlan, SetRedirectRetargetsDeadBanksOnly)
{
    sim::FaultPlan plan(sim::FaultConfig{}, kMeshX, kMeshY);
    // Only dead banks can be re-targeted, and only to live banks.
    EXPECT_THROW(plan.setRedirect(3, 10), FatalError); // 3 still live
    EXPECT_TRUE(plan.offlineBank(3));
    EXPECT_EQ(plan.redirect(3), 4u); // default next-in-order spare
    plan.setRedirect(3, 42);
    EXPECT_EQ(plan.redirect(3), 42u);
    EXPECT_TRUE(plan.offlineBank(42));
    EXPECT_THROW(plan.setRedirect(3, 42), FatalError); // target dead
    EXPECT_THROW(plan.setRedirect(3, kBanks), FatalError);
    // A later kill rebuilds the default map: custom targets are gone
    // (recovery re-runs its assignment after every kill batch).
    EXPECT_EQ(plan.redirect(3), 4u);
}

TEST(FaultPlan, DynamicLinkDegradeTracksCount)
{
    sim::FaultPlan plan(sim::FaultConfig{}, kMeshX, kMeshY);
    EXPECT_FALSE(plan.any());
    EXPECT_TRUE(plan.degradeLink(5, 4));
    EXPECT_EQ(plan.linkFlitMultiplier(5), 4u);
    EXPECT_EQ(plan.numDegradedLinks(), 1u);
    EXPECT_TRUE(plan.any());
    EXPECT_FALSE(plan.degradeLink(5, 4)); // unchanged
    EXPECT_TRUE(plan.degradeLink(5, 1));  // healed
    EXPECT_EQ(plan.numDegradedLinks(), 0u);
    EXPECT_THROW(plan.degradeLink(kBanks * 4, 2), FatalError);
    EXPECT_THROW(plan.degradeLink(5, 0), FatalError);
}

TEST(MachineFault, InjectLinkDegradeInflatesTraffic)
{
    MachineFixture healthy, degraded;
    // Degrade every real link of the mesh (E/W/N/S = 0..3) so the
    // route taken by the payload below is certainly affected.
    for (std::uint32_t y = 0; y < kMeshY; ++y) {
        for (std::uint32_t x = 0; x < kMeshX; ++x) {
            const std::uint32_t tile = y * kMeshX + x;
            if (x + 1 < kMeshX)
                degraded.machine->injectLinkDegrade(tile * 4 + 0, 4);
            if (x > 0)
                degraded.machine->injectLinkDegrade(tile * 4 + 1, 4);
            if (y > 0)
                degraded.machine->injectLinkDegrade(tile * 4 + 2, 4);
            if (y + 1 < kMeshY)
                degraded.machine->injectLinkDegrade(tile * 4 + 3, 4);
        }
    }
    healthy.machine->beginEpoch();
    degraded.machine->beginEpoch();
    healthy.machine->forwardData(0, kBanks - 1, 4096);
    degraded.machine->forwardData(0, kBanks - 1, 4096);
    const Cycles h = healthy.machine->endEpoch();
    const Cycles d = degraded.machine->endEpoch();
    EXPECT_GT(d, h);
}

// --------------------------------------- transient-NACK boundaries

TEST(StreamFault, BackoffCapReachedExactlyOnceThenInCore)
{
    // With a 100% reject rate the executor burns its full retry
    // budget exactly once per admission attempt: R+1 NACKs (attempts
    // 0..R inclusive), then one fallback, then pure in-core execution
    // with no further retries.
    constexpr std::uint32_t kRetries = 3;
    sim::MachineConfig cfg;
    cfg.faults.offloadRejectRate = 1.0;
    cfg.faults.maxOffloadRetries = kRetries;
    cfg.faults.offloadRetryBackoff = 16;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});
    nsc::StreamExecutor exec(machine, ExecMode::nearL3);

    char *p = static_cast<char *>(allocator.allocInterleaved(4096, 64, 0));
    ASSERT_NE(p, nullptr);
    const Addr sim = machine.addressSpace().simAddrOf(p);

    nsc::MigratingStream s(0);
    machine.beginEpoch();
    exec.configure(s, sim);
    EXPECT_TRUE(s.fellBackInCore());
    EXPECT_EQ(machine.stats().offloadRetries, kRetries + 1);
    EXPECT_EQ(machine.stats().offloadFallbacks, 1u);
    // The accumulated chain carries the full exponential backoff:
    // 16 * (2^0 + ... + 2^kRetries) plus the NACK round-trips.
    const double backoff_floor =
        16.0 * static_cast<double>((1u << (kRetries + 1)) - 1);
    EXPECT_GE(s.chainLatency(), backoff_floor);

    // In-core execution afterwards never touches the retry path.
    exec.streamStep(s, sim, 64, AccessType::read);
    exec.streamStep(s, sim + 64, 64, AccessType::read);
    EXPECT_EQ(machine.stats().offloadRetries, kRetries + 1);
    EXPECT_EQ(machine.stats().offloadFallbacks, 1u);
    machine.endEpoch();

    // Reconfiguration starts a fresh admission attempt: the cap is
    // reached exactly once more, not carried over.
    machine.beginEpoch();
    exec.configure(s, sim);
    EXPECT_TRUE(s.fellBackInCore());
    EXPECT_EQ(machine.stats().offloadRetries, 2 * (kRetries + 1));
    EXPECT_EQ(machine.stats().offloadFallbacks, 2u);
    machine.endEpoch();
}

TEST(FaultSchedule, NackStormParsesAndRoundTrips)
{
    const auto sched = sim::parseFaultSchedule(
        "bank:3@50000,link:12@80000x8,nack:800@90000,nack:0@120000");
    ASSERT_EQ(sched.size(), 4u);
    EXPECT_EQ(sched[2].kind, sim::FaultKind::nackStorm);
    EXPECT_EQ(sched[2].target, 800u);
    EXPECT_EQ(sched[2].atCycle, 90000u);
    EXPECT_EQ(sched[3].target, 0u); // rate 0 ends the storm

    // format -> parse is the identity: the chaos repro bundles rely
    // on the grammar round-tripping every event kind.
    const std::string text = sim::formatFaultSchedule(sched);
    const auto again = sim::parseFaultSchedule(text);
    ASSERT_EQ(again.size(), sched.size());
    for (std::size_t i = 0; i < sched.size(); ++i) {
        EXPECT_EQ(again[i].kind, sched[i].kind);
        EXPECT_EQ(again[i].target, sched[i].target);
        EXPECT_EQ(again[i].atCycle, sched[i].atCycle);
        EXPECT_EQ(again[i].factor, sched[i].factor);
    }
    EXPECT_EQ(sim::formatFaultSchedule(again), text);
}

TEST(FaultSchedule, DegradeFactorAndNackRateBoundsAreEnforced)
{
    auto one = [](sim::FaultKind k, std::uint32_t tgt,
                  std::uint32_t factor = 4) {
        sim::TimedFault f;
        f.kind = k;
        f.target = tgt;
        f.atCycle = 10;
        f.factor = factor;
        return std::vector<sim::TimedFault>{f};
    };
    using sim::FaultKind;
    // Degrade factor: 1 (heal) and the sanity bound itself pass ...
    sim::validateFaultSchedule(one(FaultKind::degradeLink, 5, 1), kMeshX,
                               kMeshY);
    sim::validateFaultSchedule(
        one(FaultKind::degradeLink, 5, sim::maxLinkDegradeFactor), kMeshX,
        kMeshY);
    // ... one past the bound is rejected at validation time.
    EXPECT_THROW(
        sim::validateFaultSchedule(
            one(FaultKind::degradeLink, 5, sim::maxLinkDegradeFactor + 1),
            kMeshX, kMeshY),
        FatalError);
    // The dynamic injection path enforces the same bounds.
    sim::FaultPlan plan(sim::FaultConfig{}, kMeshX, kMeshY);
    EXPECT_TRUE(plan.degradeLink(5, sim::maxLinkDegradeFactor));
    EXPECT_THROW(plan.degradeLink(6, sim::maxLinkDegradeFactor + 1),
                 FatalError);

    // NACK rate: 1000 permille is a full storm, 1001 is nonsense.
    sim::validateFaultSchedule(one(FaultKind::nackStorm, 1000), kMeshX,
                               kMeshY);
    EXPECT_THROW(sim::validateFaultSchedule(one(FaultKind::nackStorm, 1001),
                                            kMeshX, kMeshY),
                 FatalError);
    MachineFixture f;
    EXPECT_THROW(f.machine->injectNackStorm(1001), FatalError);
}

TEST(FaultPlan, OverlappingLinkDegradesAreLastWriterWins)
{
    // Two degradations of the same link do not compound: the second
    // event overwrites the multiplier (last-writer-wins), and the
    // degraded-link count tracks distinct degraded links, not events.
    sim::FaultPlan plan(sim::FaultConfig{}, kMeshX, kMeshY);
    EXPECT_TRUE(plan.degradeLink(9, 4));
    EXPECT_TRUE(plan.degradeLink(9, 8));
    EXPECT_EQ(plan.linkFlitMultiplier(9), 8u) << "overwrite, not 4*8";
    EXPECT_EQ(plan.numDegradedLinks(), 1u);
    // Re-degrading to the same factor is a no-op ...
    EXPECT_FALSE(plan.degradeLink(9, 8));
    EXPECT_EQ(plan.numDegradedLinks(), 1u);
    // ... a weaker overwrite still wins ...
    EXPECT_TRUE(plan.degradeLink(9, 2));
    EXPECT_EQ(plan.linkFlitMultiplier(9), 2u);
    EXPECT_EQ(plan.numDegradedLinks(), 1u);
    // ... and factor 1 heals the link exactly once.
    EXPECT_TRUE(plan.degradeLink(9, 1));
    EXPECT_EQ(plan.numDegradedLinks(), 0u);
    EXPECT_FALSE(plan.any());
}

TEST(StreamFault, NackStormEveryOffloadNacksOnceThenHeals)
{
    // During a full-rate storm with a zero retry budget, every
    // offload admission NACKs exactly once and falls back in-core;
    // after the storm ends, admissions succeed with no new retries.
    sim::MachineConfig cfg;
    cfg.faults.maxOffloadRetries = 0;
    cfg.faults.offloadRetryBackoff = 16;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});
    nsc::StreamExecutor exec(machine, ExecMode::nearL3);

    char *p = static_cast<char *>(allocator.allocInterleaved(8192, 64, 0));
    ASSERT_NE(p, nullptr);
    const Addr sim = machine.addressSpace().simAddrOf(p);

    machine.injectNackStorm(1000);
    constexpr std::uint32_t kStreams = 8;
    machine.beginEpoch();
    for (std::uint32_t i = 0; i < kStreams; ++i) {
        nsc::MigratingStream s(i);
        exec.configure(s, sim + i * 512);
        EXPECT_TRUE(s.fellBackInCore());
    }
    machine.endEpoch();
    EXPECT_EQ(machine.stats().offloadRetries, kStreams);
    EXPECT_EQ(machine.stats().offloadFallbacks, kStreams);

    machine.injectNackStorm(0);
    machine.beginEpoch();
    nsc::MigratingStream healed(kStreams);
    exec.configure(healed, sim);
    EXPECT_FALSE(healed.fellBackInCore());
    machine.endEpoch();
    EXPECT_EQ(machine.stats().offloadRetries, kStreams);
    EXPECT_EQ(machine.stats().offloadFallbacks, kStreams);
}

// ------------------------------------------- spare-exhaustion keying

namespace
{

/** Machine stack with free-list auditing on. */
struct KeyingFixture
{
    static sim::MachineConfig
    auditedConfig()
    {
        sim::MachineConfig cfg;
        cfg.simcheck.audit = true;
        cfg.simcheck.auditPeriodEpochs = 1;
        return cfg;
    }

    sim::MachineConfig cfg = auditedConfig();
    os::SimOS os{cfg};
    nsc::Machine machine{cfg, os};
    alloc::AffinityAllocator allocator{machine, {}};

    /** Park one freed slot on every bank's free list; returns the
     *  bank of the first slot and its affinity anchor. */
    std::pair<BankId, const void *>
    parkSlots()
    {
        alloc::AffineArray req;
        req.elem_size = 64;
        req.num_elem = kBanks * 4;
        req.partition = true;
        anchor = static_cast<char *>(allocator.mallocAff(req));
        std::vector<void *> slots;
        for (std::uint64_t i = 0; i < req.num_elem; ++i) {
            const void *aff = anchor + i * 64;
            slots.push_back(allocator.mallocAff(64, 1, &aff));
        }
        const BankId victim = machine.bankOfHost(slots[0]);
        for (void *s : slots)
            allocator.freeAff(s);
        return {victim, anchor};
    }

    char *anchor = nullptr;
};

} // namespace

TEST(MachineFault, SpareOfSpareKillRekeysFreeLists)
{
    // Directed regression for the chaos engine's headline defect:
    // kill a bank whose freed slots sit on the free lists, then kill
    // the spare those slots were re-keyed to. The hardened keying
    // reconciles at each redirect change (counted in rekeyedSlots)
    // and the audit stays green; nothing asserts or crashes.
    KeyingFixture f;
    const auto parked = f.parkSlots();
    const BankId victim = parked.first;
    const void *aff = parked.second;
    f.machine.audit(); // clean baseline

    f.machine.injectBankFault(victim);
    f.machine.audit();
    const std::uint64_t first = f.allocator.allocStats().rekeyedSlots;
    EXPECT_GT(first, 0u);

    // The designated spare is already carrying the victim's slots;
    // now it dies too (spare-of-spare exhaustion).
    const BankId spare = f.machine.faultPlan().redirect(victim);
    ASSERT_TRUE(f.machine.bankLive(spare));
    f.machine.injectBankFault(spare);
    f.machine.audit();
    EXPECT_GT(f.allocator.allocStats().rekeyedSlots, first);

    // Allocation aimed at the doubly-dead neighbourhood degrades to
    // a live bank instead of failing an internal check.
    void *slot = f.allocator.mallocAff(64, 1, &aff);
    ASSERT_NE(slot, nullptr);
    EXPECT_TRUE(f.machine.bankLive(f.machine.bankOfHost(slot)));
    f.allocator.freeAff(slot);
    f.machine.audit();
}

TEST(MachineFault, AuditCatchesStaleSpareKeying)
{
    // The free-list audit is the net under the keying: a slot on the
    // list of a bank that does not serve it (what keying by the
    // alloc-time bank's spare left behind after a re-affinity
    // re-target) is reported.
    KeyingFixture f;
    const void *aff = f.parkSlots().second;
    void *slot = f.allocator.mallocAff(64, 1, &aff);
    ASSERT_NE(slot, nullptr);
    const Addr sim = f.machine.addressSpace().simAddrOf(slot);
    const int k =
        static_cast<int>((sim - mem::poolVirtBase) / mem::terabyte);
    const BankId served = f.machine.bankOfSim(sim);
    EXPECT_TRUE(f.machine.auditor().collect().empty());

    f.allocator.adoptFreeSlotForTest(k, (served + 1) % kBanks, slot, sim);
    bool stale = false;
    for (const simcheck::Violation &v : f.machine.auditor().collect()) {
        stale = stale ||
                (v.component == "alloc" &&
                 v.check == "freelist-integrity" &&
                 v.message.find("stale spare keying") != std::string::npos);
    }
    EXPECT_TRUE(stale);
}

TEST(StreamFault, BackoffExponentIsCappedAtEight)
{
    // Past attempt 8 the backoff stops doubling (2^min(attempt, 8)):
    // with 12 retries the chain grows by the capped geometric sum.
    constexpr std::uint32_t kRetries = 12;
    sim::MachineConfig cfg;
    cfg.faults.offloadRejectRate = 1.0;
    cfg.faults.maxOffloadRetries = kRetries;
    cfg.faults.offloadRetryBackoff = 16;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});
    nsc::StreamExecutor exec(machine, ExecMode::nearL3);

    char *p = static_cast<char *>(allocator.allocInterleaved(4096, 64, 0));
    const Addr sim = machine.addressSpace().simAddrOf(p);
    nsc::MigratingStream s(0);
    machine.beginEpoch();
    exec.configure(s, sim);
    machine.endEpoch();
    EXPECT_TRUE(s.fellBackInCore());
    EXPECT_EQ(machine.stats().offloadRetries, kRetries + 1);
    EXPECT_EQ(machine.stats().offloadFallbacks, 1u);
    // Exponents: 0..8 then 8, 8, 8, 8 -> sum = (2^9 - 1) + 4 * 2^8.
    const double capped_sum =
        16.0 * (511.0 + 4.0 * 256.0);
    EXPECT_GE(s.chainLatency(), capped_sum);
    // An uncapped exponent would add 16*(2^9+2^10+2^11+2^12 - 4*2^8)
    // = 112640 more; make sure we are nowhere near that.
    EXPECT_LT(s.chainLatency(), capped_sum + 112640.0);
}
