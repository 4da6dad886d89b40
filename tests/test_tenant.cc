/**
 * @file
 * Multi-tenant co-run subsystem tests: tenant-spec parsing, QoS math,
 * co-run determinism (rerun digests, single-tenant == legacy),
 * scheduler policy behavior, and the cross-tenant arena-ownership
 * audit (corruption injection must be detected).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/affinity_alloc.hh"
#include "nsc/machine.hh"
#include "os/sim_os.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "tenant/qos.hh"
#include "tenant/scheduler.hh"
#include "tenant/workload_registry.hh"
#include "workloads/run_context.hh"

using namespace affalloc;
using namespace affalloc::tenant;

// ------------------------------------------------------------- specs

TEST(TenantSpecs, ParseGrammar)
{
    const auto specs = parseTenantSpecs("hotspot:2:3,srad");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].workload, "hotspot");
    EXPECT_EQ(specs[0].weight, 3u);
    EXPECT_EQ(specs[1].workload, "hotspot");
    EXPECT_EQ(specs[1].weight, 3u);
    EXPECT_EQ(specs[2].workload, "srad");
    EXPECT_EQ(specs[2].weight, 1u);
}

TEST(TenantSpecs, ParseDefaults)
{
    const auto specs = parseTenantSpecs("bfs");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].workload, "bfs");
    EXPECT_EQ(specs[0].weight, 1u);
}

TEST(TenantSpecs, RejectsUnknownWorkload)
{
    EXPECT_THROW(parseTenantSpecs("bogus:2"), FatalError);
    EXPECT_THROW(parseTenantSpecs(""), FatalError);
    EXPECT_THROW(parseTenantSpecs("hotspot:0"), FatalError);
}

TEST(TenantSpecs, RejectsBadCounts)
{
    for (const char *bad : {"hotspot:-1", "hotspot:2x", "hotspot: 2",
                            "hotspot:1025", "hotspot:2:0", "hotspot:2:+3",
                            "hotspot:2:4294967296", "hotspot:2:"})
        EXPECT_THROW(parseTenantSpecs(bad), FatalError) << bad;
    EXPECT_EQ(parseTenantSpecs("hotspot:1024:4294967295").size(), 1024u);
}

TEST(TenantSpecs, RegistryCoversTableThreeClasses)
{
    const auto &names = workloadNames();
    EXPECT_GE(names.size(), 10u);
    for (const char *expect :
         {"vecadd", "hotspot", "bfs", "sssp", "hash_join", "bin_tree"})
        EXPECT_TRUE(isWorkloadName(expect)) << expect;
    EXPECT_FALSE(isWorkloadName("bogus"));
    EXPECT_THROW(workloadRunner("bogus"), FatalError);
}

// --------------------------------------------------------------- qos

TEST(Qos, JainFairnessBounds)
{
    EXPECT_DOUBLE_EQ(jainFairness({}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairness({0.7}), 1.0);
    EXPECT_DOUBLE_EQ(jainFairness({0.5, 0.5, 0.5}), 1.0);
    // One tenant monopolizing -> 1/n.
    EXPECT_NEAR(jainFairness({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
    const double mixed = jainFairness({1.0, 0.5});
    EXPECT_GT(mixed, 0.5);
    EXPECT_LT(mixed, 1.0);
}

TEST(Qos, ComputeQosFillsAggregates)
{
    CorunReport r;
    r.tenants.resize(2);
    r.tenants[0].soloCycles = 100;
    r.tenants[0].finishCycle = 200;
    r.tenants[1].soloCycles = 100;
    r.tenants[1].finishCycle = 400;
    computeQos(r);
    EXPECT_DOUBLE_EQ(r.tenants[0].slowdown, 2.0);
    EXPECT_DOUBLE_EQ(r.tenants[1].slowdown, 4.0);
    EXPECT_DOUBLE_EQ(r.weightedSpeedup, 0.75);
    EXPECT_GT(r.fairness, 0.5);
    EXPECT_LT(r.fairness, 1.0);
}

TEST(Qos, ComputeQosSkipsTenantsWithoutBaseline)
{
    CorunReport r;
    r.tenants.resize(1);
    r.tenants[0].soloCycles = 0;
    r.tenants[0].finishCycle = 500;
    computeQos(r);
    EXPECT_DOUBLE_EQ(r.tenants[0].slowdown, 0.0);
    EXPECT_DOUBLE_EQ(r.weightedSpeedup, 0.0);
    EXPECT_DOUBLE_EQ(r.fairness, 1.0);
}

// ------------------------------------------------------- determinism

namespace
{

CorunOptions
quickOpts(SchedPolicy policy = SchedPolicy::roundRobin)
{
    CorunOptions opts;
    opts.quick = true;
    opts.solo = false; // baselines not needed for digest tests
    opts.policy = policy;
    return opts;
}

} // namespace

TEST(Corun, RerunDigestsAreIdentical)
{
    const std::vector<TenantSpec> specs = {{"hotspot", 1}, {"vecadd", 1}};
    const CorunReport a = runCorun(specs, quickOpts());
    const CorunReport b = runCorun(specs, quickOpts());
    EXPECT_TRUE(a.allValid);
    EXPECT_EQ(a.digest(), b.digest());
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].finishCycle, b.tenants[i].finishCycle);
        EXPECT_EQ(a.tenants[i].epochs, b.tenants[i].epochs);
        EXPECT_EQ(a.tenants[i].run.digest(), b.tenants[i].run.digest());
    }
}

TEST(Corun, SingleTenantMatchesLegacyRun)
{
    // A co-run of one tenant must be byte-identical to the classic
    // whole-machine run: arena 0 keeps the legacy address layout, the
    // load board mirrors the lone allocator's own counters, and stream
    // 0 of the root seed *is* the root seed.
    const CorunOptions opts = quickOpts();
    const CorunReport corun = runCorun({{"hotspot", 1}}, opts);
    ASSERT_EQ(corun.tenants.size(), 1u);

    workloads::RunConfig rc;
    rc.mode = opts.mode;
    rc.allocOpts = opts.allocOpts;
    rc.allocOpts.seed = Rng::substreamSeed(opts.seed, 0);
    rc.machine = opts.machine;
    workloads::RunContext ctx(rc);
    const workloads::RunResult legacy =
        workloadRunner("hotspot")(ctx, opts.seed, /*quick=*/true);

    EXPECT_TRUE(legacy.valid);
    EXPECT_TRUE(corun.tenants[0].run.valid);
    EXPECT_EQ(corun.tenants[0].run.digest(), legacy.digest());
    EXPECT_EQ(corun.tenants[0].run.stats.cycles, legacy.stats.cycles);
    EXPECT_EQ(corun.tenants[0].finishCycle, legacy.stats.cycles);
    EXPECT_EQ(corun.makespan, legacy.stats.cycles);
}

TEST(Corun, WeightedPolicyFavorsHeavyTenant)
{
    // Two identical workloads, weights 1 and 2, tiny quantum: under
    // round-robin the first tenant finishes first (it is granted
    // first); under the weighted policy the heavy tenant gets doubled
    // quanta and overtakes it.
    const std::vector<TenantSpec> specs = {{"hotspot", 1}, {"hotspot", 2}};

    CorunOptions rr = quickOpts(SchedPolicy::roundRobin);
    rr.quantumEpochs = 2;
    const CorunReport rrRep = runCorun(specs, rr);

    CorunOptions w = quickOpts(SchedPolicy::weighted);
    w.quantumEpochs = 2;
    const CorunReport wRep = runCorun(specs, w);

    ASSERT_EQ(rrRep.tenants.size(), 2u);
    ASSERT_EQ(wRep.tenants.size(), 2u);
    EXPECT_LT(rrRep.tenants[0].finishCycle, rrRep.tenants[1].finishCycle);
    EXPECT_LT(wRep.tenants[1].finishCycle, wRep.tenants[0].finishCycle);
    // The heavy tenant finishes strictly earlier than it does under
    // round-robin; total service is unchanged either way.
    EXPECT_LT(wRep.tenants[1].finishCycle, rrRep.tenants[1].finishCycle);
    EXPECT_EQ(rrRep.tenants[0].epochs + rrRep.tenants[1].epochs,
              wRep.tenants[0].epochs + wRep.tenants[1].epochs);
}

TEST(Corun, StatsAttributionSumsToMachineTotal)
{
    // Attributed per-tenant cycles partition the shared clock: the
    // makespan equals the sum of the per-tenant service cycles.
    const CorunReport rep =
        runCorun({{"hotspot", 1}, {"srad", 1}}, quickOpts());
    Cycles service = 0;
    for (const auto &t : rep.tenants)
        service += t.run.stats.cycles;
    EXPECT_EQ(service, rep.makespan);
}

TEST(Corun, SoloBaselinesFillQos)
{
    CorunOptions opts = quickOpts();
    opts.solo = true;
    const CorunReport rep =
        runCorun({{"hotspot", 1}, {"hotspot", 1}}, opts);
    for (const auto &t : rep.tenants) {
        EXPECT_GT(t.soloCycles, 0u);
        EXPECT_GE(t.slowdown, 1.0);
    }
    // Two identical tenants, quantum >= workload epochs: the first
    // finishes at solo speed, the second after both ran — slowdowns
    // {1, 2}, so STP = 1.5 and Jain fairness = 0.9 exactly.
    EXPECT_NEAR(rep.tenants[0].slowdown, 1.0, 1e-9);
    EXPECT_NEAR(rep.tenants[1].slowdown, 2.0, 1e-9);
    EXPECT_NEAR(rep.weightedSpeedup, 1.5, 1e-9);
    EXPECT_NEAR(rep.fairness, 0.9, 1e-9);
}

// ------------------------------------------------------ error paths

namespace
{

/** A runner that runs @p epochs epochs, then throws mid-epoch. */
RunnerFn
failingRunner(std::uint32_t epochs)
{
    return [epochs](workloads::RunContext &ctx, std::uint64_t,
                    bool) -> workloads::RunResult {
        void *buf = ctx.allocator.allocPlain(4096);
        const Addr base = ctx.machine.addressSpace().simAddrOf(buf);
        for (std::uint32_t e = 0; e < epochs; ++e) {
            ctx.machine.beginEpoch();
            ctx.machine.coreAccess(0, base, 8, AccessType::read, false);
            ctx.machine.endEpoch();
        }
        ctx.machine.beginEpoch();
        throw std::runtime_error("tenant failed mid-epoch");
    };
}

/** The registry runner for @p workload, noting when it returns. */
RunnerFn
recordingRunner(const std::string &workload, bool &finished)
{
    return [workload, &finished](workloads::RunContext &ctx,
                                 std::uint64_t seed, bool quick) {
        const workloads::RunResult r =
            workloadRunner(workload)(ctx, seed, quick);
        finished = r.valid;
        return r;
    };
}

} // namespace

TEST(CorunErrors, FailingTenantDrainsTheOthersAndRethrows)
{
    CorunOptions opts = quickOpts();
    opts.quantumEpochs = 2;
    const std::vector<TenantSpec> ref = {{"hotspot", 1}, {"vecadd", 1}};
    const std::uint64_t refDigest = runCorun(ref, opts).digest();

    bool hotspotDone = false;
    bool vecaddDone = false;
    std::vector<TenantSpec> specs = {{"hotspot", 1}, {"boom", 1},
                                     {"vecadd", 1}};
    specs[0].runner = recordingRunner("hotspot", hotspotDone);
    specs[1].runner = failingRunner(5);
    specs[2].runner = recordingRunner("vecadd", vecaddDone);
    EXPECT_THROW(runCorun(specs, opts), std::runtime_error);
    EXPECT_TRUE(hotspotDone);
    EXPECT_TRUE(vecaddDone);

    // Nothing of the failed run leaks into the next one.
    EXPECT_EQ(runCorun(ref, opts).digest(), refDigest);
}

TEST(CorunErrors, ThrowingAdmissionDrainsJobsInFlight)
{
    // admit() admits two jobs, then throws on the next round while
    // both are still running: they must run to completion before the
    // error surfaces.
    struct Admission final : AdmissionControl
    {
        bool done[2] = {false, false};
        int rounds = 0;
        std::vector<AdmittedJob>
        admit(Cycles) override
        {
            if (rounds++ == 1)
                throw std::runtime_error("admission failed");
            std::vector<AdmittedJob> jobs;
            if (rounds > 1)
                return jobs;
            const char *names[2] = {"hotspot", "vecadd"};
            for (std::uint32_t i = 0; i < 2; ++i) {
                AdmittedJob job;
                job.workload = names[i];
                job.runner = recordingRunner(names[i], done[i]);
                job.requestId = i;
                job.arena = i;
                jobs.push_back(job);
            }
            return jobs;
        }
        Cycles idleAdvance(Cycles) override { return 0; }
        void
        onFinish(const AdmittedJob &, const workloads::RunResult &,
                 Cycles) override
        {
            ADD_FAILURE() << "onFinish after the admission error";
        }
    } adm;

    CorunOptions opts = quickOpts();
    opts.quantumEpochs = 2;
    TenantScheduler sched(opts, 2);
    EXPECT_THROW(sched.runOpen(adm), std::runtime_error);
    EXPECT_TRUE(adm.done[0]);
    EXPECT_TRUE(adm.done[1]);
    EXPECT_EQ(adm.rounds, 2);
    // Both jobs' allocators unregistered every host range.
    EXPECT_EQ(sched.machine().addressSpace().size(), 0u);
}

// -------------------------------------------------- cross-tenant audit

TEST(CorunAudit, ForeignArenaSlotIsDetected)
{
    sim::MachineConfig cfg;
    os::SimOS os(cfg);
    const std::uint32_t arenaB = os.createArena();
    ASSERT_EQ(arenaB, 1u);
    nsc::Machine machine(cfg, os);

    alloc::AllocatorOptions optsB;
    optsB.arena = arenaB;
    alloc::AffinityAllocator allocB(machine, optsB);

    // Clean allocator: no violations.
    EXPECT_TRUE(machine.auditor().collect().empty());

    // Plant a free slot whose simulated address sits inside arena 0's
    // slice of pool 0 — tenant B holding tenant A's memory.
    std::uint64_t backing = 0;
    allocB.adoptFreeSlotForTest(0, 0, &backing,
                                os.poolVirtBaseOf(0, 0));
    const auto violations = machine.auditor().collect();
    ASSERT_FALSE(violations.empty());
    bool found = false;
    for (const auto &v : violations)
        found = found || v.message.find("cross-tenant") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(CorunAudit, OwnArenaSlotOutOfRangeStillCaught)
{
    // The arena check must not mask the existing range check: a slot
    // in this allocator's own arena but beyond the pool's bump pointer
    // is still a violation.
    sim::MachineConfig cfg;
    os::SimOS os(cfg);
    nsc::Machine machine(cfg, os);
    alloc::AffinityAllocator alloc0(machine, {});

    std::uint64_t backing = 0;
    alloc0.adoptFreeSlotForTest(0, 0, &backing,
                                os.poolVirtBaseOf(0, 0));
    const auto violations = machine.auditor().collect();
    ASSERT_FALSE(violations.empty());
    bool found = false;
    for (const auto &v : violations)
        found = found ||
                v.message.find("outside the pool") != std::string::npos;
    EXPECT_TRUE(found);
}
