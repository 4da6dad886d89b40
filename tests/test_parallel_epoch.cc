/**
 * @file
 * Shard-parallel epoch execution: the simulator's acceptance oracle is
 * that --sim-threads is *invisible* in every observable — determinism
 * digests, stats, timelines — at any thread count, healthy or faulty,
 * including mid-epoch aborts and the livelock watchdog. These tests
 * pin that down across the graph/affine workloads that opt into
 * deferred epochs, the serving front-end, and the chaos fuzzer.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.hh"
#include "graph/generators.hh"
#include "harness/sweep.hh"
#include "mem/address.hh"
#include "serve/serve.hh"
#include "sim/rng.hh"
#include "sim/simcheck.hh"
#include "sim/worker_pool.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/affine_workloads.hh"

#include "test_helpers.hh"

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

const graph::Csr &
testGraph()
{
    static const graph::Csr g = [] {
        graph::KroneckerParams p;
        p.scale = 10;
        p.edgeFactor = 8;
        return graph::kronecker(p);
    }();
    return g;
}

GraphParams
graphParams()
{
    GraphParams p;
    p.graph = &testGraph();
    p.iters = 2;
    return p;
}

/** The thread counts the acceptance criteria call out. */
const std::vector<std::uint32_t> kThreadCounts = {1, 2, 4, 7};

std::string
digestAt(const std::string &workload, ExecMode mode,
         std::uint32_t sim_threads, std::uint32_t offline_banks = 0)
{
    RunConfig rc = RunConfig::forMode(mode);
    rc.machine.simThreads = sim_threads;
    rc.machine.faults.offlineBanks = offline_banks;
    RunResult r;
    if (workload == "pr_push")
        r = runPageRankPush(rc, graphParams());
    else if (workload == "bfs")
        r = runBfs(rc, graphParams(), defaultBfsStrategy(mode)).run;
    else if (workload == "sssp_pq")
        r = runSsspPq(rc, graphParams());
    else if (workload == "hotspot") {
        HotspotParams p;
        p.iters = 2;
        r = runHotspot(rc, p);
    }
    EXPECT_TRUE(r.valid) << workload << " sim-threads " << sim_threads;
    return simcheck::digestToString(r.digest());
}

} // namespace

// ------------------------------------------- digest thread-invariance

TEST(ParallelEpoch, GraphDigestsIdenticalAcrossThreadCounts)
{
    for (const char *wl : {"pr_push", "bfs", "sssp_pq"}) {
        const std::string base = digestAt(wl, ExecMode::affAlloc, 1);
        for (const std::uint32_t t : kThreadCounts) {
            EXPECT_EQ(digestAt(wl, ExecMode::affAlloc, t), base)
                << wl << " diverged at sim-threads " << t;
        }
    }
}

TEST(ParallelEpoch, AffineDigestsIdenticalAcrossThreadCounts)
{
    const std::string base = digestAt("hotspot", ExecMode::affAlloc, 1);
    for (const std::uint32_t t : kThreadCounts)
        EXPECT_EQ(digestAt("hotspot", ExecMode::affAlloc, t), base)
            << "hotspot diverged at sim-threads " << t;
}

TEST(ParallelEpoch, NearL3ModeDigestsIdentical)
{
    const std::string base = digestAt("pr_push", ExecMode::nearL3, 1);
    for (const std::uint32_t t : kThreadCounts)
        EXPECT_EQ(digestAt("pr_push", ExecMode::nearL3, t), base)
            << "near-L3 diverged at sim-threads " << t;
}

TEST(ParallelEpoch, FaultyMachineDigestsIdentical)
{
    // Offline banks reroute homes through spares and trigger offload
    // NACK retries — the replay must reproduce that traffic exactly.
    const std::string base =
        digestAt("pr_push", ExecMode::affAlloc, 1, /*offline_banks=*/3);
    for (const std::uint32_t t : kThreadCounts)
        EXPECT_EQ(digestAt("pr_push", ExecMode::affAlloc, t, 3), base)
            << "faulty run diverged at sim-threads " << t;
}

// --------------------------------------------------- abort mid-epoch

TEST(ParallelEpoch, AbortMidDeferredEpochRewindsStatsExactly)
{
    sim::MachineConfig cfg;
    cfg.simThreads = 4;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    alloc::AffinityAllocator allocator(machine, {});

    void *p = allocator.allocPlain(1 << 14);
    const Addr sim = machine.addressSpace().simAddrOf(p);

    const sim::Stats pre = machine.stats();
    machine.beginEpoch(/*deferrable=*/true);
    ASSERT_TRUE(machine.epochDeferred());
    for (Addr off = 0; off < (1 << 14); off += 64)
        machine.coreAccess(0, sim + off, 64, AccessType::read);
    machine.l3StreamAccess(0, sim, 256, AccessType::write);
    machine.abortEpoch();

    sim::Stats post = machine.stats();
    EXPECT_EQ(post.abortedEpochs, pre.abortedEpochs + 1);
    post.abortedEpochs = pre.abortedEpochs;
    EXPECT_EQ(simcheck::digestOfStats(post), simcheck::digestOfStats(pre));
    EXPECT_FALSE(machine.inEpoch());
}

TEST(ParallelEpoch, AbortLeavesSameCacheStateAsClassic)
{
    // Abort keeps cache/TLB state and lifetime NoC counters exactly as
    // classic inline execution would have left them; a follow-up epoch
    // of identical work must therefore produce identical stats.
    auto runOne = [](std::uint32_t sim_threads) {
        sim::MachineConfig cfg;
        cfg.simThreads = sim_threads;
        os::SimOS sim_os(cfg);
        nsc::Machine machine(cfg, sim_os);
        alloc::AffinityAllocator allocator(machine, {});
        void *p = allocator.allocPlain(1 << 14);
        const Addr sim = machine.addressSpace().simAddrOf(p);

        machine.beginEpoch(/*deferrable=*/true);
        for (Addr off = 0; off < (1 << 14); off += 64)
            machine.coreAccess(0, sim + off, 64, AccessType::read);
        machine.abortEpoch();

        machine.beginEpoch(/*deferrable=*/true);
        for (Addr off = 0; off < (1 << 14); off += 64)
            machine.coreAccess(0, sim + off, 64, AccessType::read);
        machine.l3StreamAccess(5, sim, 512, AccessType::atomic);
        machine.endEpoch();
        return simcheck::digestOfStats(machine.stats());
    };
    const auto classic = runOne(1);
    EXPECT_EQ(runOne(2), classic);
    EXPECT_EQ(runOne(4), classic);
}

// ------------------------------- randomized primitive differential

namespace
{

/** One machine setup the primitive oracle runs under. */
struct OracleScenario
{
    const char *name;
    std::uint32_t offlineBanks = 0;
    std::uint32_t degradedLinks = 0;
    /** Kill a bank / degrade a link between epochs now and then. */
    bool midRunFaults = false;
};

/** Everything the oracle compares across thread counts. */
struct OracleResult
{
    sim::Stats stats;
    std::vector<sim::EpochRecord> timeline;
    std::vector<mem::CacheModel> l3;
    std::vector<std::uint64_t> lifetimeLinkFlits;
};

/**
 * Drive the raw Machine primitives with a seeded random mix: mostly
 * deferrable epochs (recorded and replayed at sim-threads > 1), some
 * classic ones, and an occasional abortEpoch() mid-epoch. Every choice
 * comes from the seed alone, never from an AccessOutcome, so the same
 * seed issues the same calls at any thread count. Small caches and
 * TLBs force L1/L2 victim writebacks, L3 misses, dirty L3 evictions
 * and TLB walks.
 */
OracleResult
runPrimitiveMix(const OracleScenario &sc, std::uint32_t sim_threads,
                std::uint64_t seed)
{
    sim::MachineConfig cfg;
    cfg.simThreads = sim_threads;
    cfg.faults.offlineBanks = sc.offlineBanks;
    cfg.faults.degradedLinks = sc.degradedLinks;
    cfg.l1SizeBytes = 2 * 1024;
    cfg.l1Assoc = 2;
    cfg.l2SizeBytes = 8 * 1024;
    cfg.l2Assoc = 4;
    cfg.l3BankSizeBytes = 4 * 1024;
    cfg.l3Assoc = 4;
    cfg.l1TlbEntries = 8;
    cfg.l1TlbAssoc = 2;
    cfg.l2TlbEntries = 32;
    cfg.seTlbEntries = 16;
    os::SimOS sim_os(cfg);
    nsc::Machine m(cfg, sim_os);
    alloc::AffinityAllocator allocator(m, {});

    // Plain heap, a 64 B interleave pool and page-at-bank memory.
    constexpr std::uint64_t regionBytes = 96 * 1024;
    const Addr regions[] = {
        m.addressSpace().simAddrOf(allocator.allocPlain(regionBytes)),
        m.addressSpace().simAddrOf(
            allocator.allocInterleaved(regionBytes, 64, 3)),
        m.addressSpace().simAddrOf(
            allocator.allocInterleaved(regionBytes, mem::pageSize, 5)),
    };
    const std::uint32_t cores = cfg.numTiles();
    const std::uint32_t banks = cfg.numBanks();

    Rng rng(seed);
    const auto addr = [&](std::uint32_t bytes) {
        const Addr base = regions[rng.below(3)];
        return base + rng.below(regionBytes - bytes + 1);
    };
    const auto liveBank = [&] {
        return m.faultPlan().redirect(
            static_cast<BankId>(rng.below(banks)));
    };
    const auto core = [&] { return static_cast<CoreId>(rng.below(cores)); };
    const AccessType types[] = {AccessType::read, AccessType::write,
                                AccessType::atomic};

    for (int epoch = 0; epoch < 48; ++epoch) {
        if (sc.midRunFaults && rng.chance(0.1)) {
            if (rng.chance(0.5))
                m.injectBankFault(static_cast<BankId>(rng.below(banks)));
            else
                m.injectLinkDegrade(
                    static_cast<std::uint32_t>(
                        rng.below(m.network().mesh().numLinks())),
                    2 + static_cast<std::uint32_t>(rng.below(3)));
        }
        m.beginEpoch(/*deferrable=*/!rng.chance(0.15));
        const bool abort = rng.chance(0.08);
        // Half the epochs aim most core accesses at one hot core, so
        // its busy time, MLP penalties included, sets the duration.
        const bool hot_epoch = rng.chance(0.5);
        const CoreId hot = core();
        const int ops = 100 + static_cast<int>(rng.below(200));
        for (int i = 0; i < ops; ++i) {
            if (abort && i == ops / 2)
                break;
            switch (rng.below(10)) {
              case 0:
              case 1:
              case 2: {
                const CoreId c =
                    hot_epoch && rng.chance(0.7) ? hot : core();
                const std::uint32_t bytes = 1 + rng.below(160);
                const Addr a = addr(bytes);
                const AccessType type = types[rng.below(3)];
                m.coreAccess(c, a, bytes, type, rng.chance(0.5));
                break;
              }
              case 3:
              case 4: {
                const std::uint32_t bytes = 1 + rng.below(160);
                const Addr a = addr(bytes);
                // Half the streams run at the line's home bank.
                const BankId req = rng.chance(0.5) ? m.bankOfSim(a)
                                                   : liveBank();
                const AccessType type = types[rng.below(3)];
                m.l3StreamAccess(req, a, bytes, type);
                break;
              }
              case 5:
              case 6: {
                // Bank-to-bank traffic: forward or migrate.
                const BankId from = liveBank();
                const BankId to = liveBank();
                if (rng.chance(0.7))
                    m.forwardData(from, to, 8 + rng.below(120));
                else
                    m.migrateStream(from, to);
                break;
              }
              case 7: {
                // Core-to-bank control: configure, NACK or credit.
                const CoreId c = core();
                const BankId b = liveBank();
                const std::uint64_t pick = rng.below(3);
                if (pick == 0)
                    m.configStream(c, b);
                else if (pick == 1)
                    m.offloadNack(c, b);
                else
                    m.creditMessage(c, b);
                break;
              }
              case 8: {
                const CoreId c = core();
                m.coreCompute(c, double(rng.below(4096)));
                break;
              }
              default: {
                const BankId b = liveBank();
                m.seCompute(b, double(rng.below(4096)));
                if (rng.chance(0.2))
                    m.noteAtomicStream(b);
                break;
              }
            }
        }
        if (abort)
            m.abortEpoch();
        else
            m.endEpoch(double(rng.below(64)),
                       "e" + std::to_string(epoch % 3));
    }

    OracleResult r;
    r.stats = m.stats();
    r.timeline = m.timeline().records();
    for (BankId b = 0; b < banks; ++b)
        r.l3.push_back(m.l3Bank(b));
    r.lifetimeLinkFlits = m.network().lifetimeLinkFlits();
    return r;
}

} // namespace

TEST(ParallelEpochOracle, RandomPrimitiveMixMatchesSerial)
{
    const OracleScenario scenarios[] = {
        {"healthy"},
        {"offline-banks+degraded-links", 3, 6},
        {"faults+mid-run-faults", 2, 4, true},
        {"mid-run-faults", 0, 0, true},
    };
    for (const OracleScenario &sc : scenarios) {
        for (const std::uint64_t seed : {1ull, 0x5eedull}) {
            SCOPED_TRACE(std::string(sc.name) + " seed " +
                         std::to_string(seed));
            const OracleResult base = runPrimitiveMix(sc, 1, seed);
            ASSERT_FALSE(base.timeline.empty());
            // The mix must reach the charges it is meant to compare:
            // aborts, L3 misses, dirty L3 victims (DRAM accesses beyond
            // the misses) and TLB walks.
            EXPECT_GT(base.stats.abortedEpochs, 0u);
            EXPECT_GT(base.stats.l3Misses, 0u);
            EXPECT_GT(base.stats.dramAccesses, base.stats.l3Misses);
            EXPECT_GT(base.stats.tlbWalks, 0u);
            for (const std::uint32_t t : {2u, 4u, 7u}) {
                const OracleResult r = runPrimitiveMix(sc, t, seed);
                EXPECT_EQ(simcheck::digestOfStats(r.stats),
                          simcheck::digestOfStats(base.stats))
                    << "stats diverged at sim-threads " << t;
                ASSERT_EQ(r.timeline.size(), base.timeline.size());
                for (std::size_t i = 0; i < r.timeline.size(); ++i) {
                    EXPECT_EQ(r.timeline[i].endCycle,
                              base.timeline[i].endCycle)
                        << "epoch " << i << " sim-threads " << t;
                    EXPECT_EQ(r.timeline[i].atomicStreamsPerBank,
                              base.timeline[i].atomicStreamsPerBank)
                        << "epoch " << i << " sim-threads " << t;
                    EXPECT_EQ(r.timeline[i].phase, base.timeline[i].phase);
                }
                for (std::size_t b = 0; b < r.l3.size(); ++b)
                    EXPECT_TRUE(r.l3[b] == base.l3[b])
                        << "L3 bank " << b << " tags diverged at "
                        << "sim-threads " << t;
                EXPECT_EQ(r.lifetimeLinkFlits, base.lifetimeLinkFlits)
                    << "sim-threads " << t;
            }
        }
    }
}

// ------------------------------------------------------------ watchdog

TEST(ParallelEpoch, WatchdogFiresOnStalledDeferredEpochs)
{
    sim::MachineConfig cfg;
    cfg.simThreads = 4;
    cfg.simcheck.watchdogStallEpochs = 3;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);

    for (int i = 0; i < 2; ++i) {
        machine.beginEpoch(/*deferrable=*/true);
        EXPECT_NO_THROW(machine.endEpoch());
    }
    machine.beginEpoch(/*deferrable=*/true);
    EXPECT_THROW(machine.endEpoch(), simcheck::LivelockError);
}

// ----------------------------------------------- serve + chaos parity

TEST(ParallelEpoch, ServeReportDigestIdentical)
{
    auto runOne = [](std::uint32_t sim_threads) {
        serve::ServeOptions sopts;
        sopts.quick = true;
        sopts.numRequests = 16;
        sopts.machine.simThreads = sim_threads;
        const serve::ServeReport rep = serve::runServe(sopts);
        return simcheck::digestToString(rep.digest());
    };
    const std::string base = runOne(1);
    EXPECT_EQ(runOne(4), base);
}

TEST(ParallelEpoch, ChaosSmokeVerdictsIdentical)
{
    // FuzzOptions carries no MachineConfig; campaigns pick up the
    // process-wide default, so flip it the way the CLI flag would.
    auto runOne = [](unsigned sim_threads) {
        sim::setDefaultSimThreads(sim_threads);
        chaos::FuzzOptions f;
        f.campaigns = 8;
        f.jobs = 1;
        const chaos::FuzzReport rep = chaos::runFuzz(f);
        sim::setDefaultSimThreads(1);
        return rep;
    };
    const chaos::FuzzReport base = runOne(1);
    const chaos::FuzzReport par = runOne(4);
    EXPECT_EQ(par.failures, base.failures);
    EXPECT_EQ(par.digest, base.digest);
}

// -------------------------------------------------- flag validation

TEST(ParallelEpoch, ApplySimThreadsRejectsZero)
{
    char prog[] = "bench";
    char flag[] = "--sim-threads";
    char val[] = "0";
    char *argv[] = {prog, flag, val};
    EXPECT_THROW(harness::applySimThreads(3, argv), FatalError);
}

TEST(ParallelEpoch, ApplySimThreadsRejectsGarbageAndAbsurd)
{
    char prog[] = "bench";
    {
        char flag[] = "--sim-threads=12potatoes";
        char *argv[] = {prog, flag};
        EXPECT_THROW(harness::applySimThreads(2, argv), FatalError);
    }
    {
        char flag[] = "--sim-threads=4096";
        char *argv[] = {prog, flag};
        EXPECT_THROW(harness::applySimThreads(2, argv), FatalError);
    }
}

TEST(ParallelEpoch, ApplySimThreadsRejectsMoreThanHardwareThreads)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        GTEST_SKIP() << "hardware_concurrency unknown on this host";
    unsetenv("AFFALLOC_SIM_OVERSUBSCRIBE");
    const std::string v = "--sim-threads=" + std::to_string(hw + 1);
    char prog[] = "bench";
    std::vector<char> flag(v.begin(), v.end());
    flag.push_back('\0');
    char *argv[] = {prog, flag.data()};
    EXPECT_THROW(harness::applySimThreads(2, argv), FatalError);
    // The documented escape hatch for cgroup-limited containers.
    setenv("AFFALLOC_SIM_OVERSUBSCRIBE", "1", 1);
    EXPECT_EQ(harness::applySimThreads(2, argv), hw + 1);
    unsetenv("AFFALLOC_SIM_OVERSUBSCRIBE");
    sim::setDefaultSimThreads(1);
}

TEST(ParallelEpoch, ApplySimThreadsInstallsTheDefault)
{
    char prog[] = "bench";
    char flag[] = "--sim-threads=1";
    char *argv[] = {prog, flag};
    EXPECT_EQ(harness::applySimThreads(2, argv), 1u);
    EXPECT_EQ(sim::defaultSimThreads(), 1u);
    // Unset: falls back to the environment, then to 1.
    unsetenv("AFFALLOC_SIM_THREADS");
    EXPECT_EQ(harness::applySimThreads(1, argv), 1u);
    setenv("AFFALLOC_SIM_THREADS", "1", 1);
    EXPECT_EQ(harness::applySimThreads(1, argv), 1u);
    unsetenv("AFFALLOC_SIM_THREADS");
    sim::setDefaultSimThreads(1);
}
