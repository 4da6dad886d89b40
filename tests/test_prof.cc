/**
 * @file
 * Host-side self-profiler tests: enabling profiling must be invisible
 * to the simulation (identical determinism digests on and off), and
 * the harvested phase tree must obey the structural invariants
 * tools/perf_diff.py and the JSON export rely on (child inclusive time
 * bounded by the parent, exclusive = inclusive minus children,
 * counters monotone).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hh"
#include "harness/sweep.hh"
#include "serve/serve.hh"
#include "sim/prof.hh"
#include "sim/simcheck.hh"
#include "workloads/graph_workloads.hh"

#include "test_helpers.hh"

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

/** Re-arm a clean profiler for one test and clean up afterwards. */
struct ProfFixture : ::testing::Test {
    void
    SetUp() override
    {
        prof::setEnabled(false);
        prof::resetForTest();
    }
    void
    TearDown() override
    {
        prof::setEnabled(false);
        prof::resetForTest();
    }
};

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

std::string
runDigest()
{
    RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
    GraphParams p;
    p.graph = &testGraph();
    p.iters = 2;
    const RunResult r = runPageRankPush(rc, p);
    EXPECT_TRUE(r.valid);
    return simcheck::digestToString(r.digest());
}

/** Sum of the children's inclusive ns for one harvested node. */
std::uint64_t
childrenInclusive(const prof::PhaseNode &n)
{
    std::uint64_t sum = 0;
    for (const prof::PhaseNode &c : n.children)
        sum += c.inclusiveNs;
    return sum;
}

void
checkTreeInvariants(const prof::PhaseNode &n)
{
    EXPECT_GT(n.count, 0u) << n.name;
    // A child's time is contained in the parent's: children can never
    // sum past the parent's inclusive time.
    EXPECT_LE(childrenInclusive(n), n.inclusiveNs) << n.name;
    EXPECT_EQ(n.exclusiveNs, n.inclusiveNs - childrenInclusive(n))
        << n.name;
    for (const prof::PhaseNode &c : n.children)
        checkTreeInvariants(c);
}

const prof::PhaseNode *
findPhase(const std::vector<prof::PhaseNode> &nodes, const char *name)
{
    for (const prof::PhaseNode &n : nodes) {
        if (n.name == name)
            return &n;
        if (const prof::PhaseNode *hit = findPhase(n.children, name))
            return hit;
    }
    return nullptr;
}

} // namespace

// ----------------------------------------------------- digest neutrality

using ProfNeutrality = ProfFixture;

TEST_F(ProfNeutrality, DigestsIdenticalProfOnAndOff)
{
    const std::string off = runDigest();
    prof::setEnabled(true);
    const std::string on = runDigest();
    EXPECT_EQ(on, off);
}

// --------------------------------------------------------- phase trees

using ProfPhases = ProfFixture;

TEST_F(ProfPhases, ScopesNestIntoATree)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        PROF_SCOPE("test/outer");
        {
            PROF_SCOPE("test/inner");
        }
        {
            PROF_SCOPE("test/inner");
        }
    }
    const prof::Snapshot snap = prof::harvest();
    const prof::PhaseNode *outer = findPhase(snap.phases, "test/outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->count, 3u);
    ASSERT_EQ(outer->children.size(), 1u);
    EXPECT_EQ(outer->children[0].name, "test/inner");
    EXPECT_EQ(outer->children[0].count, 6u);
    checkTreeInvariants(*outer);
}

TEST_F(ProfPhases, AddTimedRecordsARetroactivePhase)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    prof::addTimed("test/record", 1000);
    prof::addTimed("test/record", 500);
    const prof::Snapshot snap = prof::harvest();
    const prof::PhaseNode *rec = findPhase(snap.phases, "test/record");
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->count, 2u);
    EXPECT_EQ(rec->inclusiveNs, 1500u);
    EXPECT_EQ(rec->exclusiveNs, 1500u);
}

TEST_F(ProfPhases, RealRunSatisfiesTreeInvariants)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    runDigest();
    const prof::Snapshot snap = prof::harvest();
    ASSERT_FALSE(snap.phases.empty());
    for (const prof::PhaseNode &root : snap.phases)
        checkTreeInvariants(root);
    // The epoch loop's signature phases must be present: the in-epoch
    // phase (addTimed) and the epoch-end audit.
    EXPECT_NE(findPhase(snap.phases, "machine/epoch.record"), nullptr);
    EXPECT_NE(findPhase(snap.phases, "machine/epoch.audit"), nullptr);
    EXPECT_NE(findPhase(snap.phases, "alloc/malloc_aff.affine"), nullptr);
}

namespace
{

std::uint64_t
exclusiveSum(const std::vector<prof::PhaseNode> &nodes)
{
    std::uint64_t sum = 0;
    for (const prof::PhaseNode &n : nodes)
        sum += n.exclusiveNs + exclusiveSum(n.children);
    return sum;
}

bool
isWorkPhase(const std::string &name)
{
    return name.rfind("alloc/", 0) == 0 ||
           name.rfind("machine/epoch.", 0) == 0;
}

/**
 * Count the work phases (allocator, epoch) beneath a tenant/quantum;
 * fail on any that sits under neither a quantum nor a serve/baseline
 * (the unloaded baselines run outside the scheduler).
 */
std::size_t
checkWorkNesting(const std::vector<prof::PhaseNode> &nodes,
                 const std::string &owner)
{
    std::size_t underQuantum = 0;
    for (const prof::PhaseNode &n : nodes) {
        if (isWorkPhase(n.name)) {
            EXPECT_FALSE(owner.empty()) << n.name << " is outside any "
                                        << "quantum or baseline";
            underQuantum += owner == "tenant/quantum";
        }
        const bool owns =
            n.name == "tenant/quantum" || n.name == "serve/baseline";
        underQuantum += checkWorkNesting(n.children, owns ? n.name : owner);
    }
    return underQuantum;
}

} // namespace

TEST_F(ProfPhases, ServeJobWorkNestsUnderTheGrantingQuantum)
{
    // Serve jobs run as fibers on the scheduler's thread: the work a
    // job does inside a quantum is charged beneath that quantum, never
    // in a root of its own, and the tree partitions the wall clock.
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    serve::ServeOptions o;
    o.quick = true;
    o.seed = 3;
    o.numRequests = 8;
    o.slots = 2;
    o.queueCapacity = 8;
    o.arrivalsPerMcycle = 2.0;
    o.maxCycles = 2'000'000'000ULL;
    o.quantumEpochs = 2;
    const serve::ServeReport r = serve::runServe(o);
    EXPECT_TRUE(r.allValid);
    const prof::Snapshot snap = prof::harvest();
    ASSERT_GT(snap.wallNs, 0u);
    EXPECT_LE(exclusiveSum(snap.phases), snap.wallNs);
    for (const prof::PhaseNode &root : snap.phases) {
        EXPECT_FALSE(isWorkPhase(root.name)) << root.name << " is a root";
        checkTreeInvariants(root);
    }
    EXPECT_GT(checkWorkNesting(snap.phases, ""), 0u);
    const prof::PhaseNode *quantum = findPhase(snap.phases, "tenant/quantum");
    ASSERT_NE(quantum, nullptr);
    EXPECT_NE(findPhase(quantum->children, "machine/epoch.record"),
              nullptr);
}

TEST_F(ProfPhases, SampledEstimatesFitInsideAnExactlyTimedParent)
{
    // One timed entry of ~1 ms scales up to an estimate of tens of ms
    // for 64 entries, far past the parent that really contains them.
    // The exactly timed parent keeps its measured time; the sampled
    // child is shrunk to fit inside it.
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    const std::uint64_t t0 = prof::nowNs();
    {
        PROF_SCOPE("test/exact");
        for (int i = 0; i < 64; ++i) {
            PROF_SCOPE_SAMPLED("test/sampled");
            if (i == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    const std::uint64_t outside = prof::nowNs() - t0;
    const prof::Snapshot snap = prof::harvest();
    const prof::PhaseNode *exact = findPhase(snap.phases, "test/exact");
    ASSERT_NE(exact, nullptr);
    ASSERT_EQ(exact->children.size(), 1u);
    const prof::PhaseNode &sampled = exact->children[0];
    EXPECT_TRUE(sampled.sampled);
    EXPECT_EQ(sampled.count, 64u);
    // The parent reads what its clock measured: at least the sleep and
    // at most the time around the whole scope.
    EXPECT_GE(exact->inclusiveNs, 1'000'000u);
    EXPECT_LE(exact->inclusiveNs, outside);
    checkTreeInvariants(*exact);
    EXPECT_LE(exclusiveSum(snap.phases), snap.wallNs);
}

TEST_F(ProfPhases, DisabledScopesRecordNothing)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    {
        PROF_SCOPE("test/should-not-exist");
    }
    prof::addTimed("test/should-not-exist", 42);
    const prof::Snapshot snap = prof::harvest();
    EXPECT_EQ(findPhase(snap.phases, "test/should-not-exist"), nullptr);
    EXPECT_EQ(snap.wallNs, 0u);
}

// ------------------------------------------------- counters & telemetry

using ProfTelemetry = ProfFixture;

TEST_F(ProfTelemetry, CountersAddAndMax)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    prof::counterAdd("test/adds", 2);
    prof::counterAdd("test/adds", 3);
    prof::counterMax("test/hwm", 7);
    prof::counterMax("test/hwm", 4);
    const prof::Snapshot snap = prof::harvest();
    std::uint64_t adds = 0, hwm = 0;
    for (const auto &kv : snap.counters) {
        if (kv.first == "test/adds")
            adds = kv.second;
        if (kv.first == "test/hwm")
            hwm = kv.second;
    }
    EXPECT_EQ(adds, 5u);
    EXPECT_EQ(hwm, 7u);
}

TEST_F(ProfTelemetry, ArenaFootprintsKeepTheHighWatermark)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    prof::noteArenaFootprint(2, 1000);
    prof::noteArenaFootprint(2, 500);
    prof::noteArenaFootprint(9, 42);
    const prof::Snapshot snap = prof::harvest();
    ASSERT_EQ(snap.arenas.size(), 2u);
    EXPECT_EQ(snap.arenas[0].first, 2u);
    EXPECT_EQ(snap.arenas[0].second, 1000u);
    EXPECT_EQ(snap.arenas[1].first, 9u);
    EXPECT_EQ(snap.arenas[1].second, 42u);
}

// ------------------------------------------------------------ export

using ProfExport = ProfFixture;

TEST_F(ProfExport, WriteJsonEmitsTheVersionedSchema)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    {
        PROF_SCOPE("test/export");
    }
    prof::counterAdd("test/counter", 11);
    const prof::Snapshot snap = prof::harvest();

    std::string buf(1 << 16, '\0');
    std::FILE *mem = fmemopen(buf.data(), buf.size(), "w");
    ASSERT_NE(mem, nullptr);
    EXPECT_TRUE(prof::writeJson(mem, snap));
    std::fclose(mem);
    const std::string json = buf.c_str();

    EXPECT_NE(json.find("\"schema\": \"affalloc-prof-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"test/export\""), std::string::npos);
    EXPECT_NE(json.find("\"test/counter\": 11"), std::string::npos);
    EXPECT_NE(json.find("\"rss\""), std::string::npos);
    // Crude structural check; CI round-trips the real file through
    // python3 -m json.tool.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST_F(ProfExport, ResetForTestClearsEverything)
{
    if (!prof::compiledIn)
        GTEST_SKIP() << "built with -DAFFALLOC_PROF=OFF";
    prof::setEnabled(true);
    {
        PROF_SCOPE("test/reset");
    }
    prof::counterAdd("test/reset", 1);
    prof::noteArenaFootprint(0, 1);
    prof::resetForTest();
    const prof::Snapshot snap = prof::harvest();
    EXPECT_EQ(findPhase(snap.phases, "test/reset"), nullptr);
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.arenas.empty());
    EXPECT_TRUE(snap.pools.empty());
}

// ------------------------------------------------------ flag validation

TEST(ProfFlags, ProgressRejectsGarbageAndOutOfRange)
{
    char prog[] = "bench";
    for (const char *bad :
         {"--progress=0", "--progress=-1", "--progress=potato",
          "--progress=1e9", "--progress="}) {
        std::vector<char> flag(bad, bad + std::strlen(bad) + 1);
        char *argv[] = {prog, flag.data()};
        EXPECT_THROW(harness::applyProfFlags(2, argv), FatalError)
            << bad;
    }
}

TEST(ProfFlags, ProfOutRejectsUnwritablePathUpFront)
{
    char prog[] = "bench";
    char flag[] = "--prof-out=/nonexistent-dir/prof.json";
    char *argv[] = {prog, flag};
    EXPECT_THROW(harness::applyProfFlags(2, argv), FatalError);
}

TEST(ProfFlags, ProfOutRejectsEmptyPath)
{
    char prog[] = "bench";
    char flag[] = "--prof-out=";
    char *argv[] = {prog, flag};
    EXPECT_THROW(harness::applyProfFlags(2, argv), FatalError);
}
