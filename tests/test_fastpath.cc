/**
 * @file
 * Tests for the host-side performance fast paths: the software TLB in
 * front of the page table, the sorted/MRU Interleave Override Table,
 * the AddressSpace host-granule index, the parallel sweep runner, and the
 * digest-equivalence guarantee that every fast path produces results
 * bit-identical to the reference (slow) paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "graph/generators.hh"
#include "harness/sweep.hh"
#include "mem/address_space.hh"
#include "mem/iot.hh"
#include "mem/page_table.hh"
#include "sim/log.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

// ------------------------------------------------------------------
// Software TLB (mem::PageTable)
// ------------------------------------------------------------------

TEST(SoftTlb, TranslateFillsSlot)
{
    mem::PageTable pt;
    pt.map(5, 17);
    EXPECT_FALSE(pt.tlbPeek(5).has_value());
    EXPECT_EQ(pt.translate(mem::pageBase(5) + 12), mem::pageBase(17) + 12);
    ASSERT_TRUE(pt.tlbPeek(5).has_value());
    EXPECT_EQ(pt.tlbPeek(5).value(), 17u);
}

TEST(SoftTlb, DirectMappedEviction)
{
    mem::PageTable pt;
    const Addr v1 = 3;
    const Addr v2 = 3 + mem::PageTable::tlbEntries; // same slot as v1
    pt.map(v1, 100);
    pt.map(v2, 200);
    pt.translate(mem::pageBase(v1));
    EXPECT_TRUE(pt.tlbPeek(v1).has_value());
    // v2 maps to the same direct-mapped slot, evicting v1.
    pt.translate(mem::pageBase(v2));
    EXPECT_FALSE(pt.tlbPeek(v1).has_value());
    ASSERT_TRUE(pt.tlbPeek(v2).has_value());
    EXPECT_EQ(pt.tlbPeek(v2).value(), 200u);
    // Both still translate correctly through the backing table.
    EXPECT_EQ(pt.translate(mem::pageBase(v1)), mem::pageBase(100));
    EXPECT_EQ(pt.translate(mem::pageBase(v2)), mem::pageBase(200));
}

TEST(SoftTlb, InvalidatedOnUnmap)
{
    mem::PageTable pt;
    pt.map(7, 42);
    pt.translate(mem::pageBase(7));
    EXPECT_TRUE(pt.tlbPeek(7).has_value());
    pt.unmap(7);
    EXPECT_FALSE(pt.tlbPeek(7).has_value());
    EXPECT_THROW(pt.translate(mem::pageBase(7)), FatalError);
}

TEST(SoftTlb, InvalidatedOnRemap)
{
    mem::PageTable pt;
    pt.map(7, 42);
    pt.translate(mem::pageBase(7));
    pt.unmap(7);
    pt.map(7, 99);
    // The remap itself must not leave a stale cached translation.
    EXPECT_EQ(pt.translate(mem::pageBase(7) + 3), mem::pageBase(99) + 3);
    EXPECT_EQ(pt.tlbPeek(7).value(), 99u);
}

TEST(SoftTlb, FlushDropsEverything)
{
    mem::PageTable pt;
    for (Addr v = 0; v < 16; ++v) {
        pt.map(v, 1000 + v);
        pt.translate(mem::pageBase(v));
    }
    pt.flushTlb();
    for (Addr v = 0; v < 16; ++v)
        EXPECT_FALSE(pt.tlbPeek(v).has_value());
}

TEST(SoftTlb, ReferenceModeBypassesCache)
{
    mem::PageTable pt;
    pt.setReferenceMode(true);
    pt.map(4, 11);
    EXPECT_EQ(pt.translate(mem::pageBase(4) + 1), mem::pageBase(11) + 1);
    EXPECT_FALSE(pt.tlbPeek(4).has_value());
}

// ------------------------------------------------------------------
// Interleave Override Table: sorted index + neighbour overlap checks
// ------------------------------------------------------------------

TEST(IotFastPath, OutOfOrderInsertLookup)
{
    mem::InterleaveOverrideTable iot(16);
    // Insert in descending start order; the sorted index must still
    // resolve every address.
    iot.insert(0x4000, 0x5000, 64);
    iot.insert(0x2000, 0x3000, 128);
    iot.insert(0x0000, 0x1000, 256);
    ASSERT_NE(iot.lookup(0x0800), nullptr);
    EXPECT_EQ(iot.lookup(0x0800)->intrlv, 256u);
    ASSERT_NE(iot.lookup(0x2800), nullptr);
    EXPECT_EQ(iot.lookup(0x2800)->intrlv, 128u);
    ASSERT_NE(iot.lookup(0x4800), nullptr);
    EXPECT_EQ(iot.lookup(0x4800)->intrlv, 64u);
    // Gaps between entries miss.
    EXPECT_EQ(iot.lookup(0x1800), nullptr);
    EXPECT_EQ(iot.lookup(0x3800), nullptr);
    EXPECT_EQ(iot.lookup(0x9000), nullptr);
}

TEST(IotFastPath, NeighbourOverlapChecksOnInsert)
{
    mem::InterleaveOverrideTable iot(16);
    iot.insert(0x1000, 0x2000, 64);
    // Overlapping the existing range from either side is fatal.
    EXPECT_THROW(iot.insert(0x1800, 0x2800, 64), FatalError);
    EXPECT_THROW(iot.insert(0x0800, 0x1800, 64), FatalError);
    EXPECT_THROW(iot.insert(0x1400, 0x1800, 64), FatalError);
    EXPECT_THROW(iot.insert(0x0800, 0x2800, 64), FatalError);
    // Half-open adjacency on both sides is legal.
    iot.insert(0x0000, 0x1000, 64);
    iot.insert(0x2000, 0x3000, 64);
    EXPECT_EQ(iot.size(), 3u);
}

TEST(IotFastPath, GrowChecksNextNeighbour)
{
    mem::InterleaveOverrideTable iot(16);
    const std::size_t lo = iot.insert(0x0000, 0x1000, 64);
    iot.insert(0x4000, 0x5000, 64);
    iot.grow(lo, 0x3000); // into the gap: fine
    EXPECT_EQ(iot.entry(lo).end, 0x3000u);
    iot.grow(lo, 0x4000); // flush against the neighbour: fine
    EXPECT_THROW(iot.grow(lo, 0x4001), FatalError);
    // Lookups reflect the grown range.
    ASSERT_NE(iot.lookup(0x3fff), nullptr);
    EXPECT_EQ(iot.lookup(0x3fff)->start, 0x0000u);
}

TEST(IotFastPath, ReferenceModeAgrees)
{
    mem::InterleaveOverrideTable fast(16);
    mem::InterleaveOverrideTable ref(16);
    ref.setReferenceMode(true);
    for (Addr base : {Addr(0x8000), Addr(0x2000), Addr(0x5000)}) {
        fast.insert(base, base + 0x1000, 64);
        ref.insert(base, base + 0x1000, 64);
    }
    for (Addr a = 0; a < 0xa000; a += 0x380) {
        const auto *f = fast.lookup(a);
        const auto *r = ref.lookup(a);
        ASSERT_EQ(f == nullptr, r == nullptr) << "addr " << a;
        if (f != nullptr) {
            EXPECT_EQ(f->start, r->start);
            EXPECT_EQ(f->bankOf(a, 64), r->bankOf(a, 64));
        }
    }
}

// ------------------------------------------------------------------
// AddressSpace host-granule index (the randomized map oracle lives in
// test_address_space.cc)
// ------------------------------------------------------------------

TEST(AddressSpaceMru, ManyRangesInterleaved)
{
    mem::AddressSpace as;
    // Many concurrently-queried ranges, looked up round-robin.
    std::vector<std::vector<char>> bufs;
    for (int i = 0; i < 12; ++i)
        bufs.emplace_back(256);
    for (int i = 0; i < 12; ++i)
        as.registerRange(bufs[i].data(), bufs[i].size(),
                         Addr(0x10000) * (i + 1));
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 12; ++i) {
            const auto r = as.rangeContaining(bufs[i].data() + 100);
            ASSERT_TRUE(r.has_value());
            EXPECT_EQ(r->simStart, Addr(0x10000) * (i + 1));
            EXPECT_EQ(as.simAddrOf(bufs[i].data() + 100),
                      Addr(0x10000) * (i + 1) + 100);
        }
    }
}

TEST(AddressSpaceMru, UnregisterEmptiesCache)
{
    mem::AddressSpace as;
    std::vector<char> a(64), b(64);
    as.registerRange(a.data(), a.size(), 0x1000);
    as.registerRange(b.data(), b.size(), 0x2000);
    EXPECT_EQ(as.simAddrOf(a.data() + 5), 0x1005u);
    as.unregisterRange(a.data());
    // No entry for the erased range may survive.
    EXPECT_FALSE(as.rangeContaining(a.data() + 5).has_value());
    EXPECT_EQ(as.simAddrOf(b.data() + 7), 0x2007u);
}

// ------------------------------------------------------------------
// Parallel sweep runner
// ------------------------------------------------------------------

TEST(SweepRunner, ParseJobs)
{
    char prog[] = "bench";
    char quick[] = "--quick";
    {
        char *argv[] = {prog, quick};
        EXPECT_EQ(harness::parseJobs(2, argv), 1u);
    }
    {
        char flag[] = "--jobs";
        char val[] = "4";
        char *argv[] = {prog, flag, val};
        EXPECT_EQ(harness::parseJobs(3, argv), 4u);
    }
    {
        char eq[] = "--jobs=7";
        char *argv[] = {prog, quick, eq};
        EXPECT_EQ(harness::parseJobs(3, argv), 7u);
    }
    {
        // --jobs 0 means one worker per hardware thread (>= 1).
        char flag[] = "--jobs";
        char val[] = "0";
        char *argv[] = {prog, flag, val};
        EXPECT_GE(harness::parseJobs(3, argv), 1u);
    }
    {
        ::setenv("AFFALLOC_JOBS", "3", 1);
        char *argv[] = {prog};
        EXPECT_EQ(harness::parseJobs(1, argv), 3u);
        // An explicit flag wins over the environment.
        char eq[] = "--jobs=2";
        char *argv2[] = {prog, eq};
        EXPECT_EQ(harness::parseJobs(2, argv2), 2u);
        ::unsetenv("AFFALLOC_JOBS");
    }
}

TEST(SweepRunner, ResultsInSweepOrderAtAnyJobCount)
{
    std::vector<std::function<int()>> points;
    for (int i = 0; i < 23; ++i)
        points.push_back([i] { return i * i; });
    for (unsigned jobs : {1u, 2u, 4u, 16u}) {
        const std::vector<int> results = harness::runSweep(jobs, points);
        ASSERT_EQ(results.size(), points.size());
        for (int i = 0; i < 23; ++i)
            EXPECT_EQ(results[i], i * i) << "jobs " << jobs;
    }
}

TEST(SweepRunner, AllTasksRunExactlyOnce)
{
    std::atomic<int> calls{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 50; ++i)
        tasks.push_back([&calls] { calls.fetch_add(1); });
    harness::runSweepTasks(4, std::move(tasks));
    EXPECT_EQ(calls.load(), 50);
}

TEST(SweepRunner, LowestIndexedExceptionWins)
{
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([i] {
            if (i == 2)
                throw std::runtime_error("task two");
            if (i == 5)
                throw std::runtime_error("task five");
        });
    }
    try {
        harness::runSweepTasks(3, std::move(tasks));
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task two");
    }
}

// ------------------------------------------------------------------
// Digest equivalence: fast paths vs reference (slow) paths
// ------------------------------------------------------------------

namespace
{

RunConfig
withReferencePaths(RunConfig rc)
{
    rc.machine.referencePaths = true;
    return rc;
}

void
expectIdentical(const RunResult &fast, const RunResult &ref)
{
    EXPECT_EQ(fast.digest(), ref.digest());
    EXPECT_EQ(fast.cycles(), ref.cycles());
    EXPECT_EQ(fast.hops(), ref.hops());
    EXPECT_EQ(fast.placementDigest, ref.placementDigest);
    EXPECT_EQ(fast.valid, ref.valid);
}

} // namespace

TEST(DigestEquivalence, VecAddAllModes)
{
    VecAddParams p;
    p.n = 30'000;
    for (ExecMode m :
         {ExecMode::inCore, ExecMode::nearL3, ExecMode::affAlloc}) {
        const RunConfig rc = RunConfig::forMode(m);
        const RunResult fast = runVecAdd(rc, p);
        const RunResult ref = runVecAdd(withReferencePaths(rc), p);
        expectIdentical(fast, ref);
    }
}

TEST(DigestEquivalence, GraphWorkloads)
{
    graph::KroneckerParams kp;
    kp.scale = 10;
    kp.edgeFactor = 8;
    const auto g = graph::kronecker(kp);
    GraphParams p;
    p.graph = &g;
    p.iters = 2;

    const RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
    expectIdentical(runPageRankPush(rc, p),
                    runPageRankPush(withReferencePaths(rc), p));
    expectIdentical(runBfs(rc, p, BfsStrategy::gapSwitch).run,
                    runBfs(withReferencePaths(rc), p,
                           BfsStrategy::gapSwitch)
                        .run);
}
