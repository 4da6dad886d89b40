/**
 * @file
 * Tests for the host-side performance fast paths and their oracles:
 * the software TLB in front of the page table and the sorted/MRU
 * Interleave Override Table (each against a plain test-local model),
 * the NoC's lazy per-pair charging over the route table and the
 * large-mesh coordinate walk (against a test-local X-Y walk, on the
 * raw Network and through Machine epochs), the AddressSpace host-granule index, and the
 * parallel sweep runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/sweep.hh"
#include "mem/address_space.hh"
#include "mem/iot.hh"
#include "mem/page_table.hh"
#include "noc/network.hh"
#include "nsc/machine.hh"
#include "os/sim_os.hh"
#include "sim/fault.hh"
#include "sim/log.hh"

using namespace affalloc;

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

TEST(SoftTlb, RandomOpsMatchMapOracle)
{
    // 16 TLB slots, each shared by four virtual pages 1024 apart plus
    // two far-away pages, so fills keep evicting one another.
    std::mt19937_64 rng(0x7eb);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    std::vector<Addr> vpages;
    for (Addr slot = 0; slot < 16; ++slot) {
        for (Addr alias = 0; alias < 4; ++alias)
            vpages.push_back(slot + alias * mem::PageTable::tlbEntries);
        for (Addr far : {Addr(1) << 30, Addr(0x3f5a) << 20})
            vpages.push_back(far + slot);
    }

    mem::PageTable pt;
    std::unordered_map<Addr, Addr> oracle;
    Addr next_ppage = 1;
    std::size_t tlb_hits = 0;
    const auto expectTlbAgrees = [&](Addr v) {
        const auto cached = pt.tlbPeek(v);
        if (!cached.has_value())
            return;
        const auto it = oracle.find(v);
        ASSERT_TRUE(it != oracle.end()) << "stale TLB entry for vpage " << v;
        EXPECT_EQ(*cached, it->second) << "vpage " << v;
    };

    Addr v = vpages[0];
    for (int op = 0; op < 20000; ++op) {
        // Page locality: a third of the operations reuse the last page.
        if (below(3) != 0)
            v = vpages[below(vpages.size())];
        const auto it = oracle.find(v);
        const bool mapped = it != oracle.end();
        const Addr offset = below(mem::pageSize);
        const std::uint64_t kind = below(100);
        SCOPED_TRACE("op " + std::to_string(op) + " vpage " +
                     std::to_string(v));
        if (kind < 18) {
            if (mapped) {
                EXPECT_THROW(pt.map(v, next_ppage), FatalError);
            } else {
                pt.map(v, next_ppage);
                oracle[v] = next_ppage;
            }
            ++next_ppage;
        } else if (kind < 30) {
            if (mapped) {
                pt.unmap(v);
                oracle.erase(it);
            } else {
                EXPECT_THROW(pt.unmap(v), FatalError);
            }
        } else if (kind < 38) {
            // Remap: unmap and map again elsewhere.
            if (mapped) {
                pt.unmap(v);
                pt.map(v, next_ppage);
                it->second = next_ppage++;
            }
        } else if (kind < 70) {
            tlb_hits += pt.tlbPeek(v).has_value();
            if (mapped) {
                EXPECT_EQ(pt.translate(mem::pageBase(v) + offset),
                          mem::pageBase(it->second) + offset);
            } else {
                EXPECT_THROW(pt.translate(mem::pageBase(v) + offset),
                             FatalError);
            }
        } else if (kind < 92) {
            tlb_hits += pt.tlbPeek(v).has_value();
            const auto got = pt.tryTranslate(mem::pageBase(v) + offset);
            ASSERT_EQ(got.has_value(), mapped);
            if (mapped) {
                EXPECT_EQ(*got, mem::pageBase(it->second) + offset);
            }
        } else if (kind < 98) {
            EXPECT_EQ(pt.isMapped(v), mapped);
        } else {
            pt.flushTlb();
        }
        ASSERT_EQ(pt.size(), oracle.size());
        expectTlbAgrees(v);
        if (op % 1000 == 999) {
            for (const Addr w : vpages) {
                expectTlbAgrees(w);
                EXPECT_EQ(pt.isMapped(w), oracle.count(w) != 0);
            }
        }
    }
    // The mix must exercise the cached path, not only the misses.
    EXPECT_GT(tlb_hits, 1000u);
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

TEST(IotFastPath, RandomOpsMatchLinearScan)
{
    std::mt19937_64 rng(0x107);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    constexpr Addr window = Addr(1) << 22;
    std::size_t mru_repeats = 0;

    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        mem::InterleaveOverrideTable iot(16);
        std::vector<mem::IotEntry> oracle; // in insert order
        const auto overlapsOther = [&](Addr start, Addr end,
                                       std::size_t self) {
            for (std::size_t i = 0; i < oracle.size(); ++i)
                if (i != self && start < oracle[i].end &&
                    oracle[i].start < end)
                    return true;
            return false;
        };
        // The reference lookup: a linear scan over every entry.
        const auto scan = [&](Addr paddr) -> const mem::IotEntry * {
            for (std::size_t i = 0; i < iot.size(); ++i)
                if (iot.entry(i).contains(paddr))
                    return &iot.entry(i);
            return nullptr;
        };
        Addr last = 0;

        for (int op = 0; op < 600; ++op) {
            const std::uint64_t kind = below(100);
            if (kind < 6) {
                const Addr start = below(window / 64) * 64;
                const Addr end = start + 64 * (1 + below(1024));
                const std::uint32_t intrlv = 64u << below(6);
                if (oracle.size() >= iot.capacity() ||
                    overlapsOther(start, end, oracle.size())) {
                    EXPECT_THROW(iot.insert(start, end, intrlv), FatalError);
                } else {
                    EXPECT_EQ(iot.insert(start, end, intrlv), oracle.size());
                    oracle.push_back(mem::IotEntry{start, end, intrlv});
                }
            } else if (kind < 12 && !oracle.empty()) {
                const std::size_t idx = below(oracle.size());
                const Addr new_end = oracle[idx].end + 64 * below(256);
                if (overlapsOther(oracle[idx].start, new_end, idx)) {
                    EXPECT_THROW(iot.grow(idx, new_end), FatalError);
                } else {
                    iot.grow(idx, new_end);
                    oracle[idx].end = new_end;
                }
            } else {
                // Lookups: near the last address (MRU hits), at the
                // edges of a random entry, or anywhere in the window.
                Addr paddr;
                const std::uint64_t where = below(4);
                if (where == 0 || oracle.empty()) {
                    paddr = below(window + 0x10000);
                } else if (where == 1) {
                    paddr = last + below(512) - 256;
                } else {
                    const mem::IotEntry &e = oracle[below(oracle.size())];
                    const Addr edges[] = {e.start - 1, e.start, e.end - 1,
                                          e.end, e.start + below(e.end -
                                                                 e.start)};
                    paddr = edges[below(5)];
                }
                const mem::IotEntry *want = scan(paddr);
                mru_repeats += want != nullptr && want->contains(last);
                const mem::IotEntry *got = iot.lookup(paddr);
                ASSERT_EQ(got, want) << "paddr " << paddr;
                if (got != nullptr) {
                    EXPECT_EQ(got->bankOf(paddr, 64),
                              want->bankOf(paddr, 64));
                }
                last = paddr;
            }
            ASSERT_EQ(iot.size(), oracle.size());
            for (std::size_t i = 0; i < oracle.size(); ++i) {
                EXPECT_EQ(iot.entry(i).start, oracle[i].start);
                EXPECT_EQ(iot.entry(i).end, oracle[i].end);
                EXPECT_EQ(iot.entry(i).intrlv, oracle[i].intrlv);
            }
        }
    }
    // Consecutive lookups into one entry are what the MRU slot serves.
    EXPECT_GT(mru_repeats, 1000u);
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
    // Garbage, negative and absurd counts are rejected, not clamped.
    for (const char *bad : {"foo", "", "3x", "-2", "1025"}) {
        SCOPED_TRACE(bad);
        char flag[] = "--jobs";
        std::string val = bad;
        char *argv[] = {prog, flag, val.data()};
        EXPECT_THROW(harness::parseJobs(3, argv), FatalError);
        std::string eq = std::string("--jobs=") + bad;
        char *argv2[] = {prog, eq.data()};
        EXPECT_THROW(harness::parseJobs(2, argv2), FatalError);
        if (*bad != '\0') {
            ::setenv("AFFALLOC_JOBS", bad, 1);
            char *argv3[] = {prog};
            EXPECT_THROW(harness::parseJobs(1, argv3), FatalError);
            ::unsetenv("AFFALLOC_JOBS");
        }
    }
    {
        char flag[] = "--jobs";
        char val[] = "1024";
        char *argv[] = {prog, flag, val};
        EXPECT_EQ(harness::parseJobs(3, argv), 1024u);
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

TEST(SweepRunner, NestedSweepRunsOnCallingThread)
{
    // The outer sweep holds the shared pool, so each inner sweep runs
    // its tasks inline on the worker that called it.
    std::atomic<int> calls{0};
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 4; ++i) {
        outer.push_back([&calls] {
            const std::thread::id caller = std::this_thread::get_id();
            std::vector<std::function<void()>> inner;
            for (int j = 0; j < 5; ++j) {
                inner.push_back([&calls, caller] {
                    EXPECT_EQ(std::this_thread::get_id(), caller);
                    calls.fetch_add(1);
                });
            }
            harness::runSweepTasks(4, std::move(inner));
        });
    }
    harness::runSweepTasks(2, std::move(outer));
    EXPECT_EQ(calls.load(), 20);
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
// NoC routes: route table (up to 256 tiles) and coordinate walk
// (beyond) against a test-local X-Y walk
// ------------------------------------------------------------------

namespace
{

/** Per-link flits and per-class counters a send sequence should add. */
struct XyOracle
{
    const noc::Mesh &mesh;
    const sim::FaultPlan &plan;
    std::vector<std::uint64_t> lifetime, epoch;
    std::uint64_t degraded = 0;
    std::uint64_t hops[numTrafficClasses] = {};
    std::uint64_t flitHops[numTrafficClasses] = {};

    XyOracle(const noc::Mesh &m, const sim::FaultPlan &p)
        : mesh(m), plan(p), lifetime(m.numLinks() + 2 * m.numTiles()),
          epoch(lifetime.size())
    {
    }

    void
    add(std::size_t index, std::uint64_t flits)
    {
        lifetime[index] += flits;
        epoch[index] += flits;
    }

    /** X first, then Y; each hop charges the link leaving the tile. */
    std::uint32_t
    send(TileId src, TileId dst, std::uint32_t flits, TrafficClass tc)
    {
        std::uint32_t x = src % mesh.xDim(), y = src / mesh.xDim();
        const std::uint32_t tx = dst % mesh.xDim(), ty = dst / mesh.xDim();
        std::uint32_t hop_count = 0;
        const auto hop = [&](noc::Direction dir) {
            const noc::LinkId link =
                (y * mesh.xDim() + x) * 4 + static_cast<noc::LinkId>(dir);
            const std::uint32_t mult = plan.linkFlitMultiplier(link);
            add(link, std::uint64_t(flits) * mult);
            degraded += std::uint64_t(flits) * (mult - 1);
            ++hop_count;
        };
        for (; x < tx; ++x)
            hop(noc::Direction::east);
        for (; x > tx; --x)
            hop(noc::Direction::west);
        for (; y < ty; ++y)
            hop(noc::Direction::south);
        for (; y > ty; --y)
            hop(noc::Direction::north);
        if (hop_count != 0) {
            add(mesh.numLinks() + 2 * src, flits);
            add(mesh.numLinks() + 2 * dst + 1, flits);
        }
        hops[int(tc)] += hop_count;
        flitHops[int(tc)] += std::uint64_t(flits) * hop_count;
        return hop_count;
    }
};

/** Every counter @p net and @p stats must agree with @p oracle on. */
void
expectMatchesOracle(noc::Network &net, const sim::Stats &stats,
                    const XyOracle &oracle)
{
    ASSERT_EQ(net.lifetimeLinkFlits(), oracle.lifetime);
    EXPECT_EQ(stats.degradedLinkFlits, oracle.degraded);
    for (int c = 0; c < numTrafficClasses; ++c) {
        EXPECT_EQ(stats.hops[c], oracle.hops[c]) << "class " << c;
        EXPECT_EQ(stats.flitHops[c], oracle.flitHops[c]) << "class " << c;
    }
    std::uint64_t total = 0, busiest = 0;
    for (const std::uint64_t f : oracle.epoch) {
        total += f;
        busiest = std::max(busiest, f);
    }
    EXPECT_EQ(net.totalLinkFlits(), total);
    EXPECT_EQ(net.maxLinkFlits(), busiest);
}

/**
 * Random sends into the raw Network. Links are degraded between two
 * sends with only the flush the Network asks for in between, so
 * pending pairs must be charged at the multiplier they were sent at.
 */
void
randomSendsMatchXyWalk(std::uint32_t mesh_x, std::uint32_t mesh_y)
{
    SCOPED_TRACE(std::to_string(mesh_x) + "x" + std::to_string(mesh_y));
    sim::MachineConfig cfg;
    cfg.meshX = mesh_x;
    cfg.meshY = mesh_y;
    sim::Stats stats;
    noc::Network net(cfg, stats);
    sim::FaultConfig faults;
    faults.degradedLinks = 6;
    sim::FaultPlan plan(faults, mesh_x, mesh_y);
    net.setFaultPlan(&plan);
    const noc::Mesh &mesh = net.mesh();
    const std::uint32_t nt = mesh.numTiles();
    XyOracle oracle(mesh, plan);

    std::mt19937_64 rng(mesh_x * 1000 + mesh_y);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    for (int batch = 0; batch < 120; ++batch) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        for (int i = 0; i < 50; ++i) {
            if (batch % 5 == 4 && i == 25) {
                // Degrade one more link mid-batch, as fault injection
                // does: charge what is pending at the old multiplier.
                net.flush();
                plan.degradeLink(noc::Mesh::linkOf(below(nt),
                                                   noc::Direction(below(4))),
                                 2 + below(4));
            }
            const TileId src = below(nt);
            const TileId dst = below(8) == 0 ? src : TileId(below(nt));
            const std::uint32_t bytes = below(200);
            const auto tc = TrafficClass(below(numTrafficClasses));
            const std::uint32_t hop_count =
                oracle.send(src, dst, net.flitsFor(bytes), tc);
            const Cycles lat = net.send(src, dst, bytes, tc);
            ASSERT_EQ(lat, Cycles(hop_count) * cfg.hopLatency +
                               net.flitsFor(bytes) - 1);
        }
        expectMatchesOracle(net, stats, oracle);
        if (batch % 7 == 6) {
            net.resetEpoch();
            std::fill(oracle.epoch.begin(), oracle.epoch.end(), 0);
        }
    }
    EXPECT_GT(oracle.degraded, 0u);
}

/**
 * The same walk through nsc::Machine: bank-to-bank messages inside
 * epochs, some epochs aborted, some messages sent outside any epoch,
 * and links degraded between two sends of an epoch with no counter
 * read in between. An aborted epoch rewinds every Stats counter,
 * degraded-link flits included, but keeps its lifetime link flits.
 */
void
machineEpochsMatchXyWalk(std::uint32_t mesh_x, std::uint32_t mesh_y)
{
    SCOPED_TRACE(std::to_string(mesh_x) + "x" + std::to_string(mesh_y));
    sim::MachineConfig cfg;
    cfg.meshX = mesh_x;
    cfg.meshY = mesh_y;
    cfg.faults.degradedLinks = 6;
    cfg.l3BankSizeBytes = 4 * 1024;
    os::SimOS sim_os(cfg);
    nsc::Machine m(cfg, sim_os);
    noc::Network &net = m.network();
    const std::uint32_t banks = cfg.numBanks();
    XyOracle oracle(net.mesh(), m.faultPlan());

    std::mt19937_64 rng(mesh_x * 1000 + mesh_y);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    const auto forward = [&] {
        const auto from = static_cast<BankId>(below(banks));
        const auto to = static_cast<BankId>(below(banks));
        const auto bytes = static_cast<std::uint32_t>(below(200));
        oracle.send(m.tileOfBank(from), m.tileOfBank(to),
                    net.flitsFor(bytes), TrafficClass::data);
        m.forwardData(from, to, bytes);
    };
    int aborted = 0;
    for (int epoch = 0; epoch < 60; ++epoch) {
        SCOPED_TRACE("epoch " + std::to_string(epoch));
        for (std::uint64_t i = below(3); i > 0; --i)
            forward();
        expectMatchesOracle(net, m.stats(), oracle);

        m.beginEpoch();
        std::fill(oracle.epoch.begin(), oracle.epoch.end(), 0);
        const XyOracle at_begin = oracle;
        const int sends = 20 + static_cast<int>(below(40));
        for (int i = 0; i < sends; ++i) {
            if (i == sends / 2 && below(3) == 0) {
                m.injectLinkDegrade(
                    noc::Mesh::linkOf(static_cast<TileId>(below(banks)),
                                      noc::Direction(below(4))),
                    2 + static_cast<std::uint32_t>(below(4)));
            }
            forward();
        }
        if (below(4) == 0) {
            m.abortEpoch();
            ++aborted;
            // Stats rewind; the lifetime link counters keep the flits.
            oracle.degraded = at_begin.degraded;
            std::copy(std::begin(at_begin.hops), std::end(at_begin.hops),
                      oracle.hops);
            std::copy(std::begin(at_begin.flitHops),
                      std::end(at_begin.flitHops), oracle.flitHops);
            std::fill(oracle.epoch.begin(), oracle.epoch.end(), 0);
        } else {
            m.endEpoch(0.0, "noc");
        }
        expectMatchesOracle(net, m.stats(), oracle);
    }
    EXPECT_GT(aborted, 0);
    EXPECT_GT(oracle.degraded, 0u);
}

} // namespace

TEST(NetworkRoutes, RouteTableMatchesXyWalk)
{
    randomSendsMatchXyWalk(8, 8);
}

TEST(NetworkRoutes, CoordinateWalkMatchesXyWalk)
{
    // 272 tiles: above the route table's 256-tile limit.
    randomSendsMatchXyWalk(17, 16);
}

TEST(NetworkRoutes, MachineEpochsMatchXyWalk)
{
    machineEpochsMatchXyWalk(8, 8);
    machineEpochsMatchXyWalk(17, 16);
}

TEST(NetworkRoutes, DegradeWithPendingPairsPanics)
{
    sim::MachineConfig cfg;
    sim::Stats stats;
    noc::Network net(cfg, stats);
    sim::FaultConfig faults;
    faults.degradedLinks = 1;
    sim::FaultPlan plan(faults, cfg.meshX, cfg.meshY);
    net.setFaultPlan(&plan);
    net.send(0, 63, 64, TrafficClass::data);
    plan.degradeLink(noc::Mesh::linkOf(0, noc::Direction::east), 3);
    EXPECT_THROW(net.flush(), PanicError);
}
