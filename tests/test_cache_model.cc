#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "mem/address.hh"
#include "mem/cache_model.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

using namespace affalloc;
using mem::CacheModel;

TEST(CacheModel, MissThenHit)
{
    CacheModel c(1024, 2, 64); // 16 lines, 8 sets x 2 ways
    EXPECT_FALSE(c.access(100, false).hit);
    EXPECT_TRUE(c.access(100, false).hit);
}

TEST(CacheModel, LruEviction)
{
    CacheModel c(256, 2, 64); // 4 lines, 2 sets x 2 ways
    // Lines 0, 2, 4 all map to set 0 (line & 1 == 0).
    c.access(0, false);
    c.access(2, false);
    c.access(0, false); // touch 0: line 2 becomes LRU
    const auto r = c.access(4, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(2));
    EXPECT_TRUE(c.contains(4));
}

TEST(CacheModel, DirtyEvictionReportsWriteback)
{
    CacheModel c(256, 2, 64);
    c.access(0, true); // dirty
    c.access(2, false);
    const auto r = c.access(4, false); // evicts 0 (LRU, dirty)
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victimLine, 0u);
}

TEST(CacheModel, CleanEvictionNoWriteback)
{
    CacheModel c(256, 2, 64);
    c.access(0, false);
    c.access(2, false);
    const auto r = c.access(4, false);
    EXPECT_FALSE(r.writeback);
}

TEST(CacheModel, WriteHitMarksDirty)
{
    CacheModel c(256, 2, 64);
    c.access(0, false);
    c.access(0, true); // now dirty
    c.access(2, false);
    const auto r = c.access(4, false);
    EXPECT_TRUE(r.writeback);
}

TEST(CacheModel, ResidentLinesTracksFills)
{
    CacheModel c(64 * 64, 4, 64);
    for (Addr l = 0; l < 10; ++l)
        c.access(l, false);
    EXPECT_EQ(c.residentLines(), 10u);
    c.access(0, false); // hit: no change
    EXPECT_EQ(c.residentLines(), 10u);
}

TEST(CacheModel, ResetEmptiesCache)
{
    CacheModel c(1024, 2, 64);
    c.access(1, true);
    c.reset();
    EXPECT_FALSE(c.contains(1));
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(CacheModel, RejectsBadGeometry)
{
    EXPECT_THROW(CacheModel(1000, 3, 64), FatalError); // non-pow2 sets
    EXPECT_THROW(CacheModel(0, 2, 64), FatalError);
}

TEST(CacheModel, L3BankGeometryMatchesTable2)
{
    CacheModel c(1024 * 1024, 16, 64);
    EXPECT_EQ(c.numSets(), 1024u);
    EXPECT_EQ(c.assoc(), 16u);
}

TEST(CacheModel, FullWorkingSetStaysResident)
{
    CacheModel c(64 * 1024, 16, 64); // 1024 lines
    for (Addr l = 0; l < 1024; ++l)
        c.access(l, false);
    // Second pass: everything hits (capacity exactly matches).
    for (Addr l = 0; l < 1024; ++l)
        EXPECT_TRUE(c.access(l, false).hit);
}

TEST(CacheModel, OverCapacityWorkingSetThrashes)
{
    CacheModel c(64 * 1024, 16, 64); // 1024 lines
    // 2x capacity streaming with LRU: second pass misses everything.
    for (Addr l = 0; l < 2048; ++l)
        c.access(l, false);
    int hits = 0;
    for (Addr l = 0; l < 2048; ++l)
        hits += c.access(l, false).hit;
    EXPECT_EQ(hits, 0);
}

// ------------------------------------------ differential LRU oracle

namespace
{

/**
 * Timestamped true-LRU over full 64-bit lines: unordered slots, the
 * victim is the smallest stamp. The simplest model of what CacheModel
 * must do, sharing none of its encoding.
 */
class LruOracle
{
  public:
    LruOracle(std::uint32_t sets, std::uint32_t assoc, bool hashed)
        : sets_(sets), assoc_(assoc), hashed_(hashed),
          slots_(std::size_t(sets) * assoc)
    {
    }

    mem::CacheAccessResult
    access(Addr line, bool is_write, std::uint32_t max_ways)
    {
        mem::CacheAccessResult res;
        Slot *set = &slots_[std::size_t(setOf(line)) * assoc_];
        const std::uint32_t base =
            max_ways >= assoc_ ? 0 : assoc_ - max_ways;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].line == line) {
                set[w].dirty |= is_write;
                if (base == 0)
                    set[w].stamp = ++clock_; // a capped hit stays put
                res.hit = true;
                return res;
            }
        }
        Slot *fill = nullptr;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            if (!set[w].valid) {
                fill = &set[w];
                break;
            }
        }
        if (fill == nullptr) {
            fill = set;
            for (std::uint32_t w = 1; w < assoc_; ++w)
                if (set[w].stamp < fill->stamp)
                    fill = &set[w];
            if (fill->dirty) {
                res.writeback = true;
                res.victimLine = fill->line;
            }
        } else {
            ++resident_;
        }
        *fill = {line, is_write, true, ++clock_};
        if (base > 0) {
            // A capped fill ranks just below the base most recent
            // other lines: restamp those, oldest first, above it.
            std::vector<Slot *> top;
            for (std::uint32_t w = 0; w < assoc_; ++w)
                if (set[w].valid && &set[w] != fill)
                    top.push_back(&set[w]);
            std::sort(top.begin(), top.end(), [](Slot *a, Slot *b) {
                return a->stamp > b->stamp;
            });
            top.resize(std::min<std::size_t>(top.size(), base));
            for (auto it = top.rbegin(); it != top.rend(); ++it)
                (*it)->stamp = ++clock_;
        }
        return res;
    }

    bool
    contains(Addr line) const
    {
        const Slot *set = &slots_[std::size_t(setOf(line)) * assoc_];
        for (std::uint32_t w = 0; w < assoc_; ++w)
            if (set[w].valid && set[w].line == line)
                return true;
        return false;
    }

    void
    reset()
    {
        slots_.assign(slots_.size(), Slot{});
        resident_ = 0;
    }

    std::uint64_t residentLines() const { return resident_; }

  private:
    struct Slot
    {
        Addr line = 0;
        bool dirty = false;
        bool valid = false;
        std::uint64_t stamp = 0;
    };

    std::uint32_t
    setOf(Addr line) const
    {
        std::uint64_t z = line;
        if (hashed_) {
            z *= 0x9e3779b97f4a7c15ULL;
            z ^= z >> 29;
        }
        return static_cast<std::uint32_t>(z % sets_);
    }

    std::uint32_t sets_;
    std::uint32_t assoc_;
    bool hashed_;
    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0;
    std::uint64_t resident_ = 0;
};

/**
 * Lines from the ranges the simulator presents: near zero, physical
 * heap, interleave pools and arena strides (L3 slices), and virtual
 * lines and pages from 2^44 up (L1/L2/TLBs), each a window a few times
 * a small cache's capacity so that lines recur. Before @p all_ranges
 * only the low and physical ranges are drawn, so that a model whose
 * physical keys fit 32 bits widens mid-run.
 */
Addr
drawLine(Rng &rng, bool all_ranges)
{
    static constexpr Addr windows[] = {
        0,
        mem::heapPhysBase / 64 + (Addr(1) << 24),
        mem::poolPhysBase / 64,
        mem::poolPhysBase / 64 + 3 * (mem::arenaStride / 64),
        mem::heapVirtBase / 64,
        mem::largeVirtBase / mem::pageSize,
        Addr(1) << 44,
        (Addr(1) << 58) + 12345,
    };
    const std::size_t n = all_ranges ? std::size(windows) : 4;
    return windows[rng.below(n)] + rng.below(4096);
}

struct OracleGeometry
{
    std::uint32_t sets;
    std::uint32_t assoc;
    bool hashed;
};

void
runOracleMix(const OracleGeometry &g, std::uint64_t seed, int steps)
{
    SCOPED_TRACE(::testing::Message()
                 << g.sets << " sets x " << g.assoc << " ways, "
                 << (g.hashed ? "hashed" : "modulo") << ", seed " << seed);
    CacheModel model(std::uint64_t(g.sets) * g.assoc * 64, g.assoc, 64,
                     g.hashed);
    LruOracle oracle(g.sets, g.assoc, g.hashed);
    Rng rng(seed);
    for (int i = 0; i < steps; ++i) {
        const Addr line = drawLine(rng, i >= steps / 2);
        const bool write = rng.below(3) == 0;
        const std::uint64_t op = rng.below(100);
        if (op < 75) {
            const std::uint32_t max_ways =
                op < 60 ? g.assoc
                        : 1 + static_cast<std::uint32_t>(rng.below(g.assoc));
            const auto got = op < 60
                                 ? model.access(line, write)
                                 : model.accessCapped(line, write, max_ways);
            const auto want = oracle.access(line, write, max_ways);
            ASSERT_EQ(got.hit, want.hit) << "step " << i << " line " << line;
            ASSERT_EQ(got.writeback, want.writeback) << "step " << i;
            ASSERT_EQ(got.victimLine, want.victimLine) << "step " << i;
        } else if (op < 99) {
            ASSERT_EQ(model.contains(line), oracle.contains(line))
                << "step " << i << " line " << line;
        } else if (rng.below(20) == 0) {
            model.reset();
            oracle.reset();
        }
        ASSERT_EQ(model.residentLines(), oracle.residentLines())
            << "step " << i;
        if (i % 4096 == 0) {
            ASSERT_EQ(model.checkIntegrity(), "") << "step " << i;
        }
    }
    EXPECT_EQ(model.checkIntegrity(), "");
}

} // namespace

TEST(CacheModelOracle, RandomMixMatchesTimestampLru)
{
    std::uint64_t seed = 1;
    for (std::uint32_t sets : {1u, 16u, 64u, 1024u})
        for (std::uint32_t assoc : {1u, 2u, 4u, 16u})
            for (bool hashed : {false, true})
                runOracleMix({sets, assoc, hashed}, seed++, 20000);
}

TEST(CacheModelOracle, WholeL3SliceCyclesMatchTimestampLru)
{
    // A Table 2 slice over physical lines only: 2x capacity in one
    // window, so that every set fills, evicts and writes back.
    CacheModel model(1 << 20, 16, 64, /*hashed_index=*/true);
    LruOracle oracle(1024, 16, true);
    Rng rng(77);
    const Addr base = mem::poolPhysBase / 64;
    for (int i = 0; i < 200000; ++i) {
        const Addr line = base + rng.below(2 * 16384);
        const bool write = rng.below(4) == 0;
        const auto got = model.access(line, write);
        const auto want = oracle.access(line, write, 16);
        ASSERT_EQ(got.hit, want.hit) << "step " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "step " << i;
        ASSERT_EQ(got.victimLine, want.victimLine) << "step " << i;
    }
    EXPECT_EQ(model.residentLines(), oracle.residentLines());
    EXPECT_EQ(model.checkIntegrity(), "");
}

TEST(TagCodec, RoundTripsEveryLine)
{
    Rng rng(5);
    for (unsigned k = 0; k <= 20; ++k) {
        for (bool hashed : {false, true}) {
            const mem::TagCodec codec{k, hashed};
            const auto roundTrips = [&](Addr line) {
                const std::uint32_t set = codec.setOf(line);
                return set < (1u << k) &&
                       codec.lineOf(codec.keyOf(line), set) == line;
            };
            for (Addr line : {Addr(0), Addr(1), (Addr(1) << 29) - 1,
                              Addr(1) << 29, (Addr(1) << 60) - 1})
                ASSERT_TRUE(roundTrips(line)) << "k " << k << " line " << line;
            for (int i = 0; i < 20000; ++i) {
                const Addr line = rng.below(Addr(1) << (1 + rng.below(60)));
                ASSERT_TRUE(roundTrips(line))
                    << "k " << k << (hashed ? " hashed" : " modulo")
                    << " line " << line;
            }
        }
    }
}
