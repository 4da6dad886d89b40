#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <vector>

#include "mem/address_space.hh"
#include "sim/log.hh"

using namespace affalloc;
using mem::AddressSpace;

TEST(AddressSpace, RoundTrip)
{
    AddressSpace as;
    std::vector<char> buf(256);
    as.registerRange(buf.data(), buf.size(), 0x1000);
    EXPECT_EQ(as.simAddrOf(buf.data()), 0x1000u);
    EXPECT_EQ(as.simAddrOf(buf.data() + 100), 0x1064u);
}

TEST(AddressSpace, UnknownPointerFatal)
{
    AddressSpace as;
    int x = 0;
    EXPECT_THROW(as.simAddrOf(&x), FatalError);
    EXPECT_EQ(as.trySimAddrOf(&x), invalidAddr);
}

TEST(AddressSpace, RejectsOverlap)
{
    AddressSpace as;
    std::vector<char> buf(256);
    as.registerRange(buf.data(), 256, 0x1000);
    EXPECT_THROW(as.registerRange(buf.data() + 100, 10, 0x9000),
                 FatalError);
}

TEST(AddressSpace, AdjacentRangesAllowed)
{
    AddressSpace as;
    std::vector<char> buf(256);
    as.registerRange(buf.data(), 128, 0x1000);
    as.registerRange(buf.data() + 128, 128, 0x8000);
    EXPECT_EQ(as.simAddrOf(buf.data() + 127), 0x1000u + 127);
    EXPECT_EQ(as.simAddrOf(buf.data() + 128), 0x8000u);
}

TEST(AddressSpace, UnregisterRemoves)
{
    AddressSpace as;
    std::vector<char> buf(64);
    as.registerRange(buf.data(), 64, 0x1000);
    as.unregisterRange(buf.data());
    EXPECT_EQ(as.trySimAddrOf(buf.data()), invalidAddr);
    EXPECT_THROW(as.unregisterRange(buf.data()), FatalError);
}

TEST(AddressSpace, RangeQueries)
{
    AddressSpace as;
    std::vector<char> buf(64);
    as.registerRange(buf.data(), 64, 0x1000);
    EXPECT_TRUE(as.rangeStartingAt(buf.data()).has_value());
    EXPECT_FALSE(as.rangeStartingAt(buf.data() + 1).has_value());
    EXPECT_TRUE(as.rangeContaining(buf.data() + 63).has_value());
    EXPECT_EQ(as.size(), 1u);
}

TEST(AddressSpace, EndIsExclusive)
{
    AddressSpace as;
    std::vector<char> buf(128);
    as.registerRange(buf.data(), 64, 0x1000);
    EXPECT_EQ(as.trySimAddrOf(buf.data() + 64), invalidAddr);
}

TEST(AddressSpace, ManyRangesResolveCorrectly)
{
    AddressSpace as;
    std::vector<std::vector<char>> bufs;
    for (int i = 0; i < 100; ++i)
        bufs.emplace_back(64);
    for (int i = 0; i < 100; ++i)
        as.registerRange(bufs[i].data(), 64, 0x10000 + i * 0x100);
    for (int i = 99; i >= 0; --i)
        EXPECT_EQ(as.simAddrOf(bufs[i].data() + 5),
                  Addr(0x10000 + i * 0x100 + 5));
}

// ------------------------------------------------------------------
// Randomized differential test against a std::map oracle
// ------------------------------------------------------------------

namespace
{

/** The reference registry: ranges keyed by host start. */
class MapOracle
{
  public:
    bool
    overlaps(std::uintptr_t start, std::uintptr_t end) const
    {
        auto next = ranges_.lower_bound(start);
        if (next != ranges_.end() && next->second.hostStart < end)
            return true;
        return next != ranges_.begin() &&
               std::prev(next)->second.hostEnd > start;
    }
    void
    add(std::uintptr_t start, std::size_t bytes, Addr sim)
    {
        ranges_[start] = mem::HostRange{start, start + bytes, sim};
    }
    void erase(std::uintptr_t start) { ranges_.erase(start); }
    std::optional<mem::HostRange>
    containing(std::uintptr_t p) const
    {
        auto it = ranges_.upper_bound(p);
        if (it == ranges_.begin() || std::prev(it)->second.hostEnd <= p)
            return std::nullopt;
        return std::prev(it)->second;
    }
    std::size_t size() const { return ranges_.size(); }
    std::size_t
    inSimWindow(Addr lo, Addr hi) const
    {
        std::size_t n = 0;
        for (const auto &[start, r] : ranges_)
            n += r.simStart >= lo && r.simStart < hi;
        return n;
    }
    const std::map<std::uintptr_t, mem::HostRange> &ranges() const
    {
        return ranges_;
    }

  private:
    std::map<std::uintptr_t, mem::HostRange> ranges_;
};

const void *
ptrOf(std::uintptr_t p)
{
    return reinterpret_cast<const void *>(p);
}

/** Compare every query of @p as at @p p with the oracle. */
void
expectAgrees(const AddressSpace &as, const MapOracle &oracle,
             std::uintptr_t p)
{
    const auto want = oracle.containing(p);
    const auto got = as.rangeContaining(ptrOf(p));
    ASSERT_EQ(got.has_value(), want.has_value()) << std::hex << p;
    if (want) {
        EXPECT_EQ(got->hostStart, want->hostStart) << std::hex << p;
        EXPECT_EQ(got->hostEnd, want->hostEnd) << std::hex << p;
        EXPECT_EQ(got->simStart, want->simStart) << std::hex << p;
        EXPECT_EQ(as.trySimAddrOf(ptrOf(p)),
                  want->simStart + (p - want->hostStart));
    } else {
        EXPECT_EQ(as.trySimAddrOf(ptrOf(p)), invalidAddr) << std::hex << p;
    }
    const bool starts = want && want->hostStart == p;
    EXPECT_EQ(as.rangeStartingAt(ptrOf(p)).has_value(), starts)
        << std::hex << p;
}

} // namespace

TEST(AddressSpace, RandomizedMatchesMapOracle)
{
    // Host addresses are never dereferenced, so the test lays ranges
    // out in a made-up 64 MB window. Each kind of range gets its own
    // placement rule, and the windows of the kinds overlap, so
    // registrations collide, share pages and sit adjacent.
    constexpr std::uintptr_t base = 0x5a0000000000ULL;
    constexpr std::uintptr_t mb = std::uintptr_t(1) << 20;
    std::mt19937_64 rng(12345);
    const auto below = [&](std::uint64_t n) { return rng() % n; };

    AddressSpace as;
    MapOracle oracle;
    std::vector<std::uintptr_t> freed; // unregistered starts, for reuse
    std::uintptr_t big_end = base + 8 * mb;
    Addr next_sim = 0x1000;
    std::size_t rejected = 0;

    const auto tryRegister = [&](std::uintptr_t start, std::size_t bytes) {
        const Addr sim = next_sim;
        next_sim += (bytes + 0xfff) & ~Addr(0xfff);
        if (oracle.overlaps(start, start + bytes)) {
            EXPECT_THROW(as.registerRange(ptrOf(start), bytes, sim),
                         FatalError);
            ++rejected;
            return false;
        }
        as.registerRange(ptrOf(start), bytes, sim);
        oracle.add(start, bytes, sim);
        return true;
    };
    const auto randomLive = [&]() {
        auto it = oracle.ranges().begin();
        std::advance(it, below(oracle.size()));
        return it->second;
    };

    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t kind = below(100);
        if (kind < 20) {
            // A 24 B node on its own line: many share one page.
            tryRegister(base + 64 * below(mb / 64), 24);
        } else if (kind < 32) {
            // A 4 kB stripe at 64 B alignment: straddles two pages.
            tryRegister(base + 64 * below(8 * mb / 64), 4096);
        } else if (kind < 40) {
            // An odd size at an odd byte offset.
            tryRegister(base + below(2 * mb), 1 + below(3000));
        } else if (kind < 43) {
            // Multi-MB ranges, most of them adjacent to the last one.
            const std::size_t bytes = (1 + below(6)) * mb + below(5000);
            const std::uintptr_t start =
                below(4) ? big_end : base + 8 * mb + 4096 * below(14000);
            if (start + bytes <= base + 64 * mb && tryRegister(start, bytes))
                big_end = start + bytes;
        } else if (kind < 48 && !freed.empty()) {
            // Heap reuse: the same host address with a new size.
            const std::uintptr_t start = freed[below(freed.size())];
            const std::size_t sizes[] = {24, 64, 100, 4096, 8192, 3 * mb};
            tryRegister(start, sizes[below(std::size(sizes))]);
        } else if (kind < 70 && oracle.size() > 0) {
            const mem::HostRange r = randomLive();
            if (below(8) == 0 && r.hostEnd - r.hostStart > 1) {
                // Only the exact start unregisters.
                EXPECT_THROW(as.unregisterRange(ptrOf(r.hostStart + 1)),
                             FatalError);
            }
            as.unregisterRange(ptrOf(r.hostStart));
            oracle.erase(r.hostStart);
            freed.push_back(r.hostStart);
        } else if (oracle.size() > 0) {
            // Lookups at and around a live range, and anywhere.
            const mem::HostRange r = randomLive();
            const std::uintptr_t len = r.hostEnd - r.hostStart;
            for (std::uintptr_t p :
                 {r.hostStart, r.hostStart + below(len), r.hostEnd - 1,
                  r.hostEnd, r.hostStart - 1, r.hostEnd + below(256),
                  base + below(64 * mb)})
                expectAgrees(as, oracle, p);
        }
        ASSERT_EQ(as.size(), oracle.size());
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_GT(rejected, 100u) << "the layout should produce collisions";
    EXPECT_EQ(as.numRangesInSimWindow(0x1000, next_sim / 2),
              oracle.inSimWindow(0x1000, next_sim / 2));

    // Every boundary of every live range, then drain to empty.
    for (const auto &[start, r] : oracle.ranges()) {
        for (std::uintptr_t p : {r.hostStart - 1, r.hostStart,
                                 r.hostEnd - 1, r.hostEnd})
            expectAgrees(as, oracle, p);
    }
    while (oracle.size() > 0) {
        const mem::HostRange r = randomLive();
        as.unregisterRange(ptrOf(r.hostStart));
        oracle.erase(r.hostStart);
        expectAgrees(as, oracle, r.hostStart);
    }
    EXPECT_EQ(as.size(), 0u);
}
