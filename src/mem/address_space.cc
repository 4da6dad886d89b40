#include "mem/address_space.hh"

#include <algorithm>

#include "sim/log.hh"

namespace affalloc::mem
{

namespace
{

/** Ranges up to this size are indexed by 64 B line. */
constexpr std::size_t lineLevelMaxBytes = 128;
/** Ranges below this size are indexed by 4 kB page, larger by 2 MB. */
constexpr std::size_t pageLevelMaxBytes = std::size_t(4) << 20;
/** Smallest non-empty table. */
constexpr int minBits = 4;

/** Smallest b >= minBits with 2^b >= n. */
int
bitsFor(std::size_t n)
{
    int b = minBits;
    while ((std::size_t(1) << b) < n)
        ++b;
    return b;
}

} // namespace

// --------------------------------------------------------------- Piece

AddressSpace::Piece
AddressSpace::Piece::make(std::uintptr_t start, std::uint64_t len,
                          Addr sim_start, bool first)
{
    const std::uint64_t l = len - 1;
    Piece e;
    e.host = start | (std::uint64_t(first) << hostBits) |
             (l << (hostBits + 1));
    e.sim = sim_start | ((l >> lenLowBits) << simBits);
    return e;
}

// --------------------------------------------------------------- Level

std::size_t
AddressSpace::Level::find(std::uintptr_t p) const
{
    if (count == 0)
        return npos;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home(p >> shift);; i = (i + 1) & mask) {
        const Piece &e = slots[i];
        if (e.empty())
            return npos;
        if (p - e.start() < e.len())
            return i;
    }
}

bool
AddressSpace::Level::intersects(std::uintptr_t start,
                                std::uintptr_t end) const
{
    if (count == 0)
        return false;
    const auto hit = [&](const Piece &e) {
        return !e.empty() && e.start() < end && start < e.end();
    };
    const std::uint64_t g_lo = start >> shift, g_hi = (end - 1) >> shift;
    if (g_hi - g_lo >= slots.size()) {
        // More granules than slots: scanning the table is cheaper.
        return std::any_of(slots.begin(), slots.end(), hit);
    }
    const std::size_t mask = slots.size() - 1;
    for (std::uint64_t g = g_lo; g <= g_hi; ++g) {
        for (std::size_t i = home(g); !slots[i].empty(); i = (i + 1) & mask)
            if (hit(slots[i]))
                return true;
    }
    return false;
}

void
AddressSpace::Level::insert(const Piece &piece)
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = home(piece.start() >> shift);
    while (!slots[i].empty())
        i = (i + 1) & mask;
    slots[i] = piece;
    ++count;
}

void
AddressSpace::Level::erase(std::size_t i)
{
    // Knuth's Algorithm R: pull later members of the probe run back
    // over the hole unless their home lies cyclically in (hole, j].
    const std::size_t mask = slots.size() - 1;
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; !slots[j].empty();
         j = (j + 1) & mask) {
        const std::size_t h = home(slots[j].start() >> shift);
        const bool stays = hole <= j ? (hole < h && h <= j)
                                     : (hole < h || h <= j);
        if (!stays) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole] = Piece{};
    --count;
}

void
AddressSpace::Level::rehash(int new_bits)
{
    std::vector<Piece> old;
    old.swap(slots);
    bits = new_bits;
    count = 0;
    slots.assign(std::size_t(1) << new_bits, Piece{});
    for (const Piece &e : old)
        if (!e.empty())
            insert(e);
}

// -------------------------------------------------------- AddressSpace

AddressSpace::Level &
AddressSpace::levelFor(std::size_t bytes)
{
    if (bytes <= lineLevelMaxBytes)
        return levels_[0];
    return bytes < pageLevelMaxBytes ? levels_[1] : levels_[2];
}

std::pair<const AddressSpace::Level *, const AddressSpace::Piece *>
AddressSpace::find(std::uintptr_t p) const
{
    for (const Level &lv : levels_) {
        const std::size_t i = lv.find(p);
        if (i != npos)
            return {&lv, &lv.slots[i]};
    }
    return {nullptr, nullptr};
}

HostRange
AddressSpace::rangeOf(const Level &lv, const Piece &e) const
{
    // A range's pieces sit in consecutive granules of one level; every
    // piece but the first starts on its granule's boundary.
    const Piece *first = &e;
    while (!first->first())
        first = &lv.slots[lv.find(first->start() - 1)];
    const std::uintptr_t granule = std::uintptr_t(1) << lv.shift;
    const Piece *last = &e;
    while ((last->end() & (granule - 1)) == 0) {
        const std::size_t i = lv.find(last->end());
        if (i == npos || lv.slots[i].first())
            break;
        last = &lv.slots[i];
    }
    return HostRange{first->start(), last->end(), first->simStart()};
}

void
AddressSpace::registerRange(const void *host_ptr, std::size_t bytes,
                            Addr sim_start)
{
    const auto start = reinterpret_cast<std::uintptr_t>(host_ptr);
    if (bytes == 0)
        SIM_FATAL("mem", "cannot register empty host range");
    const std::uintptr_t end = start + bytes;
    if (start == 0 || end < start || end > hostMask + 1)
        SIM_FATAL("mem", "host range %p + %zu outside the indexable "
                  "host address space", host_ptr, bytes);
    if (sim_start + bytes < sim_start || sim_start + bytes > simMask + 1)
        SIM_FATAL("mem", "simulated range %llx + %zu outside the "
                  "indexable simulated address space",
                  (unsigned long long)sim_start, bytes);
    for (const Level &lv : levels_)
        if (lv.intersects(start, end))
            SIM_FATAL("mem", "host range overlaps an existing registration");

    Level &lv = levelFor(bytes);
    const std::uint64_t g_lo = start >> lv.shift;
    const std::uint64_t g_hi = (end - 1) >> lv.shift;
    // Resize only here, to a load of 1/4, once the table would pass
    // 1/2 or has fallen below 1/8: unregistering stays O(1), and the
    // table tracks the live pieces.
    const std::size_t need = lv.count + (g_hi - g_lo + 1);
    if (need * 2 > lv.slots.size() ||
        (need * 8 < lv.slots.size() && lv.bits > minBits))
        lv.rehash(bitsFor(need * 4));
    for (std::uint64_t g = g_lo; g <= g_hi; ++g) {
        const std::uintptr_t lo = std::max(start, g << lv.shift);
        const std::uintptr_t hi = std::min(end, (g + 1) << lv.shift);
        lv.insert(Piece::make(lo, hi - lo, sim_start + (lo - start),
                              g == g_lo));
    }
    ++numRanges_;
}

void
AddressSpace::unregisterRange(const void *host_ptr)
{
    const auto start = reinterpret_cast<std::uintptr_t>(host_ptr);
    const auto [found, piece] = find(start);
    if (!piece || !piece->first() || piece->start() != start)
        SIM_FATAL("mem", "unregister of unknown host range %p", host_ptr);
    Level &lv = levels_[found - levels_.data()];
    const std::uintptr_t granule = std::uintptr_t(1) << lv.shift;
    std::size_t i = static_cast<std::size_t>(piece - lv.slots.data());
    for (;;) {
        const std::uintptr_t next = lv.slots[i].end();
        lv.erase(i);
        if ((next & (granule - 1)) != 0)
            break;
        i = lv.find(next);
        if (i == npos || lv.slots[i].first())
            break;
    }
    --numRanges_;
}

std::size_t
AddressSpace::numRangesInSimWindow(Addr sim_lo, Addr sim_hi) const
{
    std::size_t n = 0;
    for (const Level &lv : levels_)
        for (const Piece &e : lv.slots)
            if (!e.empty() && e.first() && e.simStart() >= sim_lo &&
                e.simStart() < sim_hi)
                ++n;
    return n;
}

std::optional<HostRange>
AddressSpace::rangeContaining(const void *host_ptr) const
{
    const auto [lv, piece] = find(reinterpret_cast<std::uintptr_t>(host_ptr));
    if (!piece)
        return std::nullopt;
    return rangeOf(*lv, *piece);
}

std::optional<HostRange>
AddressSpace::rangeStartingAt(const void *host_ptr) const
{
    const auto p = reinterpret_cast<std::uintptr_t>(host_ptr);
    const auto [lv, piece] = find(p);
    if (!piece || !piece->first() || piece->start() != p)
        return std::nullopt;
    return rangeOf(*lv, *piece);
}

Addr
AddressSpace::simAddrOf(const void *host_ptr) const
{
    const Addr sim = trySimAddrOf(host_ptr);
    if (sim == invalidAddr)
        SIM_FATAL("mem", "host pointer %p is not in any registered range", host_ptr);
    return sim;
}

Addr
AddressSpace::trySimAddrOf(const void *host_ptr) const
{
    const auto p = reinterpret_cast<std::uintptr_t>(host_ptr);
    const Piece *piece = find(p).second;
    if (!piece)
        return invalidAddr;
    return piece->simStart() + (p - piece->start());
}

} // namespace affalloc::mem
