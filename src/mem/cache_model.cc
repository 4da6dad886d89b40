#include "mem/cache_model.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/log.hh"

namespace affalloc::mem
{

// ---------------------------------------------------------------------
// CacheModel
// ---------------------------------------------------------------------

CacheModel::CacheModel(std::uint64_t size_bytes, std::uint32_t assoc,
                       std::uint32_t line_size, bool hashed_index)
    : assoc_(assoc)
{
    if (assoc == 0 || line_size == 0 || size_bytes == 0)
        SIM_FATAL("mem", "cache parameters must be nonzero");
    const std::uint64_t lines = size_bytes / line_size;
    if (lines % assoc != 0)
        SIM_FATAL("mem", "cache lines (%llu) not divisible by assoc (%u)",
              (unsigned long long)lines, assoc);
    numSets_ = static_cast<std::uint32_t>(lines / assoc);
    if ((numSets_ & (numSets_ - 1)) != 0)
        SIM_FATAL("mem", "cache set count must be a power of two (%u)", numSets_);
    codec_.setBits = static_cast<unsigned>(std::countr_zero(numSets_));
    codec_.hashed = hashed_index;
    if (hashed_index && codec_.setBits > TagCodec::hashLoBits)
        SIM_FATAL("mem", "hashed cache index supports at most 2^%u sets",
                  TagCodec::hashLoBits);
    store_ = sim::ZeroPages(numWays() * sizeof(std::uint32_t));
}

template <class Entry>
CacheAccessResult
CacheModel::probeSet(Entry *set, std::uint32_t s, std::uint64_t key,
                     bool is_write, std::uint32_t base)
{
    CacheAccessResult res;
    const Entry clean = static_cast<Entry>((key + 1) << 1);
    const Entry dirty = is_write ? 1 : 0;
    // Every outcome moves ways [pos, w) down one step and writes the
    // line's entry at pos.
    const auto place = [set](std::uint32_t pos, std::uint32_t w, Entry e) {
        for (std::uint32_t k = w; k > pos; --k)
            set[k] = set[k - 1];
        set[pos] = e;
    };

    // Valid lines form a prefix: the scan stops at the first empty way.
    std::uint32_t w = 0;
    for (; w < assoc_ && set[w] != 0; ++w) {
        if ((set[w] & ~Entry(1)) == clean) {
            // Hit: the line becomes MRU. A capped hit stays in place
            // (no recency promotion), so the capped stream's footprint
            // stays pinned to the low ways.
            place(base == 0 ? 0 : w, w, set[w] | dirty);
            res.hit = true;
            return res;
        }
    }

    // Miss: fill at recency position base (the front for access()).
    // The victim is the LRU (last valid) way when the set is full,
    // otherwise the first empty way absorbs the shift and residency
    // grows. Capped fills leave the max_ways - 1 younger capped slots
    // plus this fill as the only ways the stream can ever occupy;
    // positions [0, base), the protected tenant ways, are never
    // displaced.
    if (w == assoc_) {
        w = assoc_ - 1;
        const Entry victim = set[w];
        if (victim & 1) {
            res.writeback = true;
            res.victimLine = codec_.lineOf((victim >> 1) - 1, s);
        }
    } else {
        ++residentLines_;
    }
    place(std::min(w, base), w, clean | dirty);
    return res;
}

CacheAccessResult
CacheModel::probe(Addr line, bool is_write, std::uint32_t base)
{
    const std::uint32_t s = codec_.setOf(line);
    const std::uint64_t key = codec_.keyOf(line);
    const std::size_t way0 = std::size_t(s) * assoc_;
    if (!wide_) {
        if (key < narrowKeyLimit) {
            return probeSet(store_.as<std::uint32_t>() + way0, s, key,
                            is_write, base);
        }
        widen();
    }
    return probeSet(store_.as<std::uint64_t>() + way0, s, key, is_write,
                    base);
}

CacheAccessResult
CacheModel::accessCapped(Addr line, bool is_write, std::uint32_t max_ways)
{
    if (max_ways >= assoc_)
        return access(line, is_write);
    if (max_ways == 0)
        SIM_FATAL("mem", "accessCapped needs at least one way");
    return probe(line, is_write, assoc_ - max_ways);
}

void
CacheModel::widen()
{
    sim::ZeroPages wide(numWays() * sizeof(std::uint64_t));
    const std::uint32_t *from = store_.as<std::uint32_t>();
    std::uint64_t *to = wide.as<std::uint64_t>();
    // Skipping empty ways leaves the pages of untouched sets unbacked.
    for (std::size_t i = 0; i < numWays(); ++i)
        if (from[i] != 0)
            to[i] = from[i];
    store_ = std::move(wide);
    wide_ = true;
}

std::uint64_t
CacheModel::entryAt(std::size_t i) const
{
    return wide_ ? store_.as<std::uint64_t>()[i]
                 : store_.as<std::uint32_t>()[i];
}

bool
CacheModel::contains(Addr line) const
{
    const std::uint64_t key = codec_.keyOf(line);
    if (!wide_ && key >= narrowKeyLimit)
        return false; // never filled: its entry would not fit
    const std::uint64_t clean = (key + 1) << 1;
    const std::size_t way0 = std::size_t(codec_.setOf(line)) * assoc_;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        const std::uint64_t e = entryAt(way0 + w);
        if (e == 0)
            break;
        if ((e & ~std::uint64_t(1)) == clean)
            return true;
    }
    return false;
}

std::string
CacheModel::checkIntegrity() const
{
    std::uint64_t live = 0;
    for (std::uint32_t s = 0; s < numSets_; ++s) {
        const std::size_t way0 = std::size_t(s) * assoc_;
        bool seen_invalid = false;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            const std::uint64_t e = entryAt(way0 + w);
            if (e == 0) {
                seen_invalid = true;
                continue;
            }
            if (seen_invalid) {
                return detail::formatMessage(
                    "set %u violates the recency-order invariant "
                    "(valid way %u after an invalid way)", s, w);
            }
            ++live;
            // The entry must decode to a line of this set that
            // encodes back to the same entry.
            const Addr line = codec_.lineOf((e >> 1) - 1, s);
            const std::uint64_t again =
                (codec_.keyOf(line) + 1) << 1 | (e & 1);
            if (codec_.setOf(line) != s || again != e) {
                return detail::formatMessage(
                    "entry %llx in set %u decodes to line %llx, which "
                    "encodes to entry %llx in set %u",
                    (unsigned long long)e, s, (unsigned long long)line,
                    (unsigned long long)again, codec_.setOf(line));
            }
            for (std::uint32_t v = w + 1; v < assoc_; ++v) {
                if ((entryAt(way0 + v) | 1) == (e | 1)) {
                    return detail::formatMessage(
                        "line %llx duplicated in set %u (ways %u and %u)",
                        (unsigned long long)line, s, w, v);
                }
            }
        }
    }
    if (live != residentLines_) {
        return detail::formatMessage(
            "residentLines %llu != %llu live ways",
            (unsigned long long)residentLines_, (unsigned long long)live);
    }
    if (live > numWays()) {
        return detail::formatMessage(
            "occupancy %llu exceeds capacity %llu",
            (unsigned long long)live, (unsigned long long)numWays());
    }
    return {};
}

void
CacheModel::reset()
{
    store_ = sim::ZeroPages(numWays() * sizeof(std::uint32_t));
    wide_ = false;
    residentLines_ = 0;
}

bool
CacheModel::operator==(const CacheModel &o) const
{
    if (assoc_ != o.assoc_ || numSets_ != o.numSets_ ||
        codec_.hashed != o.codec_.hashed ||
        residentLines_ != o.residentLines_)
        return false;
    for (std::size_t i = 0; i < numWays(); ++i)
        if (entryAt(i) != o.entryAt(i))
            return false;
    return true;
}

} // namespace affalloc::mem
