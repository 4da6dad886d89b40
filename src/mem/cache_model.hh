/**
 * @file
 * Set-associative LRU cache tag model. Used for the private L1/L2
 * filters (In-Core mode) and for every shared L3 bank. Tracks tags and
 * dirty bits only; data lives in host memory (execution-driven).
 */

#ifndef AFFALLOC_MEM_CACHE_MODEL_HH
#define AFFALLOC_MEM_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/types.hh"
#include "sim/zero_pages.hh"

namespace affalloc::mem
{

/** Result of a cache probe. */
struct CacheAccessResult
{
    /** True if the line was present. */
    bool hit = false;
    /** True if a dirty line was evicted (writeback needed). */
    bool writeback = false;
    /** Line address (not byte address) of the evicted dirty line. */
    Addr victimLine = invalidAddr;
};

/**
 * Splits a line number into its set index and the key a way stores,
 * and joins them back. (set, key) identifies the line exactly, so a
 * way needs only the key, which is narrower than the line.
 *
 * - Modulo index: the set is the low setBits of the line and the key
 *   is the line above them.
 * - Hashed index: u = line * hashMul, set = (u ^ u >> 29) mod 2^k with
 *   k = setBits. The key drops line bits [29, 29 + k) instead. Bits
 *   [0, k) of u depend only on the kept low 29 line bits, and bits
 *   [29, 29 + k) of u equal (mid * hashMul + x) mod 2^k, where mid is
 *   the dropped field and x = (lo * hashMul) >> 29. hashMul is odd, so
 *   mid = ((set ^ lo * hashMul) - x) * hashMul^-1 mod 2^k. This holds
 *   for k <= 29.
 */
struct TagCodec
{
    /** Low line bits the hashed key always keeps. */
    static constexpr unsigned hashLoBits = 29;
    static constexpr std::uint64_t hashLoMask =
        (std::uint64_t(1) << hashLoBits) - 1;
    static constexpr std::uint64_t hashMul = 0x9e3779b97f4a7c15ULL;
    /** hashMul^-1 mod 2^64 (Newton's iteration, 5 doublings). */
    static constexpr std::uint64_t hashMulInv = [] {
        std::uint64_t inv = hashMul;
        for (int i = 0; i < 5; ++i)
            inv *= 2 - hashMul * inv;
        return inv;
    }();

    unsigned setBits = 0;
    bool hashed = false;

    std::uint32_t
    setOf(Addr line) const
    {
        const std::uint64_t mask = (std::uint64_t(1) << setBits) - 1;
        if (!hashed)
            return static_cast<std::uint32_t>(line & mask);
        std::uint64_t z = line * hashMul;
        z ^= z >> hashLoBits;
        return static_cast<std::uint32_t>(z & mask);
    }

    std::uint64_t
    keyOf(Addr line) const
    {
        if (!hashed)
            return line >> setBits;
        return (line & hashLoMask) |
               (line >> (hashLoBits + setBits)) << hashLoBits;
    }

    Addr
    lineOf(std::uint64_t key, std::uint32_t set) const
    {
        if (!hashed)
            return key << setBits | set;
        const std::uint64_t mask = (std::uint64_t(1) << setBits) - 1;
        const std::uint64_t lo = key & hashLoMask;
        const std::uint64_t x = (lo * hashMul) >> hashLoBits;
        const std::uint64_t mid =
            (((set ^ lo * hashMul) - x) * hashMulInv) & mask;
        return lo | mid << hashLoBits |
               (key >> hashLoBits) << (hashLoBits + setBits);
    }
};

/**
 * A single set-associative cache with true-LRU replacement. Addresses
 * are presented as *line numbers* (byte address / line size); the
 * model is agnostic to line size.
 *
 * Ways are kept in recency order: way 0 is the MRU line, the last
 * valid way is the LRU victim, and valid lines always form a prefix of
 * the set (fills insert at the front). This is behaviour-for-behaviour
 * identical to a timestamped true-LRU implementation — same hits, same
 * victims, same writebacks — but a hit near the front touches only a
 * few tag words and never needs a full-set victim scan.
 *
 * A way holds (key + 1) << 1 | dirty (TagCodec gives the key) and 0
 * marks it empty. Entries start 32 bits wide, so a 16-way set is one
 * 64 B host line. The first fill whose key does not fit converts the
 * store to 64-bit entries with the same values, and the model stays
 * wide until reset(). Lines must stay below 2^62.
 */
class CacheModel
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param line_size line size in bytes (for set count only)
     * @param hashed_index hash the line address into the set index.
     *        L3 bank slices must use this: bank interleaving strips
     *        entropy from the low line bits, so modulo indexing would
     *        alias a bank's lines into a handful of sets (commodity
     *        LLCs hash their slice index for the same reason).
     */
    CacheModel(std::uint64_t size_bytes, std::uint32_t assoc,
               std::uint32_t line_size, bool hashed_index = false);

    /**
     * Access @p line (a line number). Allocates on miss, evicting LRU.
     * Write hits/fills mark the line dirty.
     */
    CacheAccessResult access(Addr line, bool is_write)
    {
        return probe(line, is_write, 0);
    }

    /**
     * Access @p line while confining the line's *footprint* to at most
     * @p max_ways ways of the set: fills insert at recency position
     * assoc - max_ways instead of the front, so at most the max_ways
     * least-recent ways are ever evicted by this access stream, and a
     * hit does not promote the line. Models DDIO-style way-restricted
     * I/O allocation (A4): lines in positions [0, assoc - max_ways)
     * are never displaced. max_ways >= assoc degenerates to access().
     */
    CacheAccessResult accessCapped(Addr line, bool is_write,
                                   std::uint32_t max_ways);

    /** Probe without modifying state. */
    bool contains(Addr line) const;

    /**
     * Ask the host to fetch the tag set @p line indexes into its
     * cache. Changes no model state.
     */
    void
    prefetch(Addr line) const
    {
        const std::size_t way0 = std::size_t(codec_.setOf(line)) * assoc_;
        const char *set = store_.as<const char>() + (way0 << (wide_ ? 3 : 2));
#if defined(__x86_64__)
        // GCC 12 at -O2 deleted __builtin_prefetch from the callers
        // here (it counts as free of side effects); a volatile asm
        // statement stays.
        asm volatile("prefetcht0 %0" : : "m"(*set));
#else
        __builtin_prefetch(set);
#endif
    }

    /** Invalidate everything (workload phase boundaries in tests). */
    void reset();

    /** Number of sets. */
    std::uint32_t numSets() const { return numSets_; }
    /** Ways per set. */
    std::uint32_t assoc() const { return assoc_; }
    /** Currently resident lines. */
    std::uint64_t residentLines() const { return residentLines_; }

    /**
     * SimCheck audit: verify internal consistency — the resident-line
     * count matches the live ways, occupancy is within sets x assoc,
     * every entry decodes to a line that indexes to its set and
     * encodes back to the same entry, no line appears twice in one
     * set, and valid ways form a prefix of every set (the
     * recency-order invariant). Returns an empty string when healthy,
     * else a description of the first inconsistency.
     */
    std::string checkIntegrity() const;

    /** Same geometry, same lines in the same recency order and dirty
     *  state: two equal models behave identically from here on. */
    bool operator==(const CacheModel &o) const;

  private:
    /** Keys below this fit a 32-bit entry, (key + 1) << 1 | dirty. */
    static constexpr std::uint64_t narrowKeyLimit = 0x7fffffff;

    /** access() at @p base 0, accessCapped() at assoc - max_ways. */
    CacheAccessResult probe(Addr line, bool is_write, std::uint32_t base);

    template <class Entry>
    CacheAccessResult probeSet(Entry *set, std::uint32_t s,
                               std::uint64_t key, bool is_write,
                               std::uint32_t base);

    /** Way @p i (set-major) as a 64-bit entry, whatever the width. */
    std::uint64_t entryAt(std::size_t i) const;

    /** Convert the store to 64-bit entries. */
    void widen();

    std::size_t numWays() const { return std::size_t(numSets_) * assoc_; }

    std::uint32_t assoc_;
    std::uint32_t numSets_;
    TagCodec codec_;
    bool wide_ = false;
    std::uint64_t residentLines_ = 0;
    // Set-major, recency-ordered within each set.
    sim::ZeroPages store_;
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_CACHE_MODEL_HH
