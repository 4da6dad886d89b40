/**
 * @file
 * Set-associative LRU cache tag model. Used for the private L1/L2
 * filters (In-Core mode) and for every shared L3 bank. Tracks tags and
 * dirty bits only; data lives in host memory (execution-driven).
 */

#ifndef AFFALLOC_MEM_CACHE_MODEL_HH
#define AFFALLOC_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

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
    CacheAccessResult access(Addr line, bool is_write);

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
     * no line appears twice in one set, and valid ways form a prefix
     * of every set (the recency-order invariant). Returns an empty
     * string when healthy, else a description of the first
     * inconsistency.
     */
    std::string checkIntegrity() const;

    /** Same geometry, same lines in the same recency order and dirty
     *  state: two equal models behave identically from here on. */
    bool operator==(const CacheModel &) const = default;

  private:
    std::uint32_t
    setIndexOf(Addr line) const
    {
        if (!hashedIndex_)
            return static_cast<std::uint32_t>(line) & setMask_;
        std::uint64_t z = line * 0x9e3779b97f4a7c15ULL;
        z ^= z >> 29;
        return static_cast<std::uint32_t>(z) & setMask_;
    }

    /** Empty way marker: no real line shifts up into bit 63. */
    static constexpr std::uint64_t invalidEntry = ~std::uint64_t(0);

    static std::uint64_t entryOf(Addr line, bool dirty)
    {
        return (std::uint64_t(line) << 1) | (dirty ? 1 : 0);
    }
    static Addr lineOf(std::uint64_t entry) { return entry >> 1; }
    static bool dirtyOf(std::uint64_t entry) { return entry & 1; }

    std::uint32_t assoc_;
    bool hashedIndex_ = false;
    std::uint32_t numSets_;
    std::uint32_t setMask_;
    std::uint64_t residentLines_ = 0;
    // Set-major, recency-ordered within each set. One word per way:
    // the line number in bits [63:1] and the dirty bit in bit 0, so
    // the hit scan and the recency shifts touch a single dense array.
    std::vector<std::uint64_t> ways_; // numSets_ * assoc_
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_CACHE_MODEL_HH
