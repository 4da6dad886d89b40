/**
 * @file
 * Interleave Override Table (Table 1 of the paper). Each entry maps a
 * physical address range [start, end) to a custom interleaving; cache
 * controllers and stream engines query it on every access to decide
 * which L3 bank owns a line. One entry per interleave pool keeps the
 * table small (16 entries, Table 2).
 */

#ifndef AFFALLOC_MEM_IOT_HH
#define AFFALLOC_MEM_IOT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace affalloc::mem
{

/** One IOT entry: [start, end) physical range with its interleaving. */
struct IotEntry
{
    /** First physical address covered. */
    Addr start = 0;
    /** One past the last physical address covered. */
    Addr end = 0;
    /** Interleaving granularity in bytes (Table 1: 16-bit field). */
    std::uint32_t intrlv = 0;

    /** Whether @p paddr falls in this entry's range. */
    bool contains(Addr paddr) const { return paddr >= start && paddr < end; }

    /**
     * Bank of @p paddr under this entry (Eq. 1):
     * bank = floor((paddr - start) / intrlv) mod num_banks.
     */
    BankId
    bankOf(Addr paddr, std::uint32_t num_banks) const
    {
        return static_cast<BankId>(((paddr - start) / intrlv) % num_banks);
    }
};

/**
 * The table itself. Entries are non-overlapping; capacity is bounded
 * by the hardware entry count. Ranges may be grown in place (pool
 * expansion updates `end`).
 *
 * Entry indices returned by insert() are stable (append order); a
 * separate index kept sorted by `start` makes lookup a binary search
 * (plus an MRU slot, since consecutive accesses overwhelmingly hit the
 * same pool) and reduces the insert/grow overlap checks to the two
 * sorted neighbours of the affected range.
 */
class InterleaveOverrideTable
{
  public:
    /** Construct with a hardware capacity (Table 2: 16 regions). */
    explicit InterleaveOverrideTable(std::uint32_t capacity = 16);

    /**
     * Install a new entry. fatal()s if the table is full, the range is
     * empty/overlapping, or the interleaving is invalid (< 64 B or not
     * a power of two).
     *
     * @return index of the installed entry.
     */
    std::size_t insert(Addr start, Addr end, std::uint32_t intrlv);

    /** Grow entry @p idx to cover up to @p new_end (pool expansion). */
    void grow(std::size_t idx, Addr new_end);

    /** Look up the entry covering @p paddr, if any. */
    const IotEntry *
    lookup(Addr paddr) const
    {
        if (mru_ >= 0 && entries_[mru_].contains(paddr))
            return &entries_[mru_];
        return lookupSlow(paddr);
    }

    /** Number of installed entries. */
    std::size_t size() const { return entries_.size(); }
    /** Hardware capacity. */
    std::uint32_t capacity() const { return capacity_; }
    /** Access entry by index. */
    const IotEntry &entry(std::size_t idx) const { return entries_.at(idx); }

    /**
     * Mutable entry access for simcheck corruption tests only — lets a
     * test plant a stale interleaving and assert the cross-consistency
     * audit catches it. Production code must go through insert()/grow().
     */
    IotEntry &entryForTest(std::size_t idx) { return entries_.at(idx); }

  private:
    /** Position in sorted_ of the first entry with start > paddr. */
    std::size_t sortedUpperBound(Addr paddr) const;

    /** MRU-miss path of lookup(): binary search over sorted_. */
    const IotEntry *lookupSlow(Addr paddr) const;

    std::uint32_t capacity_;
    std::vector<IotEntry> entries_;
    /** Indices into entries_, ordered by ascending start. */
    std::vector<std::uint32_t> sorted_;
    /** Most recently hit entry index, or -1 (lookup locality). */
    mutable std::int32_t mru_ = -1;
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_IOT_HH
