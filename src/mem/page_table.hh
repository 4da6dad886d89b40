/**
 * @file
 * Simulated page table: maps simulated virtual pages to simulated
 * physical pages. The OS layer installs mappings (contiguous backing
 * for interleave pools, linear or randomized for the heap); the
 * memory system translates on every simulated access.
 */

#ifndef AFFALLOC_MEM_PAGE_TABLE_HH
#define AFFALLOC_MEM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

#include "mem/address.hh"
#include "sim/types.hh"

namespace affalloc::mem
{

/**
 * Flat single-level page table fronted by a software TLB: a
 * direct-mapped, multi-entry translation cache indexed by virtual page
 * number. Accesses have strong page locality but commonly stream
 * through several arrays at once (A/B/C of vecadd, frontier + edge +
 * value arrays of the graph kernels), which a single-entry cache
 * thrashes on; 1024 entries cover every concurrently-live page stream
 * even when all cores of an 8x8 machine each walk several arrays.
 *
 * The TLB is a pure host-side fast path: hits and misses return
 * exactly what the backing table returns, entries are invalidated on
 * unmap and overwritten on remap. A randomized test checks every
 * operation against a plain map oracle.
 */
class PageTable
{
  public:
    /** Software-TLB entry count (power of two, direct-mapped). */
    static constexpr std::uint32_t tlbEntries = 1024;

    PageTable() { flushTlb(); }

    /** Map virtual page @p vpage to physical page @p ppage. */
    void map(Addr vpage, Addr ppage);

    /** Whether @p vpage is mapped. */
    bool isMapped(Addr vpage) const;

    /** Translate a virtual address; fatal() on unmapped access. */
    Addr
    translate(Addr vaddr) const
    {
        const Addr vpage = pageOf(vaddr);
        const std::uint32_t slot = slotOf(vpage);
        if (tlbVpage_[slot] == vpage)
            return pageBase(tlbPpage_[slot]) + pageOffset(vaddr);
        return translateMiss(vaddr);
    }

    /** Translate, returning nullopt when unmapped. */
    std::optional<Addr> tryTranslate(Addr vaddr) const;

    /** Remove a mapping (pool shrink); fatal() if absent. */
    void unmap(Addr vpage);

    /** Number of mapped pages. */
    std::size_t size() const { return table_.size(); }

    /** Drop every cached translation. */
    void flushTlb();

    /**
     * Probe the TLB slot for @p vpage without filling it: the cached
     * physical page if resident, nullopt otherwise. Test-only — lets
     * the TLB unit tests observe fills, evictions and invalidations.
     */
    std::optional<Addr> tlbPeek(Addr vpage) const;

  private:
    std::uint32_t slotOf(Addr vpage) const
    {
        return static_cast<std::uint32_t>(vpage) & (tlbEntries - 1);
    }

    /** TLB-miss path of translate(): backing lookup + TLB fill. */
    Addr translateMiss(Addr vaddr) const;

    std::unordered_map<Addr, Addr> table_;
    // Direct-mapped translation cache; mutable because translate() is
    // semantically const.
    mutable std::array<Addr, tlbEntries> tlbVpage_;
    mutable std::array<Addr, tlbEntries> tlbPpage_;
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_PAGE_TABLE_HH
