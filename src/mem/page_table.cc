#include "mem/page_table.hh"

#include "sim/log.hh"

namespace affalloc::mem
{

void
PageTable::flushTlb()
{
    tlbVpage_.fill(invalidAddr);
    tlbPpage_.fill(invalidAddr);
}

void
PageTable::map(Addr vpage, Addr ppage)
{
    auto [it, inserted] = table_.emplace(vpage, ppage);
    if (!inserted)
        SIM_FATAL("mem", "virtual page %#lx already mapped", (unsigned long)vpage);
    (void)it;
    // A remap after unmap must not serve the stale translation.
    const std::uint32_t slot = slotOf(vpage);
    if (tlbVpage_[slot] == vpage)
        tlbVpage_[slot] = invalidAddr;
}

bool
PageTable::isMapped(Addr vpage) const
{
    return table_.count(vpage) != 0;
}

Addr
PageTable::translateMiss(Addr vaddr) const
{
    const std::optional<Addr> paddr = tryTranslate(vaddr);
    if (!paddr)
        SIM_FATAL("mem", "access to unmapped virtual address %#lx",
              (unsigned long)vaddr);
    return *paddr;
}

std::optional<Addr>
PageTable::tryTranslate(Addr vaddr) const
{
    const Addr vpage = pageOf(vaddr);
    const std::uint32_t slot = slotOf(vpage);
    if (tlbVpage_[slot] != vpage) {
        auto it = table_.find(vpage);
        if (it == table_.end())
            return std::nullopt;
        tlbVpage_[slot] = vpage;
        tlbPpage_[slot] = it->second;
    }
    return pageBase(tlbPpage_[slot]) + pageOffset(vaddr);
}

void
PageTable::unmap(Addr vpage)
{
    if (table_.erase(vpage) == 0)
        SIM_FATAL("mem", "unmap of unmapped virtual page %#lx", (unsigned long)vpage);
    const std::uint32_t slot = slotOf(vpage);
    if (tlbVpage_[slot] == vpage)
        tlbVpage_[slot] = invalidAddr;
}

std::optional<Addr>
PageTable::tlbPeek(Addr vpage) const
{
    const std::uint32_t slot = slotOf(vpage);
    if (tlbVpage_[slot] != vpage)
        return std::nullopt;
    return tlbPpage_[slot];
}

} // namespace affalloc::mem
