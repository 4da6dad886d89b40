#include "mem/iot.hh"

#include <algorithm>

#include "mem/address.hh"
#include "sim/log.hh"

namespace affalloc::mem
{

InterleaveOverrideTable::InterleaveOverrideTable(std::uint32_t capacity)
    : capacity_(capacity)
{
}

std::size_t
InterleaveOverrideTable::sortedUpperBound(Addr paddr) const
{
    const auto it = std::upper_bound(
        sorted_.begin(), sorted_.end(), paddr,
        [this](Addr p, std::uint32_t idx) { return p < entries_[idx].start; });
    return static_cast<std::size_t>(it - sorted_.begin());
}

std::size_t
InterleaveOverrideTable::insert(Addr start, Addr end, std::uint32_t intrlv)
{
    if (entries_.size() >= capacity_)
        SIM_FATAL("mem", "IOT full (%u entries)", capacity_);
    if (start >= end)
        SIM_FATAL("mem", "IOT range empty [%#lx, %#lx)", (unsigned long)start,
              (unsigned long)end);
    if (intrlv < minInterleave || (intrlv & (intrlv - 1)) != 0)
        SIM_FATAL("mem", "IOT interleaving %u invalid (must be pow2 >= %u)", intrlv,
              minInterleave);
    // Entries are non-overlapping and sorted_ orders them by start, so
    // only the two neighbours of the insertion point can overlap the
    // new range.
    const std::size_t pos = sortedUpperBound(start);
    if (pos > 0 && entries_[sorted_[pos - 1]].end > start)
        SIM_FATAL("mem", "IOT range overlaps existing entry");
    if (pos < sorted_.size() && entries_[sorted_[pos]].start < end)
        SIM_FATAL("mem", "IOT range overlaps existing entry");
    const std::uint32_t idx = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(IotEntry{start, end, intrlv});
    sorted_.insert(sorted_.begin() + pos, idx);
    return idx;
}

void
InterleaveOverrideTable::grow(std::size_t idx, Addr new_end)
{
    IotEntry &e = entries_.at(idx);
    if (new_end < e.end)
        SIM_FATAL("mem", "IOT entries can only grow (end %#lx -> %#lx)",
              (unsigned long)e.end, (unsigned long)new_end);
    // Growing moves only `end` upward, so the sole entry that can
    // newly overlap is the next one in start order.
    const std::size_t pos = sortedUpperBound(e.start);
    if (pos < sorted_.size() && entries_[sorted_[pos]].start < new_end)
        SIM_FATAL("mem", "IOT grow would overlap another entry");
    e.end = new_end;
}

const IotEntry *
InterleaveOverrideTable::lookupSlow(Addr paddr) const
{
    const std::size_t pos = sortedUpperBound(paddr);
    if (pos == 0)
        return nullptr;
    const std::uint32_t idx = sorted_[pos - 1];
    if (!entries_[idx].contains(paddr))
        return nullptr;
    mru_ = static_cast<std::int32_t>(idx);
    return &entries_[idx];
}

} // namespace affalloc::mem
