#include "os/sim_os.hh"

#include <algorithm>

#include "sim/log.hh"

namespace affalloc::os
{

namespace
{

/** Physical base of the page-at-bank backing region. */
constexpr Addr largePhysBase =
    mem::poolPhysBase + Addr(mem::numInterleavePools + 1) * mem::terabyte;

/** Heap random-policy physical page span (64 M pages = 256 GB). */
constexpr Addr heapRandomSpanPages = Addr(1) << 26;

} // namespace

SimOS::SimOS(const sim::MachineConfig &cfg, PagePolicy heap_policy,
             std::uint64_t seed)
    : cfg_(cfg), heapPolicy_(heap_policy), rng_(seed),
      faultPlan_(cfg.faults, cfg.meshX, cfg.meshY),
      iot_(cfg.iotEntries),
      nextHeapPpage_(mem::pageOf(mem::heapPhysBase)),
      nextBankPpage_(cfg.numBanks())
{
    cfg_.validate();
    arenas_.resize(1);
    arenas_[0].iotIdx.fill(-1);
    for (BankId b = 0; b < cfg_.numBanks(); ++b)
        nextBankPpage_[b] = b;
}

std::uint32_t
SimOS::createArena()
{
    const Addr next = Addr(arenas_.size()) * mem::arenaStride;
    if (next + mem::arenaStride > mem::terabyte) {
        SIM_FATAL("os", "createArena: %zu arenas exhaust the 1 TB pool "
                  "segments (%llu-byte slices)",
                  arenas_.size() + 1,
                  (unsigned long long)mem::arenaStride);
    }
    arenas_.emplace_back();
    arenas_.back().iotIdx.fill(-1);
    return static_cast<std::uint32_t>(arenas_.size() - 1);
}

std::uint32_t
SimOS::arenaOfPoolAddr(Addr vaddr) const
{
    if (vaddr < mem::poolVirtBase ||
        vaddr >= mem::poolVirtBase +
                     Addr(mem::numInterleavePools) * mem::terabyte) {
        SIM_PANIC("os", "arenaOfPoolAddr: %llx outside the pool segments",
                  (unsigned long long)vaddr);
    }
    const Addr in_pool = (vaddr - mem::poolVirtBase) % mem::terabyte;
    return static_cast<std::uint32_t>(in_pool / mem::arenaStride);
}

Addr
SimOS::heapAlloc(std::size_t bytes, std::size_t align)
{
    if (bytes == 0)
        SIM_FATAL("os", "heapAlloc of zero bytes");
    if (align == 0 || (align & (align - 1)) != 0)
        SIM_FATAL("os", "heapAlloc alignment must be a power of two");
    heapBrk_ = (heapBrk_ + align - 1) & ~(Addr(align) - 1);
    const Addr vaddr = mem::heapVirtBase + heapBrk_;
    heapBrk_ += bytes;
    // Back any new pages eagerly.
    while (heapBacked_ < heapBrk_) {
        backHeapPage(mem::pageOf(mem::heapVirtBase + heapBacked_));
        heapBacked_ += mem::pageSize;
    }
    return vaddr;
}

void
SimOS::backHeapPage(Addr vpage)
{
    Addr ppage;
    if (heapPolicy_ == PagePolicy::linear) {
        ppage = nextHeapPpage_++;
    } else {
        const Addr base = mem::pageOf(mem::heapPhysBase);
        do {
            ppage = base + rng_.below(heapRandomSpanPages);
        } while (!usedHeapPpages_.insert(ppage).second);
    }
    pageTable_.map(vpage, ppage);
    ++backedPages_;
}

Addr
SimOS::poolVirtBaseOf(int k, std::uint32_t arena) const
{
    if (k < 0 || k >= mem::numInterleavePools)
        SIM_PANIC("os", "pool index %d out of range", k);
    if (arena >= arenas_.size())
        SIM_PANIC("os", "arena %u out of range (%zu exist)", arena,
                  arenas_.size());
    return mem::poolVirtBase + Addr(k) * mem::terabyte +
           Addr(arena) * mem::arenaStride;
}

Addr
SimOS::poolBrkOf(int k, std::uint32_t arena) const
{
    if (k < 0 || k >= mem::numInterleavePools)
        SIM_PANIC("os", "pool index %d out of range", k);
    if (arena >= arenas_.size())
        SIM_PANIC("os", "arena %u out of range (%zu exist)", arena,
                  arenas_.size());
    return arenas_[arena].brk[k];
}

Addr
SimOS::expandPool(int k, std::uint32_t arena, Addr min_bytes)
{
    if (k < 0 || k >= mem::numInterleavePools)
        SIM_PANIC("os", "pool index %d out of range", k);
    if (arena >= arenas_.size())
        SIM_PANIC("os", "arena %u out of range (%zu exist)", arena,
                  arenas_.size());
    const Addr new_brk = mem::roundUpPage(min_bytes);
    // With a single arena the slice is the whole legacy 1 TB segment;
    // with several, growing past the slice would alias the next
    // arena's pages.
    if (arenas_.size() > 1 && new_brk > mem::arenaStride) {
        SIM_FATAL("os", "pool %d arena %u: %llu bytes exceed the "
                  "%llu-byte arena slice",
                  k, arena, (unsigned long long)new_brk,
                  (unsigned long long)mem::arenaStride);
    }
    Addr &brk = arenas_[arena].brk[k];
    if (new_brk <= brk)
        return brk;

    const Addr vbase = poolVirtBaseOf(k, arena);
    const Addr pbase = mem::poolPhysBase + Addr(k) * mem::terabyte +
                       Addr(arena) * mem::arenaStride;
    for (Addr off = brk; off < new_brk; off += mem::pageSize) {
        pageTable_.map(mem::pageOf(vbase + off), mem::pageOf(pbase + off));
        ++backedPages_;
    }
    brk = new_brk;

    // Keep the (pool, arena) slice covered by exactly one IOT entry:
    // install on the first expansion, grow afterwards (contiguous
    // physical backing is what makes this possible; see §4.1). Bank
    // lookup is entry-start-relative, so each arena's offset 0 is
    // homed at bank 0 like the legacy pool base.
    std::ptrdiff_t &idx = arenas_[arena].iotIdx[k];
    if (idx < 0) {
        idx = static_cast<std::ptrdiff_t>(
            iot_.insert(pbase, pbase + brk, mem::poolInterleave(k)));
    } else {
        iot_.grow(static_cast<std::size_t>(idx), pbase + brk);
    }
    return brk;
}

Addr
SimOS::nextPagePhysAtBank(BankId bank)
{
    if (bank >= cfg_.numBanks())
        SIM_PANIC("os", "bank %u out of range", bank);
    const Addr idx = nextBankPpage_[bank];
    nextBankPpage_[bank] += cfg_.numBanks();
    largePhysHighWater_ = std::max(largePhysHighWater_, idx + 1);
    return mem::pageOf(largePhysBase) + idx;
}

Addr
SimOS::allocPagesAtBanks(const std::vector<BankId> &banks)
{
    if (banks.empty())
        SIM_FATAL("os", "allocPagesAtBanks with no pages");
    const Addr vbase =
        mem::largeVirtBase + largeBrkPages_ * mem::pageSize;
    for (std::size_t i = 0; i < banks.size(); ++i) {
        const Addr ppage = nextPagePhysAtBank(banks[i]);
        pageTable_.map(mem::pageOf(vbase) + i, ppage);
        ++backedPages_;
    }
    largeBrkPages_ += banks.size();

    // The whole region is one 4 kB-interleaved IOT entry (footnote 4:
    // large interleavings are tracked as 4 kB in the IOT).
    const Addr end = largePhysBase + largePhysHighWater_ * mem::pageSize;
    if (!largeIotInstalled_) {
        largeIotIdx_ = static_cast<std::ptrdiff_t>(
            iot_.insert(largePhysBase, end, mem::pageSize));
        largeIotInstalled_ = true;
    } else {
        iot_.grow(static_cast<std::size_t>(largeIotIdx_), end);
    }
    return vbase;
}

Topology
SimOS::topology() const
{
    Topology t;
    t.meshX = cfg_.meshX;
    t.meshY = cfg_.meshY;
    t.numBanks = cfg_.numBanks();
    t.lineSize = cfg_.lineSize;
    for (int k = 0; k < mem::numInterleavePools; ++k)
        t.poolInterleavings.push_back(mem::poolInterleave(k));
    if (faultPlan_.numOfflineBanks() > 0)
        t.liveBanks = faultPlan_.liveBankMask();
    return t;
}

} // namespace affalloc::os
