#include "alloc/affinity_alloc.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <unordered_set>

#include <sys/mman.h>

#include "sim/log.hh"
#include "sim/prof.hh"

namespace affalloc::alloc
{

namespace
{

/** Round up to the next power of two (>= 1). */
std::uint64_t
pow2Ceil(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Host buffers of at least this many bytes are mapped from the kernel
 * and unmapped on release. Below glibc's 32 MB adaptive mmap cap,
 * glibc maps a block only until the first mapped block is freed; then
 * such blocks go to the heap, small allocations made between them pin
 * it, and peak RSS follows the heap's fragmentation instead of the
 * live data. On the stencil benchmark, moving the cache tags off the
 * heap left the 17-24 MB grid buffers to fragment it (200 MB peak
 * against 118 MB with this bound). Mapping every buffer from 4 MB up
 * cost ~7% of stencil wall time, re-faulting fresh pages each pass.
 */
constexpr std::size_t mappedHostBytes = std::size_t(16) << 20;

/** Host buffer aligned to at least 64 B (host lines mirror simulated
 *  lines). */
void *
newHost(std::size_t bytes)
{
    if (bytes < mappedHostBytes)
        return ::operator new(bytes, std::align_val_t(64));
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
deleteHost(void *p, std::size_t bytes)
{
    if (bytes < mappedHostBytes)
        ::operator delete(p, std::align_val_t(64));
    else
        ::munmap(p, bytes);
}

/**
 * Canary stamped into the first 8 bytes of a free slot (audit mode):
 * derived from the slot's simulated address, so a write through a
 * stale pointer into any free slot is detected by the audit.
 */
std::uint64_t
canaryFor(Addr sim)
{
    return (sim * 0x9e3779b97f4a7c15ULL) ^ 0xdeadbeefcafef00dULL;
}

} // namespace

const char *
bankPolicyName(BankPolicy p)
{
    switch (p) {
      case BankPolicy::random:
        return "Rnd";
      case BankPolicy::linear:
        return "Lnr";
      case BankPolicy::minHop:
        return "Min-Hop";
      case BankPolicy::hybrid:
        return "Hybrid";
      default:
        return "?";
    }
}

AffinityAllocator::AffinityAllocator(nsc::Machine &machine,
                                     AllocatorOptions opts)
    : machine_(machine), opts_(opts), rng_(opts.seed),
      numBanks_(machine.config().numBanks()),
      lineSize_(machine.config().lineSize),
      poolCapacity_(machine.config().poolCapacityBytes != 0
                        ? machine.config().poolCapacityBytes
                        : mem::terabyte),
      board_(opts.sharedLoads),
      bankLoads_(machine.config().numBanks(), 0)
{
    // Arena-scoped allocators (tenants) are confined to their slice of
    // each pool segment; a lone arena-0 allocator keeps the legacy
    // full-segment capacity.
    if (board_ != nullptr || opts_.arena > 0)
        poolCapacity_ = std::min<std::uint64_t>(poolCapacity_,
                                                mem::arenaStride);
    if (board_ != nullptr)
        board_->init(numBanks_);
    if (opts_.arena >= machine.simOs().numArenas()) {
        SIM_FATAL("alloc", "allocator bound to arena %u but the OS only "
                  "has %u",
                  opts_.arena, machine.simOs().numArenas());
    }
    // A NaN H makes every Eq. 4 score NaN, and selectBank would then
    // pick bank 0 every time.
    if (!std::isfinite(opts_.hybridH) || opts_.hybridH < 0.0)
        SIM_FATAL("alloc", "Eq. 4 load weight H must be finite and >= 0, "
                  "got %g", opts_.hybridH);
    // Slot records hold bank + 1 in 16 bits.
    if (numBanks_ >= 0xffff)
        SIM_FATAL("alloc", "%u banks exceed the slot-record range", numBanks_);
    for (int k = 0; k < mem::numInterleavePools; ++k)
        poolBase_[k] = machine.simOs().poolVirtBaseOf(k, opts_.arena);
    for (auto &pool : freeSlots_)
        pool.assign(numBanks_, {});
    const noc::Mesh &mesh = machine.network().mesh();
    bankX_.resize(numBanks_);
    bankY_.resize(numBanks_);
    for (BankId b = 0; b < numBanks_; ++b) {
        bankX_[b] = mesh.xOf(machine.tileOfBank(b));
        bankY_[b] = mesh.yOf(machine.tileOfBank(b));
    }
    faultVersion_ = machine.faultPlan().redirectVersion();
    canaries_ = machine.config().simcheck.audit;
    auditId_ = machine.auditor().registerCheck(
        "alloc", "freelist-integrity",
        [this](simcheck::CheckContext &ctx) { auditFreeLists(ctx); });
}

AffinityAllocator::~AffinityAllocator()
{
    // Release this tenant's remaining pressure from the shared board
    // so a board outliving the allocator never carries stale load.
    if (board_) {
        for (BankId b = 0; b < numBanks_; ++b) {
            board_->loads[b] -= bankLoads_[b];
            board_->total -= bankLoads_[b];
        }
    }
    machine_.auditor().unregisterCheck(auditId_);
    // Unregister host ranges before freeing them: on a shared machine
    // (co-run tenants) the AddressSpace outlives this allocator, and a
    // later tenant may be handed the same host addresses by the heap.
    // Freed heap/page-at-bank arrays were already unregistered in
    // freeAff but keep their host backing (and ownedHost_ entry) until
    // destruction, hence the rangeStartingAt guard.
    for (const auto &[p, bytes] : ownedHost_) {
        if (machine_.addressSpace().rangeStartingAt(p))
            machine_.addressSpace().unregisterRange(p);
        deleteHost(p, bytes);
    }
}

// --------------------------------------------------------------- plain

void *
AffinityAllocator::allocPlain(std::size_t bytes, std::size_t align)
{
    void *host = newHost(bytes);
    ownedHost_.emplace(host, bytes);
    const Addr sim = machine_.simOs().heapAlloc(bytes, align);
    machine_.addressSpace().registerRange(host, bytes, sim);
    ArrayInfo info;
    info.simBase = sim;
    info.bytes = bytes;
    info.elemSize = 1;
    info.numElem = bytes;
    info.intrlv = 0;
    info.startBank = machine_.bankOfSim(sim);
    record(host, info);
    return host;
}

// ---------------------------------------------------------- pool cores

AffinityAllocator::PoolCut
AffinityAllocator::poolAllocAligned(std::size_t bytes, int k,
                                    BankId start_bank)
{
    const std::uint64_t intrlv = mem::poolInterleave(k);
    const std::uint64_t alloc_bytes =
        (bytes + intrlv - 1) & ~(intrlv - 1);

    // First try to satisfy the request from a freed region of the
    // same pool (same-interleaving reuse is exactly what the paper's
    // fragmentation rule permits, §8).
    auto &regions = freeRegions_[k];
    Addr off = invalidAddr;
    for (std::size_t i = 0; i < regions.size(); ++i) {
        FreeRegion &r = regions[i];
        Addr cand = (r.offset + intrlv - 1) & ~(intrlv - 1);
        const BankId cur =
            static_cast<BankId>((cand / intrlv) % numBanks_);
        cand += Addr((start_bank + numBanks_ - cur) % numBanks_) *
                intrlv;
        if (cand + alloc_bytes > r.offset + r.bytes)
            continue;
        // Claim [cand, cand + alloc_bytes); return the leftovers.
        const FreeRegion tail{cand + alloc_bytes,
                              r.offset + r.bytes - cand - alloc_bytes};
        const FreeRegion head{r.offset, cand - r.offset};
        regions.erase(regions.begin() +
                      static_cast<std::ptrdiff_t>(i));
        if (head.bytes >= intrlv)
            regions.push_back(head);
        if (tail.bytes >= intrlv)
            regions.push_back(tail);
        stats_.freeRegionBytes -=
            alloc_bytes + (head.bytes < intrlv ? head.bytes : 0) +
            (tail.bytes < intrlv ? tail.bytes : 0);
        stats_.regionReuses += 1;
        off = cand;
        break;
    }

    if (off == invalidAddr) {
        const Addr bump = poolBump_[k];
        // Align the bump to an interleave-block boundary.
        Addr cand = (bump + intrlv - 1) & ~(intrlv - 1);
        const Addr align_waste = cand - bump;
        // Advance to a block homed at the requested start bank.
        const BankId cur =
            static_cast<BankId>((cand / intrlv) % numBanks_);
        const std::uint32_t skip =
            (start_bank + numBanks_ - cur) % numBanks_;
        cand += Addr(skip) * intrlv;
        if (cand + alloc_bytes > poolCapacity_) {
            // Pool exhausted: report failure without mutating any
            // state so the caller can degrade to another pool or the
            // conventional heap.
            return PoolCut{};
        }
        stats_.alignmentWasteBytes += align_waste + Addr(skip) * intrlv;
        machine_.simOs().expandPool(k, opts_.arena, cand + alloc_bytes);
        poolBump_[k] = cand + alloc_bytes;
        off = cand;
    }

    const Addr sim = poolBase_[k] + off;
    void *host = newHost(alloc_bytes);
    ownedHost_.emplace(host, alloc_bytes);
    machine_.addressSpace().registerRange(host, alloc_bytes, sim);
    return PoolCut{host, off, alloc_bytes};
}

AffinityAllocator::PoolCut
AffinityAllocator::poolAllocFallback(std::size_t bytes, int &k,
                                     BankId start_bank)
{
    PoolCut cut = poolAllocAligned(bytes, k, start_bank);
    if (cut.host != nullptr)
        return cut;
    // Requested pool exhausted: degrade to finer interleavings (the
    // affinity relationship weakens but data still spreads across
    // banks and stays in pools).
    for (int f = k - 1; f >= 0; --f) {
        cut = poolAllocAligned(bytes, f, start_bank);
        if (cut.host != nullptr) {
            warn("pool %d exhausted; degraded allocation of %zu bytes "
                 "to pool %d",
                 k, bytes, f);
            machine_.stats().allocFallbacks += 1;
            stats_.fallbacks += 1;
            k = f;
            return cut;
        }
    }
    return PoolCut{};
}

BankId
AffinityAllocator::nthLiveBank(std::uint32_t n) const
{
    const sim::FaultPlan &plan = machine_.faultPlan();
    for (BankId b = 0; b < numBanks_; ++b) {
        if (plan.bankLive(b) && n-- == 0)
            return b;
    }
    // Unreachable: the fault plan always keeps at least one bank live.
    return 0;
}

void *
AffinityAllocator::largeAlloc(std::size_t bytes, std::uint64_t intrlv,
                              BankId start_bank)
{
    if (intrlv % mem::pageSize != 0)
        SIM_PANIC("alloc", "large interleaving %llu not page aligned",
              (unsigned long long)intrlv);
    const std::uint64_t pages_per_block = intrlv / mem::pageSize;
    const std::uint64_t num_pages = mem::roundUpPage(bytes) / mem::pageSize;
    std::vector<BankId> banks(num_pages);
    for (std::uint64_t i = 0; i < num_pages; ++i)
        banks[i] = static_cast<BankId>(
            (start_bank + i / pages_per_block) % numBanks_);
    const Addr sim = machine_.simOs().allocPagesAtBanks(banks);

    const std::uint64_t alloc_bytes = num_pages * mem::pageSize;
    void *host = newHost(alloc_bytes);
    ownedHost_.emplace(host, alloc_bytes);
    machine_.addressSpace().registerRange(host, alloc_bytes, sim);
    return host;
}

void *
AffinityAllocator::allocInterleaved(std::size_t bytes, std::uint64_t intrlv,
                                    BankId start_bank)
{
    if (bytes == 0)
        SIM_FATAL("alloc", "allocInterleaved of zero bytes");
    void *host = nullptr;
    ArrayInfo info;
    const int k = mem::poolIndexFor(intrlv);
    if (k >= 0) {
        const PoolCut cut = poolAllocAligned(bytes, k, start_bank);
        if (cut.host == nullptr) {
            SIM_FATAL("alloc", "allocInterleaved: pool %d (%llu B interleave) "
                  "exhausted (capacity %llu bytes); use mallocAff for "
                  "graceful fallback",
                  k, (unsigned long long)intrlv,
                  (unsigned long long)poolCapacity_);
        }
        host = cut.host;
        info.poolIdx = k;
        info.poolOffset = cut.offset;
        info.allocBytes = cut.bytes;
    } else if (intrlv >= mem::pageSize && intrlv % mem::pageSize == 0) {
        host = largeAlloc(bytes, intrlv, start_bank);
    } else {
        SIM_FATAL("alloc", "unsupported interleaving %llu", (unsigned long long)intrlv);
    }
    info.simBase = machine_.addressSpace().simAddrOf(host);
    info.bytes = bytes;
    info.elemSize = 1;
    info.numElem = bytes;
    info.intrlv = intrlv;
    info.startBank = start_bank;
    record(host, info);
    stats_.affineAllocs += 1;
    return host;
}

// ----------------------------------------------------------- affine API

std::uint64_t
AffinityAllocator::chooseIntraInterleave(std::uint64_t row_bytes) const
{
    const std::uint32_t B = numBanks_;
    double best_cost = std::numeric_limits<double>::infinity();
    std::uint64_t best = lineSize_;

    auto avg_dist_for_advance = [&](std::uint64_t adv) {
        double sum = 0.0;
        for (BankId b = 0; b < B; ++b)
            sum += machine_.hopsBetween(b, (b + adv) % B);
        return sum / B;
    };

    // Sequential accesses also cross block boundaries: finer
    // interleavings trade vertical (row-offset) distance for more
    // frequent horizontal crossings. Weight by crossing frequency.
    auto seq_cost = [&](std::uint64_t intrlv) {
        return 0.5 * double(lineSize_) / double(intrlv) *
               avg_dist_for_advance(1);
    };

    for (int k = 0; k < mem::numInterleavePools; ++k) {
        const std::uint64_t intrlv = mem::poolInterleave(k);
        if (row_bytes % intrlv == 0) {
            // Fine interleaving: rows advance by a fixed bank offset.
            const std::uint64_t adv = (row_bytes / intrlv) % B;
            const double cost =
                avg_dist_for_advance(adv) + seq_cost(intrlv);
            if (cost < best_cost) {
                best_cost = cost;
                best = intrlv;
            }
        } else if (intrlv % row_bytes == 0) {
            // §4.2: several rows fit one bank; only 1-in-k row
            // transitions cross to the next bank. Coarse blocks trade
            // bank-level parallelism for locality, so they carry a
            // balance penalty and only win when fine interleavings
            // are clearly bad.
            const double k_rows = double(intrlv / row_bytes);
            const double cost =
                avg_dist_for_advance(1) / k_rows + 2.5;
            if (cost < best_cost) {
                best_cost = cost;
                best = intrlv;
            }
        }
    }
    // One or several rows per page-multiple block (large
    // interleavings served by page remapping), with the same
    // parallelism penalty.
    if (row_bytes % mem::pageSize == 0) {
        for (std::uint64_t m : {1ull, 2ull, 4ull, 8ull}) {
            const double cost =
                avg_dist_for_advance(1) / double(m) + 2.5;
            if (cost < best_cost) {
                best_cost = cost;
                best = m * row_bytes;
            }
        }
    }
    return best;
}

void *
AffinityAllocator::poolAllocAffine(std::size_t bytes, int k,
                                   BankId start_bank, ArrayInfo &info,
                                   const char *what)
{
    const PoolCut cut = poolAllocFallback(bytes, k, start_bank);
    if (cut.host == nullptr) {
        warn("mallocAff: pools exhausted; %s request degraded to the "
             "conventional heap",
             what);
        machine_.stats().allocFallbacks += 1;
        stats_.fallbacks += 1;
        return nullptr;
    }
    info.poolIdx = k;
    info.poolOffset = cut.offset;
    info.allocBytes = cut.bytes;
    info.intrlv = mem::poolInterleave(k);
    return cut.host;
}

void *
AffinityAllocator::mallocAff(const AffineArray &req)
{
    PROF_SCOPE_SAMPLED("alloc/malloc_aff.affine");
    if (req.num_elem == 0 || req.elem_size <= 0)
        SIM_FATAL("alloc", "mallocAff: empty affine request");
    const std::uint64_t elem = static_cast<std::uint64_t>(req.elem_size);
    const std::uint64_t bytes = elem * req.num_elem;

    ArrayInfo info;
    info.bytes = bytes;
    info.elemSize = static_cast<std::uint32_t>(elem);
    info.numElem = req.num_elem;

    void *host = nullptr;

    if (req.partition) {
        // Fig. 9: distribute the array evenly across all banks.
        const std::uint64_t chunk_raw =
            (bytes + numBanks_ - 1) / numBanks_;
        if (chunk_raw <= mem::maxPoolInterleave) {
            const std::uint64_t intrlv =
                pow2Ceil(std::max<std::uint64_t>(chunk_raw, lineSize_));
            host = poolAllocAffine(bytes, mem::poolIndexFor(intrlv), 0,
                                   info, "partitioned");
            if (host == nullptr)
                return allocPlain(bytes);
            info.chunkBytes = info.intrlv;
        } else {
            const std::uint64_t chunk = mem::roundUpPage(chunk_raw);
            host = largeAlloc(bytes, chunk, 0);
            info.intrlv = chunk;
            info.chunkBytes = chunk;
        }
        info.partitioned = true;
        info.startBank = 0;
    } else if (req.align_to != nullptr) {
        // Eq. 2 / Eq. 3: inter-array affinity.
        const ArrayInfo *ali = arrayInfo(req.align_to);
        if (!ali || ali->intrlv == 0 || req.align_p <= 0 ||
            req.align_q <= 0) {
            warn("mallocAff: align_to target unknown; falling back");
            stats_.fallbacks += 1;
            return allocPlain(bytes);
        }
        // intrlv_B = (elem_B / elem_A) * (q / p) * intrlv_A, as a
        // rational to detect inexact cases.
        const std::uint64_t num =
            elem * static_cast<std::uint64_t>(req.align_q) * ali->intrlv;
        const std::uint64_t den =
            std::uint64_t(ali->elemSize) *
            static_cast<std::uint64_t>(req.align_p);
        const std::int64_t off_bytes =
            req.align_x * std::int64_t(ali->elemSize);
        if (num % den != 0 ||
            (req.align_x != 0 &&
             off_bytes % std::int64_t(ali->intrlv) != 0)) {
            stats_.fallbacks += 1;
            return allocPlain(bytes);
        }
        const std::uint64_t intrlv = num / den;
        // align_x may be negative (B[i] aligns to A[i - |x|]); wrap
        // the start bank modularly.
        const std::int64_t blocks =
            off_bytes / std::int64_t(ali->intrlv);
        const std::int64_t b = std::int64_t(numBanks_);
        const BankId start = static_cast<BankId>(
            ((std::int64_t(ali->startBank) + blocks) % b + b) % b);
        if (const int k = mem::poolIndexFor(intrlv); k >= 0) {
            host = poolAllocAffine(bytes, k, start, info, "aligned");
            if (host == nullptr)
                return allocPlain(bytes);
        } else if (intrlv >= mem::pageSize &&
                   intrlv % mem::pageSize == 0) {
            host = largeAlloc(bytes, intrlv, start);
            info.partitioned = ali->partitioned;
            info.chunkBytes = ali->partitioned ? intrlv : 0;
            info.intrlv = intrlv;
        } else {
            // Unsupported interleaving (e.g. below a line or not a
            // power of two): the paper's fallback rule.
            stats_.fallbacks += 1;
            return allocPlain(bytes);
        }
        info.startBank = start;
    } else if (req.align_x != 0) {
        // Intra-array affinity: keep A[i] close to A[i + x].
        const std::uint64_t row_bytes =
            static_cast<std::uint64_t>(req.align_x) * elem;
        const std::uint64_t intrlv = chooseIntraInterleave(row_bytes);
        if (const int k = mem::poolIndexFor(intrlv); k >= 0) {
            host = poolAllocAffine(bytes, k, 0, info, "intra-affinity");
            if (host == nullptr)
                return allocPlain(bytes);
        } else {
            host = largeAlloc(bytes, intrlv, 0);
            info.intrlv = intrlv;
        }
        info.startBank = 0;
    } else {
        // Default: finest interleaving (one cache line).
        host = poolAllocAffine(bytes, 0, 0, info, "default");
        if (host == nullptr)
            return allocPlain(bytes);
        info.startBank = 0;
    }

    info.simBase = machine_.addressSpace().simAddrOf(host);
    record(host, info);
    stats_.affineAllocs += 1;
    return host;
}

// -------------------------------------------------------- irregular API

bool
AffinityAllocator::carveStripe(int k)
{
    const std::uint64_t intrlv = mem::poolInterleave(k);
    const Addr bump = poolBump_[k];
    const Addr off = (bump + intrlv - 1) & ~(intrlv - 1);
    const std::uint64_t stripe = intrlv * numBanks_;
    if (off + stripe > poolCapacity_)
        return false;
    stats_.alignmentWasteBytes += off - bump;
    machine_.simOs().expandPool(k, opts_.arena, off + stripe);
    const Addr sim_base = poolBase_[k] + off;
    poolBump_[k] = off + stripe;

    void *host = newHost(stripe);
    ownedHost_.emplace(host, stripe);
    machine_.addressSpace().registerRange(host, stripe, sim_base);

    SlotRecords &rec = records_[k];
    const Addr first_slot = off / intrlv;
    if (rec.runs.empty() ||
        rec.runs.back().firstSlot + (rec.bank.size() -
                                     rec.runs.back().firstRecord) !=
            first_slot) {
        rec.runs.push_back(SlotRecords::Run{
            first_slot, static_cast<std::uint32_t>(rec.bank.size())});
    }
    rec.bank.resize(rec.bank.size() + numBanks_, 0);
    rec.stripeHost.push_back(static_cast<char *>(host));

    for (std::uint32_t s = 0; s < numBanks_; ++s) {
        const Addr sim = sim_base + Addr(s) * intrlv;
        // Key the slot by its *served* bank: lines homed at an
        // offline bank are redirected to the spare, so the slot
        // belongs on the spare's free list.
        const BankId bank = machine_.bankOfSim(sim);
        void *slot_host = static_cast<char *>(host) + Addr(s) * intrlv;
        if (canaries_) {
            const std::uint64_t canary = canaryFor(sim);
            std::memcpy(slot_host, &canary, sizeof(canary));
        }
        freeSlots_[k][bank].push_back(Slot{slot_host, sim});
    }
    return true;
}

void
AffinityAllocator::maybeReconcileFreeLists()
{
    const sim::FaultPlan &plan = machine_.faultPlan();
    if (plan.redirectVersion() == faultVersion_)
        return;
    faultVersion_ = plan.redirectVersion();
    // Deterministic sweep in (pool, bank, slot) order: every slot
    // moves to the bank now serving its lines, so dead banks' lists
    // drain (their capacity un-strands) and the keying audit holds an
    // exact served == keyed invariant. Slots pushed forward to a
    // higher-numbered bank are re-examined there and kept; the sweep
    // touches each slot at most twice.
    for (int k = 0; k < mem::numInterleavePools; ++k) {
        for (std::uint32_t b = 0; b < numBanks_; ++b) {
            auto &list = freeSlots_[k][b];
            std::size_t kept = 0;
            for (std::size_t i = 0; i < list.size(); ++i) {
                const BankId served = machine_.bankOfSim(list[i].sim);
                if (served == b) {
                    list[kept++] = list[i];
                } else {
                    freeSlots_[k][served].push_back(list[i]);
                    stats_.rekeyedSlots += 1;
                }
            }
            list.resize(kept);
        }
    }
}

BankId
AffinityAllocator::selectBank(const BankId *affinity_banks, std::uint32_t n)
{
    PROF_SCOPE_SAMPLED("alloc/select_bank");
    // Unscored decision (random/linear policies, or Min-Hop with no
    // affinity info): the explain log still gets a line so the
    // decision stream is complete, but there is no Eq. 4
    // decomposition to report.
    const auto explained = [&](BankId chosen) {
        if (explain_) {
            obs::PlacementDecision d;
            d.policy = bankPolicyName(opts_.policy);
            d.numAffinity = n;
            d.chosen = chosen;
            explain_->record(d);
        }
        return chosen;
    };

    // Offline banks are never selected; the healthy path is kept
    // draw-for-draw identical to a machine without the fault
    // subsystem (zero overhead when disabled).
    const sim::FaultPlan &plan = machine_.faultPlan();
    const bool degraded = plan.numOfflineBanks() > 0;

    switch (opts_.policy) {
      case BankPolicy::random:
        if (!degraded)
            return explained(static_cast<BankId>(rng_.below(numBanks_)));
        return explained(nthLiveBank(static_cast<std::uint32_t>(
            rng_.below(plan.numLiveBanks()))));
      case BankPolicy::linear: {
        BankId b = nextLinear_++ % numBanks_;
        while (degraded && !plan.bankLive(b))
            b = nextLinear_++ % numBanks_;
        return explained(b);
      }
      case BankPolicy::minHop:
      case BankPolicy::hybrid:
        break;
    }

    if (n == 0 && opts_.policy == BankPolicy::minHop) {
        // No affinity information: every bank scores equally under
        // Min-Hop, so fall back to a random pick instead of always
        // returning bank 0.
        if (!degraded)
            return explained(static_cast<BankId>(rng_.below(numBanks_)));
        return explained(nthLiveBank(static_cast<std::uint32_t>(
            rng_.below(plan.numLiveBanks()))));
    }
    const double H =
        opts_.policy == BankPolicy::minHop ? 0.0 : opts_.hybridH;
    // Eq. 4's load term: machine-wide pressure when a co-run shares a
    // board, own pressure otherwise. With one tenant the board equals
    // the private counters bit-for-bit.
    const std::uint64_t *loads =
        board_ ? board_->loads.data() : bankLoads_.data();
    const double avg_load =
        static_cast<double>(board_ ? board_->total : totalLoad_) /
        static_cast<double>(numBanks_);

    // Manhattan distances are separable, so each bank's affinity-hop
    // sum Σ_a (|xb - xa| + |yb - ya|) is sum_x[xb] + sum_y[yb], where
    // sum_x[x] is the total x-distance from column x to the affinity
    // tiles. One sweep over a column histogram yields every sum_x:
    // moving from x to x + 1 brings each tile at or left of x one
    // step farther and every other tile one step nearer. That is
    // O(|A| + mesh) instead of the direct O(banks x |A|)
    // accumulation, which remains for meshes wider than the stack
    // histograms. Integer hop sums are exact in double, as is the
    // direct accumulation's running sum, so scores are bit-identical
    // either way.
    constexpr std::uint32_t maxDim = 64;
    const noc::Mesh &mesh = machine_.network().mesh();
    const std::uint32_t xd = mesh.xDim(), yd = mesh.yDim();
    const bool separable = n > 0 && xd <= maxDim && yd <= maxDim;
    std::array<std::uint64_t, maxDim> sum_x, sum_y;
    if (separable) {
        std::array<std::uint32_t, maxDim> cnt_x{}, cnt_y{};
        for (std::uint32_t i = 0; i < n; ++i) {
            cnt_x[bankX_[affinity_banks[i]]] += 1;
            cnt_y[bankY_[affinity_banks[i]]] += 1;
        }
        const auto sweep = [n](const std::array<std::uint32_t, maxDim> &cnt,
                               std::uint32_t dim,
                               std::array<std::uint64_t, maxDim> &sum) {
            std::uint64_t at0 = 0, behind = 0;
            for (std::uint32_t c = 0; c < dim; ++c)
                at0 += std::uint64_t(cnt[c]) * c;
            sum[0] = at0;
            for (std::uint32_t c = 0; c + 1 < dim; ++c) {
                behind += cnt[c];
                sum[c + 1] = sum[c] + behind - (n - behind);
            }
        };
        sweep(cnt_x, xd, sum_x);
        sweep(cnt_y, yd, sum_y);
    }
    const double num_aff = static_cast<double>(n);
    const auto hop_term = [&](BankId b) {
        if (separable)
            return double(sum_x[bankX_[b]] + sum_y[bankY_[b]]) / num_aff;
        if (n == 0)
            return 0.0;
        double sum = 0.0;
        for (std::uint32_t i = 0; i < n; ++i)
            sum += machine_.hopsBetween(b, affinity_banks[i]);
        return sum / num_aff;
    };
    const auto load_term = [&](BankId b) {
        return avg_load > 0.0
                   ? H * (static_cast<double>(loads[b]) / avg_load - 1.0)
                   : 0.0;
    };

    // First-lowest argmin of Eq. 4 over the live banks.
    const auto live = [&](BankId b) { return !degraded || plan.bankLive(b); };
    double best_score = std::numeric_limits<double>::infinity();
    BankId best = degraded ? plan.redirect(0) : 0;
    for (BankId b = 0; b < numBanks_; ++b) {
        const double score = hop_term(b) + load_term(b); // Eq. 4
        if (score < best_score && live(b)) {
            best_score = score;
            best = b;
        }
    }
    if (explain_) {
        // The runner-up is the first-lowest live bank other than the
        // choice; with a single live candidate there is none.
        double second_score = std::numeric_limits<double>::infinity();
        BankId second = invalidBank;
        for (BankId b = 0; b < numBanks_; ++b) {
            const double score = hop_term(b) + load_term(b);
            if (b != best && score < second_score && live(b)) {
                second_score = score;
                second = b;
            }
        }
        if (second == invalidBank)
            second_score = 0.0;
        obs::PlacementDecision d;
        d.policy = bankPolicyName(opts_.policy);
        d.numAffinity = n;
        d.chosen = best;
        d.chosenAffinity = hop_term(best);
        d.chosenLoad = load_term(best);
        d.chosenScore = best_score;
        d.runnerUp = second;
        d.runnerUpScore = second_score;
        explain_->record(d);
    }
    return best;
}

void *
AffinityAllocator::claimSlot(int k, BankId bank)
{
    // Graceful degradation: when the requested size class's pool is
    // exhausted, place the object in a coarser pool (the slot is
    // bigger than needed but keeps its bank affinity).
    for (int kk = k; kk < mem::numInterleavePools; ++kk) {
        auto &list = freeSlots_[kk][bank];
        if (list.empty() && !carveStripe(kk))
            continue; // this pool is at capacity; try a coarser one
        if (list.empty())
            SIM_PANIC("alloc", "carveStripe did not produce a slot for bank %u", bank);
        const Slot slot = list.back();
        list.pop_back();
        const std::size_t rec = recordOf(kk, slot.sim - poolBase_[kk]);
        if (rec == npos) {
            SIM_PANIC("alloc", "free slot sim %llx has no carve record",
                      (unsigned long long)slot.sim);
        }
        records_[kk].bank[rec] = static_cast<std::uint16_t>(bank + 1);
        if (kk != k) {
            machine_.stats().allocFallbacks += 1;
            stats_.fallbacks += 1;
        }
        addLoad(bank);
        stats_.irregularAllocs += 1;
        foldPlacement(slot.sim, mem::poolInterleave(kk),
                      mem::poolInterleave(kk), bank);
        return slot.host;
    }
    return nullptr;
}

void *
AffinityAllocator::mallocAff(std::size_t size, int num_aff_addrs,
                             const void *const *aff_addrs)
{
    PROF_SCOPE_SAMPLED("alloc/malloc_aff.irregular");
    if (size == 0)
        SIM_FATAL("alloc", "mallocAff: zero-size irregular request");
    if (size > mem::maxPoolInterleave) {
        warn("mallocAff: irregular size %zu exceeds max interleaving; "
             "falling back",
             size);
        stats_.fallbacks += 1;
        return allocPlain(size);
    }
    const std::uint64_t intrlv =
        pow2Ceil(std::max<std::uint64_t>(size, lineSize_));
    const int k = mem::poolIndexFor(intrlv);
    maybeReconcileFreeLists();

    std::array<BankId, maxAffinityAddrs> banks;
    std::uint32_t n = 0;
    const std::uint32_t limit =
        std::min<std::uint32_t>(static_cast<std::uint32_t>(
                                    std::max(num_aff_addrs, 0)),
                                maxAffinityAddrs);
    for (std::uint32_t i = 0; i < limit; ++i) {
        if (!aff_addrs[i])
            continue;
        const Addr sim = machine_.addressSpace().trySimAddrOf(aff_addrs[i]);
        if (sim == invalidAddr)
            continue;
        banks[n++] = machine_.bankOfSim(sim);
    }

    const BankId bank = selectBank(banks.data(), n);
    if (void *host = claimSlot(k, bank))
        return host;
    warn("mallocAff: every irregular pool >= %zu bytes exhausted; "
         "falling back to the conventional heap",
         size);
    machine_.stats().allocFallbacks += 1;
    stats_.fallbacks += 1;
    return allocPlain(size);
}

void *
AffinityAllocator::allocSlotAtBank(std::size_t size, BankId bank)
{
    if (size == 0 || size > mem::maxPoolInterleave)
        SIM_FATAL("alloc", "allocSlotAtBank: size %zu unsupported", size);
    if (bank >= numBanks_)
        SIM_FATAL("alloc", "allocSlotAtBank: bank %u out of range", bank);
    maybeReconcileFreeLists();
    const sim::FaultPlan &plan = machine_.faultPlan();
    if (!plan.bankLive(bank)) {
        // The requested bank is offline: its spare serves its lines,
        // so the slot lands there (counted as a degraded placement).
        bank = plan.redirect(bank);
        machine_.stats().allocFallbacks += 1;
        stats_.fallbacks += 1;
    }
    const std::uint64_t intrlv =
        pow2Ceil(std::max<std::uint64_t>(size, lineSize_));
    const int k = mem::poolIndexFor(intrlv);
    // Same degradation ladder as the policy-driven path: the pinned
    // bank's pool, then coarser pools at that bank, then the
    // conventional heap. Exhausted spare capacity degrades with
    // counters; it never crashes the run.
    if (void *host = claimSlot(k, bank))
        return host;
    warn("allocSlotAtBank: every pool >= %zu bytes exhausted at bank "
         "%u; falling back to the conventional heap",
         size, bank);
    machine_.stats().allocFallbacks += 1;
    stats_.fallbacks += 1;
    return allocPlain(size);
}

// ---------------------------------------------------------- slot records

std::size_t
AffinityAllocator::recordOf(int k, Addr off) const
{
    const SlotRecords &r = records_[k];
    const Addr slot = off / mem::poolInterleave(k);
    const auto next = std::upper_bound(
        r.runs.begin(), r.runs.end(), slot,
        [](Addr s, const SlotRecords::Run &run) { return s < run.firstSlot; });
    if (next == r.runs.begin())
        return npos;
    const SlotRecords::Run &run = *std::prev(next);
    const std::size_t end =
        next == r.runs.end() ? r.bank.size() : next->firstRecord;
    const std::size_t rec = run.firstRecord + (slot - run.firstSlot);
    return rec < end ? rec : npos;
}

AffinityAllocator::SlotRef
AffinityAllocator::slotOf(const void *ptr) const
{
    // The pool comes from the simulated segment; only this arena's
    // slice up to the bump pointer can hold this allocator's slots.
    const Addr sim = machine_.addressSpace().trySimAddrOf(ptr);
    if (sim < mem::poolVirtBase ||
        sim >= mem::poolVirtBase +
                   Addr(mem::numInterleavePools) * mem::terabyte)
        return SlotRef{};
    const int k = static_cast<int>((sim - mem::poolVirtBase) /
                                   mem::terabyte);
    if (sim < poolBase_[k] || sim - poolBase_[k] >= poolBump_[k])
        return SlotRef{};
    const Addr off = sim - poolBase_[k];
    const std::size_t rec = recordOf(k, off);
    if (rec == npos)
        return SlotRef{};
    return SlotRef{k, rec, sim, off % mem::poolInterleave(k) != 0};
}

// ---------------------------------------------------------------- free

void
AffinityAllocator::freeAff(void *ptr)
{
    PROF_SCOPE_SAMPLED("alloc/free_aff");
    if (const SlotRef s = slotOf(ptr); s.k >= 0) {
        if (s.interior) {
            SIM_FATAL("alloc", "freeAff of interior pointer %p (sim %llx) "
                      "inside a pool %d irregular slot",
                      ptr, (unsigned long long)s.sim, s.k);
        }
        std::uint16_t &live = records_[s.k].bank[s.rec];
        if (live == 0) {
            SIM_FATAL("alloc", "double free of irregular slot %p (sim "
                      "%llx, pool %d)",
                      ptr, (unsigned long long)s.sim, s.k);
        }
        const BankId bank = live - 1u;
        live = 0;
        maybeReconcileFreeLists();
        // Return the slot to the free list of the bank that actually
        // serves it now: the alloc-time bank's spare goes stale the
        // moment a re-affinity re-target (or a second kill) moves the
        // raw home bank's service elsewhere.
        const BankId home = machine_.bankOfSim(s.sim);
        if (canaries_) {
            const std::uint64_t canary = canaryFor(s.sim);
            std::memcpy(ptr, &canary, sizeof(canary));
        }
        freeSlots_[s.k][home].push_back(Slot{ptr, s.sim});
        subLoad(bank);
        stats_.frees += 1;
        return;
    }
    if (auto it = arrays_.find(ptr); it != arrays_.end()) {
        const ArrayInfo info = it->second;
        machine_.addressSpace().unregisterRange(ptr);
        arrays_.erase(it);
        stats_.frees += 1;
        if (info.poolIdx >= 0) {
            // Same-interleaving reuse (§8): the region returns to its
            // pool's free list and the host backing is released.
            freeRegions_[info.poolIdx].push_back(
                FreeRegion{info.poolOffset, info.allocBytes});
            stats_.freeRegionBytes += info.allocBytes;
            if (auto owned = ownedHost_.find(ptr);
                owned != ownedHost_.end()) {
                deleteHost(ptr, owned->second);
                ownedHost_.erase(owned);
            }
        }
        // Heap / page-at-bank allocations keep their host backing
        // until destruction; their simulated VA is not recycled.
        return;
    }
    SIM_FATAL("alloc", "freeAff of foreign pointer %p (never returned by "
              "this allocator, or already freed)",
              ptr);
}

void *
AffinityAllocator::reallocAff(void *ptr, std::size_t new_bytes)
{
    if (new_bytes == 0)
        SIM_FATAL("alloc", "reallocAff to zero bytes");
    if (const SlotRef s = slotOf(ptr);
        s.k >= 0 && !s.interior && records_[s.k].bank[s.rec] != 0) {
        const BankId bank = records_[s.k].bank[s.rec] - 1u;
        const std::uint64_t slot_bytes = mem::poolInterleave(s.k);
        if (new_bytes <= slot_bytes)
            return ptr; // fits the existing size class in place
        // Move within the same bank so existing affinity holds.
        void *next = allocSlotAtBank(
            std::min<std::size_t>(new_bytes, mem::maxPoolInterleave),
            bank);
        std::memcpy(next, ptr, slot_bytes);
        freeAff(ptr);
        return next;
    }
    const ArrayInfo *info = arrayInfo(ptr);
    if (!info)
        SIM_FATAL("alloc", "reallocAff of unknown pointer %p", ptr);
    const ArrayInfo old = *info;
    void *next;
    if (old.intrlv != 0 && mem::poolIndexFor(old.intrlv) >= 0) {
        // Preserve interleaving and start bank: alignment to/from
        // other arrays survives the resize.
        next = allocInterleaved(new_bytes, old.intrlv, old.startBank);
    } else if (old.intrlv != 0) {
        next = largeAlloc(new_bytes, old.intrlv, old.startBank);
        ArrayInfo ninfo = old;
        ninfo.simBase = machine_.addressSpace().simAddrOf(next);
        ninfo.bytes = new_bytes;
        ninfo.poolIdx = -1;
        record(next, ninfo);
    } else {
        next = allocPlain(new_bytes);
    }
    std::memcpy(next, ptr,
                std::min<std::uint64_t>(old.bytes, new_bytes));
    // Update element bookkeeping on the new record.
    if (ArrayInfo *ninfo =
            const_cast<ArrayInfo *>(arrayInfo(next))) {
        ninfo->elemSize = old.elemSize;
        ninfo->numElem = new_bytes / std::max<std::uint32_t>(
                                         1, old.elemSize);
        ninfo->partitioned = old.partitioned;
        ninfo->chunkBytes = old.chunkBytes;
    }
    freeAff(ptr);
    return next;
}

std::vector<std::pair<void *, void *>>
AffinityAllocator::migrateVictims()
{
    const sim::FaultPlan &plan = machine_.faultPlan();
    std::vector<std::pair<void *, void *>> moved;
    if (plan.numOfflineBanks() == 0)
        return moved;
    maybeReconcileFreeLists();

    // Collect first: the migration below mutates the slot records.
    // Records are kept in (pool, slot) order, which is simulated-address
    // order, so the migration order (it feeds selectBank's load
    // balancing) is reproducible run-to-run.
    struct Victim
    {
        void *host;
        int k;
        BankId bank;
    };
    std::vector<Victim> victims;
    for (int k = 0; k < mem::numInterleavePools; ++k) {
        const std::vector<std::uint16_t> &banks = records_[k].bank;
        for (std::size_t r = 0; r < banks.size(); ++r) {
            if (banks[r] != 0 && !plan.bankLive(banks[r] - 1u))
                victims.push_back(
                    Victim{hostOfRecord(k, r), k, BankId(banks[r] - 1u)});
        }
    }

    for (const Victim &v : victims) {
        const std::uint64_t slot_bytes = mem::poolInterleave(v.k);
        // Re-run the selection policy seeded with the dead bank's
        // spare (the bank already serving the victim's lines), so the
        // replacement stays close while load balance has a say.
        const BankId spare = plan.redirect(v.bank);
        const BankId nb = selectBank(&spare, 1);
        void *next = allocSlotAtBank(slot_bytes, nb);
        std::memcpy(next, v.host, slot_bytes);
        // The data physically moves spare -> new bank.
        machine_.forwardData(spare, machine_.bankOfHost(next),
                             static_cast<std::uint32_t>(slot_bytes));
        freeAff(v.host);
        machine_.stats().victimMigrations += 1;
        moved.emplace_back(v.host, next);
    }
    return moved;
}

// ------------------------------------------------------------ metadata

void
AffinityAllocator::record(void *host, ArrayInfo info)
{
    arrays_[host] = info;
    // Host pointers are a host-allocator artifact and never hashed;
    // the simulated coordinates are deterministic run to run.
    foldPlacement(info.simBase, info.bytes, info.intrlv, info.startBank);
}

void
AffinityAllocator::foldPlacement(Addr sim, std::uint64_t bytes,
                                 std::uint64_t intrlv, std::uint64_t bank)
{
    std::uint64_t h = simcheck::Digest::fnv1a(&sim, sizeof(sim));
    h = simcheck::Digest::fnv1a(&bytes, sizeof(bytes), h);
    h = simcheck::Digest::fnv1a(&intrlv, sizeof(intrlv), h);
    h = simcheck::Digest::fnv1a(&bank, sizeof(bank), h);
    placement_.foldRaw(h);
}

void
AffinityAllocator::auditFreeLists(simcheck::CheckContext &ctx)
{
    // The audit point doubles as a reconcile point so a fault landing
    // between allocator calls cannot leave a transiently stale keying
    // for the strict check below to trip over.
    maybeReconcileFreeLists();
    std::unordered_set<const void *> free_hosts;

    for (int k = 0; k < mem::numInterleavePools; ++k) {
        const std::uint64_t intrlv = mem::poolInterleave(k);
        const Addr vbase = poolBase_[k];
        for (std::uint32_t b = 0; b < numBanks_; ++b) {
            for (const Slot &slot : freeSlots_[k][b]) {
                if (slot.host == nullptr) {
                    ctx.failf("pool %d bank %u: null host in free list",
                              k, b);
                    continue;
                }
                if (!free_hosts.insert(slot.host).second) {
                    ctx.failf("slot %p appears on more than one free list",
                              slot.host);
                    continue;
                }
                // Arena ownership: a slot whose simulated address sits
                // in another tenant's arena is a cross-tenant breach
                // (tenant A holding memory inside tenant B's slice).
                // Addresses outside the pool segments entirely fall
                // through to the range check below.
                const bool in_pools =
                    slot.sim >= mem::poolVirtBase &&
                    slot.sim < mem::poolVirtBase +
                                   Addr(mem::numInterleavePools) *
                                       mem::terabyte;
                const std::uint32_t owner =
                    in_pools ? machine_.simOs().arenaOfPoolAddr(slot.sim)
                             : opts_.arena;
                if (owner != opts_.arena) {
                    ctx.failf("pool %d bank %u: slot sim %llx belongs to "
                              "arena %u but this allocator owns arena %u "
                              "(cross-tenant pointer)",
                              k, b, (unsigned long long)slot.sim, owner,
                              opts_.arena);
                    continue;
                }
                if (slot.sim < vbase ||
                    slot.sim - vbase + intrlv > poolBump_[k]) {
                    ctx.failf("pool %d bank %u: slot sim %llx outside the "
                              "pool's allocated range",
                              k, b, (unsigned long long)slot.sim);
                    continue;
                }
                if ((slot.sim - vbase) % intrlv != 0) {
                    ctx.failf("pool %d bank %u: slot sim %llx misaligned "
                              "to the %llu B interleaving",
                              k, b, (unsigned long long)slot.sim,
                              (unsigned long long)intrlv);
                    continue;
                }
                const BankId served = machine_.bankOfSim(slot.sim);
                if (served != b) {
                    ctx.failf("pool %d: stale spare keying — slot sim "
                              "%llx keyed at bank %u but served by bank "
                              "%u after redirect change",
                              k, (unsigned long long)slot.sim, b, served);
                }
                if (canaries_) {
                    std::uint64_t got = 0;
                    std::memcpy(&got, slot.host, sizeof(got));
                    if (got != canaryFor(slot.sim)) {
                        ctx.failf(
                            "pool %d bank %u: free slot %p (sim %llx) "
                            "canary clobbered — write through a stale "
                            "pointer",
                            k, b, slot.host,
                            (unsigned long long)slot.sim);
                    }
                }
            }
        }
    }

    // Free regions: within the bump, pairwise disjoint, and summing to
    // the freeRegionBytes counter.
    std::uint64_t region_bytes = 0;
    for (int k = 0; k < mem::numInterleavePools; ++k) {
        std::vector<FreeRegion> regions = freeRegions_[k];
        std::sort(regions.begin(), regions.end(),
                  [](const FreeRegion &a, const FreeRegion &b) {
                      return a.offset < b.offset;
                  });
        Addr prev_end = 0;
        for (const FreeRegion &r : regions) {
            if (r.offset + r.bytes > poolBump_[k]) {
                ctx.failf("pool %d: free region [%llx,%llx) beyond the "
                          "bump %llx",
                          k, (unsigned long long)r.offset,
                          (unsigned long long)(r.offset + r.bytes),
                          (unsigned long long)poolBump_[k]);
            }
            if (r.offset < prev_end) {
                ctx.failf("pool %d: free regions overlap at offset %llx",
                          k, (unsigned long long)r.offset);
            }
            prev_end = r.offset + r.bytes;
            region_bytes += r.bytes;
        }
    }
    if (region_bytes != stats_.freeRegionBytes) {
        ctx.failf("freeRegionBytes counter %llu != %llu summed over pools",
                  (unsigned long long)stats_.freeRegionBytes,
                  (unsigned long long)region_bytes);
    }

    // Irregular bookkeeping: live slots are never on a free list and
    // the per-bank loads reconcile with the live slot records. Records
    // are positional in this allocator's own arena, so a live slot
    // cannot name another tenant's memory.
    std::vector<std::uint64_t> loads(numBanks_, 0);
    std::uint64_t total = 0;
    for (int k = 0; k < mem::numInterleavePools; ++k) {
        const std::vector<std::uint16_t> &banks = records_[k].bank;
        for (std::size_t r = 0; r < banks.size(); ++r) {
            if (banks[r] == 0)
                continue;
            const void *host = hostOfRecord(k, r);
            if (free_hosts.count(host)) {
                ctx.failf("live irregular slot %p is also on a free list "
                          "(double-booked)",
                          host);
            }
            loads[banks[r] - 1u] += 1;
            total += 1;
        }
    }
    if (total != totalLoad_) {
        ctx.failf("totalLoad %llu != %llu live irregular slots",
                  (unsigned long long)totalLoad_,
                  (unsigned long long)total);
    }
    for (std::uint32_t b = 0; b < numBanks_; ++b) {
        if (loads[b] != bankLoads_[b]) {
            ctx.failf("bankLoads[%u] %llu != %llu recomputed from live "
                      "slots",
                      b, (unsigned long long)bankLoads_[b],
                      (unsigned long long)loads[b]);
        }
    }

    // Shared board: this tenant's contribution can never exceed the
    // machine-wide totals (a violation means a tenant mutated the
    // board without mirroring, or double-released).
    if (board_) {
        for (std::uint32_t b = 0; b < numBanks_; ++b) {
            if (bankLoads_[b] > board_->loads[b]) {
                ctx.failf("shared board loads[%u]=%llu below this "
                          "tenant's own %llu",
                          b, (unsigned long long)board_->loads[b],
                          (unsigned long long)bankLoads_[b]);
            }
        }
        if (totalLoad_ > board_->total) {
            ctx.failf("shared board total %llu below this tenant's own "
                      "%llu",
                      (unsigned long long)board_->total,
                      (unsigned long long)totalLoad_);
        }
    }
}

const ArrayInfo *
AffinityAllocator::arrayInfo(const void *ptr) const
{
    auto it = arrays_.find(ptr);
    return it == arrays_.end() ? nullptr : &it->second;
}

BankId
AffinityAllocator::bankOfElement(const void *array,
                                 std::uint64_t idx) const
{
    const ArrayInfo *info = arrayInfo(array);
    if (!info)
        SIM_FATAL("alloc", "bankOfElement: %p is not a recorded array", array);
    return machine_.bankOfSim(info->simBase +
                              idx * std::uint64_t(info->elemSize));
}

} // namespace affalloc::alloc
