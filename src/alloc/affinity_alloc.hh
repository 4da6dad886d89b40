/**
 * @file
 * The affinity alloc runtime (§4.2, §5) — the paper's primary
 * contribution. The application describes *affinity* (which data
 * should live near which) through two declarative APIs:
 *
 *  - the affine API: malloc_aff(AffineArray) with inter-array
 *    alignment (align_to + align_p/q/x, Eq. 2/3), intra-array row
 *    affinity, and a partition flag (Fig. 8, Fig. 9);
 *  - the irregular API: malloc_aff(size, affinity addresses)
 *    (Fig. 10), with the bank-select policy of Eq. 4 balancing
 *    affinity against load.
 *
 * The runtime lowers these to interleave-pool allocations (via the
 * simulated OS) and never exposes microarchitectural details to the
 * application; it learns the topology from the OS at construction.
 *
 * Host backing: the library is execution-driven, so every allocation
 * returns a *real host pointer* the application reads and writes; the
 * runtime registers the host range against the simulated range it
 * occupies so the timing model can locate every byte.
 */

#ifndef AFFALLOC_ALLOC_AFFINITY_ALLOC_HH
#define AFFALLOC_ALLOC_AFFINITY_ALLOC_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/address.hh"
#include "nsc/machine.hh"
#include "obs/placement_explain.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace affalloc::alloc
{

/**
 * Affine allocation request (Fig. 8(a)). Field names keep the paper's
 * snake_case spelling since this is the public API the paper defines.
 */
struct AffineArray
{
    /** Element size in bytes. */
    int elem_size = 4;
    /** Number of elements. */
    std::uint64_t num_elem = 0;
    /** Pointer to the aligned-to affine array (nullptr: none). */
    const void *align_to = nullptr;
    /** Alignment ratio numerator: B[i] aligns to A[(p/q)i + x]. */
    int align_p = 1;
    /** Alignment ratio denominator. */
    int align_q = 1;
    /** Alignment offset x; with align_to == nullptr, a nonzero x
     *  requests intra-array affinity between A[i] and A[i+x]. */
    std::int64_t align_x = 0;
    /** Evenly distribute the array across all banks (Fig. 9). */
    bool partition = false;
};

/** Bank selection policy for irregular allocations (§5.2, Fig. 13). */
enum class BankPolicy : std::uint8_t
{
    /** Uniformly random bank (Rnd). */
    random,
    /** Round-robin across banks (Lnr). */
    linear,
    /** Minimize average hops to affinity addresses (Min-Hop). */
    minHop,
    /** Eq. 4: avg_hops + H * (load/avg_load - 1) (Hybrid-H). */
    hybrid
};

/**
 * Most affinity addresses one irregular allocation considers (§5.1);
 * mallocAff ignores the rest and gathers the banks of these in a stack
 * buffer.
 */
inline constexpr std::uint32_t maxAffinityAddrs = 32;

/** Human-readable policy name (figure labels). */
const char *bankPolicyName(BankPolicy p);

/**
 * Cross-tenant bank-load scoreboard. In a co-run every tenant's
 * allocator mirrors its irregular load updates into one shared board,
 * and Eq. 4's load term reads the board instead of the allocator's
 * private counters — placement competes with *machine-wide* pressure,
 * not just the tenant's own. With a single tenant the board trivially
 * equals the private counters, so scores (and digests) are
 * bit-identical to an allocator without a board.
 */
struct BankLoadBoard
{
    /** Machine-wide irregular load per bank (all tenants). */
    std::vector<std::uint64_t> loads;
    /** Sum of loads. */
    std::uint64_t total = 0;

    /** Size for a machine; idempotent across tenant constructions. */
    void
    init(std::uint32_t num_banks)
    {
        if (loads.size() != num_banks) {
            loads.assign(num_banks, 0);
            total = 0;
        }
    }
};

/** Runtime construction options. */
struct AllocatorOptions
{
    /** Irregular bank-select policy. */
    BankPolicy policy = BankPolicy::hybrid;
    /** Load-balance weight H of Eq. 4 (paper default: Hybrid-5);
     *  finite and >= 0, else the constructor SIM_FATALs. */
    double hybridH = 5.0;
    /** Seed for the random policy. */
    std::uint64_t seed = 7;
    /** OS arena this allocator draws pools from (tenant isolation). */
    std::uint32_t arena = 0;
    /**
     * Shared cross-tenant load board (not owned; must outlive the
     * allocator). Null: Eq. 4 sees only this allocator's own loads.
     */
    BankLoadBoard *sharedLoads = nullptr;
};

/** Metadata the runtime records per affine/plain allocation. */
struct ArrayInfo
{
    /** Simulated virtual base address. */
    Addr simBase = 0;
    /** Total bytes (possibly padded). */
    std::uint64_t bytes = 0;
    /** Element size. */
    std::uint32_t elemSize = 0;
    /** Element count. */
    std::uint64_t numElem = 0;
    /** Interleaving in bytes (0: default NUCA heap layout). */
    std::uint64_t intrlv = 0;
    /** Bank of element 0. */
    BankId startBank = 0;
    /** Whether the partition flag produced a per-bank chunking. */
    bool partitioned = false;
    /** Bytes of one per-bank chunk when partitioned. */
    std::uint64_t chunkBytes = 0;
    /** Pool the array came from (-1: heap or page-at-bank region). */
    int poolIdx = -1;
    /** Pool byte offset of the (padded) allocation. */
    Addr poolOffset = 0;
    /** Padded pool bytes actually claimed. */
    std::uint64_t allocBytes = 0;
};

/** Allocator statistics (fragmentation / fallback accounting). */
struct AllocStats
{
    /** Affine allocations served from pools. */
    std::uint64_t affineAllocs = 0;
    /** Irregular allocations served from pools. */
    std::uint64_t irregularAllocs = 0;
    /** Allocations placed other than requested: in a finer pool
     *  (affine), a coarser pool (irregular), at a dead bank's spare
     *  (allocSlotAtBank) or on the plain heap. */
    std::uint64_t fallbacks = 0;
    /** Bytes wasted aligning pool bumps to a start bank. */
    std::uint64_t alignmentWasteBytes = 0;
    /** Frees returned to pool free lists. */
    std::uint64_t frees = 0;
    /** Affine allocations served by reusing freed pool regions. */
    std::uint64_t regionReuses = 0;
    /** Bytes currently sitting in pool free regions. */
    std::uint64_t freeRegionBytes = 0;
    /** Free slots re-keyed after a bank kill / re-affinity re-target. */
    std::uint64_t rekeyedSlots = 0;
};

/**
 * The affinity allocator runtime. One instance per simulated process.
 * Thread-unsafe by design (the simulation is single-threaded).
 */
class AffinityAllocator
{
  public:
    /** Bind to a machine (whose OS provides pools and topology). */
    explicit AffinityAllocator(nsc::Machine &machine,
                               AllocatorOptions opts = AllocatorOptions{});
    ~AffinityAllocator();

    AffinityAllocator(const AffinityAllocator &) = delete;
    AffinityAllocator &operator=(const AffinityAllocator &) = delete;

    // ------------------------------------------------------ public API
    /**
     * Affine allocation (Fig. 8(a)). Returns a host pointer of
     * elem_size * num_elem bytes laid out per the affinity request,
     * or a plain heap allocation when the constraints cannot be met
     * exactly (the paper's fallback rule).
     */
    void *mallocAff(const AffineArray &request);

    /**
     * Irregular allocation (Fig. 10): @p size bytes placed close to
     * the given affinity addresses, subject to load balance. Sizes
     * are rounded up to a valid interleaving (64 B .. 4 kB); larger
     * sizes fall back to the plain heap.
     */
    void *mallocAff(std::size_t size, int num_aff_addrs,
                    const void *const *aff_addrs);

    /** Free either kind of affinity allocation (§5.1 free_aff). */
    void freeAff(void *ptr);

    /**
     * Resize an affinity allocation (§8's dynamic-structure hook).
     * The new array keeps the old one's interleaving and start bank
     * (so existing alignment relationships survive) and its contents
     * are copied. Irregular slots resize in place when the rounded
     * size class is unchanged, else move within the same bank.
     */
    void *reallocAff(void *ptr, std::size_t new_bytes);

    /**
     * Migrate irregular slots stranded on offline banks: each victim
     * is realloc'd to a live bank picked by the selection policy
     * (seeded with the dead bank's spare), its contents copied, and
     * its migration traffic charged to the machine. Returns
     * (old host pointer, new host pointer) pairs so callers can patch
     * their own references; old pointers are freed. Call after
     * Machine::injectBankFault() to restore affinity.
     */
    std::vector<std::pair<void *, void *>> migrateVictims();

    /** Plain baseline allocation from the conventional heap. */
    void *allocPlain(std::size_t bytes, std::size_t align = 64);

    // --------------------------------------------------- low-level API
    /**
     * Allocate @p bytes from the pool of @p intrlv with element 0 at
     * @p start_bank. Used by benchmarks that control layout exactly
     * (Fig. 4's Delta-bank sweep) and internally by mallocAff.
     */
    void *allocInterleaved(std::size_t bytes, std::uint64_t intrlv,
                           BankId start_bank);

    /**
     * Allocate one irregular slot pinned to an explicit bank,
     * bypassing the selection policy. Used by limit studies (Fig. 6's
     * free chunk remapping) and by co-designed structures that
     * compute placement themselves.
     */
    void *allocSlotAtBank(std::size_t size, BankId bank);

    // ------------------------------------------------------ inspection
    /** Metadata of an allocation starting at @p ptr, or nullptr. */
    const ArrayInfo *arrayInfo(const void *ptr) const;
    /** Bank of element @p idx of a recorded array. */
    BankId bankOfElement(const void *array, std::uint64_t idx) const;
    /** Current irregular-allocation load per bank (Eq. 4's load). */
    const std::vector<std::uint64_t> &bankLoads() const
    {
        return bankLoads_;
    }
    /** Allocator counters. */
    const AllocStats &allocStats() const { return stats_; }
    /**
     * Order-insensitive digest of every placement decision made so far
     * (simulated base, size, interleaving, bank). Combined with the
     * stats digest for run-to-run determinism checks.
     */
    std::uint64_t placementDigest() const { return placement_.value(); }
    /**
     * SimCheck audit: free-list integrity (canaries, bank keying,
     * duplicate/misaligned slots), free-region accounting, and
     * irregular load reconciliation. Registered with the machine's
     * Auditor at construction. Re-keys stale free lists first (the
     * audit point doubles as a reconcile point), hence non-const.
     */
    void auditFreeLists(simcheck::CheckContext &ctx);
    /** The policy in use. */
    BankPolicy policy() const { return opts_.policy; }
    /** Hybrid weight in use. */
    double hybridH() const { return opts_.hybridH; }

    /**
     * Bank the policy would select for the @p n affinity banks at
     * @p affinity_banks (Eq. 4 for Min-Hop and Hybrid).
     */
    BankId selectBank(const BankId *affinity_banks, std::uint32_t n);
    /**
     * selectBank over a vector (for tests and for data structures that
     * reason about placement without allocating).
     */
    BankId
    selectBank(const std::vector<BankId> &affinity_banks)
    {
        return selectBank(affinity_banks.data(),
                          static_cast<std::uint32_t>(affinity_banks.size()));
    }

    /**
     * Attach (or detach, with nullptr) a placement-explain log; every
     * selectBank decision is recorded with its Eq. 4 decomposition.
     * Observe-only: scoring is unchanged whether or not a log is
     * attached.
     */
    void setExplainer(obs::PlacementExplainer *e) { explain_ = e; }

    /** The OS arena this allocator allocates from. */
    std::uint32_t arena() const { return opts_.arena; }

    /**
     * Total bytes claimed from the interleave pool segments (bump
     * offsets summed across pools). This is the arena's pool
     * footprint high-watermark: bump offsets never rewind, freed
     * regions are recycled in place. Host-side telemetry only.
     */
    std::uint64_t
    footprintBytes() const
    {
        std::uint64_t total = 0;
        for (const Addr bump : poolBump_)
            total += bump;
        return total;
    }

    /**
     * Test-only corruption injection: plant a free slot claiming a
     * simulated address (typically inside *another* tenant's arena) so
     * the cross-tenant audit can prove it detects foreign pointers.
     */
    void
    adoptFreeSlotForTest(int k, BankId bank, void *host, Addr sim)
    {
        freeSlots_.at(k).at(bank).push_back(Slot{host, sim});
    }

  private:
    struct Slot
    {
        void *host = nullptr;
        Addr sim = 0;
    };

    /**
     * Carve one stripe (numBanks slots) of pool @p k into free
     * lists, keyed by each slot's live home bank (offline banks'
     * slots land at their spare), and append the stripe's slot
     * records. Returns false when the pool is at capacity (the caller
     * must degrade).
     */
    bool carveStripe(int k);
    /**
     * Pop a free slot at @p bank from pool @p k, or from the next
     * coarser pool with room (counted as a fallback), and mark it
     * live. Returns nullptr when every pool from @p k up is at
     * capacity.
     */
    void *claimSlot(int k, BankId bank);

    /**
     * Per-pool record of every carved irregular slot, in slot order
     * (slot = pool offset / interleaving), which is simulated-address
     * order. Stripes are carved at the pool's bump pointer, so slot
     * numbers only grow; consecutive carves extend one run, and an
     * affine cut between two carves starts the next.
     */
    struct SlotRecords
    {
        /** A maximal run of consecutively numbered carved slots. */
        struct Run
        {
            Addr firstSlot = 0;
            std::uint32_t firstRecord = 0;
        };
        std::vector<Run> runs;
        /** Alloc-time bank + 1 of each carved slot; 0: not live. */
        std::vector<std::uint16_t> bank;
        /** Host buffer of each carved stripe (numBanks slots). */
        std::vector<char *> stripeHost;
    };
    /** Where a host pointer falls among the carved slots. */
    struct SlotRef
    {
        /** Pool index, or -1 when the pointer is in no carved slot. */
        int k = -1;
        /** Index into records_[k].bank. */
        std::size_t rec = 0;
        /** Simulated address of the pointer. */
        Addr sim = 0;
        /** Whether the pointer is past the slot's first byte. */
        bool interior = false;
    };
    /** Locate @p ptr among the carved slots of this allocator. */
    SlotRef slotOf(const void *ptr) const;
    /** Record index of the slot at pool offset @p off, or npos. */
    std::size_t recordOf(int k, Addr off) const;
    /** Host address of record @p rec of pool @p k. */
    void *
    hostOfRecord(int k, std::size_t rec) const
    {
        return records_[k].stripeHost[rec / numBanks_] +
               (rec % numBanks_) * mem::poolInterleave(k);
    }
    static constexpr std::size_t npos = ~std::size_t(0);

    /** One claimed pool region. */
    struct PoolCut
    {
        void *host = nullptr;
        Addr offset = 0;
        std::uint64_t bytes = 0;
    };

    /**
     * Affine pool allocation core (free-region reuse, then bump).
     * Returns an empty cut (null host) when pool @p k is at capacity;
     * no allocator state is mutated in that case.
     */
    PoolCut poolAllocAligned(std::size_t bytes, int k, BankId start_bank);
    /**
     * poolAllocAligned with graceful degradation: on exhaustion of
     * pool @p k, retries finer interleavings (k-1 .. 0), counting an
     * allocFallback and updating @p k to the pool actually used.
     * Returns an empty cut only when every pool is exhausted (the
     * caller then falls back to the conventional heap).
     */
    PoolCut poolAllocFallback(std::size_t bytes, int &k,
                              BankId start_bank);
    /**
     * An affine request's pool placement: poolAllocFallback from pool
     * @p k, filling @p info's pool fields and interleaving. When every
     * pool is exhausted, warns (naming the @p what request), counts
     * the fallback and returns null; the caller then returns
     * allocPlain().
     */
    void *poolAllocAffine(std::size_t bytes, int k, BankId start_bank,
                          ArrayInfo &info, const char *what);
    /** The @p n-th live bank in numbering order (fault degradation). */
    BankId nthLiveBank(std::uint32_t n) const;
    /**
     * Re-key free slots to the bank now serving them when the fault
     * plan's bank -> served-bank mapping changed since the last call
     * (bank kill, re-affinity re-target). Without this, slots carved
     * or freed before a fault stay keyed at their old spare: capacity
     * strands on dead banks and the keying audit reports stale
     * entries.
     */
    void maybeReconcileFreeLists();
    /** Large page-multiple interleaving via page-at-bank remapping. */
    void *largeAlloc(std::size_t bytes, std::uint64_t intrlv,
                     BankId start_bank);
    /** Record an ArrayInfo keyed by host pointer. */
    void record(void *host, ArrayInfo info);
    /** Pick the interleaving for an intra-array affinity request. */
    std::uint64_t chooseIntraInterleave(std::uint64_t row_bytes) const;

    nsc::Machine &machine_;
    AllocatorOptions opts_;
    Rng rng_;
    std::uint32_t numBanks_;
    std::uint32_t lineSize_;
    /** Usable bytes per pool segment (config; 1 TB when unset). */
    std::uint64_t poolCapacity_;

    /** A freed affine region inside a pool (reusable for the same
     *  interleaving only — the paper's fragmentation rule, §8). */
    struct FreeRegion
    {
        Addr offset = 0;
        std::uint64_t bytes = 0;
    };

    /** Simulated base of each pool segment in this allocator's arena. */
    std::array<Addr, mem::numInterleavePools> poolBase_{};
    /** Bump offsets per pool (bytes used from each pool segment). */
    std::array<Addr, mem::numInterleavePools> poolBump_{};
    /** Freed affine regions per pool, reusable by poolAllocAligned. */
    std::array<std::vector<FreeRegion>, mem::numInterleavePools>
        freeRegions_;
    /** Free slots per pool per bank. */
    std::array<std::vector<std::vector<Slot>>, mem::numInterleavePools>
        freeSlots_;
    /** Host backing buffers owned by the allocator, with their bytes. */
    std::unordered_map<void *, std::size_t> ownedHost_;

    /** Shared cross-tenant load board (null outside co-runs). */
    BankLoadBoard *board_ = nullptr;
    /** Irregular load per bank (this allocator's own). */
    std::vector<std::uint64_t> bankLoads_;
    std::uint64_t totalLoad_ = 0;
    std::uint32_t nextLinear_ = 0;

    /** Charge/release one irregular slot's load, mirroring the board. */
    void
    addLoad(BankId bank)
    {
        bankLoads_[bank] += 1;
        totalLoad_ += 1;
        if (board_) {
            board_->loads[bank] += 1;
            board_->total += 1;
        }
    }
    void
    subLoad(BankId bank)
    {
        bankLoads_[bank] -= 1;
        totalLoad_ -= 1;
        if (board_) {
            board_->loads[bank] -= 1;
            board_->total -= 1;
        }
    }

    /** Metadata for affine/plain allocations keyed by host pointer. */
    std::unordered_map<const void *, ArrayInfo> arrays_;
    /** Carved irregular slots and their liveness, per pool. */
    std::array<SlotRecords, mem::numInterleavePools> records_;

    /** Mesh x / y of each bank's tile (Eq. 4's separable hop sums). */
    std::vector<std::uint32_t> bankX_, bankY_;

    AllocStats stats_;

    /** Fold one placement decision into the determinism digest. */
    void foldPlacement(Addr sim, std::uint64_t bytes, std::uint64_t intrlv,
                       std::uint64_t bank);

    /** FaultPlan::redirectVersion() at the last free-list reconcile. */
    std::uint64_t faultVersion_ = 0;
    /** Stamp canaries on free slots (simcheck audit mode only). */
    bool canaries_ = false;
    /** Auditor registration id (unregistered in the destructor). */
    int auditId_ = 0;
    /** Running digest of placement decisions. */
    simcheck::Digest placement_;
    /** Optional placement-explain log (null = disabled). */
    obs::PlacementExplainer *explain_ = nullptr;
};

} // namespace affalloc::alloc

#endif // AFFALLOC_ALLOC_AFFINITY_ALLOC_HH
