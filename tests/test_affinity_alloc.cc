#include <gtest/gtest.h>

#include <cstring>

#include "sim/log.hh"

#include "test_helpers.hh"

using namespace affalloc;
using alloc::AffineArray;
using alloc::AllocatorOptions;
using alloc::BankPolicy;
using test::MachineFixture;

// ------------------------------------------------------------- affine

TEST(AffineAlloc, DefaultInterleaveIsOneLine)
{
    MachineFixture f;
    AffineArray req;
    req.elem_size = 4;
    req.num_elem = 1 << 16;
    auto *a = static_cast<float *>(f.allocator->mallocAff(req));
    const auto *info = f.allocator->arrayInfo(a);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->intrlv, 64u);
    EXPECT_EQ(info->startBank, 0u);
    // Elements 0..15 share a line -> bank 0; 16..31 -> bank 1.
    EXPECT_EQ(f.allocator->bankOfElement(a, 0), 0u);
    EXPECT_EQ(f.allocator->bankOfElement(a, 15), 0u);
    EXPECT_EQ(f.allocator->bankOfElement(a, 16), 1u);
}

TEST(AffineAlloc, HostMemoryIsWritable)
{
    MachineFixture f;
    AffineArray req;
    req.elem_size = 8;
    req.num_elem = 1000;
    auto *a = static_cast<double *>(f.allocator->mallocAff(req));
    for (int i = 0; i < 1000; ++i)
        a[i] = i * 1.5;
    EXPECT_DOUBLE_EQ(a[999], 1498.5);
}

TEST(AffineAlloc, InterArrayAlignmentColocatesElements)
{
    // Fig. 8(b): B[i] aligned to A[i] lands in the same bank for
    // every element.
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = 4;
    a_req.num_elem = 1 << 14;
    void *a = f.allocator->mallocAff(a_req);

    AffineArray b_req = a_req;
    b_req.align_to = a;
    void *b = f.allocator->mallocAff(b_req);

    for (std::uint64_t i = 0; i < (1 << 14); i += 97) {
        EXPECT_EQ(f.allocator->bankOfElement(a, i),
                  f.allocator->bankOfElement(b, i))
            << "element " << i;
    }
}

TEST(AffineAlloc, ElementSizeRatioScalesInterleave)
{
    // Fig. 8(b): double C[N] aligned to float A[N] gets 2x the
    // interleave so element banks still match (Eq. 3).
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = 4;
    a_req.num_elem = 1 << 14;
    void *a = f.allocator->mallocAff(a_req);

    AffineArray c_req;
    c_req.elem_size = 8;
    c_req.num_elem = 1 << 14;
    c_req.align_to = a;
    void *c = f.allocator->mallocAff(c_req);

    EXPECT_EQ(f.allocator->arrayInfo(c)->intrlv, 128u);
    for (std::uint64_t i = 0; i < (1 << 14); i += 61) {
        EXPECT_EQ(f.allocator->bankOfElement(a, i),
                  f.allocator->bankOfElement(c, i))
            << "element " << i;
    }
}

TEST(AffineAlloc, AlignXOffsetsStartBank)
{
    // B[i] -> A[i + 32]: with 4 B elements and 64 B interleave, a
    // 32-element offset is 2 interleave blocks.
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = 4;
    a_req.num_elem = 1 << 14;
    void *a = f.allocator->mallocAff(a_req);

    AffineArray b_req = a_req;
    b_req.align_to = a;
    b_req.align_x = 32;
    void *b = f.allocator->mallocAff(b_req);

    const auto *info = f.allocator->arrayInfo(b);
    ASSERT_NE(info, nullptr);
    EXPECT_NE(info->intrlv, 0u) << "should not have fallen back";
    for (std::uint64_t i = 0; i < 4096; i += 33) {
        EXPECT_EQ(f.allocator->bankOfElement(b, i),
                  f.allocator->bankOfElement(a, i + 32))
            << "element " << i;
    }
}

TEST(AffineAlloc, NegativeAlignXWrapsStartBank)
{
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = 4;
    a_req.num_elem = 1 << 14;
    void *a = f.allocator->mallocAff(a_req);

    AffineArray b_req = a_req;
    b_req.align_to = a;
    b_req.align_x = -32; // B[i] aligns to A[i - 32]: 2 blocks back
    void *b = f.allocator->mallocAff(b_req);
    const auto *info = f.allocator->arrayInfo(b);
    ASSERT_NE(info, nullptr);
    EXPECT_NE(info->intrlv, 0u) << "negative offsets are exact too";
    for (std::uint64_t i = 32; i < 4096; i += 33) {
        EXPECT_EQ(f.allocator->bankOfElement(b, i),
                  f.allocator->bankOfElement(a, i - 32))
            << "element " << i;
    }
}

TEST(AffineAlloc, ImperfectOffsetFallsBack)
{
    // align_x * elem not a multiple of the interleave: the paper's
    // fallback rule applies.
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = 4;
    a_req.num_elem = 4096;
    void *a = f.allocator->mallocAff(a_req);

    AffineArray b_req = a_req;
    b_req.align_to = a;
    b_req.align_x = 3; // 12 bytes: not a multiple of 64
    void *b = f.allocator->mallocAff(b_req);
    EXPECT_EQ(f.allocator->arrayInfo(b)->intrlv, 0u);
    EXPECT_EQ(f.allocator->allocStats().fallbacks, 1u);
}

TEST(AffineAlloc, NonIntegralRatioFallsBack)
{
    MachineFixture f;
    AffineArray a_req;
    a_req.elem_size = 4;
    a_req.num_elem = 4096;
    void *a = f.allocator->mallocAff(a_req);

    AffineArray b_req;
    b_req.elem_size = 4;
    b_req.num_elem = 4096;
    b_req.align_to = a;
    b_req.align_p = 3; // intrlv = 64/3: inexact
    void *b = f.allocator->mallocAff(b_req);
    EXPECT_EQ(f.allocator->arrayInfo(b)->intrlv, 0u);
}

TEST(AffineAlloc, UnknownAlignTargetFallsBack)
{
    MachineFixture f;
    int dummy = 0;
    AffineArray req;
    req.elem_size = 4;
    req.num_elem = 64;
    req.align_to = &dummy;
    void *b = f.allocator->mallocAff(req);
    EXPECT_EQ(f.allocator->arrayInfo(b)->intrlv, 0u);
    EXPECT_EQ(f.allocator->allocStats().fallbacks, 1u);
}

TEST(AffineAlloc, IntraArrayRowAffinity)
{
    // Fig. 8(c): 2D array M x N, want A[i,j] near A[i+1,j]. With a
    // 4 kB row (1024 floats) and 64 B interleave, rows align
    // perfectly: distance 0.
    MachineFixture f;
    const std::uint64_t n_cols = 1024;
    AffineArray req;
    req.elem_size = 4;
    req.num_elem = 64 * n_cols;
    req.align_x = static_cast<std::int64_t>(n_cols);
    void *a = f.allocator->mallocAff(req);
    const auto *info = f.allocator->arrayInfo(a);
    ASSERT_NE(info, nullptr);
    EXPECT_NE(info->intrlv, 0u);
    for (std::uint64_t j = 0; j < n_cols; j += 111) {
        EXPECT_EQ(f.allocator->bankOfElement(a, j),
                  f.allocator->bankOfElement(a, j + n_cols));
    }
}

TEST(AffineAlloc, PartitionSpreadsAcrossAllBanks)
{
    MachineFixture f;
    AffineArray req;
    req.elem_size = 4;
    req.num_elem = 1 << 17; // 512 kB -> 8 kB per bank
    req.partition = true;
    void *v = f.allocator->mallocAff(req);
    const auto *info = f.allocator->arrayInfo(v);
    ASSERT_NE(info, nullptr);
    EXPECT_TRUE(info->partitioned);
    // Every bank owns exactly one contiguous chunk.
    std::vector<int> seen(64, 0);
    const std::uint64_t per_bank = (1 << 17) / 64;
    for (std::uint64_t i = 0; i < (1 << 17); i += per_bank)
        ++seen[f.allocator->bankOfElement(v, i)];
    for (int b = 0; b < 64; ++b)
        EXPECT_EQ(seen[b], 1) << "bank " << b;
    // Partition p is entirely within one bank.
    EXPECT_EQ(f.allocator->bankOfElement(v, 0),
              f.allocator->bankOfElement(v, per_bank - 1));
}

TEST(AffineAlloc, SmallPartitionUsesPools)
{
    MachineFixture f;
    AffineArray req;
    req.elem_size = 8;
    req.num_elem = 64; // one element per bank
    req.partition = true;
    void *t = f.allocator->mallocAff(req);
    const auto *info = f.allocator->arrayInfo(t);
    EXPECT_TRUE(info->partitioned);
    EXPECT_EQ(info->intrlv, 64u);
    EXPECT_EQ(f.allocator->bankOfElement(t, 8), 1u);
}

TEST(AffineAlloc, AlignToPartitionedArray)
{
    MachineFixture f;
    AffineArray v_req;
    v_req.elem_size = 4;
    v_req.num_elem = 1 << 17;
    v_req.partition = true;
    void *v = f.allocator->mallocAff(v_req);

    AffineArray q_req;
    q_req.elem_size = 4;
    q_req.num_elem = 1 << 17;
    q_req.align_to = v;
    void *q = f.allocator->mallocAff(q_req);
    const auto *qi = f.allocator->arrayInfo(q);
    ASSERT_NE(qi, nullptr);
    EXPECT_NE(qi->intrlv, 0u);
    for (std::uint64_t i = 0; i < (1 << 17); i += 7777) {
        EXPECT_EQ(f.allocator->bankOfElement(q, i),
                  f.allocator->bankOfElement(v, i))
            << "element " << i;
    }
}

// ----------------------------------------------------------- irregular

TEST(IrregularAlloc, SlotRoundsUpToLine)
{
    MachineFixture f;
    void *p = f.allocator->mallocAff(24, 0, nullptr);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(f.allocator->allocStats().irregularAllocs, 1u);
    std::memset(p, 0xab, 24);
    f.allocator->freeAff(p);
    EXPECT_EQ(f.allocator->allocStats().frees, 1u);
}

TEST(IrregularAlloc, FreeListReusesSlot)
{
    MachineFixture f;
    AllocatorOptions opts;
    void *p1 = f.allocator->mallocAff(64, 0, nullptr);
    const Addr sim1 = f.machine->addressSpace().simAddrOf(p1);
    f.allocator->freeAff(p1);
    // Same-bank allocation reuses the freed slot (hybrid with no
    // affinity and equal load picks bank 0 deterministically).
    void *p2 = f.allocator->mallocAff(64, 0, nullptr);
    const Addr sim2 = f.machine->addressSpace().simAddrOf(p2);
    EXPECT_EQ(sim1, sim2);
}

TEST(IrregularAlloc, MinHopColocatesWithAffinityAddress)
{
    AllocatorOptions opts;
    opts.policy = BankPolicy::minHop;
    MachineFixture f(opts);
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    // Element at line 17 is homed at bank 17.
    const void *aff[1] = {static_cast<char *>(anchor) + 17 * 64};
    void *p = f.allocator->mallocAff(64, 1, aff);
    EXPECT_EQ(f.machine->bankOfHost(p), 17u);
}

TEST(IrregularAlloc, MinHopPicksCentroidOfManyAddresses)
{
    AllocatorOptions opts;
    opts.policy = BankPolicy::minHop;
    MachineFixture f(opts);
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    // Affinity to banks 0 and 2 (same row): bank 1 or better must
    // win; all three have equal avg distance 1 -> lowest index 0..2.
    const void *aff[2] = {static_cast<char *>(anchor) + 0 * 64,
                          static_cast<char *>(anchor) + 2 * 64};
    void *p = f.allocator->mallocAff(64, 2, aff);
    const BankId b = f.machine->bankOfHost(p);
    EXPECT_LE(b, 2u);
}

TEST(IrregularAlloc, LoadsTracked)
{
    AllocatorOptions opts;
    opts.policy = BankPolicy::minHop;
    MachineFixture f(opts);
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const void *aff[1] = {static_cast<char *>(anchor) + 9 * 64};
    void *p1 = f.allocator->mallocAff(64, 1, aff);
    void *p2 = f.allocator->mallocAff(64, 1, aff);
    EXPECT_EQ(f.allocator->bankLoads()[9], 2u);
    f.allocator->freeAff(p1);
    EXPECT_EQ(f.allocator->bankLoads()[9], 1u);
    f.allocator->freeAff(p2);
    EXPECT_EQ(f.allocator->bankLoads()[9], 0u);
}

TEST(IrregularAlloc, OversizeFallsBackToHeap)
{
    MachineFixture f;
    void *p = f.allocator->mallocAff(8192, 0, nullptr);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(f.allocator->allocStats().fallbacks, 1u);
    f.allocator->freeAff(p);
}

TEST(IrregularAlloc, UnregisteredAffinityAddressesIgnored)
{
    AllocatorOptions opts;
    opts.policy = BankPolicy::minHop;
    MachineFixture f(opts);
    int stack_var = 0;
    const void *aff[2] = {&stack_var, nullptr};
    void *p = f.allocator->mallocAff(64, 2, aff);
    EXPECT_NE(p, nullptr);
}

TEST(IrregularAlloc, AllocSlotAtBankPins)
{
    MachineFixture f;
    for (BankId b : {0u, 13u, 63u}) {
        void *p = f.allocator->allocSlotAtBank(64, b);
        EXPECT_EQ(f.machine->bankOfHost(p), b);
    }
    EXPECT_THROW(f.allocator->allocSlotAtBank(64, 64), FatalError);
}

TEST(IrregularAlloc, FreeUnknownPointerFatal)
{
    MachineFixture f;
    int x;
    EXPECT_THROW(f.allocator->freeAff(&x), FatalError);
}

TEST(IrregularAlloc, DoubleFreeFatal)
{
    // Slot liveness is recorded per carved slot, so a second free is
    // caught without the audit-mode canaries.
    MachineFixture f;
    void *p = f.allocator->mallocAff(64, 0, nullptr);
    void *q = f.allocator->mallocAff(64, 0, nullptr);
    f.allocator->freeAff(p);
    EXPECT_THROW(f.allocator->freeAff(p), FatalError);
    // The failed free changed nothing: the neighbour frees normally.
    EXPECT_NO_THROW(f.allocator->freeAff(q));
    EXPECT_EQ(f.allocator->allocStats().frees, 2u);
}

TEST(IrregularAlloc, ForeignSlotPointerFatal)
{
    // A slot of another tenant's allocator on the same machine: it is
    // registered and lies in a pool segment, but not in this
    // allocator's arena.
    sim::MachineConfig cfg;
    os::SimOS os(cfg);
    const std::uint32_t arena_b = os.createArena();
    nsc::Machine machine(cfg, os);
    alloc::AffinityAllocator a(machine, {});
    AllocatorOptions opts_b;
    opts_b.arena = arena_b;
    alloc::AffinityAllocator b(machine, opts_b);
    void *mine = a.mallocAff(64, 0, nullptr);
    void *theirs = b.mallocAff(64, 0, nullptr);
    EXPECT_THROW(a.freeAff(theirs), FatalError);
    EXPECT_NO_THROW(b.freeAff(theirs));
    EXPECT_NO_THROW(a.freeAff(mine));
}

TEST(IrregularAlloc, InteriorSlotPointerFatal)
{
    MachineFixture f;
    auto *p = static_cast<char *>(f.allocator->mallocAff(128, 0, nullptr));
    EXPECT_THROW(f.allocator->freeAff(p + 8), FatalError);
    EXPECT_THROW(f.allocator->freeAff(p + 64), FatalError);
    // The slot itself is still live and frees normally.
    EXPECT_NO_THROW(f.allocator->freeAff(p));
    EXPECT_EQ(f.allocator->allocStats().frees, 1u);
}

TEST(IrregularAlloc, MigrateVictimsInSimAddressOrder)
{
    // Slots pinned to banks in a scrambled order across several
    // stripes and two size classes; two banks die, and one sweep must
    // move every victim, in increasing simulated address.
    MachineFixture f;
    std::vector<void *> slots;
    for (int round = 0; round < 6; ++round) {
        for (BankId b = 0; b < 64; ++b) {
            const BankId bank = (b * 37 + round * 11) % 64;
            slots.push_back(
                f.allocator->allocSlotAtBank(round % 2 ? 128 : 64, bank));
        }
    }
    std::size_t expected = 0;
    for (void *p : slots) {
        const BankId b = f.machine->bankOfHost(p);
        expected += b == 9 || b == 42;
    }
    f.machine->injectBankFault(42);
    f.machine->injectBankFault(9);
    const auto moved = f.allocator->migrateVictims();
    ASSERT_EQ(moved.size(), expected);
    const mem::AddressSpace &as = f.machine->addressSpace();
    for (std::size_t i = 1; i < moved.size(); ++i) {
        EXPECT_LT(as.simAddrOf(moved[i - 1].first),
                  as.simAddrOf(moved[i].first))
            << "victim " << i;
    }
    for (const auto &[old_p, new_p] : moved)
        EXPECT_TRUE(f.machine->bankLive(f.machine->bankOfHost(new_p)));
    EXPECT_TRUE(f.allocator->migrateVictims().empty());
}

// ----------------------------------------------------------- low level

TEST(AllocInterleaved, StartBankHonored)
{
    MachineFixture f;
    for (BankId start : {0u, 7u, 63u}) {
        void *p = f.allocator->allocInterleaved(64 * 128, 64, start);
        EXPECT_EQ(f.machine->bankOfHost(p), start);
        const auto *info = f.allocator->arrayInfo(p);
        EXPECT_EQ(info->startBank, start);
    }
}

TEST(AllocInterleaved, LargePageMultipleInterleave)
{
    MachineFixture f;
    void *p = f.allocator->allocInterleaved(64 * 8192, 8192, 3);
    // Pages 0-1 at bank 3, pages 2-3 at bank 4...
    EXPECT_EQ(f.machine->bankOfHost(p), 3u);
    EXPECT_EQ(f.machine->bankOfHost(static_cast<char *>(p) + 4096), 3u);
    EXPECT_EQ(f.machine->bankOfHost(static_cast<char *>(p) + 8192), 4u);
}

TEST(AllocStats, WasteIsBounded)
{
    MachineFixture f;
    // Allocating at rotating start banks wastes at most
    // numBanks * intrlv bytes each.
    for (int i = 0; i < 10; ++i)
        f.allocator->allocInterleaved(4096, 64, BankId(i * 7 % 64));
    EXPECT_LE(f.allocator->allocStats().alignmentWasteBytes,
              10ull * 64 * 64);
}

// ------------------------------------------------- pool exhaustion ladder

TEST(AllocFallback, PoolExhaustionLadderCountsEveryStep)
{
    // Every pool holds 64 kB: 16 stripes of pool 0 (64 B x 64 banks),
    // 8 of pool 1, 4 of pool 2, 2 of pool 3, one of pool 4, none of
    // pools 5 and 6.
    sim::MachineConfig cfg;
    cfg.poolCapacityBytes = 64 << 10;
    os::SimOS os(cfg);
    nsc::Machine m(cfg, os);
    AllocatorOptions opts;
    opts.policy = BankPolicy::minHop;
    alloc::AffinityAllocator a(m, opts);
    const auto poolOf = [&](const void *p) {
        const Addr sim = m.addressSpace().simAddrOf(p);
        return sim < mem::poolVirtBase
                   ? -1
                   : static_cast<int>((sim - mem::poolVirtBase) /
                                      mem::terabyte);
    };
    std::vector<void *> live;

    // Affine: 64 kB partitioned over 64 banks wants 1 kB chunks
    // (pool 4). The first fills pool 4; the second degrades to the
    // finer pool 3 and fills it.
    AffineArray part;
    part.elem_size = 1;
    part.num_elem = 64 << 10;
    part.partition = true;
    void *a1 = a.mallocAff(part);
    void *a2 = a.mallocAff(part);
    ASSERT_EQ(a.arrayInfo(a1)->poolIdx, 4);
    ASSERT_EQ(a.arrayInfo(a2)->poolIdx, 3);
    EXPECT_EQ(a.arrayInfo(a2)->intrlv, 512u);
    EXPECT_EQ(poolOf(a2), 3);
    EXPECT_EQ(m.stats().allocFallbacks, 1u);
    live.insert(live.end(), {a1, a2});

    // Irregular: 64 B objects pinned (Min-Hop) to the anchor's bank
    // take its 16 pool-0 slots, then 8 in pool 1 and 4 in pool 2
    // (coarser pools keep the bank). Pools 3 and 4 are full of the
    // affine arrays, so the rest go to the heap.
    void *anchor = a.mallocAff(64, 0, nullptr);
    const BankId bank = m.bankOfHost(anchor);
    live.push_back(anchor);
    std::vector<int> pools = {poolOf(anchor)};
    for (int i = 1; i < 30; ++i) {
        const void *aff[1] = {anchor};
        void *p = a.mallocAff(64, 1, aff);
        if (poolOf(p) >= 0) {
            EXPECT_EQ(m.bankOfHost(p), bank) << i;
        }
        pools.push_back(poolOf(p));
        live.push_back(p);
    }
    std::vector<int> want(16, 0);
    want.insert(want.end(), 8, 1);
    want.insert(want.end(), 4, 2);
    want.insert(want.end(), 2, -1);
    EXPECT_EQ(pools, want);
    EXPECT_EQ(m.stats().allocFallbacks, 1u + 12 + 2);
    EXPECT_EQ(a.allocStats().irregularAllocs, 28u);

    // Affine again: pool 4 down to pool 0 are all full, so the array
    // goes to the heap.
    void *a3 = a.mallocAff(part);
    EXPECT_EQ(a.arrayInfo(a3)->poolIdx, -1);
    EXPECT_EQ(poolOf(a3), -1);
    live.push_back(a3);
    EXPECT_EQ(m.stats().allocFallbacks, 16u);
    EXPECT_EQ(a.allocStats().fallbacks, 16u);
    EXPECT_EQ(a.allocStats().affineAllocs, 2u);

    for (void *p : live)
        a.freeAff(p);
    EXPECT_EQ(a.allocStats().frees, live.size());
    EXPECT_NO_THROW(m.audit());
    // Freed pool-0 slots serve 64 B objects again without a fallback.
    void *again = a.mallocAff(64, 0, nullptr);
    EXPECT_EQ(poolOf(again), 0);
    EXPECT_EQ(a.allocStats().fallbacks, 16u);
}
