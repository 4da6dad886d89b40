#include "workloads/pointer_workloads.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "ds/pointer_structs.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace affalloc::workloads
{

namespace
{

using ds::AffinityList;
using ds::AffinityTree;
using ds::HashJoinTable;
using ds::ListNode;
using ds::TreeNode;
using nsc::MigratingStream;

/** Simulated address of a node. */
Addr
simOf(RunContext &ctx, const void *p)
{
    return ctx.machine.addressSpace().simAddrOf(p);
}

/**
 * Account an epoch's worth of concurrent pointer chases. Each chase
 * produced a serial chain latency; concurrent chains overlap up to
 * the per-slice concurrency (streams in NSC modes, MLP in-core), so
 * the epoch's latency floor is the max per-slice serialized time.
 */
class ChaseEpoch
{
  public:
    ChaseEpoch(RunContext &ctx, double concurrency)
        : ctx_(ctx), concurrency_(concurrency),
          perSlice_(ctx.config.machine.numTiles(), 0.0)
    {
        ctx_.machine.beginEpoch();
    }

    /** Record one finished chain on @p slice. */
    void
    addChain(std::uint32_t slice, double chain_cycles)
    {
        perSlice_[slice] += chain_cycles;
        maxChain_ = std::max(maxChain_, chain_cycles);
    }

    /** Close the epoch. */
    Cycles
    finish(const std::string &phase)
    {
        double floor = maxChain_;
        for (double s : perSlice_)
            floor = std::max(floor, s / concurrency_);
        return ctx_.machine.endEpoch(floor, phase);
    }

  private:
    RunContext &ctx_;
    double concurrency_;
    std::vector<double> perSlice_;
    double maxChain_ = 0.0;
};

} // namespace

// ----------------------------------------------------------- link_list

RunResult
runLinkList(const RunConfig &rc, const LinkListParams &p)
{
    RunContext ctx(rc);
    return runLinkList(ctx, p);
}

RunResult
runLinkList(RunContext &ctx, const LinkListParams &p)
{
    Rng rng(p.seed);
    const std::uint32_t slices = ctx.config.machine.numTiles();

    // Build the lists (8 B keys; Table 3).
    std::vector<std::unique_ptr<AffinityList>> lists;
    lists.reserve(p.numLists);
    for (std::uint32_t l = 0; l < p.numLists; ++l) {
        auto list =
            std::make_unique<AffinityList>(ctx.allocator, ctx.affinity());
        for (std::uint32_t i = 0; i < p.nodesPerList; ++i)
            list->append(rng.next(), i);
        lists.push_back(std::move(list));
    }
    // Lists are resident after the build.
    for (const auto &list : lists) {
        for (const ListNode *n = list->head(); n; n = n->next)
            ctx.machine.preloadL3Range(simOf(ctx, n), sizeof(ListNode));
    }

    // One query per list: the target sits at a random position, so
    // the traversal length varies per list.
    std::vector<std::uint64_t> targets(p.numLists);
    std::vector<std::uint64_t> expect(p.numLists);
    for (std::uint32_t l = 0; l < p.numLists; ++l) {
        const std::uint32_t pos = static_cast<std::uint32_t>(
            rng.below(p.nodesPerList));
        const ListNode *n = lists[l]->head();
        for (std::uint32_t i = 0; i < pos; ++i)
            n = n->next;
        targets[l] = n->key;
        expect[l] = n->value;
    }

    // Concurrency: every list is an independent stream (NSC) or an
    // independent MLP chain (in-core, bounded by the ROB).
    const double conc =
        ctx.offloaded()
            ? std::max<double>(1.0, double(p.numLists) / slices)
            : ctx.config.machine.robEntries > 0
                  ? nsc::coreMaxMlp
                  : 1.0;

    bool valid = true;
    for (std::uint32_t q = 0; q < p.queriesPerList; ++q) {
        ChaseEpoch epoch(ctx, conc);
        for (std::uint32_t l = 0; l < p.numLists; ++l) {
            const std::uint32_t slice = l % slices;
            MigratingStream st(slice);
            // Fig. 2(b): chase until the comparison hits.
            const ListNode *n = lists[l]->head();
            std::uint64_t found = ~0ull;
            while (n) {
                ctx.exec.streamStep(st, simOf(ctx, n), sizeof(ListNode),
                                    AccessType::read,
                                    /*sequential=*/false);
                ctx.exec.compute(st, 2.0);
                if (n->key == targets[l]) {
                    found = n->value;
                    break;
                }
                n = n->next;
            }
            valid &= found == expect[l];
            epoch.addChain(slice, st.chainLatency());
        }
        epoch.finish("search");
    }
    return ctx.finish("link_list", valid);
}

// ---------------------------------------------------------- churn_list

RunResult
runChurnList(const RunConfig &rc, const ChurnListParams &p)
{
    RunContext ctx(rc);
    return runChurnList(ctx, p);
}

RunResult
runChurnList(RunContext &ctx, const ChurnListParams &p)
{
    Rng rng(p.seed);
    const std::uint32_t slices = ctx.config.machine.numTiles();
    const auto valueOf = [](std::uint64_t key) {
        return key * 0x9e3779b97f4a7c15ULL + 1;
    };

    // Build phase, identical in shape to link_list.
    std::vector<std::unique_ptr<AffinityList>> lists;
    lists.reserve(p.numLists);
    std::uint64_t next_key = 0;
    for (std::uint32_t l = 0; l < p.numLists; ++l) {
        auto list =
            std::make_unique<AffinityList>(ctx.allocator, ctx.affinity());
        for (std::uint32_t i = 0; i < p.nodesPerList; ++i, ++next_key)
            list->append(next_key, valueOf(next_key));
        lists.push_back(std::move(list));
    }
    for (const auto &list : lists) {
        for (const ListNode *n = list->head(); n; n = n->next)
            ctx.machine.preloadL3Range(simOf(ctx, n), sizeof(ListNode));
    }

    const double conc =
        ctx.offloaded()
            ? std::max<double>(1.0, double(p.numLists) / slices)
            : ctx.config.machine.robEntries > 0
                  ? nsc::coreMaxMlp
                  : 1.0;
    const std::uint32_t drop = std::min<std::uint32_t>(
        p.nodesPerList,
        static_cast<std::uint32_t>(p.churnFraction * p.nodesPerList));

    bool valid = true;
    for (std::uint32_t round = 0; round < p.rounds; ++round) {
        // Search epoch over the lists' current membership.
        ChaseEpoch epoch(ctx, conc);
        for (std::uint32_t l = 0; l < p.numLists; ++l) {
            const std::uint32_t slice = l % slices;
            const std::uint32_t pos = static_cast<std::uint32_t>(
                rng.below(lists[l]->size()));
            const ListNode *pick = lists[l]->head();
            for (std::uint32_t i = 0; i < pos; ++i)
                pick = pick->next;
            const std::uint64_t target = pick->key;
            const std::uint64_t expect = pick->value;

            MigratingStream st(slice);
            const ListNode *n = lists[l]->head();
            std::uint64_t found = ~0ull;
            while (n) {
                ctx.exec.streamStep(st, simOf(ctx, n), sizeof(ListNode),
                                    AccessType::read,
                                    /*sequential=*/false);
                ctx.exec.compute(st, 2.0);
                if (n->key == target) {
                    found = n->value;
                    break;
                }
                n = n->next;
            }
            valid &= found == expect;
            epoch.addChain(slice, st.chainLatency());
        }
        epoch.finish("churn-search");

        // Replace cycle: the oldest nodes leave (their slots join the
        // allocator's free lists), fresh ones append and recycle them.
        // No churn after the last search so the final membership is
        // what the epoch above validated.
        if (round + 1 == p.rounds)
            break;
        for (std::uint32_t l = 0; l < p.numLists; ++l) {
            valid &= lists[l]->removeFront(drop) == drop;
            for (std::uint32_t i = 0; i < drop; ++i, ++next_key)
                lists[l]->append(next_key, valueOf(next_key));
        }
    }
    for (std::uint32_t l = 0; l < p.numLists; ++l)
        valid &= lists[l]->size() == p.nodesPerList;
    return ctx.finish("churn_list", valid);
}

// ----------------------------------------------------------- hash_join

RunResult
runHashJoin(const RunConfig &rc, const HashJoinParams &p)
{
    RunContext ctx(rc);
    return runHashJoin(ctx, p);
}

RunResult
runHashJoin(RunContext &ctx, const HashJoinParams &p)
{
    Rng rng(p.seed);
    const std::uint32_t slices = ctx.config.machine.numTiles();

    HashJoinTable table(ctx.allocator, p.numBuckets, ctx.affinity());
    std::vector<std::uint64_t> build_keys(p.buildRows);
    for (std::uint64_t i = 0; i < p.buildRows; ++i) {
        build_keys[i] = rng.next() | 1; // odd keys: probes use even
        table.insert(build_keys[i], i);
    }
    // Preload buckets + chains.
    ctx.machine.preloadL3Range(simOf(ctx, table.bucketHead(0)),
                               p.numBuckets * sizeof(void *));
    for (std::uint64_t b = 0; b < p.numBuckets; ++b) {
        for (const ListNode *n = *table.bucketHead(b); n; n = n->next)
            ctx.machine.preloadL3Range(simOf(ctx, n), sizeof(ListNode));
    }

    // Probe keys: hitRate of them match build keys.
    std::vector<std::uint64_t> probes(p.probeRows);
    std::uint64_t expected_hits = 0;
    for (std::uint64_t i = 0; i < p.probeRows; ++i) {
        if (rng.chance(p.hitRate)) {
            probes[i] = build_keys[rng.below(p.buildRows)];
            ++expected_hits;
        } else {
            probes[i] = rng.next() & ~std::uint64_t(1); // even: miss
        }
    }

    const double conc = ctx.offloaded() ? 64.0 : nsc::coreMaxMlp;
    std::uint64_t hits = 0;
    const std::uint64_t chunk = 16384;
    for (std::uint64_t base = 0; base < p.probeRows; base += chunk) {
        ChaseEpoch epoch(ctx, conc);
        const std::uint64_t end =
            std::min(base + chunk, p.probeRows);
        for (std::uint64_t i = base; i < end; ++i) {
            const std::uint32_t slice =
                static_cast<std::uint32_t>(i % slices);
            MigratingStream st(slice);
            const std::uint64_t b = table.bucketOf(probes[i]);
            // Read the bucket head slot, then chase the chain.
            ctx.exec.streamStep(st, simOf(ctx, table.bucketHead(b)), 8,
                                AccessType::read, /*sequential=*/false);
            for (const ListNode *n = *table.bucketHead(b); n;
                 n = n->next) {
                ctx.exec.streamStep(st, simOf(ctx, n), sizeof(ListNode),
                                    AccessType::read,
                                    /*sequential=*/false);
                ctx.exec.compute(st, 2.0);
                if (n->key == probes[i]) {
                    ++hits;
                    break;
                }
            }
            epoch.addChain(slice, st.chainLatency());
            st.resetChain();
        }
        epoch.finish("probe");
    }
    const bool valid = hits == expected_hits;
    return ctx.finish("hash_join", valid);
}

// ------------------------------------------------------------ bin_tree

RunResult
runBinTree(const RunConfig &rc, const BinTreeParams &p)
{
    RunContext ctx(rc);
    return runBinTree(ctx, p);
}

RunResult
runBinTree(RunContext &ctx, const BinTreeParams &p)
{
    Rng rng(p.seed);
    const std::uint32_t slices = ctx.config.machine.numTiles();

    // Random insertion order, no balancing (§6).
    AffinityTree tree(ctx.allocator, ctx.affinity());
    std::vector<std::uint64_t> keys(p.numNodes);
    for (std::uint64_t i = 0; i < p.numNodes; ++i) {
        keys[i] = rng.next();
        tree.insert(keys[i], i);
    }
    // Preload the tree (breadth of lines; the hot top levels would be
    // resident regardless).
    {
        std::vector<const TreeNode *> stack{tree.root()};
        while (!stack.empty()) {
            const TreeNode *n = stack.back();
            stack.pop_back();
            if (!n)
                continue;
            ctx.machine.preloadL3Range(simOf(ctx, n), sizeof(TreeNode));
            stack.push_back(n->left);
            stack.push_back(n->right);
        }
    }

    const double conc = ctx.offloaded() ? 64.0 : nsc::coreMaxMlp;
    bool valid = true;
    const std::uint64_t chunk = 16384;
    for (std::uint64_t base = 0; base < p.numLookups; base += chunk) {
        ChaseEpoch epoch(ctx, conc);
        const std::uint64_t end =
            std::min(base + chunk, p.numLookups);
        for (std::uint64_t i = base; i < end; ++i) {
            const std::uint32_t slice =
                static_cast<std::uint32_t>(i % slices);
            const std::uint64_t key = keys[rng.below(p.numNodes)];
            MigratingStream st(slice);
            const TreeNode *n = tree.root();
            std::uint64_t found = ~0ull;
            // SEcore keeps the high-reuse top of the tree in the
            // private caches and only offloads the deep part of the
            // walk (§2.2's offload decision); otherwise every lookup
            // would hammer the root's bank.
            int depth = 0;
            constexpr int core_levels = 8;
            double core_chain = 0.0;
            while (n) {
                if (ctx.offloaded() && depth < core_levels) {
                    const auto out = ctx.machine.coreAccess(
                        slice, simOf(ctx, n), sizeof(TreeNode),
                        AccessType::read, /*prefetch_friendly=*/true);
                    core_chain += double(out.latency);
                    ctx.machine.coreCompute(slice, 2.0);
                } else {
                    ctx.exec.streamStep(st, simOf(ctx, n),
                                        sizeof(TreeNode),
                                        AccessType::read,
                                        /*sequential=*/false);
                    ctx.exec.compute(st, 2.0);
                }
                if (n->key == key) {
                    found = n->value;
                    break;
                }
                n = key < n->key ? n->left : n->right;
                ++depth;
            }
            valid &= found != ~0ull && keys[found] == key;
            epoch.addChain(slice, st.chainLatency() + core_chain);
        }
        epoch.finish("lookup");
    }
    return ctx.finish("bin_tree", valid);
}

} // namespace affalloc::workloads
