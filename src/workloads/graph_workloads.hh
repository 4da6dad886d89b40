/**
 * @file
 * Graph workloads (Table 3): PageRank (push & pull), BFS
 * (push / pull / direction-switching) and SSSP. Under In-Core and
 * Near-L3 they use the original CSR format with plain-heap layout;
 * under Aff-Alloc they use the co-designed Linked CSR (§5.3),
 * partitioned vertex properties and the spatially distributed queue
 * (Fig. 9). Every run executes functionally and is validated against
 * the reference algorithms.
 */

#ifndef AFFALLOC_WORKLOADS_GRAPH_WORKLOADS_HH
#define AFFALLOC_WORKLOADS_GRAPH_WORKLOADS_HH

#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "workloads/run_context.hh"

namespace affalloc::workloads
{

/** How edges are stored and placed (Fig. 6 limit study vs. §5.3). */
enum class EdgeLayout : std::uint8_t
{
    /** CSR under In-Core/Near-L3, Linked CSR under Aff-Alloc. */
    autoByMode,
    /** Original CSR regardless of mode. */
    csr,
    /** Linked CSR regardless of mode (requires pool allocation). */
    linked,
    /**
     * Fig. 6: the CSR edge array broken into fixed-size chunks, each
     * freely mapped to the bank minimizing its indirect traffic,
     * subject to a 2% load-imbalance cap (footnote 2).
     */
    chunkRemap
};

/** Shared parameters of the graph workloads. */
struct GraphParams
{
    /** The input graph (owned by the caller). */
    const graph::Csr *graph = nullptr;
    /** PageRank iterations (Table 3: 8). */
    int iters = 8;
    /** Linked CSR node size under Aff-Alloc. */
    std::uint32_t nodeBytes = 64;
    /** BFS/SSSP source vertex. */
    graph::VertexId source = 0;
    /** Edge placement scheme. */
    EdgeLayout layout = EdgeLayout::autoByMode;
    /** Chunk size for EdgeLayout::chunkRemap (64 B .. 4 kB). */
    std::uint32_t chunkBytes = 64;
    /**
     * Fig. 6 "Ind-Ideal": model indirect requests as if they were
     * always issued from the target's own bank (zero indirect hops).
     */
    bool idealIndirect = false;
    /**
     * Use the spatially distributed frontier queue under Aff-Alloc
     * (Fig. 9). Disabled for the co-design ablation: Aff-Alloc with a
     * conventional global queue.
     */
    bool useSpatialQueue = true;
};

/** Direction strategy for BFS (§7.2, Fig. 18). */
enum class BfsStrategy : std::uint8_t
{
    pushOnly,
    pullOnly,
    /** GAP-style heuristic (In-Core / Near-L3 default). */
    gapSwitch,
    /** The paper's extended heuristic for Aff-Alloc (§7.2). */
    affSwitch
};

/** Per-iteration BFS observation (Fig. 17 / Fig. 18). */
struct BfsIterSample
{
    /** Total vertices visited after this iteration. */
    std::uint64_t visited = 0;
    /** Vertices visited during this iteration. */
    std::uint64_t active = 0;
    /** Outgoing edges from this iteration's active vertices. */
    std::uint64_t scoutEdges = 0;
    /** Whether this iteration ran push (top-down). */
    bool push = true;
    /** Simulated cycle at which the iteration completed. */
    Cycles endCycle = 0;
};

/** BFS result: the run record plus its iteration trace. */
struct BfsResult
{
    RunResult run;
    std::vector<BfsIterSample> iters;
};

/** PageRank, push-based (atomic scatter; Fig. 2(c)-style streams). */
RunResult runPageRankPush(const RunConfig &rc, const GraphParams &p);
/** Same, on a caller-provided context (tenant co-runs). */
RunResult runPageRankPush(RunContext &ctx, const GraphParams &p);

/** PageRank, pull-based (indirect gather over the transpose). */
RunResult runPageRankPull(const RunConfig &rc, const GraphParams &p);
RunResult runPageRankPull(RunContext &ctx, const GraphParams &p);

/** BFS with the given direction strategy. */
BfsResult runBfs(const RunConfig &rc, const GraphParams &p,
                 BfsStrategy strategy);
BfsResult runBfs(RunContext &ctx, const GraphParams &p,
                 BfsStrategy strategy);

/** Frontier-based SSSP (Bellman-Ford with atomic-min relaxations). */
RunResult runSssp(const RunConfig &rc, const GraphParams &p);
RunResult runSssp(RunContext &ctx, const GraphParams &p);

/**
 * Priority-ordered SSSP on the spatially distributed relaxed priority
 * queue (§4.2: MultiQueues "can also be implemented as one queue per
 * bank"). Pops are approximately shortest-first, which sharply cuts
 * re-relaxations relative to runSssp's FIFO rounds. Aff-Alloc only
 * for the queue placement; baselines use a single global binary heap.
 */
RunResult runSsspPq(const RunConfig &rc, const GraphParams &p);
RunResult runSsspPq(RunContext &ctx, const GraphParams &p);

/** The strategy the paper's evaluation uses for a mode (§7.2). */
BfsStrategy defaultBfsStrategy(ExecMode mode);

} // namespace affalloc::workloads

#endif // AFFALLOC_WORKLOADS_GRAPH_WORKLOADS_HH
