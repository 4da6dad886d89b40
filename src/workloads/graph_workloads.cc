#include "workloads/graph_workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "ds/linked_csr.hh"
#include "ds/spatial_pq.hh"
#include "ds/spatial_queue.hh"
#include "graph/reference.hh"
#include "sim/log.hh"

namespace affalloc::workloads
{

namespace
{

using graph::Csr;
using graph::VertexId;
using nsc::AffineRef;
using nsc::MigratingStream;

constexpr double epochFloor = 120.0;
constexpr float damping = 0.85f;
/** Vertices a vertexPass processes per slice per epoch. */
constexpr std::uint32_t vertexChunk = 2048;

/** A host array paired with its simulated base address. */
template <typename T>
struct SimArr
{
    T *host = nullptr;
    Addr sim = 0;

    T &operator[](std::uint64_t i) { return host[i]; }
    const T &operator[](std::uint64_t i) const { return host[i]; }
    /** Simulated address of element @p i. */
    Addr at(std::uint64_t i) const { return sim + i * sizeof(T); }
    /** AffineRef over this array. */
    AffineRef
    ref(std::int64_t offset = 0) const
    {
        return AffineRef{sim, sizeof(T), offset};
    }
};

/**
 * Allocate a per-vertex property array: partitioned across banks
 * under Aff-Alloc (first array) or aligned to the first (subsequent
 * arrays); plain heap otherwise.
 */
template <typename T>
SimArr<T>
allocProp(RunContext &ctx, std::uint64_t n, const void *align_to)
{
    SimArr<T> arr;
    if (ctx.affinity()) {
        alloc::AffineArray req;
        req.elem_size = sizeof(T);
        req.num_elem = n;
        if (align_to)
            req.align_to = align_to;
        else
            req.partition = true;
        arr.host = static_cast<T *>(ctx.allocator.mallocAff(req));
    } else {
        arr.host =
            static_cast<T *>(ctx.allocator.allocPlain(n * sizeof(T)));
    }
    arr.sim = ctx.machine.addressSpace().simAddrOf(arr.host);
    return arr;
}

/** Per-slice stream bundle for one edge-processing pass. */
struct SliceStreams
{
    MigratingStream vside;  // row offsets / head pointers
    MigratingStream vprop;  // per-vertex property scan
    MigratingStream escan;  // edge array scan / node chase
    MigratingStream wscan;  // weight array scan (CSR weighted)
    MigratingStream qscan;  // frontier queue scan

    explicit SliceStreams(CoreId owner)
        : vside(owner), vprop(owner), escan(owner), wscan(owner),
          qscan(owner)
    {}
};

/** One stream bundle per slice (core), indexed by slice. */
std::vector<SliceStreams>
sliceStreams(const RunContext &ctx)
{
    std::vector<SliceStreams> ss;
    for (CoreId c = 0; c < ctx.config.machine.numTiles(); ++c)
        ss.emplace_back(c);
    return ss;
}

/**
 * Issue an indirect request, honouring GraphParams::idealIndirect
 * (Fig. 6's Ind-Ideal: requests issued as if already at the target's
 * bank, i.e. zero indirect hops).
 */
nsc::AccessOutcome
indirectEv(RunContext &ctx, SliceStreams &ss, Addr a, AccessType t,
           bool ideal)
{
    if (ideal && ctx.offloaded()) {
        return ctx.machine.l3StreamAccess(ctx.machine.bankOfSim(a), a, 4,
                                          t);
    }
    return ctx.exec.indirect(ss.escan, a, 4, t);
}

/**
 * Mode/layout-dependent edge storage: original CSR arrays (plain
 * heap), Linked CSR (§5.3), or the Fig. 6 chunk-remapped CSR.
 */
struct EdgeStore
{
    RunContext *ctx = nullptr;
    bool linked = false;
    bool chunked = false;
    bool weighted = false;
    SimArr<std::uint64_t> rowOff;
    SimArr<VertexId> dst;
    SimArr<std::uint32_t> wgt;
    std::unique_ptr<ds::LinkedCsr> lcsr;
    Addr headsSim = 0;
    // Chunk-remap state (Fig. 6).
    std::uint32_t edgesPerChunk = 0;
    std::vector<char *> chunkHost;
    std::vector<Addr> chunkSim;

    void
    build(RunContext &c, const Csr &g, bool use_weights,
          const GraphParams &p, const void *vertex_array,
          bool affinity_to_owner = false)
    {
        ctx = &c;
        weighted = use_weights;
        EdgeLayout layout = p.layout;
        if (layout == EdgeLayout::autoByMode) {
            layout = c.affinity() ? EdgeLayout::linked : EdgeLayout::csr;
        }
        if (layout == EdgeLayout::linked) {
            linked = true;
            ds::LinkedCsrOptions o;
            o.nodeBytes = p.nodeBytes;
            o.weighted = use_weights;
            o.affinityToOwner = affinity_to_owner;
            lcsr = std::make_unique<ds::LinkedCsr>(g, c.allocator,
                                                   vertex_array, 4, o);
            headsSim = c.machine.addressSpace().simAddrOf(
                lcsr->headsArray());
            return;
        }
        if (layout == EdgeLayout::chunkRemap) {
            buildChunks(c, g, use_weights, p.chunkBytes, vertex_array);
            return;
        }
        const std::uint64_t n = g.numVertices;
        rowOff.host = static_cast<std::uint64_t *>(
            c.allocator.allocPlain((n + 1) * sizeof(std::uint64_t)));
        rowOff.sim = c.machine.addressSpace().simAddrOf(rowOff.host);
        std::memcpy(rowOff.host, g.rowOffsets.data(),
                    (n + 1) * sizeof(std::uint64_t));
        dst.host = static_cast<VertexId *>(
            c.allocator.allocPlain(g.numEdges() * sizeof(VertexId)));
        dst.sim = c.machine.addressSpace().simAddrOf(dst.host);
        std::memcpy(dst.host, g.edges.data(),
                    g.numEdges() * sizeof(VertexId));
        if (use_weights) {
            wgt.host = static_cast<std::uint32_t *>(c.allocator.allocPlain(
                g.numEdges() * sizeof(std::uint32_t)));
            wgt.sim = c.machine.addressSpace().simAddrOf(wgt.host);
            std::memcpy(wgt.host, g.weights.data(),
                        g.numEdges() * sizeof(std::uint32_t));
        }
    }

    /**
     * Fig. 6: break the edge array into fixed-size chunks and place
     * each at the bank holding the plurality of its destinations'
     * properties, subject to a 2% load-imbalance cap (footnote 2).
     * Row offsets stay a plain array.
     */
    void
    buildChunks(RunContext &c, const Csr &g, bool use_weights,
                std::uint32_t chunk_bytes, const void *vertex_array)
    {
        chunked = true;
        const std::uint64_t n = g.numVertices;
        rowOff.host = static_cast<std::uint64_t *>(
            c.allocator.allocPlain((n + 1) * sizeof(std::uint64_t)));
        rowOff.sim = c.machine.addressSpace().simAddrOf(rowOff.host);
        std::memcpy(rowOff.host, g.rowOffsets.data(),
                    (n + 1) * sizeof(std::uint64_t));

        const Addr prop_sim =
            c.machine.addressSpace().simAddrOf(vertex_array);
        const std::uint32_t entry = use_weights ? 8 : 4;
        edgesPerChunk = chunk_bytes / entry;
        const std::uint64_t num_chunks =
            (g.numEdges() + edgesPerChunk - 1) / edgesPerChunk;
        const std::uint32_t banks = c.config.machine.numBanks();
        const std::uint64_t cap = static_cast<std::uint64_t>(
            1.02 * double(num_chunks * std::uint64_t(chunk_bytes)) /
            banks);
        std::vector<std::uint64_t> load(banks, 0);

        for (std::uint64_t ck = 0; ck < num_chunks; ++ck) {
            const std::uint64_t e0 = ck * edgesPerChunk;
            const std::uint64_t e1 = std::min<std::uint64_t>(
                e0 + edgesPerChunk, g.numEdges());
            // Histogram of destination banks for this chunk, then
            // pick the bank minimizing total indirect hops ("freely
            // map them ... with minimal indirect traffic").
            std::vector<std::uint32_t> hist(banks, 0);
            for (std::uint64_t e = e0; e < e1; ++e) {
                ++hist[c.machine.bankOfSim(prop_sim +
                                           Addr(g.edges[e]) * 4)];
            }
            BankId best = invalidBank;
            double best_score = 0.0;
            for (BankId b = 0; b < banks; ++b) {
                if (load[b] + chunk_bytes > cap)
                    continue;
                double score = 0.0;
                for (BankId d = 0; d < banks; ++d) {
                    if (hist[d])
                        score += double(hist[d]) *
                                 c.machine.hopsBetween(b, d);
                }
                if (best == invalidBank || score < best_score) {
                    best_score = score;
                    best = b;
                }
            }
            if (best == invalidBank) {
                // Everything at the cap: take the least-loaded bank.
                best = static_cast<BankId>(
                    std::min_element(load.begin(), load.end()) -
                    load.begin());
            }
            load[best] += chunk_bytes;

            char *slot = static_cast<char *>(
                c.allocator.allocSlotAtBank(chunk_bytes, best));
            for (std::uint64_t e = e0; e < e1; ++e) {
                const std::uint64_t off = (e - e0) * entry;
                std::memcpy(slot + off, &g.edges[e], 4);
                if (use_weights)
                    std::memcpy(slot + off + 4, &g.weights[e], 4);
            }
            chunkHost.push_back(slot);
            chunkSim.push_back(
                c.machine.addressSpace().simAddrOf(slot));
        }
    }

    /** Warm the L3 with the whole structure (graphs are resident
     *  after construction in the execution-driven flow). */
    void
    preload(const Csr &g)
    {
        auto &m = ctx->machine;
        if (chunked) {
            m.preloadL3Range(rowOff.sim, (g.numVertices + 1) * 8);
            const std::uint32_t entry = weighted ? 8 : 4;
            for (Addr sim : chunkSim)
                m.preloadL3Range(sim, Addr(edgesPerChunk) * entry);
            return;
        }
        if (linked) {
            m.preloadL3Range(headsSim,
                             std::uint64_t(g.numVertices) * 8);
            for (VertexId u = 0; u < g.numVertices; ++u) {
                for (auto *nd = lcsr->head(u); nd; nd = nd->next()) {
                    m.preloadL3Range(m.addressSpace().simAddrOf(nd),
                                     lcsr->nodeBytes());
                }
            }
            return;
        }
        m.preloadL3Range(rowOff.sim, (g.numVertices + 1) * 8);
        m.preloadL3Range(dst.sim, g.numEdges() * 4);
        if (weighted)
            m.preloadL3Range(wgt.sim, g.numEdges() * 4);
    }

    /**
     * Iterate u's edges, emitting the scan events, and call
     * f(v, weight); f returns false to stop early (pull passes).
     */
    template <typename F>
    void
    forEach(nsc::StreamExecutor &exec, SliceStreams &ss, VertexId u,
            F &&f)
    {
        if (chunked) {
            exec.streamStep(ss.vside, rowOff.at(u), 16,
                            AccessType::read);
            const std::uint32_t entry = weighted ? 8 : 4;
            for (std::uint64_t e = rowOff[u]; e < rowOff[u + 1]; ++e) {
                const std::uint64_t ck = e / edgesPerChunk;
                const std::uint64_t off =
                    (e % edgesPerChunk) * std::uint64_t(entry);
                exec.streamStep(ss.escan, chunkSim[ck] + off, entry,
                                AccessType::read, /*sequential=*/false);
                VertexId v;
                std::memcpy(&v, chunkHost[ck] + off, 4);
                std::uint32_t w = 1;
                if (weighted)
                    std::memcpy(&w, chunkHost[ck] + off + 4, 4);
                if (!f(v, w))
                    return;
            }
            return;
        }
        if (!linked) {
            exec.streamStep(ss.vside, rowOff.at(u), 16,
                            AccessType::read);
            const std::uint64_t lo = rowOff[u];
            const std::uint64_t hi = rowOff[u + 1];
            for (std::uint64_t e = lo; e < hi; ++e) {
                exec.streamStep(ss.escan, dst.at(e), 4,
                                AccessType::read);
                std::uint32_t w = 1;
                if (weighted) {
                    exec.streamStep(ss.wscan, wgt.at(e), 4,
                                    AccessType::read);
                    w = wgt[e];
                }
                if (!f(dst[e], w))
                    return;
            }
            return;
        }
        exec.streamStep(ss.vside, headsSim + std::uint64_t(u) * 8, 8,
                        AccessType::read);
        for (auto *nd = lcsr->head(u); nd; nd = nd->next()) {
            exec.streamStep(
                ss.escan, ctx->machine.addressSpace().simAddrOf(nd),
                lcsr->nodeBytes(), AccessType::read,
                /*sequential=*/false);
            for (std::uint32_t i = 0; i < nd->count(); ++i) {
                if (!f(nd->dst(i), nd->weight(i)))
                    return;
            }
        }
    }
};

/**
 * Run fn(slice, u) over all vertices, sliced across cores/banks in
 * contiguous ranges and chunked into epochs of vertexChunk per slice.
 */
template <typename F>
void
vertexPass(RunContext &ctx, std::uint32_t num_v, const std::string &phase,
           F &&fn)
{
    const std::uint32_t slices = ctx.config.machine.numTiles();
    const std::uint64_t slice = (num_v + slices - 1) / slices;
    const std::uint64_t epochs = (slice + vertexChunk - 1) / vertexChunk;
    for (std::uint64_t e = 0; e < epochs; ++e) {
        ctx.machine.beginEpoch();
        for (std::uint32_t c = 0; c < slices; ++c) {
            const std::uint64_t s0 = std::uint64_t(c) * slice;
            const std::uint64_t s1 =
                std::min<std::uint64_t>(s0 + slice, num_v);
            const std::uint64_t e0 = s0 + e * vertexChunk;
            const std::uint64_t e1 =
                std::min<std::uint64_t>(e0 + vertexChunk, s1);
            for (std::uint64_t u = e0; u < e1; ++u)
                fn(c, static_cast<VertexId>(u));
        }
        ctx.machine.endEpoch(epochFloor, phase);
    }
}

/**
 * Run fn(slice, idx) over per-slice work lists, chunked into epochs
 * (frontier processing: slices advance through their lists in
 * lock-step chunks).
 */
template <typename F>
void
frontierPass(RunContext &ctx,
             const std::vector<std::vector<VertexId>> &work,
             std::uint32_t chunk, const std::string &phase, F &&fn)
{
    std::uint64_t longest = 0;
    for (const auto &w : work)
        longest = std::max<std::uint64_t>(longest, w.size());
    const std::uint64_t epochs = (longest + chunk - 1) / chunk;
    for (std::uint64_t e = 0; e < epochs; ++e) {
        ctx.machine.beginEpoch();
        for (std::uint32_t c = 0; c < work.size(); ++c) {
            const std::uint64_t e0 = e * chunk;
            const std::uint64_t e1 =
                std::min<std::uint64_t>(e0 + chunk, work[c].size());
            for (std::uint64_t i = e0; i < e1; ++i)
                fn(c, work[c][i]);
        }
        ctx.machine.endEpoch(epochFloor, phase);
    }
}

/** Split a frontier into per-slice work lists by owning partition. */
std::vector<std::vector<VertexId>>
splitFrontier(const std::vector<VertexId> &frontier, std::uint32_t num_v,
              std::uint32_t slices)
{
    std::vector<std::vector<VertexId>> work(slices);
    const std::uint64_t slice =
        (std::uint64_t(num_v) + slices - 1) / slices;
    for (VertexId u : frontier)
        work[u / slice].push_back(u);
    return work;
}

/**
 * The frontier queue of one traversal (§5): spatially distributed
 * under Aff-Alloc, so that a push's tail bump and slot store both land
 * in the pushed vertex's bank; one global array behind a single tail
 * otherwise.
 */
class FrontierQueue
{
  public:
    /**
     * @param align_to per-vertex array the spatial partitions align to
     * @param slack spatial partition capacity over n / partitions
     */
    FrontierQueue(RunContext &ctx, const GraphParams &p,
                  const void *align_to, std::uint32_t n,
                  std::uint32_t slack)
        : ctx_(ctx), n_(n)
    {
        if (ctx.affinity() && p.useSpatialQueue) {
            sq_ = std::make_unique<ds::SpatialQueue>(
                ctx.allocator, align_to, n, ctx.config.machine.numTiles(),
                slack);
            return;
        }
        gq_.host = static_cast<VertexId *>(
            ctx.allocator.allocPlain(std::uint64_t(n) * 4));
        gq_.sim = ctx.machine.addressSpace().simAddrOf(gq_.host);
        gtail_.host =
            static_cast<std::uint64_t *>(ctx.allocator.allocPlain(64));
        gtail_.sim = ctx.machine.addressSpace().simAddrOf(gtail_.host);
        // allocPlain memory is uninitialized; an unseeded tail would
        // index gq_ by heap garbage on the first push.
        *gtail_.host = 0;
    }

    /** Push @p v: a tail bump plus a slot store, issued on @p escan. */
    void
    push(MigratingStream &escan, VertexId v)
    {
        const auto &as = ctx_.machine.addressSpace();
        if (sq_) {
            const std::uint32_t part = sq_->partitionOf(v);
            const std::uint32_t idx = sq_->push(v);
            ctx_.exec.indirect(escan, as.simAddrOf(sq_->tailPtr(part)), 8,
                               AccessType::atomic);
            ctx_.exec.indirect(
                escan,
                as.simAddrOf(
                    sq_->slotPtr(part, std::min(idx, sq_->capacity() - 1))),
                4, AccessType::write);
            return;
        }
        const std::uint64_t pos = (*gtail_.host)++;
        gq_[pos % n_] = v;
        ctx_.exec.indirect(escan, gtail_.sim, 8, AccessType::atomic);
        ctx_.exec.indirect(escan, gq_.at(pos % n_), 4, AccessType::write);
    }

    /** Empty the queue for the next iteration. */
    void
    clear()
    {
        if (sq_)
            sq_->clear();
        else
            *gtail_.host = 0;
    }

  private:
    RunContext &ctx_;
    std::uint32_t n_;
    std::unique_ptr<ds::SpatialQueue> sq_;
    SimArr<VertexId> gq_;
    SimArr<std::uint64_t> gtail_;
};

/**
 * @p source, or the highest-degree vertex when @p source has no edges
 * (GAP picks nonzero sources).
 */
VertexId
pickSource(const Csr &g, VertexId source)
{
    if (g.degree(source) != 0)
        return source;
    std::uint32_t best = 0;
    for (VertexId v = 0; v < g.numVertices; ++v) {
        if (g.degree(v) > best) {
            best = g.degree(v);
            source = v;
        }
    }
    return source;
}

/** Whether the sampled ranks match graph::pageRankReference. */
bool
ranksMatch(const SimArr<float> &rank, const Csr &g, int iters)
{
    const auto ref = graph::pageRankReference(g, iters);
    bool valid = true;
    for (std::uint32_t v = 0; v < g.numVertices; v += 199) {
        valid &= std::abs(rank[v] - ref[v]) <=
                 1e-5 + 0.02 * std::abs(ref[v]);
    }
    return valid;
}

/** Distance of a vertex no path has reached yet. */
constexpr std::uint32_t infDist = ~std::uint32_t(0);

/** Whether every distance matches graph::ssspReference. */
bool
distancesMatch(const SimArr<std::uint32_t> &dist, const Csr &g,
               VertexId source)
{
    const auto ref = graph::ssspReference(g, source);
    bool valid = true;
    for (std::uint32_t v = 0; v < g.numVertices; ++v) {
        const std::int64_t got =
            dist[v] == infDist ? graph::unreachable : std::int64_t(dist[v]);
        valid &= got == ref[v];
    }
    return valid;
}

} // namespace

// ----------------------------------------------------------- PageRank

RunResult
runPageRankPush(const RunConfig &rc, const GraphParams &p)
{
    RunContext ctx(rc);
    return runPageRankPush(ctx, p);
}

RunResult
runPageRankPush(RunContext &ctx, const GraphParams &p)
{
    const Csr &g = *p.graph;
    const std::uint32_t n = g.numVertices;

    auto rank = allocProp<float>(ctx, n, nullptr);
    auto contrib = allocProp<float>(ctx, n, rank.host);
    auto next = allocProp<float>(ctx, n, rank.host);
    EdgeStore es;
    es.build(ctx, g, false, p, next.host);

    for (std::uint32_t v = 0; v < n; ++v) {
        rank[v] = 1.0f / n;
        next[v] = 0.0f;
    }
    es.preload(g);
    for (auto sim : {rank.sim, contrib.sim, next.sim})
        ctx.machine.preloadL3Range(sim, std::uint64_t(n) * 4);

    const float base = (1.0f - damping) / n;
    std::vector<SliceStreams> ss = sliceStreams(ctx);

    for (int it = 0; it < p.iters; ++it) {
        // Pass 1 (affine): contrib[u] = rank[u] / deg(u).
        for (std::uint32_t u = 0; u < n; ++u)
            contrib[u] = g.degree(u) ? rank[u] / g.degree(u) : 0.0f;
        ctx.exec.affineKernel({rank.ref()}, {contrib.ref()}, n, 2.0,
                              "contrib");
        // Pass 2 (scatter): atomic adds into next[v].
        vertexPass(ctx, n, "scatter",
                   [&](std::uint32_t c, VertexId u) {
                       ctx.exec.streamStep(ss[c].vprop, contrib.at(u), 4,
                                           AccessType::read);
                       const float cv = contrib[u];
                       es.forEach(ctx.exec, ss[c], u,
                                  [&](VertexId v, std::uint32_t) {
                                      next[v] += cv;
                                      indirectEv(ctx, ss[c],
                                                 next.at(v),
                                                 AccessType::atomic,
                                                 p.idealIndirect);
                                      return true;
                                  });
                   });
        // Pass 3 (affine): rank = base + d * next; next = 0.
        for (std::uint32_t v = 0; v < n; ++v) {
            rank[v] = base + damping * next[v];
            next[v] = 0.0f;
        }
        ctx.exec.affineKernel({next.ref()}, {rank.ref(), next.ref()}, n,
                              3.0, "apply");
    }

    return ctx.finish("pr_push", ranksMatch(rank, g, p.iters));
}

RunResult
runPageRankPull(const RunConfig &rc, const GraphParams &p)
{
    RunContext ctx(rc);
    return runPageRankPull(ctx, p);
}

RunResult
runPageRankPull(RunContext &ctx, const GraphParams &p)
{
    const Csr &g = *p.graph;
    const Csr gt = g.transpose();
    const std::uint32_t n = g.numVertices;

    auto rank = allocProp<float>(ctx, n, nullptr);
    auto contrib = allocProp<float>(ctx, n, rank.host);
    EdgeStore es;
    // Pull's indirect accesses read contrib[u]: nodes placed near it.
    es.build(ctx, gt, false, p, contrib.host);

    for (std::uint32_t v = 0; v < n; ++v)
        rank[v] = 1.0f / n;
    es.preload(gt);
    for (auto sim : {rank.sim, contrib.sim})
        ctx.machine.preloadL3Range(sim, std::uint64_t(n) * 4);

    const float base = (1.0f - damping) / n;
    std::vector<SliceStreams> ss = sliceStreams(ctx);

    for (int it = 0; it < p.iters; ++it) {
        for (std::uint32_t u = 0; u < n; ++u)
            contrib[u] = g.degree(u) ? rank[u] / g.degree(u) : 0.0f;
        ctx.exec.affineKernel({rank.ref()}, {contrib.ref()}, n, 2.0,
                              "contrib");
        // Gather: rank[v] = base + d * sum(contrib[in-neighbours]).
        vertexPass(ctx, n, "gather",
                   [&](std::uint32_t c, VertexId v) {
                       float sum = 0.0f;
                       es.forEach(ctx.exec, ss[c], v,
                                  [&](VertexId u, std::uint32_t) {
                                      sum += contrib[u];
                                      indirectEv(ctx, ss[c],
                                                 contrib.at(u),
                                                 AccessType::read,
                                                 p.idealIndirect);
                                      return true;
                                  });
                       rank[v] = base + damping * sum;
                       ctx.exec.streamStep(ss[c].vprop, rank.at(v), 4,
                                           AccessType::write);
                   });
    }

    return ctx.finish("pr_pull", ranksMatch(rank, g, p.iters));
}

// ---------------------------------------------------------------- BFS

BfsStrategy
defaultBfsStrategy(ExecMode mode)
{
    // The paper's methodology selects the best implementation per
    // configuration (§6). At Table 3 scale that is the GAP heuristic
    // for In-Core and Near-L3 and the paper's extended thresholds for
    // Aff-Alloc, which push through the big middle iterations and
    // pull only at the peak (Fig. 18; see EXPERIMENTS.md).
    return mode == ExecMode::affAlloc ? BfsStrategy::affSwitch
                                      : BfsStrategy::gapSwitch;
}

namespace
{

/** Decide the next iteration's direction (§7.2). */
bool
choosePush(BfsStrategy s, bool prev_push, double visited_ratio,
           double active_ratio, double scout_ratio)
{
    switch (s) {
      case BfsStrategy::pushOnly:
        return true;
      case BfsStrategy::pullOnly:
        return false;
      case BfsStrategy::gapSwitch:
        if (prev_push)
            return scout_ratio <= 1.0 / 14.0;
        return active_ratio < 1.0 / 24.0;
      case BfsStrategy::affSwitch:
        // Push -> Pull: Visited > 40% and Scout Edges > 6%.
        // Pull -> Push: Awake Nodes < 25%.
        if (prev_push)
            return !(visited_ratio > 0.40 && scout_ratio > 0.06);
        return active_ratio < 0.25;
    }
    return true;
}

} // namespace

BfsResult
runBfs(const RunConfig &rc, const GraphParams &p, BfsStrategy strategy)
{
    RunContext ctx(rc);
    return runBfs(ctx, p, strategy);
}

BfsResult
runBfs(RunContext &ctx, const GraphParams &p, BfsStrategy strategy)
{
    const Csr &g = *p.graph;
    // GAP convention: undirected (symmetric) graphs share one edge
    // structure for both directions, halving the resident footprint.
    const bool symmetric = g.transpose().edges == g.edges;
    const Csr gt = symmetric ? Csr{} : g.transpose();
    const std::uint32_t n = g.numVertices;
    const std::uint32_t slices = ctx.config.machine.numTiles();

    auto parent = allocProp<std::int32_t>(ctx, n, nullptr);
    auto fbits = allocProp<std::uint8_t>(ctx, n / 8 + 1, parent.host);
    EdgeStore out_edges;
    out_edges.build(ctx, g, false, p, parent.host);
    EdgeStore in_edges_store;
    if (!symmetric) {
        // Pull scans v's own chain and probes the (tiny) frontier
        // bitmap, so in-edge nodes colocate with v's parent slot, not
        // with the bitmap (which would concentrate the structure).
        in_edges_store.build(ctx, gt, false, p, parent.host,
                             /*affinity_to_owner=*/true);
    }
    EdgeStore &in_edges = symmetric ? out_edges : in_edges_store;

    FrontierQueue queue(ctx, p, parent.host, n, 1);

    out_edges.preload(g);
    if (!symmetric)
        in_edges.preload(gt);
    ctx.machine.preloadL3Range(parent.sim, std::uint64_t(n) * 4);
    ctx.machine.preloadL3Range(fbits.sim, n / 8 + 1);

    std::vector<std::int64_t> level(n, -1);
    for (std::uint32_t v = 0; v < n; ++v)
        parent[v] = -1;

    const VertexId source = pickSource(g, p.source);
    parent[source] = static_cast<std::int32_t>(source);
    level[source] = 0;

    std::vector<SliceStreams> ss = sliceStreams(ctx);

    BfsResult result;
    std::vector<VertexId> frontier{source};
    std::uint64_t visited = 1;
    bool push = strategy != BfsStrategy::pullOnly;
    std::int64_t depth = 0;
    std::vector<std::uint8_t> in_front(n, 0);

    while (!frontier.empty()) {
        ++depth;
        std::vector<VertexId> next_frontier;
        const std::string phase = push ? "push" : "pull";

        if (push) {
            auto work = splitFrontier(frontier, n, slices);
            frontierPass(
                ctx, work, 256, phase,
                [&](std::uint32_t c, VertexId u) {
                    // Read u from the frontier queue.
                    ctx.exec.streamStep(ss[c].qscan, parent.at(u), 4,
                                        AccessType::read);
                    out_edges.forEach(
                        ctx.exec, ss[c], u,
                        [&](VertexId v, std::uint32_t) {
                            // CAS on parent[v] (Fig. 2(c)).
                            indirectEv(ctx, ss[c], parent.at(v),
                                       AccessType::atomic,
                                       p.idealIndirect);
                            if (level[v] == -1) {
                                level[v] = depth;
                                parent[v] =
                                    static_cast<std::int32_t>(u);
                                next_frontier.push_back(v);
                                queue.push(ss[c].escan, v);
                            }
                            return true;
                        });
                });
            queue.clear();
        } else {
            // Build the current-frontier bitmap (affine pass).
            std::fill(in_front.begin(), in_front.end(), 0);
            for (VertexId u : frontier)
                in_front[u] = 1;
            for (std::uint32_t i = 0; i <= n / 8; ++i)
                fbits[i] = 0;
            for (VertexId u : frontier)
                fbits[u / 8] |= std::uint8_t(1) << (u % 8);
            ctx.exec.affineKernel({}, {fbits.ref()}, n / 8 + 1, 0.5,
                                  "front-bits");
            // Bottom-up: every unvisited vertex scans its in-edges.
            vertexPass(ctx, n, phase,
                       [&](std::uint32_t c, VertexId v) {
                           ctx.exec.streamStep(ss[c].vprop,
                                               parent.at(v), 4,
                                               AccessType::read);
                           if (level[v] != -1)
                               return;
                           in_edges.forEach(
                               ctx.exec, ss[c], v,
                               [&](VertexId u, std::uint32_t) {
                                   indirectEv(ctx, ss[c],
                                              fbits.at(u / 8),
                                              AccessType::read,
                                              p.idealIndirect);
                                   if (in_front[u]) {
                                       level[v] = depth;
                                       parent[v] = static_cast<
                                           std::int32_t>(u);
                                       next_frontier.push_back(v);
                                       ctx.exec.streamStep(
                                           ss[c].vprop, parent.at(v),
                                           4, AccessType::write);
                                       return false; // early exit
                                   }
                                   return true;
                               });
                       });
        }

        visited += next_frontier.size();
        std::uint64_t scout = 0;
        for (VertexId v : next_frontier)
            scout += g.degree(v);

        BfsIterSample sample;
        sample.visited = visited;
        sample.active = next_frontier.size();
        sample.scoutEdges = scout;
        sample.push = push;
        sample.endCycle = ctx.machine.now();
        result.iters.push_back(sample);

        push = choosePush(strategy, push,
                          double(visited) / n,
                          double(next_frontier.size()) / n,
                          double(scout) /
                              std::max<std::uint64_t>(1, g.numEdges()));
        frontier = std::move(next_frontier);
    }

    // Validate against the reference depths.
    const auto ref = graph::bfsReference(g, source);
    bool valid = true;
    for (std::uint32_t v = 0; v < n; ++v)
        valid &= level[v] == ref[v];
    result.run = ctx.finish("bfs", valid);
    return result;
}

// --------------------------------------------------------------- SSSP

RunResult
runSssp(const RunConfig &rc, const GraphParams &p)
{
    RunContext ctx(rc);
    return runSssp(ctx, p);
}

RunResult
runSssp(RunContext &ctx, const GraphParams &p)
{
    const Csr &g = *p.graph;
    if (g.weights.empty())
        SIM_FATAL("workloads", "sssp requires a weighted graph");
    const std::uint32_t n = g.numVertices;
    const std::uint32_t slices = ctx.config.machine.numTiles();

    auto dist = allocProp<std::uint32_t>(ctx, n, nullptr);
    EdgeStore es;
    es.build(ctx, g, true, p, dist.host);

    FrontierQueue queue(ctx, p, dist.host, n, 2);

    es.preload(g);
    ctx.machine.preloadL3Range(dist.sim, std::uint64_t(n) * 4);

    for (std::uint32_t v = 0; v < n; ++v)
        dist[v] = infDist;
    const VertexId source = pickSource(g, p.source);
    dist[source] = 0;

    std::vector<SliceStreams> ss = sliceStreams(ctx);

    std::vector<VertexId> frontier{source};
    std::vector<std::uint8_t> queued(n, 0);
    int rounds = 0;
    while (!frontier.empty() && rounds < 512) {
        ++rounds;
        std::vector<VertexId> next_frontier;
        auto work = splitFrontier(frontier, n, slices);
        frontierPass(
            ctx, work, 256, "relax",
            [&](std::uint32_t c, VertexId u) {
                ctx.exec.streamStep(ss[c].qscan, dist.at(u), 4,
                                    AccessType::read);
                const std::uint32_t du = dist[u];
                es.forEach(
                    ctx.exec, ss[c], u,
                    [&](VertexId v, std::uint32_t w) {
                        // Remote atomic-min on dist[v].
                        indirectEv(ctx, ss[c], dist.at(v),
                                   AccessType::atomic, p.idealIndirect);
                        const std::uint32_t nd = du + w;
                        if (nd < dist[v]) {
                            dist[v] = nd;
                            if (!queued[v]) {
                                queued[v] = 1;
                                next_frontier.push_back(v);
                                queue.push(ss[c].escan, v);
                            }
                        }
                        return true;
                    });
            });
        for (VertexId v : next_frontier)
            queued[v] = 0;
        queue.clear();
        frontier = std::move(next_frontier);
    }

    return ctx.finish("sssp", distancesMatch(dist, g, source));
}

RunResult
runSsspPq(const RunConfig &rc, const GraphParams &p)
{
    RunContext ctx(rc);
    return runSsspPq(ctx, p);
}

RunResult
runSsspPq(RunContext &ctx, const GraphParams &p)
{
    const Csr &g = *p.graph;
    if (g.weights.empty())
        SIM_FATAL("workloads", "sssp requires a weighted graph");
    const std::uint32_t n = g.numVertices;
    const std::uint32_t slices = ctx.config.machine.numTiles();

    auto dist = allocProp<std::uint32_t>(ctx, n, nullptr);
    EdgeStore es;
    es.build(ctx, g, true, p, dist.host);

    // Aff-Alloc: one relaxed heap per bank, storage aligned to the
    // distance partition. Baselines: a single global heap whose
    // storage lives wherever the heap allocates (plain array here).
    std::unique_ptr<ds::SpatialPriorityQueue> spq;
    SimArr<ds::PqEntry> gheap;
    std::vector<ds::PqEntry> gheap_entries;
    if (ctx.affinity() && p.useSpatialQueue) {
        spq = std::make_unique<ds::SpatialPriorityQueue>(
            ctx.allocator, dist.host, n, slices, 4);
    } else {
        gheap.host = static_cast<ds::PqEntry *>(ctx.allocator.allocPlain(
            std::uint64_t(n) * 4 * sizeof(ds::PqEntry)));
        gheap.sim = ctx.machine.addressSpace().simAddrOf(gheap.host);
    }

    es.preload(g);
    ctx.machine.preloadL3Range(dist.sim, std::uint64_t(n) * 4);

    for (std::uint32_t v = 0; v < n; ++v)
        dist[v] = infDist;
    const VertexId source = pickSource(g, p.source);
    dist[source] = 0;

    std::vector<SliceStreams> ss = sliceStreams(ctx);

    Rng pop_rng(p.source + 101);
    // The global baseline heap: min-priority first.
    const auto later = [](const ds::PqEntry &a, const ds::PqEntry &b) {
        return a.priority > b.priority;
    };
    auto push_entry = [&](VertexId v, std::uint32_t prio,
                          std::uint32_t slice) {
        if (spq) {
            const std::uint32_t part = spq->partitionOf(v);
            spq->push(v, prio);
            // Heap push: one line access at the partition bank.
            ctx.exec.streamStep(
                ss[slice].qscan,
                ctx.machine.addressSpace().simAddrOf(
                    spq->heapStorage(part)),
                8, AccessType::write, /*sequential=*/false);
        } else {
            gheap_entries.push_back(ds::PqEntry{v, prio});
            std::push_heap(gheap_entries.begin(), gheap_entries.end(), later);
            ctx.exec.streamStep(ss[slice].qscan,
                                gheap.at(gheap_entries.size() - 1), 8,
                                AccessType::write,
                                /*sequential=*/false);
        }
    };

    push_entry(source, 0, 0);

    // Drain in batches: each epoch pops up to one entry per slice and
    // relaxes its edges (the parallel, relaxed-order execution the
    // per-bank queues enable).
    std::uint64_t processed = 0;
    const std::uint64_t guard =
        64ull * std::max<std::uint64_t>(g.numEdges(), 1);
    bool drained = false;
    while (!drained && processed < guard) {
        ctx.machine.beginEpoch();
        for (std::uint32_t c = 0; c < slices; ++c) {
            ds::PqEntry e;
            bool got;
            if (spq) {
                got = spq->popRelaxed(pop_rng, e);
                if (got) {
                    const std::uint32_t part = spq->partitionOf(e.id);
                    ctx.exec.streamStep(
                        ss[c].qscan,
                        ctx.machine.addressSpace().simAddrOf(
                            spq->heapStorage(part)),
                        8, AccessType::read, /*sequential=*/false);
                }
            } else {
                got = !gheap_entries.empty();
                if (got) {
                    std::pop_heap(gheap_entries.begin(),
                                  gheap_entries.end(), later);
                    e = gheap_entries.back();
                    gheap_entries.pop_back();
                    ctx.exec.streamStep(ss[c].qscan, gheap.at(0), 8,
                                        AccessType::read,
                                        /*sequential=*/false);
                }
            }
            if (!got)
                continue;
            ++processed;
            if (e.priority > dist[e.id])
                continue; // stale entry
            const std::uint32_t du = dist[e.id];
            es.forEach(ctx.exec, ss[c], e.id,
                       [&](VertexId v, std::uint32_t w) {
                           ctx.exec.indirect(ss[c].escan, dist.at(v), 4,
                                             AccessType::atomic);
                           const std::uint32_t nd = du + w;
                           if (nd < dist[v]) {
                               dist[v] = nd;
                               push_entry(v, nd, c);
                           }
                           return true;
                       });
        }
        ctx.machine.endEpoch(epochFloor, "pq-relax");
        drained = spq ? spq->empty() : gheap_entries.empty();
    }

    const bool valid = distancesMatch(dist, g, source);
    return ctx.finish("sssp_pq", valid && processed < guard);
}

} // namespace affalloc::workloads
