/**
 * @file
 * Flit-accurate accounting model of the mesh interconnect. Messages
 * charge flits to every directed link on their X-Y route; per-epoch
 * link occupancy drives the contention term of the timing model and
 * per-class hop counters drive the paper's traffic figures.
 */

#ifndef AFFALLOC_NOC_NETWORK_HH
#define AFFALLOC_NOC_NETWORK_HH

#include <cstdint>
#include <vector>

#include "noc/topology.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/simcheck.hh"
#include "sim/stats.hh"
#include "sim/zero_pages.hh"

namespace affalloc::noc
{

/**
 * The interconnect model. Owns per-link epoch occupancy counters and
 * writes traffic statistics into a shared Stats block.
 *
 * Link counters are charged lazily: send() counts the message in the
 * per-class Stats at once but only adds its flits to a pending
 * (src, dst) pair, so a pair carrying many messages in one epoch walks
 * its route once. flush() expands the pending pairs onto the route
 * links, the endpoint ports, the lifetime counters and
 * Stats::degradedLinkFlits. Every reader of those counters flushes
 * first, and so must anyone who changes a link multiplier or rewinds
 * Stats. nsc::Machine flushes at endEpoch, before injectLinkDegrade,
 * after any send outside an open epoch, and in abortEpoch before its
 * Stats rewind: the rewind then takes back the aborted epoch's
 * degraded-link flits while the lifetime link counters keep its
 * traffic, as they did when every message was charged at once.
 */
class Network
{
  public:
    /** Build the network for a machine config, writing into @p stats. */
    Network(const sim::MachineConfig &cfg, sim::Stats &stats);

    /** The topology in use. */
    const Mesh &mesh() const { return mesh_; }

    /**
     * Attach a fault plan; degraded links occupy proportionally more
     * flit-cycles per message. Pass nullptr to detach. Flushes first.
     * A multiplier may only change while nothing is pending: flush()
     * panics when it finds one changed since its pairs were added.
     */
    void setFaultPlan(const sim::FaultPlan *plan);

    /**
     * Inject one message of @p bytes payload from @p src to @p dst.
     * Counts it in the per-class counters and adds its flits to the
     * pending (src, dst) pair; a mesh beyond routeTableMaxTiles has no
     * pair index and charges the links at once. Local (src == dst)
     * messages cost no hops.
     *
     * @return latencyOf(src, dst, bytes)
     */
    Cycles send(TileId src, TileId dst, std::uint32_t bytes,
                TrafficClass tc);

    /**
     * The unloaded latency of a message: route traversal plus
     * serialization of the flits behind the head flit. Load
     * independent.
     */
    Cycles
    latencyOf(TileId src, TileId dst, std::uint32_t bytes) const
    {
        return latencyOf(mesh_.distance(src, dst), flitsFor(bytes));
    }

    /**
     * Expand every pending pair onto its route links (with their
     * degraded-link multipliers), both endpoint ports, the lifetime
     * counters and Stats::degradedLinkFlits, then clear the pending
     * store.
     */
    void flush();

    /** Flits queued on the busiest link during the current epoch. */
    std::uint64_t
    maxLinkFlits()
    {
        flush();
        return epochMaxLinkFlits_;
    }

    /** Total flits injected during the current epoch. */
    std::uint64_t
    epochFlits()
    {
        flush();
        return epochFlits_;
    }

    /** Sum of per-link epoch occupancy (for utilization reporting). */
    std::uint64_t totalLinkFlits();

    /** Flush, then clear per-epoch link occupancy (epoch boundaries). */
    void resetEpoch();

    /** Number of flits a payload of @p bytes occupies. */
    std::uint32_t
    flitsFor(std::uint32_t bytes) const
    {
        const std::uint32_t fb = cfg_.flitBytes();
        return bytes == 0 ? 1 : (bytes + fb - 1) / fb;
    }

    /** Accumulated per-link flits over the whole run (utilization). */
    const std::vector<std::uint64_t> &
    lifetimeLinkFlits()
    {
        flush();
        return lifetimeLinkFlits_;
    }

    /**
     * SimCheck audit: flit conservation for the current epoch. The
     * route-link occupancy must equal what flush() handed out (no
     * lost or duplicated flits), and every flit injected at a source
     * port must have been ejected at a destination port.
     */
    void auditConservation(simcheck::CheckContext &ctx);

    /**
     * Deliberately corrupt one per-epoch link counter (simcheck tests
     * use this to model a dropped/duplicated flit). @p index addresses
     * epochLinkFlits_, i.e. [0, numLinks) are route links.
     */
    void corruptLinkFlitsForTest(std::uint32_t index, std::int64_t delta);

  private:
    /** Largest mesh for which routes and pairs are indexed. */
    static constexpr std::uint32_t routeTableMaxTiles = 256;

    /** latencyOf() for a route of @p hops links carrying @p flits. */
    Cycles
    latencyOf(std::uint32_t hops, std::uint32_t flits) const
    {
        return Cycles(hops) * cfg_.hopLatency + (flits - 1);
    }

    /**
     * Charge @p flits of pair @p pair (src * numTiles + dst) to its
     * route links, both endpoint ports and epochFlits_.
     */
    void chargePair(std::uint32_t pair, std::uint64_t flits);
    /** Charge @p flits to every link of the X-Y route of @p pair. */
    void chargeRoute(std::uint32_t pair, std::uint64_t flits);
    /** Charge one route link, applying any degraded-link multiplier. */
    void chargeLink(LinkId link, std::uint64_t flits);
    /** Add to one epoch and lifetime counter; track the epoch max. */
    void addLink(std::size_t index, std::uint64_t flits);

    /** The fault plan's link-multiplier version (0 without a plan). */
    std::uint64_t
    linkVersion() const
    {
        return faults_ ? faults_->linkVersion() : 0;
    }

    /** Index of @p tile's injection (local in) port counter. */
    std::uint32_t injectPort(TileId tile) const;
    /** Index of @p tile's ejection (local out) port counter. */
    std::uint32_t ejectPort(TileId tile) const;

    sim::MachineConfig cfg_;
    sim::Stats &stats_;
    Mesh mesh_;
    /** Optional fault plan (not owned); degraded-link multipliers. */
    const sim::FaultPlan *faults_ = nullptr;
    /** Pairs with pending flits, in first-send order. */
    std::vector<std::uint32_t> pendingPairs_;
    /**
     * Pending flits per pair, in mapped pages (a store rebuilt with
     * every machine would otherwise fragment the heap). Empty beyond
     * routeTableMaxTiles: send() then charges the links at once.
     */
    sim::ZeroPages pendingFlits_;
    /** linkVersion() when the first pending pair was added. */
    std::uint64_t pendingLinkVersion_ = 0;
    /** Per-directed-link (and per local port) flits this epoch. The
     *  last 2*numTiles entries are the tile injection/ejection ports:
     *  the router-local interfaces every message crosses at its two
     *  endpoints, which bound how fast one tile can source or sink
     *  traffic. */
    std::vector<std::uint64_t> epochLinkFlits_;
    /** Per-directed-link flits over the whole run. */
    std::vector<std::uint64_t> lifetimeLinkFlits_;
    std::uint64_t epochFlits_ = 0;
    /**
     * Maximum over epochLinkFlits_, raised by flush() as it expands
     * each entry, so endEpoch() reads the bottleneck without scanning
     * ~350 counters. Occupancy only grows within an epoch, so the
     * maximum over the entries each flush touched equals the scan.
     */
    std::uint64_t epochMaxLinkFlits_ = 0;
    /** Shadow sum of everything chargeLink() handed to route links
     *  this epoch; auditConservation() checks the links agree. */
    std::uint64_t epochRouteFlitsShadow_ = 0;
    /**
     * Precomputed X-Y routes, built once from Mesh::route(): the links
     * of the (src, dst) route are
     * routeLinks_[routeOffset_[src*numTiles+dst] ..
     *             routeOffset_[src*numTiles+dst + 1]).
     * Empty (fall back to the coordinate walk) beyond
     * routeTableMaxTiles tiles.
     */
    std::vector<std::uint32_t> routeOffset_;
    std::vector<LinkId> routeLinks_;
};

} // namespace affalloc::noc

#endif // AFFALLOC_NOC_NETWORK_HH
