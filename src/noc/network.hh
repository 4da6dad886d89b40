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

namespace affalloc::noc
{

/**
 * Private traffic accumulator for shard-parallel epoch replay: one
 * replay worker charges all of its shard's messages here instead of
 * the shared counters, and the machine folds the deltas back in fixed
 * worker order at the epoch barrier. Network::send() charges a message
 * through the same body into either this or the shared counters, so
 * every field holds exactly the integers the shared counters would
 * have gained, and the fold is exact regardless of which worker
 * carried which message.
 */
struct NetDelta
{
    /** Per-class message counters (mirror sim::Stats). */
    std::array<std::uint64_t, numTrafficClasses> messages{};
    std::array<std::uint64_t, numTrafficClasses> hops{};
    std::array<std::uint64_t, numTrafficClasses> flitHops{};
    /** Extra flits charged on degraded links (Stats counter). */
    std::uint64_t degradedLinkFlits = 0;
    /** Flits injected (epochFlits_ contribution). */
    std::uint64_t flits = 0;
    /** Route-link conservation shadow contribution. */
    std::uint64_t routeShadow = 0;
    /**
     * Per-link/port flit deltas, indexed like epochLinkFlits_. The
     * same delta feeds the epoch and the lifetime counters (send()
     * charges both identically).
     */
    std::vector<std::uint64_t> linkFlits;

    /** Zero all counters, sizing linkFlits to @p num_entries. */
    void reset(std::size_t num_entries);

    // The charge interface Network::send() writes through.
    void
    addMessage(int tc, std::uint32_t hop_count, std::uint32_t msg_flits)
    {
        messages[tc] += 1;
        hops[tc] += hop_count;
        flitHops[tc] += std::uint64_t(msg_flits) * hop_count;
    }
    void addDegraded(std::uint64_t extra) { degradedLinkFlits += extra; }
    void
    addRouteLink(LinkId link, std::uint64_t charged)
    {
        linkFlits[link] += charged;
        routeShadow += charged;
    }
    void
    addPorts(std::uint32_t inject, std::uint32_t eject,
             std::uint32_t msg_flits)
    {
        linkFlits[inject] += msg_flits;
        linkFlits[eject] += msg_flits;
        flits += msg_flits;
    }
};

/**
 * The interconnect model. Owns per-link epoch occupancy counters and
 * writes traffic statistics into a shared Stats block.
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
     * flit-cycles per message. Pass nullptr to detach.
     */
    void setFaultPlan(const sim::FaultPlan *plan) { faults_ = plan; }

    /**
     * Inject one message of @p bytes payload from @p src to @p dst.
     * Charges flits to every link of the X-Y route and updates the
     * per-class counters. Local (src == dst) messages cost no hops.
     *
     * @return latencyOf(src, dst, bytes)
     */
    Cycles send(TileId src, TileId dst, std::uint32_t bytes,
                TrafficClass tc);

    /**
     * send() charged into @p d instead of the shared counters
     * (shard-parallel epoch replay). Thread-safe: reads only immutable
     * routing state and the fault plan's stable multipliers.
     */
    Cycles send(TileId src, TileId dst, std::uint32_t bytes,
                TrafficClass tc, NetDelta &d) const;

    /**
     * The unloaded latency of a message: route traversal plus
     * serialization of the flits behind the head flit. Load
     * independent, so deferred-epoch recording can hand exact
     * latencies to callers before the traffic itself is replayed.
     */
    Cycles
    latencyOf(TileId src, TileId dst, std::uint32_t bytes) const
    {
        return Cycles(mesh_.distance(src, dst)) * cfg_.hopLatency +
               (flitsFor(bytes) - 1);
    }

    /** Number of entries a NetDelta's linkFlits needs for this mesh. */
    std::size_t numLinkEntries() const { return epochLinkFlits_.size(); }

    /**
     * Fold one replay worker's delta into the shared counters. Called
     * in fixed worker order at the epoch barrier; integer adds, so the
     * result equals serial execution. Call refreshEpochMax() after the
     * last fold.
     */
    void mergeDelta(const NetDelta &d);

    /** Recompute the running epoch max by scanning (post-merge). */
    void refreshEpochMax();

    /** Flits queued on the busiest link during the current epoch. */
    std::uint64_t maxLinkFlits() const { return epochMaxLinkFlits_; }

    /** Total flits injected during the current epoch. */
    std::uint64_t epochFlits() const { return epochFlits_; }

    /** Sum of per-link epoch occupancy (for utilization reporting). */
    std::uint64_t totalLinkFlits() const;

    /** Clear per-epoch link occupancy (call at epoch boundaries). */
    void resetEpoch();

    /** Number of flits a payload of @p bytes occupies. */
    std::uint32_t
    flitsFor(std::uint32_t bytes) const
    {
        const std::uint32_t fb = cfg_.flitBytes();
        return bytes == 0 ? 1 : (bytes + fb - 1) / fb;
    }

    /** Accumulated per-link flits over the whole run (utilization). */
    const std::vector<std::uint64_t> &lifetimeLinkFlits() const
    {
        return lifetimeLinkFlits_;
    }

    /**
     * SimCheck audit: flit conservation for the current epoch. The
     * route-link occupancy must equal what chargeLink() handed out
     * (no lost or duplicated flits), and every flit injected at a
     * source port must have been ejected at a destination port.
     */
    void auditConservation(simcheck::CheckContext &ctx) const;

    /**
     * Deliberately corrupt one per-epoch link counter (simcheck tests
     * use this to model a dropped/duplicated flit). @p index addresses
     * epochLinkFlits_, i.e. [0, numLinks) are route links.
     */
    void corruptLinkFlitsForTest(std::uint32_t index, std::int64_t delta);

  private:
    /** Largest mesh for which the route table is precomputed. */
    static constexpr std::uint32_t routeTableMaxTiles = 256;

    /** The shared counters as a charge target (the NetDelta interface). */
    struct Live;

    /**
     * Charge one message into @p to: the per-class counters, every
     * route link and both endpoint ports. The one body behind both
     * send() overloads.
     */
    template <class Target>
    void charge(TileId src, TileId dst, std::uint32_t bytes,
                TrafficClass tc, Target &to) const;
    /**
     * Charge @p flits to every link of the X-Y route, from the route
     * table or, beyond routeTableMaxTiles, by walking the coordinates.
     */
    template <class Target>
    void chargeRoute(TileId src, TileId dst, std::uint32_t flits,
                     Target &to) const;
    /** Charge one link, applying any degraded-link multiplier. */
    template <class Target>
    void chargeLink(LinkId link, std::uint32_t flits, Target &to) const;

    /** Keep the running epoch max current for one charged entry. */
    void
    noteEpochFlits(std::size_t index)
    {
        if (epochLinkFlits_[index] > epochMaxLinkFlits_)
            epochMaxLinkFlits_ = epochLinkFlits_[index];
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
     * Running maximum over epochLinkFlits_, maintained at charge time
     * so endEpoch() reads the bottleneck without scanning ~350
     * counters per epoch. Occupancy only grows within an epoch, so
     * the running max equals the scan.
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
