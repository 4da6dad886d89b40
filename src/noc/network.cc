#include "noc/network.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"
#include "sim/prof.hh"

namespace affalloc::noc
{

void
NetDelta::reset(std::size_t num_pairs)
{
    if (num_pairs != numPairs_) {
        pairFlits = sim::ZeroPages(num_pairs * sizeof(std::uint64_t));
        numPairs_ = num_pairs;
        // One block up front: growing it while a run's buffers come and
        // go raised graph's peak RSS by 0.2 MB.
        pairs.reserve(num_pairs);
    } else if (std::uint64_t *by_pair = pairFlits.as<std::uint64_t>()) {
        for (const std::uint32_t p : pairs)
            by_pair[p] = 0;
    }
    pairs.clear();
    entryFlits.clear();
}

Network::Network(const sim::MachineConfig &cfg, sim::Stats &stats)
    : cfg_(cfg), stats_(stats), mesh_(cfg.meshX, cfg.meshY),
      epochLinkFlits_(mesh_.numLinks() + 2 * mesh_.numTiles(), 0),
      lifetimeLinkFlits_(mesh_.numLinks() + 2 * mesh_.numTiles(), 0)
{
    const std::uint32_t nt = mesh_.numTiles();
    if (nt <= routeTableMaxTiles) {
        routeOffset_.resize(std::size_t(nt) * nt + 1);
        std::uint64_t total_links = 0;
        for (TileId src = 0; src < nt; ++src)
            for (TileId dst = 0; dst < nt; ++dst)
                total_links += mesh_.distance(src, dst);
        routeLinks_.reserve(total_links);
        for (TileId src = 0; src < nt; ++src) {
            for (TileId dst = 0; dst < nt; ++dst) {
                routeOffset_[std::size_t(src) * nt + dst] =
                    static_cast<std::uint32_t>(routeLinks_.size());
                mesh_.route(src, dst, routeLinks_);
            }
        }
        routeOffset_.back() = static_cast<std::uint32_t>(routeLinks_.size());
    }
    pending_.reset(pairSlots());
}

void
Network::setFaultPlan(const sim::FaultPlan *plan)
{
    flush();
    faults_ = plan;
}

std::uint32_t
Network::injectPort(TileId tile) const
{
    return mesh_.numLinks() + 2 * tile;
}

std::uint32_t
Network::ejectPort(TileId tile) const
{
    return mesh_.numLinks() + 2 * tile + 1;
}

Cycles
Network::send(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc)
{
    if (pending_.empty())
        pendingLinkVersion_ = linkVersion();
    const Cycles latency = send(src, dst, bytes, tc, stats_, pending_);
    if (pairSlots() == 0)
        flush();
    return latency;
}

Cycles
Network::send(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc,
              sim::Stats &stats, NetDelta &d) const
{
    const std::uint32_t hop_count = mesh_.distance(src, dst);
    const std::uint32_t flits = flitsFor(bytes);
    const int c = static_cast<int>(tc);
    stats.messages[c] += 1;
    stats.hops[c] += hop_count;
    stats.flitHops[c] += std::uint64_t(flits) * hop_count;
    if (hop_count != 0)
        d.add(src * mesh_.numTiles() + dst, flits);
    return latencyOf(hop_count, flits);
}

void
Network::mergeDelta(const NetDelta &d)
{
    PROF_SCOPE("noc/net.merge_delta");
    if (pending_.empty())
        pendingLinkVersion_ = linkVersion();
    for (std::size_t i = 0; i < d.pairs.size(); ++i)
        pending_.add(d.pairs[i], d.flitsAt(i));
    if (pairSlots() == 0)
        flush();
}

void
Network::flush()
{
    if (pending_.empty())
        return;
    SIM_CHECK("noc", linkVersion() == pendingLinkVersion_,
              "a link multiplier changed while %zu (src, dst) pairs were "
              "pending; flush() before degrading a link",
              pending_.pairs.size());
    const std::uint32_t nt = mesh_.numTiles();
    for (std::size_t i = 0; i < pending_.pairs.size(); ++i) {
        const std::uint32_t pair = pending_.pairs[i];
        const std::uint64_t flits = pending_.flitsAt(i);
        chargeRoute(pair, flits);
        // Endpoint local ports: one tile can inject/eject at most one
        // flit per cycle, which bounds hot endpoints (e.g. a core
        // sinking every response, or a contended tail-pointer bank).
        addLink(injectPort(pair / nt), flits);
        addLink(ejectPort(pair % nt), flits);
        epochFlits_ += flits;
    }
    pending_.reset(pairSlots());
}

void
Network::addLink(std::size_t index, std::uint64_t flits)
{
    epochLinkFlits_[index] += flits;
    lifetimeLinkFlits_[index] += flits;
    epochMaxLinkFlits_ = std::max(epochMaxLinkFlits_, epochLinkFlits_[index]);
}

void
Network::chargeLink(LinkId link, std::uint64_t flits)
{
    std::uint64_t charged = flits;
    if (faults_ != nullptr) {
        const std::uint32_t mult = faults_->linkFlitMultiplier(link);
        if (mult > 1) {
            charged = flits * mult;
            stats_.degradedLinkFlits += charged - flits;
        }
    }
    addLink(link, charged);
    epochRouteFlitsShadow_ += charged;
}

void
Network::chargeRoute(std::uint32_t pair, std::uint64_t flits)
{
    if (!routeOffset_.empty()) {
        const std::uint32_t end = routeOffset_[pair + 1];
        for (std::uint32_t i = routeOffset_[pair]; i < end; ++i)
            chargeLink(routeLinks_[i], flits);
        return;
    }
    // Large-mesh path: walk the X-Y coordinates.
    const std::uint32_t nt = mesh_.numTiles();
    std::uint32_t x = mesh_.xOf(pair / nt);
    std::uint32_t y = mesh_.yOf(pair / nt);
    const std::uint32_t tx = mesh_.xOf(pair % nt);
    const std::uint32_t ty = mesh_.yOf(pair % nt);
    while (x != tx) {
        const Direction dir = x < tx ? Direction::east : Direction::west;
        chargeLink(Mesh::linkOf(mesh_.tileAt(x, y), dir), flits);
        x = x < tx ? x + 1 : x - 1;
    }
    while (y != ty) {
        const Direction dir = y < ty ? Direction::south : Direction::north;
        chargeLink(Mesh::linkOf(mesh_.tileAt(x, y), dir), flits);
        y = y < ty ? y + 1 : y - 1;
    }
}

std::uint64_t
Network::totalLinkFlits()
{
    flush();
    return std::accumulate(epochLinkFlits_.begin(), epochLinkFlits_.end(),
                           std::uint64_t(0));
}

void
Network::resetEpoch()
{
    flush();
    std::fill(epochLinkFlits_.begin(), epochLinkFlits_.end(), 0);
    epochFlits_ = 0;
    epochMaxLinkFlits_ = 0;
    epochRouteFlitsShadow_ = 0;
}

void
Network::auditConservation(simcheck::CheckContext &ctx)
{
    flush();
    std::uint64_t route = 0;
    for (std::uint32_t l = 0; l < mesh_.numLinks(); ++l)
        route += epochLinkFlits_[l];
    if (route != epochRouteFlitsShadow_) {
        ctx.failf("route-link flits %llu != %llu charged this epoch "
                  "(flits lost or duplicated in transit)",
                  static_cast<unsigned long long>(route),
                  static_cast<unsigned long long>(epochRouteFlitsShadow_));
    }
    std::uint64_t injected = 0, ejected = 0;
    for (TileId t = 0; t < mesh_.numTiles(); ++t) {
        injected += epochLinkFlits_[injectPort(t)];
        ejected += epochLinkFlits_[ejectPort(t)];
    }
    if (injected != epochFlits_) {
        ctx.failf("inject-port flits %llu != %llu injected this epoch",
                  static_cast<unsigned long long>(injected),
                  static_cast<unsigned long long>(epochFlits_));
    }
    if (ejected != epochFlits_) {
        ctx.failf("eject-port flits %llu != %llu injected this epoch "
                  "(flits vanished before delivery)",
                  static_cast<unsigned long long>(ejected),
                  static_cast<unsigned long long>(epochFlits_));
    }
}

void
Network::corruptLinkFlitsForTest(std::uint32_t index, std::int64_t delta)
{
    SIM_CHECK("noc", index < epochLinkFlits_.size(),
              "corruptLinkFlitsForTest: index %u out of range", index);
    flush();
    epochLinkFlits_[index] =
        static_cast<std::uint64_t>(
            static_cast<std::int64_t>(epochLinkFlits_[index]) + delta);
    // A corruption may lower the busiest entry; the max must track the
    // counters it summarizes.
    epochMaxLinkFlits_ =
        *std::max_element(epochLinkFlits_.begin(), epochLinkFlits_.end());
}

} // namespace affalloc::noc
