#include "noc/network.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"

namespace affalloc::noc
{

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
        pendingFlits_ = sim::ZeroPages(std::size_t(nt) * nt *
                                       sizeof(std::uint64_t));
        // One block up front: growing it while a run's buffers come and
        // go raised graph's peak RSS by 0.2 MB.
        pendingPairs_.reserve(std::size_t(nt) * nt);
    }
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
    const std::uint32_t hop_count = mesh_.distance(src, dst);
    const std::uint32_t flits = flitsFor(bytes);
    const int c = static_cast<int>(tc);
    stats_.messages[c] += 1;
    stats_.hops[c] += hop_count;
    stats_.flitHops[c] += std::uint64_t(flits) * hop_count;
    if (hop_count != 0) {
        const std::uint32_t pair = src * mesh_.numTiles() + dst;
        std::uint64_t *by_pair = pendingFlits_.as<std::uint64_t>();
        if (by_pair == nullptr) {
            chargePair(pair, flits);
        } else {
            if (pendingPairs_.empty())
                pendingLinkVersion_ = linkVersion();
            if (by_pair[pair] == 0)
                pendingPairs_.push_back(pair);
            by_pair[pair] += flits;
        }
    }
    return latencyOf(hop_count, flits);
}

void
Network::flush()
{
    if (pendingPairs_.empty())
        return;
    SIM_CHECK("noc", linkVersion() == pendingLinkVersion_,
              "a link multiplier changed while %zu (src, dst) pairs were "
              "pending; flush() before degrading a link",
              pendingPairs_.size());
    std::uint64_t *by_pair = pendingFlits_.as<std::uint64_t>();
    for (const std::uint32_t pair : pendingPairs_) {
        chargePair(pair, by_pair[pair]);
        by_pair[pair] = 0;
    }
    pendingPairs_.clear();
}

void
Network::chargePair(std::uint32_t pair, std::uint64_t flits)
{
    const std::uint32_t nt = mesh_.numTiles();
    chargeRoute(pair, flits);
    // Endpoint local ports: one tile can inject/eject at most one flit
    // per cycle, which bounds hot endpoints (e.g. a core sinking every
    // response, or a contended tail-pointer bank).
    addLink(injectPort(pair / nt), flits);
    addLink(ejectPort(pair % nt), flits);
    epochFlits_ += flits;
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
