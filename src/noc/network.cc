#include "noc/network.hh"

#include <algorithm>
#include <numeric>

#include "sim/log.hh"
#include "sim/prof.hh"

namespace affalloc::noc
{

void
NetDelta::reset(std::size_t num_entries)
{
    messages.fill(0);
    hops.fill(0);
    flitHops.fill(0);
    degradedLinkFlits = 0;
    flits = 0;
    routeShadow = 0;
    linkFlits.assign(num_entries, 0);
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

/** The shared counters behind the NetDelta charge interface. */
struct Network::Live
{
    Network &n;

    void
    addMessage(int tc, std::uint32_t hop_count, std::uint32_t flits)
    {
        n.stats_.messages[tc] += 1;
        n.stats_.hops[tc] += hop_count;
        n.stats_.flitHops[tc] += std::uint64_t(flits) * hop_count;
    }
    void
    addDegraded(std::uint64_t extra)
    {
        n.stats_.degradedLinkFlits += extra;
    }
    void
    addRouteLink(LinkId link, std::uint64_t charged)
    {
        addLink(link, charged);
        n.epochRouteFlitsShadow_ += charged;
    }
    void
    addPorts(std::uint32_t inject, std::uint32_t eject, std::uint32_t flits)
    {
        addLink(inject, flits);
        addLink(eject, flits);
        n.epochFlits_ += flits;
    }
    void
    addLink(std::size_t index, std::uint64_t flits)
    {
        n.epochLinkFlits_[index] += flits;
        n.lifetimeLinkFlits_[index] += flits;
        n.noteEpochFlits(index);
    }
};

template <class Target>
void
Network::charge(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc,
                Target &to) const
{
    const std::uint32_t hop_count = mesh_.distance(src, dst);
    const std::uint32_t flits = flitsFor(bytes);
    to.addMessage(static_cast<int>(tc), hop_count, flits);
    if (hop_count != 0) {
        chargeRoute(src, dst, flits, to);
        // Endpoint local ports: one tile can inject/eject at most one
        // flit per cycle, which bounds hot endpoints (e.g. a core
        // sinking every response, or a contended tail-pointer bank).
        to.addPorts(injectPort(src), ejectPort(dst), flits);
    }
}

template <class Target>
void
Network::chargeLink(LinkId link, std::uint32_t flits, Target &to) const
{
    std::uint64_t charged = flits;
    if (faults_ != nullptr) {
        const std::uint32_t mult = faults_->linkFlitMultiplier(link);
        if (mult > 1) {
            charged = std::uint64_t(flits) * mult;
            to.addDegraded(charged - flits);
        }
    }
    to.addRouteLink(link, charged);
}

template <class Target>
void
Network::chargeRoute(TileId src, TileId dst, std::uint32_t flits,
                     Target &to) const
{
    if (!routeOffset_.empty()) {
        const std::size_t pair = std::size_t(src) * mesh_.numTiles() + dst;
        const std::uint32_t end = routeOffset_[pair + 1];
        for (std::uint32_t i = routeOffset_[pair]; i < end; ++i)
            chargeLink(routeLinks_[i], flits, to);
        return;
    }
    // Large-mesh path: walk the X-Y coordinates.
    std::uint32_t x = mesh_.xOf(src);
    std::uint32_t y = mesh_.yOf(src);
    const std::uint32_t tx = mesh_.xOf(dst);
    const std::uint32_t ty = mesh_.yOf(dst);
    while (x != tx) {
        const Direction dir = x < tx ? Direction::east : Direction::west;
        chargeLink(Mesh::linkOf(mesh_.tileAt(x, y), dir), flits, to);
        x = x < tx ? x + 1 : x - 1;
    }
    while (y != ty) {
        const Direction dir = y < ty ? Direction::south : Direction::north;
        chargeLink(Mesh::linkOf(mesh_.tileAt(x, y), dir), flits, to);
        y = y < ty ? y + 1 : y - 1;
    }
}

Cycles
Network::send(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc)
{
    Live live{*this};
    charge(src, dst, bytes, tc, live);
    return latencyOf(src, dst, bytes);
}

Cycles
Network::send(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc,
              NetDelta &d) const
{
    charge(src, dst, bytes, tc, d);
    return latencyOf(src, dst, bytes);
}

void
Network::mergeDelta(const NetDelta &d)
{
    PROF_SCOPE("noc/net.merge_delta");
    for (int c = 0; c < numTrafficClasses; ++c) {
        stats_.messages[c] += d.messages[c];
        stats_.hops[c] += d.hops[c];
        stats_.flitHops[c] += d.flitHops[c];
    }
    stats_.degradedLinkFlits += d.degradedLinkFlits;
    for (std::size_t i = 0; i < epochLinkFlits_.size(); ++i) {
        epochLinkFlits_[i] += d.linkFlits[i];
        lifetimeLinkFlits_[i] += d.linkFlits[i];
    }
    epochFlits_ += d.flits;
    epochRouteFlitsShadow_ += d.routeShadow;
}

void
Network::refreshEpochMax()
{
    epochMaxLinkFlits_ =
        *std::max_element(epochLinkFlits_.begin(), epochLinkFlits_.end());
}

std::uint64_t
Network::totalLinkFlits() const
{
    return std::accumulate(epochLinkFlits_.begin(), epochLinkFlits_.end(),
                           std::uint64_t(0));
}

void
Network::resetEpoch()
{
    std::fill(epochLinkFlits_.begin(), epochLinkFlits_.end(), 0);
    epochFlits_ = 0;
    epochMaxLinkFlits_ = 0;
    epochRouteFlitsShadow_ = 0;
}

void
Network::auditConservation(simcheck::CheckContext &ctx) const
{
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
    epochLinkFlits_[index] =
        static_cast<std::uint64_t>(
            static_cast<std::int64_t>(epochLinkFlits_[index]) + delta);
    // A corruption may lower the busiest entry; the running max must
    // track the counters it summarizes.
    refreshEpochMax();
}

} // namespace affalloc::noc
