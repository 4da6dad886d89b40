#include "sim/fault.hh"

#include <algorithm>
#include <sstream>

#include "sim/log.hh"

namespace affalloc::sim
{

namespace
{

/**
 * Directed link ids of the real links of an X-by-Y mesh, using the
 * Mesh::linkOf numbering (tile * 4 + direction, directions E/W/N/S =
 * 0..3). Edge slots (links that would leave the mesh) are excluded.
 */
std::vector<std::uint32_t>
realMeshLinks(std::uint32_t mesh_x, std::uint32_t mesh_y)
{
    std::vector<std::uint32_t> links;
    for (std::uint32_t y = 0; y < mesh_y; ++y) {
        for (std::uint32_t x = 0; x < mesh_x; ++x) {
            const std::uint32_t tile = y * mesh_x + x;
            if (x + 1 < mesh_x)
                links.push_back(tile * 4 + 0); // east
            if (x > 0)
                links.push_back(tile * 4 + 1); // west
            if (y > 0)
                links.push_back(tile * 4 + 2); // north
            if (y + 1 < mesh_y)
                links.push_back(tile * 4 + 3); // south
        }
    }
    return links;
}

/**
 * Whether directed link id @p link is a real link of the mesh (per the
 * Mesh::linkOf numbering; edge slots excluded).
 */
bool
isRealMeshLink(std::uint32_t link, std::uint32_t mesh_x,
               std::uint32_t mesh_y)
{
    const std::uint32_t tile = link / 4;
    if (tile >= mesh_x * mesh_y)
        return false;
    const std::uint32_t x = tile % mesh_x;
    const std::uint32_t y = tile / mesh_x;
    switch (link % 4) {
      case 0: return x + 1 < mesh_x; // east
      case 1: return x > 0;          // west
      case 2: return y > 0;          // north
      default: return y + 1 < mesh_y; // south
    }
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::killBank: return "bank";
      case FaultKind::degradeLink: return "link";
      case FaultKind::nackStorm: return "nack";
    }
    return "?";
}

std::vector<TimedFault>
parseFaultSchedule(const std::string &spec)
{
    std::vector<TimedFault> schedule;
    std::istringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        TimedFault ev;
        const std::size_t colon = item.find(':');
        const std::size_t at = item.find('@');
        if (colon == std::string::npos || at == std::string::npos ||
            at < colon)
            SIM_FATAL("fault",
                      "malformed fault event '%s' (want bank:<id>@<cycle>, "
                      "link:<id>@<cycle>[x<factor>], or "
                      "nack:<permille>@<cycle>)",
                      item.c_str());
        const std::string kind = item.substr(0, colon);
        if (kind == "bank")
            ev.kind = FaultKind::killBank;
        else if (kind == "link")
            ev.kind = FaultKind::degradeLink;
        else if (kind == "nack")
            ev.kind = FaultKind::nackStorm;
        else
            SIM_FATAL("fault",
                      "unknown fault event kind '%s' in '%s' (bank, link, "
                      "nack)",
                      kind.c_str(), item.c_str());
        std::string when = item.substr(at + 1);
        if (ev.kind == FaultKind::degradeLink) {
            const std::size_t xpos = when.find('x');
            if (xpos != std::string::npos) {
                try {
                    ev.factor = static_cast<std::uint32_t>(
                        std::stoul(when.substr(xpos + 1)));
                } catch (const std::exception &) {
                    SIM_FATAL("fault", "bad degrade factor in '%s'",
                              item.c_str());
                }
                when = when.substr(0, xpos);
            }
        }
        try {
            ev.target = static_cast<std::uint32_t>(
                std::stoul(item.substr(colon + 1, at - colon - 1)));
            ev.atCycle = static_cast<Cycles>(std::stoull(when));
        } catch (const std::exception &) {
            SIM_FATAL("fault", "bad number in fault event '%s'",
                      item.c_str());
        }
        schedule.push_back(ev);
    }
    return schedule;
}

std::string
formatFaultSchedule(const std::vector<TimedFault> &schedule)
{
    std::ostringstream os;
    bool first = true;
    for (const TimedFault &ev : schedule) {
        if (!first)
            os << ',';
        first = false;
        os << faultKindName(ev.kind) << ':' << ev.target << '@'
           << ev.atCycle;
        if (ev.kind == FaultKind::degradeLink)
            os << 'x' << ev.factor;
    }
    return os.str();
}

void
validateFaultSchedule(const std::vector<TimedFault> &schedule,
                      std::uint32_t mesh_x, std::uint32_t mesh_y,
                      Cycles max_cycles)
{
    const std::uint32_t num_banks = mesh_x * mesh_y;
    for (const TimedFault &ev : schedule) {
        if (ev.kind == FaultKind::killBank) {
            if (ev.target >= num_banks)
                SIM_FATAL("fault",
                          "fault event kills bank %u but the %ux%u mesh "
                          "has banks 0..%u",
                          ev.target, mesh_x, mesh_y, num_banks - 1);
        } else if (ev.kind == FaultKind::nackStorm) {
            if (ev.target > 1000)
                SIM_FATAL("fault",
                          "nack storm rate %u permille outside 0..1000",
                          ev.target);
        } else {
            if (!isRealMeshLink(ev.target, mesh_x, mesh_y))
                SIM_FATAL("fault",
                          "fault event degrades link %u, which is not a "
                          "real link of the %ux%u mesh",
                          ev.target, mesh_x, mesh_y);
            if (ev.factor == 0)
                SIM_FATAL("fault",
                          "fault event on link %u has degrade factor 0 "
                          "(must be >= 1)",
                          ev.target);
            if (ev.factor > maxLinkDegradeFactor)
                SIM_FATAL("fault",
                          "fault event on link %u has degrade factor %u "
                          "past the sanity bound %u",
                          ev.target, ev.factor, maxLinkDegradeFactor);
        }
        if (max_cycles != 0 && ev.atCycle > max_cycles)
            SIM_FATAL("fault",
                      "fault event at cycle %llu is beyond the %llu-cycle "
                      "horizon and would never fire",
                      static_cast<unsigned long long>(ev.atCycle),
                      static_cast<unsigned long long>(max_cycles));
    }
}

FaultPlan::FaultPlan(const FaultConfig &cfg, std::uint32_t mesh_x,
                     std::uint32_t mesh_y)
    : cfg_(cfg), rng_(cfg.seed)
{
    const std::uint32_t num_banks = mesh_x * mesh_y;
    if (num_banks == 0)
        SIM_FATAL("fault", "fault plan over an empty mesh");
    if (!(cfg.offloadRejectRate >= 0.0 && cfg.offloadRejectRate <= 1.0))
        SIM_FATAL("fault", "offload reject rate %g outside [0, 1]",
              cfg.offloadRejectRate);
    if (cfg.offlineBanks >= num_banks)
        SIM_FATAL("fault", "cannot offline %u of %u banks (at least one must stay "
              "live)",
              cfg.offlineBanks, num_banks);
    if (cfg.linkDegradeFactor == 0)
        SIM_FATAL("fault", "link degrade factor must be >= 1");
    if (cfg.linkDegradeFactor > maxLinkDegradeFactor)
        SIM_FATAL("fault", "link degrade factor %u past the sanity bound %u",
                  cfg.linkDegradeFactor, maxLinkDegradeFactor);

    liveMask_.assign(num_banks, 1);
    for (std::uint32_t picked = 0; picked < cfg.offlineBanks;) {
        const BankId b = static_cast<BankId>(rng_.below(num_banks));
        if (liveMask_[b]) {
            liveMask_[b] = 0;
            ++picked;
            ++offlineCount_;
        }
    }
    rebuildRedirect();

    if (cfg.degradedLinks > 0) {
        const std::vector<std::uint32_t> real =
            realMeshLinks(mesh_x, mesh_y);
        linkMult_.assign(num_banks * 4, 1);
        const std::uint32_t want = std::min<std::uint32_t>(
            cfg.degradedLinks,
            static_cast<std::uint32_t>(real.size()));
        while (degradedCount_ < want) {
            const std::uint32_t link =
                real[rng_.below(real.size())];
            if (linkMult_[link] == 1) {
                linkMult_[link] = cfg.linkDegradeFactor;
                ++degradedCount_;
            }
        }
    }
}

void
FaultPlan::rebuildRedirect()
{
    const std::uint32_t n =
        static_cast<std::uint32_t>(liveMask_.size());
    redirect_.resize(n);
    for (BankId b = 0; b < n; ++b) {
        BankId target = b;
        for (std::uint32_t d = 0; d < n && !liveMask_[target]; ++d)
            target = (b + d + 1) % n;
        redirect_[b] = target;
    }
}

bool
FaultPlan::offlineBank(BankId b)
{
    if (liveMask_.empty() || b >= liveMask_.size())
        SIM_FATAL("fault", "offlineBank: bank %u out of range", b);
    if (!liveMask_[b])
        return false;
    if (numLiveBanks() <= 1)
        SIM_FATAL("fault", "offlineBank: cannot offline the last live bank %u", b);
    liveMask_[b] = 0;
    ++offlineCount_;
    rebuildRedirect();
    ++redirectVersion_;
    return true;
}

void
FaultPlan::setRedirect(BankId dead, BankId target)
{
    if (liveMask_.empty() || dead >= liveMask_.size() ||
        target >= liveMask_.size())
        SIM_FATAL("fault", "setRedirect: bank %u -> %u out of range", dead,
                  target);
    if (liveMask_[dead])
        SIM_FATAL("fault", "setRedirect: bank %u is still live", dead);
    if (!liveMask_[target])
        SIM_FATAL("fault", "setRedirect: target bank %u is offline",
                  target);
    if (redirect_[dead] != target) {
        redirect_[dead] = target;
        ++redirectVersion_;
    }
}

void
FaultPlan::setOffloadRejectRate(double rate)
{
    if (rate < 0.0 || rate > 1.0)
        SIM_FATAL("fault", "offload reject rate %g outside [0, 1]", rate);
    cfg_.offloadRejectRate = rate;
}

bool
FaultPlan::degradeLink(std::uint32_t link, std::uint32_t factor)
{
    const std::uint32_t num_links =
        static_cast<std::uint32_t>(liveMask_.size()) * 4;
    if (liveMask_.empty() || link >= num_links)
        SIM_FATAL("fault", "degradeLink: link %u out of range", link);
    if (factor == 0)
        SIM_FATAL("fault", "degradeLink: factor must be >= 1");
    if (factor > maxLinkDegradeFactor)
        SIM_FATAL("fault", "degradeLink: factor %u past the sanity bound %u",
                  factor, maxLinkDegradeFactor);
    if (linkMult_.empty())
        linkMult_.assign(num_links, 1);
    if (linkMult_[link] == factor)
        return false;
    if (linkMult_[link] == 1 && factor > 1)
        ++degradedCount_;
    else if (linkMult_[link] > 1 && factor == 1)
        --degradedCount_;
    linkMult_[link] = factor;
    ++linkVersion_;
    return true;
}

std::string
FaultPlan::toString() const
{
    std::ostringstream os;
    os << "faults: " << offlineCount_ << " offline banks";
    if (!liveMask_.empty() && offlineCount_ > 0) {
        os << " (";
        bool first = true;
        for (BankId b = 0; b < liveMask_.size(); ++b) {
            if (liveMask_[b])
                continue;
            os << (first ? "" : ",") << b;
            first = false;
        }
        os << ")";
    }
    os << ", " << degradedCount_ << " degraded links (x"
       << cfg_.linkDegradeFactor << "), offload reject p="
       << cfg_.offloadRejectRate;
    return os.str();
}

} // namespace affalloc::sim
