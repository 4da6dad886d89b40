#include "mem/dram.hh"

#include <algorithm>

#include "sim/log.hh"

namespace affalloc::mem
{

Dram::Dram(const sim::MachineConfig &cfg, const noc::Mesh &mesh,
           sim::Stats &stats)
    : channels_(cfg.dramChannels), lineSize_(cfg.lineSize),
      latency_(cfg.dramLatency),
      cyclesPerLine_(cfg.lineSize / cfg.dramChannelBytesPerCycle()),
      stats_(stats), epochBusy_(cfg.dramChannels, 0.0)
{
    const auto corners = mesh.cornerTiles();
    if (channels_ > corners.size())
        SIM_FATAL("mem", "more DRAM channels (%u) than mesh corners", channels_);
    controllerTiles_.assign(corners.begin(), corners.begin() + channels_);
}

Cycles
Dram::access(Addr line_addr, bool is_write)
{
    (void)is_write;
    const std::uint32_t ch = channelOf(line_addr);
    epochBusy_[ch] += cyclesPerLine_;
    stats_.dramAccesses += 1;
    stats_.dramBytes += lineSize_;
    return latency_;
}

double
Dram::maxChannelBusy() const
{
    return *std::max_element(epochBusy_.begin(), epochBusy_.end());
}

void
Dram::resetEpoch()
{
    std::fill(epochBusy_.begin(), epochBusy_.end(), 0.0);
}

} // namespace affalloc::mem
