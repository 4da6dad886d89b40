/**
 * @file
 * DRAM channel model: four memory controllers at the mesh corners
 * (Table 2), line-interleaved across channels, with per-channel
 * bandwidth occupancy used by the epoch timing model.
 */

#ifndef AFFALLOC_MEM_DRAM_HH
#define AFFALLOC_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "noc/topology.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace affalloc::mem
{

/**
 * Bandwidth/occupancy model of the DRAM channels. Latency is a fixed
 * access latency; throughput contention is tracked per channel per
 * epoch in cycles of channel busy time.
 */
class Dram
{
  public:
    /** Build for a machine; controllers sit on the mesh corners. */
    Dram(const sim::MachineConfig &cfg, const noc::Mesh &mesh,
         sim::Stats &stats);

    /** Channel servicing physical line @p line_addr. */
    std::uint32_t
    channelOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(line_addr % channels_);
    }

    /** Mesh tile hosting @p channel's controller. */
    TileId controllerTile(std::uint32_t channel) const
    {
        return controllerTiles_[channel];
    }

    /**
     * Account one line-sized access on the channel owning
     * @p line_addr. Returns the unloaded access latency.
     */
    Cycles access(Addr line_addr, bool is_write);

    /** Busy cycles of the most-loaded channel this epoch. */
    double maxChannelBusy() const;

    /** Reset per-epoch occupancy. */
    void resetEpoch();

  private:
    std::uint32_t channels_;
    std::uint32_t lineSize_;
    Cycles latency_;
    double cyclesPerLine_;
    sim::Stats &stats_;
    std::vector<TileId> controllerTiles_;
    std::vector<double> epochBusy_;
};

} // namespace affalloc::mem

#endif // AFFALLOC_MEM_DRAM_HH
