/**
 * @file
 * Event-based energy model standing in for McPAT + CACTI. Energy is
 * per-event dynamic energy plus static power integrated over the run;
 * the paper reports only *relative* energy efficiency, which is
 * dominated by these event counts. The per-event energies and the
 * chip's static power are constants in energy.cc.
 */

#ifndef AFFALLOC_SIM_ENERGY_HH
#define AFFALLOC_SIM_ENERGY_HH

#include "sim/config.hh"
#include "sim/stats.hh"

namespace affalloc::sim
{

/**
 * Compute total energy in joules for a Stats delta under a machine
 * configuration.
 */
class EnergyModel
{
  public:
    /** Build the model for one machine (only its clock matters). */
    explicit EnergyModel(const MachineConfig &cfg) : clockGhz_(cfg.clockGhz)
    {}

    /** Total energy (joules) consumed by the events in @p stats. */
    double totalJoules(const Stats &stats) const;

    /** Dynamic-only energy (joules). */
    double dynamicJoules(const Stats &stats) const;

    /** Static-only energy (joules) over the stats' cycle count. */
    double staticJoules(const Stats &stats) const;

  private:
    double clockGhz_;
};

} // namespace affalloc::sim

#endif // AFFALLOC_SIM_ENERGY_HH
