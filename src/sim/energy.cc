#include "sim/energy.hh"

namespace affalloc::sim
{

namespace
{

// Per-event dynamic energies (picojoules).
/** L1 data access. */
constexpr double l1AccessPj = 10.0;
/** Private L2 access. */
constexpr double l2AccessPj = 30.0;
/** Shared L3 bank access. */
constexpr double l3AccessPj = 100.0;
/** DRAM energy per byte transferred (~20 pJ/bit incl. PHY). */
constexpr double dramPerBytePj = 160.0;
/** NoC energy per flit-hop (32 B flit: link + router). */
constexpr double nocFlitHopPj = 26.0;
/** Scalar op on the wide OOO core (incl. frontend overheads). */
constexpr double coreOpPj = 32.0;
/** Scalar op on a near-stream compute thread (no LSQ/bpred). */
constexpr double seOpPj = 6.0;
/** Remote atomic RMW at an L3 bank. */
constexpr double atomicPj = 60.0;
/** Whole-chip static + clock power in watts. */
constexpr double staticWatts = 24.0;

} // namespace

double
EnergyModel::dynamicJoules(const Stats &s) const
{
    double pj = 0.0;
    pj += l1AccessPj * static_cast<double>(s.l1Accesses);
    pj += l2AccessPj * static_cast<double>(s.l2Accesses);
    pj += l3AccessPj * static_cast<double>(s.l3Accesses);
    pj += dramPerBytePj * static_cast<double>(s.dramBytes);
    pj += nocFlitHopPj * static_cast<double>(s.totalFlitHops());
    pj += coreOpPj * static_cast<double>(s.coreOps);
    pj += seOpPj * static_cast<double>(s.seOps);
    pj += atomicPj * static_cast<double>(s.atomicOps);
    return pj * 1e-12;
}

double
EnergyModel::staticJoules(const Stats &s) const
{
    const double seconds =
        static_cast<double>(s.cycles) / (clockGhz_ * 1e9);
    return staticWatts * seconds;
}

double
EnergyModel::totalJoules(const Stats &s) const
{
    return dynamicJoules(s) + staticJoules(s);
}

} // namespace affalloc::sim
