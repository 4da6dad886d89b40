#include <gtest/gtest.h>

#include "sim/energy.hh"

using namespace affalloc;
using sim::EnergyModel;
using sim::MachineConfig;
using sim::Stats;

TEST(Energy, ZeroStatsZeroEnergy)
{
    MachineConfig cfg;
    EnergyModel model(cfg);
    EXPECT_DOUBLE_EQ(model.totalJoules(Stats{}), 0.0);
}

TEST(Energy, DynamicScalesWithEvents)
{
    MachineConfig cfg;
    EnergyModel model(cfg);
    Stats a;
    a.l3Accesses = 1000;
    Stats b;
    b.l3Accesses = 2000;
    EXPECT_DOUBLE_EQ(model.dynamicJoules(b), 2.0 * model.dynamicJoules(a));
}

TEST(Energy, StaticScalesWithCycles)
{
    MachineConfig cfg;
    EnergyModel model(cfg);
    Stats s;
    s.cycles = 2'000'000'000; // one second at 2 GHz
    EXPECT_NEAR(model.staticJoules(s), 24.0, 1e-9); // 24 W static power
}

TEST(Energy, SeOpsCheaperThanCoreOps)
{
    MachineConfig cfg;
    EnergyModel model(cfg);
    Stats core;
    core.coreOps = 1'000'000;
    Stats se;
    se.seOps = 1'000'000;
    EXPECT_GT(model.dynamicJoules(core), model.dynamicJoules(se));
}

TEST(Energy, NocEnergyCountsFlitHops)
{
    MachineConfig cfg;
    EnergyModel model(cfg);
    Stats s;
    s.flitHops[int(TrafficClass::data)] = 10;
    EXPECT_NEAR(model.dynamicJoules(s), 260e-12, 1e-18); // 26 pJ per flit-hop
}

TEST(Energy, TotalIsDynamicPlusStatic)
{
    MachineConfig cfg;
    EnergyModel model(cfg);
    Stats s;
    s.cycles = 1000;
    s.dramBytes = 640;
    EXPECT_DOUBLE_EQ(model.totalJoules(s),
                     model.dynamicJoules(s) + model.staticJoules(s));
}
