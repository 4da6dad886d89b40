#include <gtest/gtest.h>

#include <cmath>

#include "sim/config.hh"
#include "sim/log.hh"

using namespace affalloc;
using sim::MachineConfig;

TEST(Config, DefaultsMatchTable2)
{
    MachineConfig cfg;
    EXPECT_EQ(cfg.meshX, 8u);
    EXPECT_EQ(cfg.meshY, 8u);
    EXPECT_EQ(cfg.numBanks(), 64u);
    EXPECT_EQ(cfg.l3BankSizeBytes, 1024u * 1024u);
    EXPECT_EQ(cfg.l3TotalBytes(), 64ull * 1024 * 1024);
    EXPECT_EQ(cfg.l3DefaultInterleave, 1024u);
    EXPECT_EQ(cfg.l1SizeBytes, 32u * 1024u);
    EXPECT_EQ(cfg.l2SizeBytes, 256u * 1024u);
    EXPECT_EQ(cfg.dramChannels, 4u);
    EXPECT_EQ(cfg.iotEntries, 16u);
    EXPECT_EQ(cfg.seL3Streams, 768u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, DramChannelBandwidth)
{
    MachineConfig cfg;
    // 25.6 GB/s over 4 channels at 2 GHz = 3.2 B/cycle each.
    EXPECT_DOUBLE_EQ(cfg.dramChannelBytesPerCycle(), 3.2);
}

TEST(Config, ValidateRejectsBadLineSize)
{
    MachineConfig cfg;
    cfg.lineSize = 48;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidateRejectsZeroMesh)
{
    MachineConfig cfg;
    cfg.meshX = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidateRejectsTooManyChannels)
{
    MachineConfig cfg;
    cfg.dramChannels = 100;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, ValidateRejectsNanOrOutOfRangeRejectRate)
{
    // NaN compares false against both bounds of the range check.
    for (const double rate : {std::nan(""), -0.1, 1.5}) {
        MachineConfig cfg;
        cfg.faults.offloadRejectRate = rate;
        EXPECT_THROW(cfg.validate(), FatalError) << rate;
    }
}

TEST(Config, ToStringMentionsKeyParameters)
{
    MachineConfig cfg;
    const std::string s = cfg.toString();
    EXPECT_NE(s.find("8x8"), std::string::npos);
    EXPECT_NE(s.find("1MB/bank"), std::string::npos);
    EXPECT_NE(s.find("IOT"), std::string::npos);
}

TEST(Config, TrafficClassNames)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::control), "Control");
    EXPECT_STREQ(trafficClassName(TrafficClass::data), "Data");
    EXPECT_STREQ(trafficClassName(TrafficClass::offload), "Offload");
}

TEST(Config, ExecModeNames)
{
    EXPECT_STREQ(execModeName(ExecMode::inCore), "In-Core");
    EXPECT_STREQ(execModeName(ExecMode::nearL3), "Near-L3");
    EXPECT_STREQ(execModeName(ExecMode::affAlloc), "Aff-Alloc");
}
