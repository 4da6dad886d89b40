#include "sim/config.hh"

#include <sstream>

#include "sim/log.hh"

namespace affalloc::sim
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

std::string
MachineConfig::toString() const
{
    std::ostringstream os;
    os << "System      " << clockGhz << " GHz, " << meshX << "x" << meshY
       << " cores\n"
       << "Core        " << coreIssueWidth << "-issue OOO, " << robEntries
       << " ROB, " << simdLanes << "-lane SIMD\n"
       << "L1 D$       " << l1SizeBytes / 1024 << "KB " << l1Assoc
       << "-way, " << l1Latency << " cy\n"
       << "Priv. L2 $  " << l2SizeBytes / 1024 << "KB " << l2Assoc
       << "-way, " << l2Latency << " cy\n"
       << "Shared L3 $ " << l3BankSizeBytes / 1024 / 1024 << "MB/bank x "
       << numBanks() << " banks, " << l3Assoc << "-way, " << l3Latency
       << " cy, static NUCA " << l3DefaultInterleave << "B interleave\n"
       << "NoC         " << meshX << "x" << meshY << " mesh, " << linkBytes
       << "B links, " << hopLatency << " cy/hop, X-Y routing\n"
       << "DRAM        " << dramTotalGBs << " GB/s, " << dramChannels
       << " channels at corners, " << dramLatency << " cy\n"
       << "SEcore      " << seCoreStreams << " streams\n"
       << "SEL3        " << seL3Streams << " streams, "
       << seComputeInitLatency << " cy compute init\n"
       << "IOT         " << iotEntries << " regions";
    return os.str();
}

const char *
bankNumberingName(BankNumbering n)
{
    switch (n) {
      case BankNumbering::rowMajor:
        return "row-major";
      case BankNumbering::snake:
        return "snake";
      case BankNumbering::block2:
        return "block2x2";
      default:
        return "?";
    }
}

void
MachineConfig::validate() const
{
    if (meshX == 0 || meshY == 0)
        SIM_FATAL("config", "mesh dimensions must be nonzero (%ux%u)", meshX, meshY);
    if (clockGhz <= 0.0)
        SIM_FATAL("config", "clock frequency must be positive (%g GHz)", clockGhz);
    if (!isPow2(lineSize))
        SIM_FATAL("config", "line size must be a power of two (%u)", lineSize);
    if (!isPow2(l3DefaultInterleave) || l3DefaultInterleave < lineSize)
        SIM_FATAL("config", "default L3 interleave must be a power of two >= line size");
    if (l1SizeBytes % (l1Assoc * lineSize) != 0)
        SIM_FATAL("config", "L1 size must be a multiple of assoc * line size");
    if (l2SizeBytes % (l2Assoc * lineSize) != 0)
        SIM_FATAL("config", "L2 size must be a multiple of assoc * line size");
    if (l3BankSizeBytes % (l3Assoc * lineSize) != 0)
        SIM_FATAL("config", "L3 bank size must be a multiple of assoc * line size");
    if (dramChannels == 0 || dramChannels > numTiles())
        SIM_FATAL("config", "dram channels must be in [1, tiles]");
    if (dramTotalGBs <= 0.0)
        SIM_FATAL("config", "DRAM bandwidth must be positive (%g GB/s)", dramTotalGBs);
    if (linkBytes == 0)
        SIM_FATAL("config", "NoC link width must be nonzero");
    if (epochChunk == 0)
        SIM_FATAL("config", "epoch chunk must be nonzero");
    if (!(faults.offloadRejectRate >= 0.0 && faults.offloadRejectRate <= 1.0))
        SIM_FATAL("config", "offload reject rate %g outside [0, 1]",
              faults.offloadRejectRate);
    if (faults.offlineBanks >= numTiles())
        SIM_FATAL("config", "cannot offline %u of %u banks (at least one must stay "
              "live)",
              faults.offlineBanks, numTiles());
    if (faults.linkDegradeFactor == 0)
        SIM_FATAL("config", "link degrade factor must be >= 1");
    if (llcIoPolicy == LlcIoPolicy::wayRestrict &&
        (llcIoWays == 0 || llcIoWays >= l3Assoc))
        SIM_FATAL("config", "way-restricted I/O allocation needs llcIoWays in "
              "[1, %u), got %u", l3Assoc, llcIoWays);
    for (int c = 0; c < numAgentClasses; ++c)
        if (classArb.share[c] <= 0.0)
            SIM_FATAL("config", "class bandwidth share for %s must be positive "
                  "(%g)", agentClassName(static_cast<AgentClass>(c)),
                  classArb.share[c]);
    if (classArb.yieldPenalty < 0.0)
        SIM_FATAL("config", "class yield penalty must be >= 0 (%g)",
              classArb.yieldPenalty);
}

const char *
llcIoPolicyName(LlcIoPolicy p)
{
    switch (p) {
      case LlcIoPolicy::ddio:
        return "ddio";
      case LlcIoPolicy::wayRestrict:
        return "way";
      case LlcIoPolicy::bypass:
        return "bypass";
      default:
        return "?";
    }
}

const char *
classArbModeName(ClassArbMode m)
{
    switch (m) {
      case ClassArbMode::none:
        return "none";
      case ClassArbMode::partition:
        return "part";
      case ClassArbMode::priority:
        return "prio";
      default:
        return "?";
    }
}

} // namespace affalloc::sim

namespace affalloc
{

const char *
trafficClassName(TrafficClass tc)
{
    switch (tc) {
      case TrafficClass::control:
        return "Control";
      case TrafficClass::data:
        return "Data";
      case TrafficClass::offload:
        return "Offload";
      default:
        return "?";
    }
}

const char *
agentClassName(AgentClass c)
{
    switch (c) {
      case AgentClass::ndc:
        return "ndc";
      case AgentClass::host:
        return "host";
      case AgentClass::io:
        return "io";
      default:
        return "?";
    }
}

const char *
execModeName(ExecMode mode)
{
    switch (mode) {
      case ExecMode::inCore:
        return "In-Core";
      case ExecMode::nearL3:
        return "Near-L3";
      case ExecMode::affAlloc:
        return "Aff-Alloc";
      default:
        return "?";
    }
}

} // namespace affalloc
