/**
 * @file
 * Heterogeneous background traffic classes for datacenter co-location
 * runs: host-core agents issuing ordinary cacheline read/write streams
 * (CHoNDA-style concurrent host traffic) and DMA/NIC-style I/O
 * injectors whose writes allocate straight into L3 (DDIO/A4-style).
 * Both are first-class scheduler participants — regular TenantSpecs
 * with an explicit runner and a non-ndc AgentClass — so they get the
 * same deterministic quantum interleaving, RNG substreams, and exact
 * stats attribution as NDC tenants. The flag parsers for the
 * interference CLI surface live here too: garbage dies at parse time
 * with a clear message, never mid-run.
 */

#ifndef AFFALLOC_TRAFFIC_TRAFFIC_HH
#define AFFALLOC_TRAFFIC_TRAFFIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "tenant/workload_registry.hh"

namespace affalloc::traffic
{

/** One host-core background agent (AgentClass::host). */
struct HostAgentParams
{
    /** Agent index; picks the issuing core (index % tiles). */
    std::uint32_t index = 0;
    /** Working-set bytes the agent cycles over (quick: quartered). */
    std::uint64_t footprintBytes = 4ull << 20;
    /** Memory instructions issued per epoch. */
    std::uint32_t opsPerEpoch = 2048;
    /** Fraction of ops that are writes. */
    double writeFraction = 0.3;
    /** Fraction of ops that are sequential/strided (prefetchable). */
    double strideFraction = 0.5;
    /** Epoch cap when no drain signal arrives (quick: divided by 16). */
    std::uint32_t maxEpochs = 4096;
};

/** One DMA/NIC-style I/O injector (AgentClass::io). */
struct IoStreamParams
{
    /** Stream index; picks the ingress corner tile (index % 4). */
    std::uint32_t index = 0;
    /** DMA window bytes the device cycles over (quick: quartered). */
    std::uint64_t windowBytes = 8ull << 20;
    /** Cache lines written per epoch. */
    std::uint32_t linesPerEpoch = 512;
    /** Epoch cap when no drain signal arrives (quick: divided by 16). */
    std::uint32_t maxEpochs = 4096;
};

/**
 * Runner for a host-core agent: allocates its footprint from the
 * tenant arena, then issues seeded read/write cacheline streams
 * through the classic TLB/L1/L2/L3/DRAM path (no offload) until the
 * scheduler's drain signal (RunConfig::stopRequested) or the epoch
 * cap. The returned RunResult carries AgentClass::host.
 */
tenant::RunnerFn makeHostAgent(const HostAgentParams &p);

/**
 * Runner for an I/O injector: allocates its DMA window, then writes
 * seeded line bursts from a mesh-corner ingress tile via
 * Machine::ioWrite — landing in L3 or DRAM per the configured
 * LlcIoPolicy. The returned RunResult carries AgentClass::io.
 */
tenant::RunnerFn makeIoStream(const IoStreamParams &p);

/** Background interference requested on the command line. */
struct TrafficConfig
{
    /** Concurrent host-core agents (0 = none). */
    std::uint32_t hostAgents = 0;
    /** Concurrent I/O injector streams (0 = none). */
    std::uint32_t ioStreams = 0;

    bool any() const { return hostAgents > 0 || ioStreams > 0; }
};

/**
 * Expand @p cfg into background TenantSpecs (runner + class set) that
 * can be appended to a closed co-run's spec list or admitted as
 * open-system jobs. Workload names are "host_agent" / "io_stream".
 */
std::vector<tenant::TenantSpec> makeBackgroundSpecs(const TrafficConfig &cfg);

/**
 * Parse --llc-policy: "ddio" | "way[:K]" | "bypass". K (default:
 * *io_ways untouched) is the way-restricted allocation share and must
 * sit in [1, l3_assoc). SIM_FATALs on violation.
 */
sim::LlcIoPolicy parseLlcPolicy(const std::string &text,
                                std::uint32_t *io_ways,
                                std::uint32_t l3_assoc);

/**
 * Parse --class-bw: "none" | "part:NDC,HOST,IO" | "prio[:PENALTY]".
 * Shares must be positive reals; the penalty non-negative. SIM_FATALs
 * on violation.
 */
sim::ClassArbConfig parseClassBw(const std::string &text);

} // namespace affalloc::traffic

#endif // AFFALLOC_TRAFFIC_TRAFFIC_HH
