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
 *
 * A host agent (AgentClass::host) allocates its footprint from the
 * tenant arena, then issues seeded read/write cacheline streams
 * through the classic TLB/L1/L2/L3/DRAM path (no offload) from core
 * index % tiles. An I/O injector (AgentClass::io) allocates its DMA
 * window, then writes seeded line bursts from mesh corner index % 4
 * via Machine::ioWrite, landing in L3 or DRAM per the configured
 * LlcIoPolicy. Both run until the scheduler's drain signal
 * (RunConfig::stopRequested) or their epoch cap.
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
