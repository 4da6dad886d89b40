/**
 * @file
 * Name-indexed registry of co-runnable workloads plus the
 * `--tenants=<spec>` parser. Each registry entry adapts one Table 3
 * workload to run on a caller-provided RunContext with a per-tenant
 * RNG substream seed, so the same entry serves both co-run tenants
 * (shared machine, private arena) and their solo baselines.
 */

#ifndef AFFALLOC_TENANT_WORKLOAD_REGISTRY_HH
#define AFFALLOC_TENANT_WORKLOAD_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workloads/run_context.hh"

namespace affalloc::tenant
{

/**
 * Run the workload on @p ctx. @p seed is the tenant's RNG substream
 * seed (drives workload-private randomness such as pointer-chase keys
 * and Kronecker edges); @p quick selects the reduced CI-scale inputs.
 */
using RunnerFn = std::function<workloads::RunResult(
    workloads::RunContext &ctx, std::uint64_t seed, bool quick)>;

/** One tenant instance requested on the command line. */
struct TenantSpec
{
    /** Registry workload name (see workloadNames()). */
    std::string workload;
    /** Scheduling weight (epochs per round under the weighted policy). */
    std::uint32_t weight = 1;
    /** Traffic class this agent belongs to (ndc = classic tenant). */
    AgentClass cls = AgentClass::ndc;
    /**
     * Explicit runner for non-registry agents (host traffic / I/O
     * injectors from src/traffic). Null (the default) resolves
     * `workload` through the registry.
     */
    RunnerFn runner = nullptr;
};

/** All registered workload names, in stable order. */
const std::vector<std::string> &workloadNames();

/** Whether @p name is a registered workload. */
bool isWorkloadName(const std::string &name);

/**
 * The runner for @p name. Unknown names SIM_FATAL with a message
 * listing every registered workload.
 */
RunnerFn workloadRunner(const std::string &name);

/**
 * Parse a tenant spec such as "bfs:2,vecadd:1" into one TenantSpec
 * per instance. Grammar: `name[:count[:weight]]` comma-separated;
 * count (1..1024) expands to that many instances, weight defaults to
 * 1; both are strict counts (sim::parseCount). Malformed specs and
 * unknown workload names SIM_FATAL with the list of valid names.
 */
std::vector<TenantSpec> parseTenantSpecs(const std::string &spec);

} // namespace affalloc::tenant

#endif // AFFALLOC_TENANT_WORKLOAD_REGISTRY_HH
