#include "tenant/workload_registry.hh"

#include <cstdint>

#include "graph/generators.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

namespace affalloc::tenant
{

namespace
{

using workloads::RunContext;
using workloads::RunResult;

/** Build the tenant's private graph (seeded by its substream). */
graph::Csr
tenantGraph(std::uint64_t seed, bool quick)
{
    graph::KroneckerParams kp;
    kp.scale = quick ? 14 : 17;
    kp.edgeFactor = 16;
    kp.seed = seed;
    return graph::kronecker(kp);
}

workloads::GraphParams
graphParams(const graph::Csr &g, bool quick)
{
    workloads::GraphParams p;
    p.graph = &g;
    p.iters = quick ? 2 : 8;
    return p;
}

struct Entry
{
    const char *name;
    RunnerFn fn;
};

const std::vector<Entry> &
registry()
{
    using namespace workloads;
    static const std::vector<Entry> entries = {
        {"vecadd",
         [](RunContext &ctx, std::uint64_t, bool quick) {
             VecAddParams p;
             if (quick)
                 p.n = 187'500;
             p.layout = ctx.affinity() ? VecAddLayout::affinity
                                       : VecAddLayout::heapLinear;
             return runVecAdd(ctx, p);
         }},
        {"pathfinder",
         [](RunContext &ctx, std::uint64_t, bool quick) {
             PathfinderParams p;
             if (quick)
                 p.cols = 187'500;
             return runPathfinder(ctx, p);
         }},
        {"hotspot",
         [](RunContext &ctx, std::uint64_t, bool quick) {
             HotspotParams p;
             if (quick) {
                 p.rows = 512;
                 p.cols = 512;
             }
             return runHotspot(ctx, p);
         }},
        {"srad",
         [](RunContext &ctx, std::uint64_t, bool quick) {
             SradParams p;
             if (quick) {
                 p.rows = 512;
                 p.cols = 512;
             }
             return runSrad(ctx, p);
         }},
        {"hotspot3d",
         [](RunContext &ctx, std::uint64_t, bool quick) {
             Hotspot3dParams p;
             if (quick)
                 p.ny = 256;
             return runHotspot3d(ctx, p);
         }},
        {"pr",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             // §6: pull for In-Core, push for the NSC modes.
             const graph::Csr g = tenantGraph(seed, quick);
             const auto p = graphParams(g, quick);
             return ctx.config.mode == ExecMode::inCore
                        ? runPageRankPull(ctx, p)
                        : runPageRankPush(ctx, p);
         }},
        {"pr_push",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             const graph::Csr g = tenantGraph(seed, quick);
             return runPageRankPush(ctx, graphParams(g, quick));
         }},
        {"pr_pull",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             const graph::Csr g = tenantGraph(seed, quick);
             return runPageRankPull(ctx, graphParams(g, quick));
         }},
        {"bfs",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             const graph::Csr g = tenantGraph(seed, quick);
             return runBfs(ctx, graphParams(g, quick),
                           defaultBfsStrategy(ctx.config.mode))
                 .run;
         }},
        {"sssp",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             const graph::Csr g = tenantGraph(seed, quick);
             return runSssp(ctx, graphParams(g, quick));
         }},
        {"sssp_pq",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             const graph::Csr g = tenantGraph(seed, quick);
             return runSsspPq(ctx, graphParams(g, quick));
         }},
        {"link_list",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             LinkListParams p;
             if (quick) {
                 p.numLists = 256;
                 p.nodesPerList = 128;
             }
             p.seed = seed;
             return runLinkList(ctx, p);
         }},
        {"churn_list",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             ChurnListParams p;
             if (quick) {
                 p.numLists = 192;
                 p.nodesPerList = 96;
                 p.rounds = 12;
             }
             p.seed = seed;
             return runChurnList(ctx, p);
         }},
        {"hash_join",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             HashJoinParams p;
             if (quick) {
                 p.buildRows = 32 * 1024;
                 p.probeRows = 64 * 1024;
                 p.numBuckets = 8 * 1024;
             }
             p.seed = seed;
             return runHashJoin(ctx, p);
         }},
        {"bin_tree",
         [](RunContext &ctx, std::uint64_t seed, bool quick) {
             BinTreeParams p;
             if (quick) {
                 p.numNodes = 32 * 1024;
                 p.numLookups = 64 * 1024;
             }
             p.seed = seed;
             return runBinTree(ctx, p);
         }},
    };
    return entries;
}

std::string
namesCsv()
{
    std::string s;
    for (const auto &n : workloadNames()) {
        if (!s.empty())
            s += ", ";
        s += n;
    }
    return s;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &e : registry())
            v.emplace_back(e.name);
        return v;
    }();
    return names;
}

bool
isWorkloadName(const std::string &name)
{
    for (const auto &e : registry())
        if (name == e.name)
            return true;
    return false;
}

RunnerFn
workloadRunner(const std::string &name)
{
    for (const auto &e : registry())
        if (name == e.name)
            return e.fn;
    SIM_FATAL("tenant", "unknown workload '%s'; available: %s",
              name.c_str(), namesCsv().c_str());
    return {};
}

std::vector<TenantSpec>
parseTenantSpecs(const std::string &spec)
{
    // More instances of one entry than this are a typo.
    constexpr std::uint64_t maxInstances = 1024;
    std::vector<TenantSpec> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string item =
            spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (item.empty()) {
            SIM_FATAL("tenant",
                      "empty tenant entry in spec '%s'; expected "
                      "name[:count[:weight]],...",
                      spec.c_str());
        }
        // name[:count[:weight]]
        std::string name = item;
        std::uint64_t count = 1;
        std::uint64_t weight = 1;
        const std::size_t c1 = item.find(':');
        if (c1 != std::string::npos) {
            name = item.substr(0, c1);
            const std::size_t c2 = item.find(':', c1 + 1);
            const std::string countStr =
                item.substr(c1 + 1, c2 == std::string::npos
                                        ? std::string::npos
                                        : c2 - c1 - 1);
            const std::string weightStr =
                c2 == std::string::npos ? "" : item.substr(c2 + 1);
            const std::string origin = "tenant entry '" + item + "' ";
            count = sim::parseCount("tenant", (origin + "count").c_str(),
                                    countStr, maxInstances, 1);
            if (!weightStr.empty()) {
                weight = sim::parseCount("tenant",
                                         (origin + "weight").c_str(),
                                         weightStr, UINT32_MAX, 1);
            } else if (c2 != std::string::npos) {
                SIM_FATAL("tenant", "trailing ':' in tenant entry '%s'",
                          item.c_str());
            }
        }
        if (!isWorkloadName(name)) {
            SIM_FATAL("tenant",
                      "unknown workload '%s' in tenant spec; "
                      "available: %s",
                      name.c_str(), namesCsv().c_str());
        }
        for (std::uint64_t i = 0; i < count; ++i)
            out.push_back(
                {.workload = name,
                 .weight = static_cast<std::uint32_t>(weight)});
        if (comma == std::string::npos)
            break;
    }
    if (out.empty())
        SIM_FATAL("tenant", "tenant spec '%s' names no tenants",
                  spec.c_str());
    return out;
}

} // namespace affalloc::tenant
