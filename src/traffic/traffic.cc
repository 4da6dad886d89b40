#include "traffic/traffic.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/parse.hh"
#include "sim/rng.hh"
#include "workloads/run_context.hh"

namespace affalloc::traffic
{

namespace
{

// Host-core agent shape.
/** Working-set bytes the agent cycles over (quick: quartered). */
constexpr std::uint64_t hostFootprintBytes = 4ull << 20;
/** Memory instructions issued per epoch. */
constexpr std::uint32_t hostOpsPerEpoch = 2048;
/** Fraction of ops that are writes. */
constexpr double hostWriteFraction = 0.3;
/** Fraction of ops that are sequential/strided (prefetchable). */
constexpr double hostStrideFraction = 0.5;

// I/O injector shape.
/** DMA window bytes the device cycles over (quick: quartered). */
constexpr std::uint64_t ioWindowBytes = 8ull << 20;
/** Cache lines written per epoch. */
constexpr std::uint32_t ioLinesPerEpoch = 512;

/** Epoch cap of either agent without a drain signal (quick: /16). */
constexpr std::uint32_t agentMaxEpochs = 4096;

/** Whether the scheduler asked background agents to wrap up. */
bool
drainRequested(const workloads::RunContext &ctx)
{
    return ctx.config.stopRequested && *ctx.config.stopRequested;
}

/** Runner for host agent @p index (AgentClass::host). */
tenant::RunnerFn
makeHostAgent(std::uint32_t index)
{
    return [index](workloads::RunContext &ctx, std::uint64_t seed,
                   bool quick) -> workloads::RunResult {
        const sim::MachineConfig &mc = ctx.machine.config();
        const std::uint64_t bytes = std::max<std::uint64_t>(
            mc.lineSize,
            quick ? hostFootprintBytes / 4 : hostFootprintBytes);
        void *buf =
            ctx.allocator.allocPlain(static_cast<std::size_t>(bytes));
        const Addr base = ctx.machine.addressSpace().simAddrOf(buf);
        const std::uint64_t lines = std::max<std::uint64_t>(
            1, bytes / mc.lineSize);
        const CoreId core = index % mc.numTiles();
        const std::uint32_t cap = quick ? agentMaxEpochs / 16
                                        : agentMaxEpochs;

        Rng rng(seed);
        std::uint64_t cursor = 0;
        for (std::uint32_t e = 0; e < cap && !drainRequested(ctx); ++e) {
            ctx.machine.beginEpoch();
            for (std::uint32_t op = 0; op < hostOpsPerEpoch; ++op) {
                const bool strided = rng.chance(hostStrideFraction);
                const bool write = rng.chance(hostWriteFraction);
                const std::uint64_t line =
                    strided ? (cursor++ % lines) : rng.below(lines);
                ctx.machine.coreAccess(
                    core, base + line * mc.lineSize, 8,
                    write ? AccessType::write : AccessType::read,
                    /*prefetch_friendly=*/strided);
            }
            ctx.machine.endEpoch(0.0, "host");
        }
        workloads::RunResult res = ctx.finish("host_agent", true);
        res.cls = AgentClass::host;
        return res;
    };
}

/** Runner for I/O injector @p index (AgentClass::io). */
tenant::RunnerFn
makeIoStream(std::uint32_t index)
{
    return [index](workloads::RunContext &ctx, std::uint64_t seed,
                   bool quick) -> workloads::RunResult {
        const sim::MachineConfig &mc = ctx.machine.config();
        const std::uint64_t bytes = std::max<std::uint64_t>(
            mc.lineSize, quick ? ioWindowBytes / 4 : ioWindowBytes);
        void *buf =
            ctx.allocator.allocPlain(static_cast<std::size_t>(bytes));
        const Addr base = ctx.machine.addressSpace().simAddrOf(buf);
        const std::uint64_t lines = std::max<std::uint64_t>(
            1, bytes / mc.lineSize);
        // NIC/DMA engines sit at the mesh corners, like the memory
        // controllers.
        const TileId corners[4] = {0, mc.meshX - 1,
                                   mc.numTiles() - mc.meshX,
                                   mc.numTiles() - 1};
        const TileId ingress = corners[index % 4];
        const std::uint32_t cap = quick ? agentMaxEpochs / 16
                                        : agentMaxEpochs;

        Rng rng(seed);
        for (std::uint32_t e = 0; e < cap && !drainRequested(ctx); ++e) {
            ctx.machine.beginEpoch();
            // One DMA burst per epoch: a seeded start, then
            // consecutive lines — the sequential pattern real
            // descriptor rings produce.
            std::uint64_t line = rng.below(lines);
            for (std::uint32_t k = 0; k < ioLinesPerEpoch; ++k) {
                ctx.machine.ioWrite(ingress,
                                    base + (line % lines) * mc.lineSize,
                                    mc.lineSize);
                ++line;
            }
            ctx.machine.endEpoch(0.0, "io");
        }
        workloads::RunResult res = ctx.finish("io_stream", true);
        res.cls = AgentClass::io;
        return res;
    };
}

} // namespace

std::vector<tenant::TenantSpec>
makeBackgroundSpecs(const TrafficConfig &cfg)
{
    std::vector<tenant::TenantSpec> specs;
    for (std::uint32_t i = 0; i < cfg.hostAgents; ++i) {
        tenant::TenantSpec s;
        s.workload = "host_agent";
        s.cls = AgentClass::host;
        s.runner = makeHostAgent(i);
        specs.push_back(std::move(s));
    }
    for (std::uint32_t i = 0; i < cfg.ioStreams; ++i) {
        tenant::TenantSpec s;
        s.workload = "io_stream";
        s.cls = AgentClass::io;
        s.runner = makeIoStream(i);
        specs.push_back(std::move(s));
    }
    return specs;
}

sim::LlcIoPolicy
parseLlcPolicy(const std::string &text, std::uint32_t *io_ways,
               std::uint32_t l3_assoc)
{
    if (text == "ddio")
        return sim::LlcIoPolicy::ddio;
    if (text == "bypass")
        return sim::LlcIoPolicy::bypass;
    if (text == "way" || text.rfind("way:", 0) == 0) {
        if (text.size() > 4) {
            *io_ways = static_cast<std::uint32_t>(
                sim::parseCount("traffic", "--llc-policy way share",
                                text.substr(4), l3_assoc - 1, 1));
        }
        if (*io_ways == 0 || *io_ways >= l3_assoc)
            SIM_FATAL("traffic", "--llc-policy=way:K needs K in [1, %u), "
                      "got %u", l3_assoc, *io_ways);
        return sim::LlcIoPolicy::wayRestrict;
    }
    SIM_FATAL("traffic", "unknown LLC I/O policy '%s' (ddio, way[:K], "
              "bypass)", text.c_str());
    return sim::LlcIoPolicy::ddio;
}

sim::ClassArbConfig
parseClassBw(const std::string &text)
{
    sim::ClassArbConfig arb;
    if (text == "none")
        return arb;
    if (text == "prio" || text.rfind("prio:", 0) == 0) {
        arb.mode = sim::ClassArbMode::priority;
        if (text.size() > 5)
            arb.yieldPenalty =
                sim::parseReal("traffic", "--class-bw=prio yield penalty",
                               text.substr(5));
        return arb;
    }
    if (text.rfind("part:", 0) == 0) {
        arb.mode = sim::ClassArbMode::partition;
        const std::string rest = text.substr(5);
        std::vector<std::string> pieces;
        std::size_t pos = 0;
        while (true) {
            const std::size_t comma = rest.find(',', pos);
            pieces.push_back(rest.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos));
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        if (pieces.size() != static_cast<std::size_t>(numAgentClasses))
            SIM_FATAL("traffic", "--class-bw=part needs exactly %d "
                      "comma-separated shares (ndc,host,io), got '%s'",
                      numAgentClasses, text.c_str());
        for (int idx = 0; idx < numAgentClasses; ++idx) {
            const double share =
                sim::parseReal("traffic", "--class-bw=part share",
                               pieces[idx]);
            if (share <= 0.0)
                SIM_FATAL("traffic", "--class-bw=part shares must be "
                          "positive, got %g for %s", share,
                          agentClassName(static_cast<AgentClass>(idx)));
            arb.share[idx] = share;
        }
        return arb;
    }
    SIM_FATAL("traffic", "unknown class bandwidth spec '%s' (none, "
              "part:NDC,HOST,IO, prio[:PENALTY])", text.c_str());
    return arb;
}

} // namespace affalloc::traffic
