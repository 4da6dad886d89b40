/**
 * @file
 * google-benchmark micro-benchmarks of the library's hot paths: the
 * allocator's affine and irregular fast paths per policy, the
 * irregular free path, host -> simulated address translation, bank
 * lookups through the IOT, mesh routing, NoC accounting, the cache
 * tag model, and power-law input generation. These measure the
 * *simulator's own* performance (host time), complementing the figure
 * benches which report simulated time.
 */

#include <benchmark/benchmark.h>

#include <new>
#include <utility>
#include <vector>

#include "ds/pointer_structs.hh"
#include "graph/generators.hh"
#include "nsc/stream_executor.hh"
#include "os/sim_os.hh"
#include "sim/rng.hh"
#include "workloads/run_context.hh"

using namespace affalloc;
using workloads::RunConfig;
using workloads::RunContext;

namespace
{

RunConfig
configFor(alloc::BankPolicy policy)
{
    RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
    rc.allocOpts.policy = policy;
    return rc;
}

void
BM_IrregularAlloc(benchmark::State &state)
{
    const auto policy = static_cast<alloc::BankPolicy>(state.range(0));
    RunContext ctx(configFor(policy));
    void *anchor = ctx.allocator.allocInterleaved(64 * 64, 64, 0);
    const void *aff[1] = {anchor};
    std::vector<void *> live;
    live.reserve(1 << 20);
    for (auto _ : state) {
        live.push_back(ctx.allocator.mallocAff(64, 1, aff));
        if (live.size() >= (1 << 16)) {
            state.PauseTiming();
            for (void *p : live)
                ctx.allocator.freeAff(p);
            live.clear();
            state.ResumeTiming();
        }
    }
    for (void *p : live)
        ctx.allocator.freeAff(p);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IrregularAlloc)
    ->Arg(int(alloc::BankPolicy::random))
    ->Arg(int(alloc::BankPolicy::linear))
    ->Arg(int(alloc::BankPolicy::minHop))
    ->Arg(int(alloc::BankPolicy::hybrid));

void
BM_IrregularFree(benchmark::State &state)
{
    // Frees of Hybrid-placed 64 B slots; each batch is allocated with
    // the clock paused and freed in a scrambled order.
    RunContext ctx(configFor(alloc::BankPolicy::hybrid));
    void *anchor = ctx.allocator.allocInterleaved(64 * 64, 64, 0);
    const void *aff[1] = {anchor};
    constexpr std::size_t batch = 1 << 16;
    std::vector<void *> live;
    live.reserve(batch);
    std::size_t next = 0;
    Rng rng(6);
    for (auto _ : state) {
        if (next == live.size()) {
            state.PauseTiming();
            live.clear();
            for (std::size_t i = 0; i < batch; ++i)
                live.push_back(ctx.allocator.mallocAff(64, 1, aff));
            for (std::size_t i = batch - 1; i > 0; --i)
                std::swap(live[i], live[rng.below(i + 1)]);
            next = 0;
            state.ResumeTiming();
        }
        ctx.allocator.freeAff(live[next++]);
    }
    for (; next < live.size(); ++next)
        ctx.allocator.freeAff(live[next]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IrregularFree);

void
BM_HostTranslate(benchmark::State &state)
{
    // 32 k live host ranges as a serving run leaves them: 24 B list
    // nodes from the host heap interleaved with 4 kB slot stripes, each
    // registered against its own simulated range; lookups hit random
    // bytes of random ranges.
    constexpr int numRanges = 32 * 1024;
    mem::AddressSpace as;
    std::vector<std::pair<char *, std::size_t>> ranges;
    ranges.reserve(numRanges);
    Rng rng(7);
    Addr sim = mem::poolVirtBase;
    for (int i = 0; i < numRanges; ++i) {
        const std::size_t bytes = rng.below(8) == 0 ? 4096 : 24;
        auto *host = static_cast<char *>(
            ::operator new(bytes, std::align_val_t(64)));
        as.registerRange(host, bytes, sim);
        sim += 4096;
        ranges.emplace_back(host, bytes);
    }
    std::vector<const void *> probes(1 << 16);
    for (const void *&p : probes) {
        const auto &[host, bytes] = ranges[rng.below(numRanges)];
        p = host + rng.below(bytes);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(as.simAddrOf(probes[i]));
        i = (i + 1) & (probes.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
    for (const auto &[host, bytes] : ranges) {
        as.unregisterRange(host);
        ::operator delete(host, std::align_val_t(64));
    }
}
BENCHMARK(BM_HostTranslate);

void
BM_AffineAlloc(benchmark::State &state)
{
    RunContext ctx(configFor(alloc::BankPolicy::hybrid));
    alloc::AffineArray req;
    req.elem_size = 4;
    req.num_elem = 1024;
    void *first = ctx.allocator.mallocAff(req);
    req.align_to = first;
    for (auto _ : state)
        benchmark::DoNotOptimize(ctx.allocator.mallocAff(req));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AffineAlloc);

void
BM_BankLookup(benchmark::State &state)
{
    RunContext ctx(configFor(alloc::BankPolicy::hybrid));
    void *arr = ctx.allocator.allocInterleaved(1 << 20, 64, 0);
    const Addr sim = ctx.machine.addressSpace().simAddrOf(arr);
    Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ctx.machine.bankOfSim(sim + rng.below(1 << 20)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BankLookup);

void
BM_MeshRoute(benchmark::State &state)
{
    noc::Mesh mesh(8, 8);
    std::vector<noc::LinkId> links;
    Rng rng(6);
    for (auto _ : state) {
        links.clear();
        mesh.route(TileId(rng.below(64)), TileId(rng.below(64)), links);
        benchmark::DoNotOptimize(links.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshRoute);

void
BM_NetworkSend(benchmark::State &state)
{
    sim::MachineConfig cfg;
    sim::Stats stats;
    noc::Network net(cfg, stats);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.send(TileId(rng.below(64)),
                                          TileId(rng.below(64)), 64,
                                          TrafficClass::data));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSend);

/**
 * What a message costs the NoC model end to end: BM_NetworkSend times
 * only the pending (src, dst) add, so this adds the epoch close that
 * expands the batch of range(0) random messages onto the links.
 * Reported per message.
 */
void
BM_NetworkEpoch(benchmark::State &state)
{
    const auto batch = static_cast<std::uint64_t>(state.range(0));
    sim::MachineConfig cfg;
    sim::Stats stats;
    noc::Network net(cfg, stats);
    Rng rng(7);
    for (auto _ : state) {
        for (std::uint64_t i = 0; i < batch; ++i) {
            net.send(TileId(rng.below(64)), TileId(rng.below(64)), 64,
                     TrafficClass::data);
        }
        benchmark::DoNotOptimize(net.maxLinkFlits());
        net.resetEpoch();
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_NetworkEpoch)->Arg(1024)->Arg(65536);

/**
 * L3 tag probes spread uniformly over range(0) Table 2 slices (1 MB,
 * 16-way, hashed index), warmed with exactly their capacity of lines
 * in the physical heap range. One slice's 64 kB of tags fits in a
 * host core's L2; the 4 MB of 64 slices (one machine's L3) generally
 * does not, so the second footprint shows the cost of host cache
 * misses in the tag store.
 */
void
BM_CacheAccess(benchmark::State &state)
{
    const auto slices = static_cast<std::uint64_t>(state.range(0));
    constexpr std::uint64_t sliceLines = (1 << 20) / 64;
    const Addr base = mem::heapPhysBase / 64;
    std::vector<mem::CacheModel> l3;
    l3.reserve(slices);
    for (std::uint64_t b = 0; b < slices; ++b)
        l3.emplace_back(1 << 20, 16, 64, /*hashed_index=*/true);
    const std::uint64_t lines = slices * sliceLines;
    for (std::uint64_t i = 0; i < lines; ++i)
        l3[i % slices].access(base + i, false);
    Rng rng(8);
    for (auto _ : state) {
        const std::uint64_t i = rng.below(lines);
        benchmark::DoNotOptimize(
            l3[i % slices].access(base + i, false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(64);

/**
 * Power-law input generation end to end (cutpoint sampling, then the
 * CSR build's sort), at the graph benchmark's exponent and average
 * degree on 16 k vertices. `edge_time` is the host time per generated
 * edge.
 */
void
BM_PowerLaw(benchmark::State &state)
{
    constexpr graph::VertexId vertices = 16 * 1024;
    constexpr std::uint64_t edges = 256 * 1024;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            graph::powerLaw(vertices, edges, 2.2, seed++, true).numEdges());
    }
    state.counters["edge_time"] = benchmark::Counter(
        double(edges), benchmark::Counter::kIsIterationInvariantRate |
                           benchmark::Counter::kInvert);
}
BENCHMARK(BM_PowerLaw)->Unit(benchmark::kMillisecond);

void
BM_StreamStep(benchmark::State &state)
{
    RunContext ctx(configFor(alloc::BankPolicy::hybrid));
    void *arr = ctx.allocator.allocInterleaved(1 << 20, 64, 0);
    const Addr sim = ctx.machine.addressSpace().simAddrOf(arr);
    ctx.machine.preloadL3Range(sim, 1 << 20);
    nsc::MigratingStream st(0);
    ctx.machine.beginEpoch();
    Rng rng(9);
    for (auto _ : state) {
        ctx.exec.streamStep(st, sim + (rng.below(1 << 14)) * 64, 8,
                            AccessType::read, false);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamStep);

} // namespace

BENCHMARK_MAIN();
