/**
 * @file
 * Benchmark driver: runs one workload (stencil, graph or serve) through
 * the simulator's public API in repeated passes and prints one JSON
 * record per line on stdout. perfbench/run.py builds this program,
 * checks the records and turns them into the benchmark's metrics.
 *
 *   perfbench_driver --workload stencil|graph|serve --seed N
 *                    --seconds S --trace 0|1
 *
 * Records ("kind" field):
 *   run    one run* / runServe call: validity, digest, simulated
 *          counts, host set-up and call time (serve's solo runs of each
 *          request class, keyed solo/<class>, run off both clocks
 *          after their machines are built in set-up)
 *   pass   one pass over the workload: host set-up and call time, and
 *          the mean time of the host-speed calibration loop
 *   span   (traced passes) a benchmark-side span: name, parent, ns
 *   profile / phase / pool
 *          (traced passes) the self-profiler's harvest
 *   probe  (trace 1) per-op host ns of one layer function
 *   rss    the process's peak RSS after the warm-up pass
 *
 * Pass 0 is a warm-up, checked but left out of the medians; measured
 * passes continue until --seconds of timed calls have run (at least
 * minPasses). Every pass simulates the same inputs, so every simulated
 * number must repeat exactly across passes.
 * With --trace 1 the driver also runs one traced pass with the
 * self-profiler on, one traced st-2 replay pass (stencil) and the
 * per-op probes. Timed passes run one simulating thread with all
 * tracing off.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hh"
#include "mem/cache_model.hh"
#include "noc/network.hh"
#include "serve/serve.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"
#include "tenant/workload_registry.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"

using namespace affalloc;
using workloads::RunConfig;
using workloads::RunContext;
using workloads::RunResult;

namespace
{

/** Measured passes per run never drop below this, however slow. */
constexpr int minPasses = 2;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg.c_str());
    std::exit(2);
}

[[noreturn]] void
usage(const std::string &msg)
{
    fail(msg + "\nusage: perfbench_driver --workload stencil|graph|serve "
               "--seed N --seconds S --trace 0|1");
}

/**
 * Benchmark-side spans around public calls. Recording is on only in
 * traced passes; spans stay in memory and are printed at the end.
 */
class Spans
{
  public:
    void setEnabled(bool on) { on_ = on; }

    int
    open(const char *name, int pass)
    {
        if (!on_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, parent, pass, nowNs(), 0});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[id].t1 = nowNs();
        stack_.pop_back();
    }

    void
    print() const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::printf("{\"kind\":\"span\",\"id\":%zu,\"parent\":%d,"
                        "\"pass\":%d,\"name\":\"%s\",\"start_ns\":%llu,"
                        "\"end_ns\":%llu}\n",
                        i, s.parent, s.pass, s.name,
                        static_cast<unsigned long long>(s.t0),
                        static_cast<unsigned long long>(s.t1));
        }
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        int pass;
        std::uint64_t t0;
        std::uint64_t t1;
    };
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Host-speed calibration. The speed of a shared host drifts by tens of
 * percent over minutes, and a slow spell stretches every host time of
 * a pass alike. After each timed call of a measured pass the driver
 * times a fixed loop of dependent random read-modify-writes over 16 MB,
 * 4 MB and 256 KB of its own table; run.py scales the pass's host times
 * by a reference calibration time over the pass's mean. The loop never
 * calls the simulator, so a change to src/ cannot move it.
 */
class Calibrator
{
  public:
    /** Run the loop once; return its host ns. */
    std::uint64_t
    run()
    {
        if (table_.empty()) {
            table_.resize(std::size_t(1) << 21);
            for (std::size_t i = 0; i < table_.size(); ++i)
                table_[i] = i * 0x9e3779b97f4a7c15ULL;
        }
        const std::uint64_t t0 = nowNs();
        walk(table_.size() - 1, 20'000);
        walk((std::size_t(1) << 19) - 1, 50'000);
        walk((std::size_t(1) << 15) - 1, 133'000);
        return nowNs() - t0;
    }

  private:
    void
    walk(std::uint64_t mask, int steps)
    {
        for (int i = 0; i < steps; ++i) {
            x_ ^= x_ << 13;
            x_ ^= x_ >> 7;
            x_ ^= x_ << 17;
            std::uint64_t &e = table_[(x_ ^ acc_) & mask];
            acc_ += e;
            e += acc_ >> 3;
        }
    }

    std::vector<std::uint64_t> table_;
    std::uint64_t x_ = 88172645463325252ULL;
    std::uint64_t acc_ = 0;
};

/** One pass over a workload: host time split into set-up and calls. */
class Pass
{
  public:
    /** @p cal: null for the warm-up pass, which needs no calibration. */
    Pass(int index, Calibrator *cal, unsigned sim_threads, Spans &spans)
        : index_(index), cal_(cal), simThreads_(sim_threads), spans_(spans)
    {
        span_ = spans_.open("pass", index_);
    }

    /** Time @p f as set-up (inputs, simulated machines). */
    template <class F>
    auto
    setup(const char *name, F &&f)
    {
        return measure(name, setupNs_, std::forward<F>(f));
    }

    /** Time @p f as one timed public call. */
    template <class F>
    auto
    timed(const char *name, F &&f)
    {
        auto r = measure(name, wallNs_, std::forward<F>(f));
        if (cal_) {
            calNs_ += cal_->run();
            ++calCalls_;
        }
        return r;
    }

    unsigned simThreads() const { return simThreads_; }
    int index() const { return index_; }
    std::uint64_t lastNs() const { return lastNs_; }

    /** Close the pass and print its record. */
    void
    finish()
    {
        spans_.close(span_);
        std::printf("{\"kind\":\"pass\",\"pass\":%d,\"warmup\":%s,"
                    "\"sim_threads\":%u,\"wall_s\":%.9f,"
                    "\"setup_s\":%.9f,\"cal_ns\":%.1f}\n",
                    index_, cal_ ? "false" : "true", simThreads_,
                    wallNs_ * 1e-9, setupNs_ * 1e-9,
                    calCalls_ ? double(calNs_) / calCalls_ : 0.0);
        std::fflush(stdout);
    }

    double wallS() const { return wallNs_ * 1e-9; }

  private:
    template <class F>
    auto
    measure(const char *name, std::uint64_t &sum, F &&f)
    {
        const int id = spans_.open(name, index_);
        const std::uint64_t t0 = nowNs();
        auto r = f();
        lastNs_ = nowNs() - t0;
        sum += lastNs_;
        spans_.close(id);
        return r;
    }

    int index_;
    Calibrator *cal_;
    unsigned simThreads_;
    Spans &spans_;
    int span_ = -1;
    std::uint64_t setupNs_ = 0;
    std::uint64_t wallNs_ = 0;
    std::uint64_t lastNs_ = 0;
    std::uint64_t calNs_ = 0;
    std::uint64_t calCalls_ = 0;
};

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Print the record of one run* call made on @p ctx. */
void
printRun(int pass, const std::string &key, const RunResult &r,
         const RunContext &ctx, double setup_s, double wall_s)
{
    const sim::Stats &s = r.stats;
    const alloc::AllocStats &a = ctx.allocator.allocStats();
    std::printf(
        "{\"kind\":\"run\",\"pass\":%d,\"key\":\"%s\",\"mode\":\"%s\","
        "\"valid\":%s,\"digest\":\"%s\",\"cycles\":%llu,"
        "\"setup_s\":%.9f,\"wall_s\":%.9f,"
        "\"l1_accesses\":%llu,\"l2_accesses\":%llu,"
        "\"l3_accesses\":%llu,\"l3_misses\":%llu,\"tlb_walks\":%llu,"
        "\"dram_accesses\":%llu,\"dram_bytes\":%llu,\"hops\":%llu,"
        "\"flit_hops\":%llu,\"epochs\":%llu,\"stream_configs\":%llu,"
        "\"aborted_epochs\":%llu,\"offload_retries\":%llu,"
        "\"fallbacks\":%llu,\"region_reuses\":%llu}\n",
        pass, key.c_str(), execModeName(r.mode),
        r.valid ? "true" : "false", hex(r.digest()).c_str(),
        static_cast<unsigned long long>(r.cycles()), setup_s, wall_s,
        static_cast<unsigned long long>(s.l1Accesses),
        static_cast<unsigned long long>(s.l2Accesses),
        static_cast<unsigned long long>(s.l3Accesses),
        static_cast<unsigned long long>(s.l3Misses),
        static_cast<unsigned long long>(s.tlbWalks),
        static_cast<unsigned long long>(s.dramAccesses),
        static_cast<unsigned long long>(s.dramBytes),
        static_cast<unsigned long long>(s.totalHops()),
        static_cast<unsigned long long>(s.totalFlitHops()),
        static_cast<unsigned long long>(s.epochs),
        static_cast<unsigned long long>(s.streamConfigs),
        static_cast<unsigned long long>(s.abortedEpochs),
        static_cast<unsigned long long>(s.offloadRetries),
        static_cast<unsigned long long>(a.fallbacks),
        static_cast<unsigned long long>(a.regionReuses));
}

RunConfig
configFor(ExecMode mode, unsigned sim_threads)
{
    RunConfig rc = RunConfig::forMode(mode);
    rc.machine.simThreads = sim_threads;
    return rc;
}

constexpr ExecMode compared[2] = {ExecMode::nearL3, ExecMode::affAlloc};

/** A named run* call on a caller-built context. */
using Kernel =
    std::pair<const char *, std::function<RunResult(RunContext &)>>;

/** Build a context for @p rc as set-up, then time one run* call. */
void
runPoint(Pass &pass, const std::string &key, const RunConfig &rc,
         const Kernel &k)
{
    auto ctx = pass.setup("nsc/context_build", [&] {
        return std::make_unique<RunContext>(rc);
    });
    const double setup_s = pass.lastNs() * 1e-9;
    const RunResult r = pass.timed(k.first, [&] { return k.second(*ctx); });
    printRun(pass.index(), key, r, *ctx, setup_s, pass.lastNs() * 1e-9);
}

// ------------------------------------------------------------ stencil

/**
 * Stencil inputs at two scales: "fit" keeps every kernel's arrays well
 * inside the 64 MB L3, "spill" makes them larger than it. The kernels
 * draw their cell values from fixed seeds inside the library, so
 * --seed does not change stencil's inputs.
 */
struct StencilScale
{
    const char *name;
    /** Cells of hotspot, srad and hotspot3D (3 float arrays each). */
    std::uint64_t cells;
    int iters;
    /** Columns of pathfinder's wall, which has pathIters rows; its
     *  first row is the input, so it needs two rows to do any work. */
    std::uint64_t pathCols;
    int pathIters;
};
constexpr StencilScale stencilScales[2] = {
    {"fit", 256 * 1024, 2, 187'500, 2},
    {"spill", 6 * 1024 * 1024, 1, 4'500'000, 2},
};

std::vector<Kernel>
stencilKernels(const StencilScale &s)
{
    return {
        {"hotspot",
         [s](RunContext &ctx) {
             workloads::HotspotParams p;
             p.cols = 1024;
             p.rows = s.cells / p.cols;
             p.iters = s.iters;
             return workloads::runHotspot(ctx, p);
         }},
        {"srad",
         [s](RunContext &ctx) {
             workloads::SradParams p;
             p.cols = 2048;
             p.rows = s.cells / p.cols;
             p.iters = s.iters;
             return workloads::runSrad(ctx, p);
         }},
        {"pathfinder",
         [s](RunContext &ctx) {
             workloads::PathfinderParams p;
             p.cols = s.pathCols;
             p.iters = s.pathIters;
             return workloads::runPathfinder(ctx, p);
         }},
        {"hotspot3D",
         [s](RunContext &ctx) {
             workloads::Hotspot3dParams p;
             p.nz = s.cells / (p.nx * p.ny);
             p.iters = s.iters;
             return workloads::runHotspot3d(ctx, p);
         }},
    };
}

void
stencilPass(Pass &pass)
{
    for (const StencilScale &s : stencilScales)
        for (const Kernel &k : stencilKernels(s))
            for (ExecMode mode : compared)
                runPoint(pass, std::string(s.name) + "/" + k.first,
                         configFor(mode, pass.simThreads()), k);
}

// -------------------------------------------------------------- graph

/** Power-law input: average degree 16, ~1.5 M edges. */
constexpr std::uint64_t graphEdges = 1'500'000;
constexpr std::uint64_t graphDegree = 16;
constexpr double graphExponent = 2.2;
constexpr int pageRankIters = 2;

void
graphPass(Pass &pass, std::uint64_t seed)
{
    const graph::Csr g = pass.setup("graph/generate", [&] {
        return graph::powerLaw(
            static_cast<graph::VertexId>(graphEdges / graphDegree),
            graphEdges, graphExponent, seed, /*weighted=*/true);
    });
    std::printf("{\"kind\":\"input\",\"pass\":%d,\"vertices\":%llu,"
                "\"edges\":%llu,\"generate_s\":%.9f}\n",
                pass.index(),
                static_cast<unsigned long long>(g.numVertices),
                static_cast<unsigned long long>(g.numEdges()),
                pass.lastNs() * 1e-9);
    workloads::GraphParams p;
    p.graph = &g;
    p.iters = pageRankIters;
    // SSSP starts at the highest-degree vertex: its eccentricity, and
    // so the number of relaxation rounds, varies little between seeds.
    for (graph::VertexId v = 1; v < g.numVertices; ++v)
        if (g.degree(v) > g.degree(p.source))
            p.source = v;
    const std::vector<Kernel> kernels = {
        {"pr_push",
         [&p](RunContext &ctx) { return workloads::runPageRankPush(ctx, p); }},
        {"sssp",
         [&p](RunContext &ctx) { return workloads::runSssp(ctx, p); }},
    };
    for (const Kernel &k : kernels)
        for (ExecMode mode : compared) {
            // Aff-Alloc places irregular data with the hybrid Eq. 4
            // policy (the allocator's default, stated here on purpose).
            RunConfig rc = configFor(mode, pass.simThreads());
            rc.allocOpts.policy = alloc::BankPolicy::hybrid;
            runPoint(pass, k.first, rc, k);
        }
}

// -------------------------------------------------------------- serve

constexpr double serveRates[3] = {2.0, 8.0, 32.0};
constexpr double serveKillRate = 8.0;
/** Requests of each healthy Aff-Alloc point: enough for a p90 with 10
 *  samples beyond it at every rate, which max_rate_at_slo judges. */
constexpr std::uint32_t serveSloRequests = 100;
/** Requests of the Near-L3 and bank-kill points, which feed only
 *  availability and requests_per_s. */
constexpr std::uint32_t serveRequests = 20;
constexpr std::uint32_t serveSlots = 4;

/** The mid-flight drill of bench/serve_availability: two bank kills
 *  and one link degrade. */
std::vector<sim::TimedFault>
bankKillCampaign()
{
    sim::TimedFault k1, k2, dl;
    k1.kind = sim::FaultKind::killBank;
    k1.target = 9;
    k1.atCycle = 500'000;
    dl.kind = sim::FaultKind::degradeLink;
    dl.target = 4 * 4 + 0;
    dl.atCycle = 750'000;
    dl.factor = 4;
    k2.kind = sim::FaultKind::killBank;
    k2.target = 10;
    k2.atCycle = 1'000'000;
    return {k1, dl, k2};
}

/**
 * Each default class run alone on a fresh machine in @p mode, its input
 * drawn from @p seed. These solo runs give the cost of one request of
 * each class. runServe reports no simulator stats, so a completed
 * request is credited with its class's solo access count; the return
 * value holds those counts.
 *
 * Building the machines is the serve pass's set-up: runServe builds its
 * own inside the timed call. The solo simulations themselves run off
 * both clocks, so a faster simulator does not move serve's setup_s.
 */
std::vector<std::uint64_t>
soloRuns(Pass &pass, ExecMode mode, std::uint64_t seed)
{
    std::vector<std::uint64_t> out;
    for (const serve::ServeClass &c : serve::defaultServeClasses()) {
        auto ctx = pass.setup("nsc/context_build", [&] {
            return std::make_unique<RunContext>(
                configFor(mode, pass.simThreads()));
        });
        const double build_s = pass.lastNs() * 1e-9;
        const RunResult r =
            tenant::workloadRunner(c.workload)(*ctx, seed, /*quick=*/true);
        printRun(pass.index(), "solo/" + c.workload, r, *ctx, build_s, 0.0);
        out.push_back(r.stats.l1Accesses + r.stats.l2Accesses +
                      r.stats.l3Accesses);
    }
    return out;
}

void
servePoint(Pass &pass, std::uint64_t seed, double rate, ExecMode mode,
           bool bankkill, const std::vector<std::uint64_t> &solo)
{
    serve::ServeOptions opts;
    opts.machine.simThreads = pass.simThreads();
    opts.mode = mode;
    opts.seed = seed;
    opts.quick = true;
    opts.numRequests = mode == ExecMode::affAlloc && !bankkill
                           ? serveSloRequests
                           : serveRequests;
    opts.slots = serveSlots;
    opts.arrivalsPerMcycle = rate;
    if (bankkill)
        opts.faultSchedule = bankKillCampaign();
    const serve::ServeReport r =
        pass.timed("serve", [&] { return serve::runServe(opts); });

    std::string slow;
    std::uint64_t accesses = 0;
    for (const serve::RequestRecord &q : r.requests) {
        if (!slow.empty())
            slow += ',';
        if (q.outcome == serve::RequestOutcome::completed) {
            char buf[48];
            std::snprintf(buf, sizeof buf, "%.17g",
                          double(q.finish - q.arrival) /
                              double(r.classes[q.classIdx].unloadedCycles));
            slow += buf;
            accesses += solo[q.classIdx];
        } else {
            slow += "null";
        }
    }
    char key[64];
    std::snprintf(key, sizeof key, "rate%d/%s", int(rate),
                  bankkill ? "bankkill" : "healthy");
    std::printf(
        "{\"kind\":\"run\",\"pass\":%d,\"key\":\"%s\",\"mode\":\"%s\","
        "\"valid\":%s,\"digest\":\"%s\",\"cycles\":%llu,"
        "\"wall_s\":%.9f,\"rate\":%g,"
        "\"healthy\":%s,\"offered\":%u,\"completed\":%u,\"shed\":%u,"
        "\"timed_out\":%u,\"retries\":%llu,\"shed_attempts\":%llu,"
        "\"peak_queue_depth\":%u,\"accesses\":%llu,"
        "\"slowdowns\":[%s]}\n",
        pass.index(), key, execModeName(mode),
        r.allValid ? "true" : "false", hex(r.digest()).c_str(),
        static_cast<unsigned long long>(r.endCycle), pass.lastNs() * 1e-9,
        rate, bankkill ? "false" : "true",
        r.offered, r.completed, r.shed, r.timedOut,
        static_cast<unsigned long long>(r.retries),
        static_cast<unsigned long long>(r.shedAttempts),
        r.peakQueueDepth, static_cast<unsigned long long>(accesses),
        slow.c_str());
}

void
servePass(Pass &pass, std::uint64_t seed)
{
    const std::vector<std::uint64_t> solo[2] = {
        soloRuns(pass, compared[0], seed), soloRuns(pass, compared[1], seed)};
    // Every point draws its own arrival schedule and class sequence from
    // the seed, so one pass averages over seven independent mixes. No
    // metric compares two points request by request.
    std::uint64_t point = 0;
    for (double rate : serveRates)
        for (int m = 0; m < 2; ++m)
            servePoint(pass, Rng::substreamSeed(seed, point++), rate,
                       compared[m], false, solo[m]);
    servePoint(pass, Rng::substreamSeed(seed, point++), serveKillRate,
               ExecMode::affAlloc, true, solo[1]);
}

// ------------------------------------------------------------- probes

/** Host ns per call of @p op over @p n calls. */
template <class Op>
double
nsPerOp(std::uint64_t n, Op &&op)
{
    const std::uint64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < n; ++i)
        op(i);
    return double(nowNs() - t0) / double(n);
}

void
printProbe(const char *name, double ns)
{
    std::printf("{\"kind\":\"probe\",\"name\":\"%s\",\"ns\":%.6f}\n",
                name, ns);
}

/** Per-op probes of each layer's public function on fresh objects
 *  built from the workloads' machine configuration. */
void
runProbes()
{
    const RunConfig rc = configFor(ExecMode::affAlloc, 1);
    const sim::MachineConfig &cfg = rc.machine;
    Rng rng(0x5eed);

    {
        // One L3 bank slice; lines drawn from twice its capacity.
        mem::CacheModel cache(cfg.l3BankSizeBytes, cfg.l3Assoc,
                              cfg.lineSize, /*hashed_index=*/true);
        const std::uint64_t lines = 2 * cfg.l3BankSizeBytes / cfg.lineSize;
        std::uint64_t hits = 0;
        printProbe("cache_access", nsPerOp(4'000'000, [&](std::uint64_t) {
                       hits += cache.access(rng.below(lines), false).hit;
                   }));
        if (hits == 0)
            fail("cache probe saw no hits");
    }
    {
        sim::Stats stats;
        noc::Network net(cfg, stats);
        const std::uint32_t tiles = cfg.meshX * cfg.meshY;
        printProbe("noc_send", nsPerOp(4'000'000, [&](std::uint64_t) {
                       net.send(TileId(rng.below(tiles)),
                                TileId(rng.below(tiles)), 64,
                                TrafficClass::data);
                   }));
    }
    {
        RunContext ctx(rc);
        const std::uint32_t banks = cfg.meshX * cfg.meshY;
        std::vector<std::vector<BankId>> sets(1024);
        for (auto &s : sets)
            for (int i = 0; i < 4; ++i)
                s.push_back(BankId(rng.below(banks)));
        bool inMesh = true;
        printProbe("select_bank", nsPerOp(1'000'000, [&](std::uint64_t i) {
                       inMesh &= ctx.allocator.selectBank(
                                     sets[i % sets.size()]) < banks;
                   }));
        if (!inMesh)
            fail("selectBank chose a bank outside the mesh");
    }
    {
        RunContext ctx(rc);
        void *anchor = ctx.allocator.allocInterleaved(64 * 64, 64, 0);
        const void *aff[1] = {anchor};
        constexpr std::uint64_t n = 1 << 16;
        std::vector<void *> live(n);
        double alloc_ns = 0, free_ns = 0;
        constexpr int rounds = 8;
        for (int r = 0; r < rounds; ++r) {
            alloc_ns += nsPerOp(n, [&](std::uint64_t i) {
                live[i] = ctx.allocator.mallocAff(64, 1, aff);
            });
            free_ns += nsPerOp(n, [&](std::uint64_t i) {
                ctx.allocator.freeAff(live[i]);
            });
        }
        printProbe("malloc_irregular", alloc_ns / rounds);
        printProbe("free", free_ns / rounds);
    }
}

// --------------------------------------------------------- profiler

void
printPhases(const std::vector<prof::PhaseNode> &nodes)
{
    for (const prof::PhaseNode &n : nodes) {
        std::printf("{\"kind\":\"phase\",\"name\":\"%s\","
                    "\"inclusive_ns\":%llu,\"count\":%llu}\n",
                    n.name.c_str(),
                    static_cast<unsigned long long>(n.inclusiveNs),
                    static_cast<unsigned long long>(n.count));
        printPhases(n.children);
    }
}

/** Print and clear everything the self-profiler recorded. */
void
printProfile(const char *label)
{
    const prof::Snapshot snap = prof::harvest();
    std::printf("{\"kind\":\"profile\",\"label\":\"%s\",\"wall_ns\":%llu}\n",
                label, static_cast<unsigned long long>(snap.wallNs));
    printPhases(snap.phases);
    for (const prof::PoolTelemetry &p : snap.pools) {
        std::uint64_t busy = 0;
        for (std::uint64_t b : p.busyNs)
            busy += b;
        std::printf("{\"kind\":\"pool\",\"threads\":%u,"
                    "\"busy_ns\":%llu,\"sum_max_task_ns\":%llu,"
                    "\"sum_task_ns\":%llu}\n",
                    p.threads, static_cast<unsigned long long>(busy),
                    static_cast<unsigned long long>(p.sumMaxTaskNs),
                    static_cast<unsigned long long>(p.sumTaskNs));
    }
    prof::resetForTest();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = std::strtoull(v, &end, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(v, &end);
        else if (flag == "--trace")
            trace = int(std::strtol(v, &end, 10));
        else
            usage("unknown flag " + flag);
        if (end && *end)
            usage("bad value for " + flag);
    }
    if (argc % 2 == 0 || workload.empty() || seconds <= 0 ||
        (trace != 0 && trace != 1))
        usage("missing or bad arguments");

    std::function<void(Pass &)> onePass;
    if (workload == "stencil") {
        onePass = stencilPass;
    } else if (workload == "graph") {
        onePass = [seed](Pass &p) { graphPass(p, seed); };
    } else if (workload == "serve") {
        onePass = [seed](Pass &p) { servePass(p, seed); };
    } else {
        usage("unknown workload");
    }

    Spans spans;
    Calibrator cal;
    int index = 0;
    {
        Pass warm(index++, nullptr, 1, spans);
        onePass(warm);
        warm.finish();
    }
    // Peak RSS of a fresh process after one whole pass. Later passes
    // can only raise it through allocator fragmentation, and how many
    // of them run depends on host speed.
    std::printf("{\"kind\":\"rss\",\"peak_kb\":%llu}\n",
                static_cast<unsigned long long>(prof::peakRssKb()));
    // With --trace 1, half the time goes to untraced passes (the
    // overhead baseline, one pass at least, so that a slow workload's
    // traced run still ends in time) and the rest to the traced passes
    // and probes.
    const double budget = trace ? seconds / 2 : seconds;
    const int least = trace ? 1 : minPasses;
    double measured = 0;
    for (int n = 0; n < least || measured < budget; ++n) {
        Pass p(index++, &cal, 1, spans);
        onePass(p);
        p.finish();
        measured += p.wallS();
    }

    if (trace) {
        spans.setEnabled(true);
        prof::setEnabled(true);
        {
            Pass p(index++, &cal, 1, spans);
            onePass(p);
            p.finish();
        }
        printProfile("st1");
        if (workload == "stencil") {
            // The record -> replay engine only runs at >1 simulating
            // thread; one traced pass at two threads measures it.
            Pass p(index++, &cal, 2, spans);
            onePass(p);
            p.finish();
            printProfile("st2");
        }
        prof::setEnabled(false);
        spans.setEnabled(false);
        spans.print();
        runProbes();
    }
    return 0;
}
