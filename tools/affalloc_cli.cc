/**
 * @file
 * Command-line explorer for the affinity-alloc library. Lets a user
 * run any workload under any configuration and inspect layouts
 * without writing code:
 *
 *   affalloc_cli topo [--numbering snake]
 *   affalloc_cli layout --intrlv 64 --bytes 8192 [--start-bank 5]
 *   affalloc_cli run <workload> [--mode aff|near|core]
 *                    [--policy rnd|lnr|minhop|hybrid] [--h 5]
 *                    [--numbering rowmajor|snake|block2]
 *                    [--scale 14] [--iters 4] [--csv out.csv]
 *
 * Workloads: vecadd pathfinder hotspot srad hotspot3d pr_push pr_pull
 *            bfs sssp sssp_pq link_list hash_join bin_tree
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "chaos/chaos.hh"
#include "graph/generators.hh"
#include "serve/serve.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "obs/heatmap.hh"
#include "sim/parse.hh"
#include "sim/prof.hh"
#include "sim/simcheck.hh"
#include "harness/trace.hh"
#include "tenant/qos.hh"
#include "tenant/scheduler.hh"
#include "traffic/traffic.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/pointer_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

namespace
{

/** A count flag's value (sim::parseCount, reported as a CLI error). */
std::uint64_t
parseCount(const char *flag, const std::string &text, std::uint64_t max)
{
    return sim::parseCount("cli", flag, text, max);
}

/** --mode: the execution mode by its short name. */
ExecMode
parseMode(const std::string &v)
{
    if (v == "aff")
        return ExecMode::affAlloc;
    if (v == "near")
        return ExecMode::nearL3;
    if (v == "core")
        return ExecMode::inCore;
    SIM_FATAL("cli", "--mode=%s: expected aff, near or core", v.c_str());
}

/** --numbering: the bank numbering scheme by its short name. */
sim::BankNumbering
parseNumbering(const std::string &v)
{
    if (v == "rowmajor")
        return sim::BankNumbering::rowMajor;
    if (v == "snake")
        return sim::BankNumbering::snake;
    if (v == "block2")
        return sim::BankNumbering::block2;
    SIM_FATAL("cli", "--numbering=%s: expected rowmajor, snake or block2",
              v.c_str());
}

/** --policy: the irregular bank-select policy by its short name. */
alloc::BankPolicy
parseBankPolicy(const std::string &v)
{
    if (v == "hybrid")
        return alloc::BankPolicy::hybrid;
    if (v == "minhop")
        return alloc::BankPolicy::minHop;
    if (v == "lnr")
        return alloc::BankPolicy::linear;
    if (v == "rnd")
        return alloc::BankPolicy::random;
    SIM_FATAL("cli", "--policy=%s: expected hybrid, minhop, lnr or rnd",
              v.c_str());
}

struct Options
{
    std::string command;
    std::string workload;
    ExecMode mode = ExecMode::affAlloc;
    alloc::BankPolicy policy = alloc::BankPolicy::hybrid;
    double h = 5.0;
    sim::BankNumbering numbering = sim::BankNumbering::rowMajor;
    std::uint32_t scale = 14;
    int iters = 4;
    std::uint64_t intrlv = 64;
    std::uint64_t bytes = 4096;
    BankId startBank = 0;
    std::string csv;
    // Fault campaign (defaults: healthy machine).
    std::uint64_t faultSeed = sim::FaultConfig{}.seed;
    std::uint32_t offlineBanks = 0;
    double offloadRejectRate = 0.0;
    // SimCheck (defaults from AFFALLOC_SIMCHECK* env vars).
    bool simcheck = false;
    bool simcheckDigest = false;
    std::uint32_t simcheckWatchdog = 0;
    bool simcheckWatchdogSet = false;
    // Observability (all opt-in and digest-neutral; see src/obs/).
    std::string traceOut;
    std::string heatmap;
    std::string explainOut;
    std::string obsCsv;
    // Multi-tenant co-runs (the corun command).
    std::string tenants;
    tenant::SchedPolicy sched = tenant::SchedPolicy::roundRobin;
    std::uint32_t quantum = 8;
    bool quick = false;
    bool noSolo = false;
    // Background traffic classes (corun and serve commands). Raw flag
    // text; parsed by src/traffic once the machine config is known.
    std::string hostAgents;
    std::string ioStreams;
    std::string llcPolicy;
    std::string classBw;
    // Open-system serving (the serve command).
    std::string mix;
    std::uint32_t requests = 48;
    double rate = 2.0;
    double burstiness = 0.0;
    std::uint32_t slots = 4;
    std::uint32_t queueCap = 8;
    std::uint64_t serveMaxCycles = 0; // 0: ServeOptions default
    std::uint64_t serveSeed = 0;      // 0: ServeOptions default
    std::string faultSchedule;
    bool noReaffinity = false;
    // Chaos fuzzing (the chaos command).
    std::uint32_t campaigns = 8;
    unsigned jobs = 1; // --jobs or AFFALLOC_JOBS (harness::parseJobs)
    std::string bundleDir;
    std::string replayPath;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: affalloc_cli topo|layout|run|corun|serve|chaos "
                 "[options]\n"
                 "  run <workload> --mode aff|near|core --policy "
                 "rnd|lnr|minhop|hybrid --h N\n"
                 "      --numbering rowmajor|snake|block2 --scale N "
                 "--iters N --csv FILE\n"
                 "      --fault-seed N --offline-banks=N "
                 "--offload-reject-rate=P\n"
                 "      --simcheck (run invariant audits each epoch)\n"
                 "      --simcheck-digest (print determinism digest)\n"
                 "      --simcheck-watchdog N (abort after N stalled "
                 "epochs; 0 = off)\n"
                 "      --trace-out FILE (Chrome trace_event JSON; load "
                 "in Perfetto)\n"
                 "      --heatmap banks|links (ASCII spatial heatmap)\n"
                 "      --explain-placement FILE (Eq. 4 decision log)\n"
                 "      --obs-csv PREFIX (per-bank/per-link counter "
                 "CSVs)\n"
                 "  layout --intrlv BYTES --bytes BYTES --start-bank N\n"
                 "  corun --tenants NAME[:COUNT[:WEIGHT]],... (e.g. "
                 "--tenants=bfs:2,vecadd:1)\n"
                 "      --sched rr|weighted --quantum N (epochs per "
                 "turn) --quick --no-solo\n"
                 "      --host-agents N --io-streams N (background "
                 "host / DDIO-style I/O traffic;\n"
                 "       also accepted by serve)\n"
                 "      --llc-policy ddio|way[:K]|bypass (how I/O "
                 "writes allocate in L3)\n"
                 "      --class-bw none|part:NDC,HOST,IO|prio[:P] "
                 "(bank/link arbitration between\n"
                 "       traffic classes)\n"
                 "      [--mode/--policy/--h/--csv/--simcheck*/--heatmap "
                 "banks as for run]\n"
                 "  serve --requests N --rate R (arrivals per Mcycle) "
                 "--burstiness F\n"
                 "      --slots N --queue N --max-cycles N "
                 "--mix wl[:weight],... \n"
                 "      --fault-schedule bank:<id>@<cycle>,"
                 "link:<id>@<cycle>[x<f>],...\n"
                 "      --no-reaffinity (keep default next-in-order "
                 "spares on bank kills)\n"
                 "      --seed N (arrival schedule seed)\n"
                 "      [--mode/--sched/--quantum/--quick/--csv/"
                 "--simcheck* as for corun]\n"
                 "  chaos --campaigns N --seed N --jobs N "
                 "--bundle-dir DIR\n"
                 "      --watchdog-cycles N (livelock threshold; also "
                 "accepted by run/corun/serve;\n"
                 "       env AFFALLOC_SIMCHECK_WATCHDOG)\n"
                 "  chaos --replay BUNDLE.json (re-run a shrunk repro "
                 "bundle)\n"
                 "  --prof-out FILE (any command: host-side self-profile "
                 "JSON at exit;\n"
                 "       digest/stdout-neutral; env AFFALLOC_PROF_OUT)\n"
                 "  --progress[=SECONDS] (any command: stderr heartbeat "
                 "for long runs;\n"
                 "       default 5s; env AFFALLOC_PROGRESS)\n"
                 "  --version (print git revision, build type, and "
                 "compiled feature flags)\n");
    std::exit(2);
}

#ifndef AFFALLOC_GIT_REVISION
#define AFFALLOC_GIT_REVISION "unknown"
#endif
#ifndef AFFALLOC_BUILD_TYPE
#define AFFALLOC_BUILD_TYPE "unknown"
#endif

/** Artifact provenance: which build produced this CSV/profile. */
[[noreturn]] void
printVersion()
{
    std::printf("affalloc_cli %s (%s)\n", AFFALLOC_GIT_REVISION,
                AFFALLOC_BUILD_TYPE);
    std::printf("features: simcheck=%s prof=%s\n",
                simcheck::compiledIn ? "on" : "off",
                prof::compiledIn ? "on" : "off");
    std::exit(0);
}

Options
parse(int argc, char **argv)
{
    Options o;
    if (argc < 2)
        usage();
    o.command = argv[1];
    int i = 2;
    if (o.command == "run") {
        if (argc < 3)
            usage();
        o.workload = argv[2];
        i = 3;
    }
    // Options accept both "--opt value" and "--opt=value".
    std::string inline_val;
    bool has_inline = false;
    auto next = [&](const char *what) -> std::string {
        if (has_inline)
            return inline_val;
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", what);
            usage();
        }
        return argv[++i];
    };
    for (; i < argc; ++i) {
        std::string a = argv[i];
        has_inline = false;
        if (a.rfind("--", 0) == 0) {
            if (const std::size_t eq = a.find('=');
                eq != std::string::npos) {
                inline_val = a.substr(eq + 1);
                a.resize(eq);
                has_inline = true;
            }
        }
        if (a == "--mode") {
            o.mode = parseMode(next("--mode"));
        } else if (a == "--policy") {
            o.policy = parseBankPolicy(next("--policy"));
        } else if (a == "--h") {
            o.h = sim::parseReal("cli", "--h", next("--h"));
        } else if (a == "--numbering") {
            o.numbering = parseNumbering(next("--numbering"));
        } else if (a == "--scale") {
            o.scale = std::uint32_t(parseCount("--scale", next("--scale"), 30));
        } else if (a == "--iters") {
            o.iters = int(parseCount("--iters", next("--iters"), 1000));
        } else if (a == "--intrlv") {
            o.intrlv = parseCount("--intrlv", next("--intrlv"), UINT64_MAX);
        } else if (a == "--bytes") {
            o.bytes = parseCount("--bytes", next("--bytes"), UINT64_MAX);
        } else if (a == "--start-bank") {
            o.startBank = BankId(
                parseCount("--start-bank", next("--start-bank"), 4095));
        } else if (a == "--csv") {
            o.csv = next("--csv");
        } else if (a == "--fault-seed") {
            o.faultSeed =
                parseCount("--fault-seed", next("--fault-seed"), UINT64_MAX);
        } else if (a == "--offline-banks") {
            o.offlineBanks = std::uint32_t(
                parseCount("--offline-banks", next("--offline-banks"), 4096));
        } else if (a == "--offload-reject-rate") {
            o.offloadRejectRate = sim::parseReal(
                "cli", "--offload-reject-rate", next("--offload-reject-rate"));
            if (o.offloadRejectRate > 1.0)
                SIM_FATAL("cli", "--offload-reject-rate=%g: expected a "
                          "probability in [0, 1]", o.offloadRejectRate);
        } else if (a == "--simcheck") {
            o.simcheck = true;
        } else if (a == "--simcheck-digest") {
            o.simcheckDigest = true;
        } else if (a == "--trace-out") {
            o.traceOut = next("--trace-out");
        } else if (a == "--heatmap") {
            o.heatmap = next("--heatmap");
            if (o.heatmap != "banks" && o.heatmap != "links") {
                std::fprintf(stderr, "--heatmap=%s: expected 'banks' or "
                             "'links'\n", o.heatmap.c_str());
                usage();
            }
        } else if (a == "--explain-placement") {
            o.explainOut = next("--explain-placement");
        } else if (a == "--obs-csv") {
            o.obsCsv = next("--obs-csv");
        } else if (a == "--simcheck-watchdog" ||
                   a == "--watchdog-cycles") {
            o.simcheckWatchdog = std::uint32_t(parseCount(
                a.c_str(), next(a.c_str()), UINT32_MAX));
            o.simcheckWatchdogSet = true;
        } else if (a == "--tenants") {
            o.tenants = next("--tenants");
        } else if (a == "--sched") {
            o.sched = tenant::parseSchedPolicy(next("--sched"));
        } else if (a == "--quantum") {
            o.quantum = std::uint32_t(
                parseCount("--quantum", next("--quantum"), 1'000'000));
        } else if (a == "--quick") {
            o.quick = true;
        } else if (a == "--no-solo") {
            o.noSolo = true;
        } else if (a == "--host-agents") {
            o.hostAgents = next("--host-agents");
        } else if (a == "--io-streams") {
            o.ioStreams = next("--io-streams");
        } else if (a == "--llc-policy") {
            o.llcPolicy = next("--llc-policy");
        } else if (a == "--class-bw") {
            o.classBw = next("--class-bw");
        } else if (a == "--mix") {
            o.mix = next("--mix");
        } else if (a == "--requests") {
            o.requests = std::uint32_t(
                parseCount("--requests", next("--requests"), 1'000'000));
        } else if (a == "--rate") {
            o.rate = sim::parseReal("cli", "--rate", next("--rate"));
        } else if (a == "--burstiness") {
            o.burstiness =
                sim::parseReal("cli", "--burstiness", next("--burstiness"));
        } else if (a == "--slots") {
            o.slots =
                std::uint32_t(parseCount("--slots", next("--slots"), 4096));
        } else if (a == "--queue") {
            o.queueCap = std::uint32_t(
                parseCount("--queue", next("--queue"), 1'000'000));
        } else if (a == "--max-cycles") {
            o.serveMaxCycles =
                parseCount("--max-cycles", next("--max-cycles"), UINT64_MAX);
        } else if (a == "--seed") {
            o.serveSeed = parseCount("--seed", next("--seed"), UINT64_MAX);
        } else if (a == "--fault-schedule") {
            o.faultSchedule = next("--fault-schedule");
        } else if (a == "--no-reaffinity") {
            o.noReaffinity = true;
        } else if (a == "--campaigns") {
            o.campaigns = std::uint32_t(parseCount(
                "--campaigns", next("--campaigns"), 100'000));
        } else if (a == "--jobs") {
            // Validated by harness::parseJobs in main(); consume the
            // value here.
            (void)next("--jobs");
        } else if (a == "--bundle-dir") {
            o.bundleDir = next("--bundle-dir");
        } else if (a == "--replay") {
            o.replayPath = next("--replay");
        } else if (a == "--prof-out") {
            // Validated (path opened) by harness::applyProfFlags in
            // main(); consume the value here.
            (void)next("--prof-out");
        } else if (a == "--progress") {
            // Applied by harness::applyProfFlags in main(). Only the
            // inline =SECONDS form carries a value, so there is
            // nothing to consume here.
        } else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            usage();
        }
    }
    // Flag wins; the environment is the fleet-wide fallback so CI can
    // tighten the livelock threshold without touching every command.
    if (!o.simcheckWatchdogSet) {
        if (const char *env = std::getenv("AFFALLOC_SIMCHECK_WATCHDOG")) {
            o.simcheckWatchdog = std::uint32_t(
                parseCount("AFFALLOC_SIMCHECK_WATCHDOG", env, UINT32_MAX));
            o.simcheckWatchdogSet = true;
        }
    }
    return o;
}

int
cmdTopo(const Options &o)
{
    sim::MachineConfig cfg;
    cfg.bankNumbering = o.numbering;
    os::SimOS sim_os(cfg);
    nsc::Machine machine(cfg, sim_os);
    std::printf("%s\n\nbank -> tile map (%s numbering):\n",
                cfg.toString().c_str(),
                sim::bankNumberingName(o.numbering));
    for (std::uint32_t y = 0; y < cfg.meshY; ++y) {
        for (std::uint32_t x = 0; x < cfg.meshX; ++x) {
            // Find the bank homed at this tile.
            const TileId tile = y * cfg.meshX + x;
            BankId bank = 0;
            for (BankId b = 0; b < cfg.numBanks(); ++b) {
                if (machine.tileOfBank(b) == tile) {
                    bank = b;
                    break;
                }
            }
            std::printf("%4u", bank);
        }
        std::printf("\n");
    }
    return 0;
}

int
cmdLayout(const Options &o)
{
    RunContext ctx(RunConfig::forMode(ExecMode::affAlloc));
    char *p = static_cast<char *>(
        ctx.allocator.allocInterleaved(o.bytes, o.intrlv, o.startBank));
    std::printf("allocated %llu bytes at interleave %llu, start bank "
                "%u\nblock -> bank:\n",
                (unsigned long long)o.bytes,
                (unsigned long long)o.intrlv, o.startBank);
    const std::uint64_t blocks = (o.bytes + o.intrlv - 1) / o.intrlv;
    for (std::uint64_t b = 0; b < blocks && b < 128; ++b) {
        std::printf("%4u", ctx.machine.bankOfHost(p + b * o.intrlv));
        if ((b + 1) % 16 == 0)
            std::printf("\n");
    }
    std::printf("\n");
    return 0;
}

int
cmdRun(const Options &o)
{
    RunConfig rc = RunConfig::forMode(o.mode);
    rc.allocOpts.policy = o.policy;
    rc.allocOpts.hybridH = o.h;
    rc.machine.bankNumbering = o.numbering;
    rc.machine.faults.seed = o.faultSeed;
    rc.machine.faults.offlineBanks = o.offlineBanks;
    rc.machine.faults.offloadRejectRate = o.offloadRejectRate;
    if (o.simcheck)
        rc.machine.simcheck.audit = true;
    if (o.simcheckWatchdogSet)
        rc.machine.simcheck.watchdogStallEpochs = o.simcheckWatchdog;
    rc.obs.metrics = !o.heatmap.empty() || !o.obsCsv.empty();
    rc.obs.tracePath = o.traceOut;
    rc.obs.explainPath = o.explainOut;
    if (!simcheck::compiledIn && o.simcheck) {
        std::fprintf(stderr,
                     "warning: --simcheck requested but this binary "
                     "was built with AFFALLOC_SIMCHECK=OFF\n");
    }

    RunResult result;
    if (o.workload == "vecadd") {
        VecAddParams p;
        p.layout = o.mode == ExecMode::affAlloc
                       ? VecAddLayout::affinity
                       : VecAddLayout::heapLinear;
        result = runVecAdd(rc, p);
    } else if (o.workload == "pathfinder") {
        PathfinderParams p;
        p.iters = o.iters;
        result = runPathfinder(rc, p);
    } else if (o.workload == "hotspot") {
        HotspotParams p;
        p.iters = o.iters;
        result = runHotspot(rc, p);
    } else if (o.workload == "srad") {
        SradParams p;
        p.iters = o.iters;
        result = runSrad(rc, p);
    } else if (o.workload == "hotspot3d") {
        Hotspot3dParams p;
        p.iters = o.iters;
        result = runHotspot3d(rc, p);
    } else if (o.workload == "link_list") {
        result = runLinkList(rc, LinkListParams{});
    } else if (o.workload == "hash_join") {
        result = runHashJoin(rc, HashJoinParams{});
    } else if (o.workload == "bin_tree") {
        result = runBinTree(rc, BinTreeParams{});
    } else {
        graph::KroneckerParams kp;
        kp.scale = o.scale;
        kp.edgeFactor = 16;
        const auto g = graph::kronecker(kp);
        GraphParams p;
        p.graph = &g;
        p.iters = o.iters;
        if (o.workload == "pr_push")
            result = runPageRankPush(rc, p);
        else if (o.workload == "pr_pull")
            result = runPageRankPull(rc, p);
        else if (o.workload == "bfs")
            result = runBfs(rc, p, defaultBfsStrategy(o.mode)).run;
        else if (o.workload == "sssp")
            result = runSssp(rc, p);
        else if (o.workload == "sssp_pq")
            result = runSsspPq(rc, p);
        else {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         o.workload.c_str());
            usage();
        }
    }

    std::printf("workload   %s\nconfig     %s / %s",
                result.workload.c_str(), execModeName(o.mode),
                alloc::bankPolicyName(o.policy));
    if (o.policy == alloc::BankPolicy::hybrid)
        std::printf("-%g", o.h);
    std::printf(" / %s\n", sim::bankNumberingName(o.numbering));
    std::printf("cycles     %llu\nenergy     %.6f J\nNoC hops   %llu "
                "(offload %llu, data %llu, control %llu)\n"
                "L3 miss    %.2f%%\nNoC util   %.1f%%\nvalid      %s\n",
                (unsigned long long)result.cycles(), result.joules,
                (unsigned long long)result.hops(),
                (unsigned long long)result.stats.hops[int(
                    TrafficClass::offload)],
                (unsigned long long)result.stats.hops[int(
                    TrafficClass::data)],
                (unsigned long long)result.stats.hops[int(
                    TrafficClass::control)],
                100.0 * result.l3MissRate,
                100.0 * result.nocUtilization,
                result.valid ? "yes" : "NO");
    const sim::Stats &rs = result.stats;
    if (rs.offlineBanks || rs.offloadRetries || rs.offloadFallbacks ||
        rs.allocFallbacks || rs.victimMigrations || rs.degradedLinkFlits) {
        std::printf("degrade    offline banks %llu, offload retries "
                    "%llu, offload fallbacks %llu, alloc fallbacks "
                    "%llu, migrations %llu, degraded flits %llu\n",
                    (unsigned long long)rs.offlineBanks,
                    (unsigned long long)rs.offloadRetries,
                    (unsigned long long)rs.offloadFallbacks,
                    (unsigned long long)rs.allocFallbacks,
                    (unsigned long long)rs.victimMigrations,
                    (unsigned long long)rs.degradedLinkFlits);
    }
    if (o.simcheckDigest) {
        std::printf("digest     %s\n",
                    simcheck::digestToString(result.digest()).c_str());
    }
    if (!o.csv.empty()) {
        harness::writeTimelineCsv(result, o.csv);
        std::printf("timeline   written to %s\n", o.csv.c_str());
    }
    if (o.heatmap == "banks") {
        std::fputs(obs::renderBankHeatmap(
                       result.workload + " L3 accesses per bank",
                       result.obsSnapshot.bankAccesses,
                       result.obsSnapshot.bankTile,
                       result.obsSnapshot.meshX,
                       result.obsSnapshot.meshY)
                       .c_str(),
                   stdout);
    } else if (o.heatmap == "links") {
        std::fputs(obs::renderLinkHeatmap(
                       result.workload + " link flit-hops",
                       result.obsSnapshot.linkFlits,
                       result.obsSnapshot.meshX,
                       result.obsSnapshot.meshY)
                       .c_str(),
                   stdout);
    }
    if (!o.obsCsv.empty()) {
        harness::writeBankMetricsCsv(result, o.obsCsv + ".banks.csv");
        harness::writeLinkMetricsCsv(result, o.obsCsv + ".links.csv");
        std::printf("obs csv    written to %s.{banks,links}.csv\n",
                    o.obsCsv.c_str());
    }
    if (!o.traceOut.empty())
        std::printf("trace      written to %s\n", o.traceOut.c_str());
    if (!o.explainOut.empty())
        std::printf("explain    written to %s\n", o.explainOut.c_str());
    return result.valid ? 0 : 1;
}

/**
 * Validate and apply the background-traffic flags against a concrete
 * machine config (flag limits depend on the mesh and L3 geometry).
 * Throws FatalError on rejection; callers surface it as a CLI error.
 */
traffic::TrafficConfig
applyTrafficOptions(const Options &o, sim::MachineConfig &mc)
{
    traffic::TrafficConfig tc;
    if (!o.hostAgents.empty())
        tc.hostAgents = std::uint32_t(sim::parseCount(
            "traffic", "--host-agents", o.hostAgents, mc.numTiles(), 1));
    if (!o.ioStreams.empty())
        tc.ioStreams = std::uint32_t(sim::parseCount(
            "traffic", "--io-streams", o.ioStreams, mc.numTiles(), 1));
    if (!o.llcPolicy.empty())
        mc.llcIoPolicy = traffic::parseLlcPolicy(
            o.llcPolicy, &mc.llcIoWays, mc.l3Assoc);
    if (!o.classBw.empty())
        mc.classArb = traffic::parseClassBw(o.classBw);
    return tc;
}

int
cmdCorun(const Options &o)
{
    if (o.tenants.empty()) {
        std::fprintf(stderr,
                     "corun requires --tenants; available workloads: ");
        for (const auto &n : tenant::workloadNames())
            std::fprintf(stderr, "%s ", n.c_str());
        std::fprintf(stderr, "\n");
        usage();
    }

    tenant::CorunOptions copts;
    copts.mode = o.mode;
    copts.allocOpts.policy = o.policy;
    copts.allocOpts.hybridH = o.h;
    copts.machine.bankNumbering = o.numbering;
    copts.machine.faults.seed = o.faultSeed;
    copts.machine.faults.offlineBanks = o.offlineBanks;
    copts.machine.faults.offloadRejectRate = o.offloadRejectRate;
    if (o.simcheck)
        copts.machine.simcheck.audit = true;
    if (o.simcheckWatchdogSet)
        copts.machine.simcheck.watchdogStallEpochs = o.simcheckWatchdog;
    copts.policy = o.sched;
    copts.quantumEpochs = o.quantum;
    copts.quick = o.quick;
    copts.solo = !o.noSolo;
    copts.obs.metrics = o.heatmap == "banks";
    copts.obs.tracePath = o.traceOut;

    std::vector<tenant::TenantSpec> specs =
        tenant::parseTenantSpecs(o.tenants);
    const traffic::TrafficConfig tc = applyTrafficOptions(o, copts.machine);
    for (tenant::TenantSpec &s : traffic::makeBackgroundSpecs(tc))
        specs.push_back(std::move(s));
    const tenant::CorunReport report = tenant::runCorun(specs, copts);

    tenant::printCorunReport(report);
    if (o.simcheckDigest) {
        std::printf("digest     %s\n",
                    simcheck::digestToString(report.digest()).c_str());
    }
    if (!o.csv.empty()) {
        tenant::writeQosCsv(o.csv, report, execModeName(o.mode));
        std::printf("QoS csv    written to %s\n", o.csv.c_str());
    }
    if (o.heatmap == "banks") {
        std::fputs(obs::renderTenantBankHeatmaps(report.obsSnapshot)
                       .c_str(),
                   stdout);
    }
    if (!o.traceOut.empty())
        std::printf("trace      written to %s\n", o.traceOut.c_str());
    return report.allValid ? 0 : 1;
}

/** Parse "wl[:weight],..." into serving classes (empty: defaults). */
std::vector<serve::ServeClass>
parseServeMix(const std::string &spec)
{
    std::vector<serve::ServeClass> classes;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        serve::ServeClass cls;
        if (const std::size_t colon = item.find(':');
            colon != std::string::npos) {
            cls.weight =
                sim::parseReal("cli", "--mix", item.substr(colon + 1));
            item.resize(colon);
        }
        cls.workload = item;
        classes.push_back(cls);
    }
    return classes;
}

int
cmdServe(const Options &o)
{
    serve::ServeOptions sopts;
    sopts.mode = o.mode;
    sopts.allocOpts.policy = o.policy;
    sopts.allocOpts.hybridH = o.h;
    sopts.machine.bankNumbering = o.numbering;
    if (o.simcheck)
        sopts.machine.simcheck.audit = true;
    if (o.simcheckWatchdogSet)
        sopts.machine.simcheck.watchdogStallEpochs = o.simcheckWatchdog;
    sopts.policy = o.sched;
    sopts.quantumEpochs = o.quantum;
    sopts.quick = o.quick;
    if (o.serveSeed)
        sopts.seed = o.serveSeed;
    sopts.numRequests = o.requests;
    sopts.arrivalsPerMcycle = o.rate;
    sopts.burstiness = o.burstiness;
    sopts.slots = o.slots;
    sopts.queueCapacity = o.queueCap;
    if (o.serveMaxCycles)
        sopts.maxCycles = o.serveMaxCycles;
    sopts.reaffinity = !o.noReaffinity;
    sopts.obs.tracePath = o.traceOut;
    sopts.obs.explainPath = o.explainOut;

    if (!o.faultSchedule.empty())
        sopts.faultSchedule = sim::parseFaultSchedule(o.faultSchedule);
    if (!o.mix.empty())
        sopts.classes = parseServeMix(o.mix);
    const traffic::TrafficConfig tc = applyTrafficOptions(o, sopts.machine);
    sopts.background = traffic::makeBackgroundSpecs(tc);
    const serve::ServeReport report = serve::runServe(sopts);

    serve::printServeReport(report, execModeName(o.mode));
    if (o.simcheckDigest) {
        std::printf("digest     %s\n",
                    simcheck::digestToString(report.digest()).c_str());
    }
    if (!o.csv.empty()) {
        std::ofstream out(o.csv);
        out << serve::serveCsvHeader() << '\n';
        serve::appendServeCsv(out, report, execModeName(o.mode));
        std::printf("serve csv  written to %s\n", o.csv.c_str());
    }
    if (!o.traceOut.empty())
        std::printf("trace      written to %s\n", o.traceOut.c_str());
    if (!o.explainOut.empty())
        std::printf("explain    written to %s\n", o.explainOut.c_str());
    return report.allValid ? 0 : 1;
}

int
cmdChaos(const Options &o)
{
    if (!o.replayPath.empty()) {
        const chaos::ReplayResult r = chaos::replayBundleFile(o.replayPath);
        std::printf(
            "replay     %s\n"
            "campaign   #%u: %u requests over %llu cycles, "
            "schedule %s\n"
            "expected   [%s] %s\n"
            "got        [%s] %s\n"
            "reproduced %s\n",
            o.replayPath.c_str(), r.campaign.index,
            r.campaign.opts.numRequests,
            (unsigned long long)r.campaign.opts.maxCycles,
            sim::formatFaultSchedule(r.campaign.opts.faultSchedule).c_str(),
            r.expected.errorType.c_str(), r.expected.signature.c_str(),
            r.got.failed ? r.got.errorType.c_str() : "pass",
            r.got.failed ? r.got.signature.c_str() : "-",
            r.reproduced ? "yes" : "NO");
        return r.reproduced ? 0 : 1;
    }

    chaos::FuzzOptions f;
    if (o.serveSeed)
        f.seed = o.serveSeed;
    f.campaigns = o.campaigns;
    f.jobs = o.jobs;
    if (o.simcheckWatchdogSet)
        f.watchdogStallEpochs = o.simcheckWatchdog;
    f.bundleDir = o.bundleDir;

    const chaos::FuzzReport rep =
        chaos::runFuzz(f, chaos::generateMatrix(f));
    std::printf("chaos      seed %llu | %u campaigns | jobs %u\n",
                (unsigned long long)f.seed, rep.campaigns, f.jobs);
    for (const chaos::CampaignResult &r : rep.results) {
        if (!r.verdict.failed)
            continue;
        const std::string shrunk =
            sim::formatFaultSchedule(r.shrunk.opts.faultSchedule);
        std::printf("  #%-3u FAIL %s\n"
                    "       sig    %s\n"
                    "       was    %s\n"
                    "       shrunk %s (requests %u, horizon %llu, "
                    "%u oracle runs)\n",
                    r.index, r.verdict.klass.c_str(),
                    r.verdict.signature.c_str(),
                    r.schedule.empty() ? "(no faults)" : r.schedule.c_str(),
                    shrunk.empty() ? "(no faults)" : shrunk.c_str(),
                    r.shrunk.opts.numRequests,
                    (unsigned long long)r.shrunk.opts.maxCycles,
                    r.shrinkOracleRuns);
        if (!r.bundlePath.empty())
            std::printf("       bundle %s\n", r.bundlePath.c_str());
    }
    std::printf("verdict    %u/%u campaigns clean | digest "
                "0x%016llx\n",
                rep.campaigns - rep.failures, rep.campaigns,
                (unsigned long long)rep.digest);
    return rep.failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--version") == 0 ||
            std::strcmp(argv[i], "version") == 0)
            printVersion();
    }
    // Open --prof-out up front and read --jobs and the other flags
    // (invalid values/paths fail here, not at harvest after a long
    // run). A config error from the flags or from the run itself is a
    // clean `fatal:` line and exit 2, never a backtrace.
    try {
        harness::applyProfFlags(argc, argv);
        const unsigned jobs = harness::parseJobs(argc, argv);
        Options o = parse(argc, argv);
        o.jobs = jobs;
        if (o.command == "topo")
            return cmdTopo(o);
        if (o.command == "layout")
            return cmdLayout(o);
        if (o.command == "run")
            return cmdRun(o);
        if (o.command == "corun")
            return cmdCorun(o);
        if (o.command == "serve")
            return cmdServe(o);
        if (o.command == "chaos")
            return cmdChaos(o);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    usage();
}
