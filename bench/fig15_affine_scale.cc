/**
 * @file
 * Reproduces Fig. 15: speedup of the affine workloads and their L3
 * miss rate as the input scales 1x / 2x / 4x / 8x. The benefit of
 * near-cache affinity drops once the working set no longer fits in
 * the 64 MB L3.
 */

#include <cstdio>
#include <functional>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/affine_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    sim::MachineConfig cfg;
    harness::printMachineBanner(cfg,
                                "Fig. 15 - affine workloads, input scale");

    struct Entry
    {
        std::string name;
        // run(scale, mode) -> result
        std::function<RunResult(int, ExecMode)> run;
    };

    const double shrink = quick ? 0.25 : 1.0;
    std::vector<Entry> entries;
    entries.push_back({"pathfinder", [&](int s, ExecMode m) {
                           PathfinderParams p;
                           p.cols = std::uint64_t(1'500'000 * shrink) * s;
                           p.iters = quick ? 4 : 8;
                           return runPathfinder(RunConfig::forMode(m), p);
                       }});
    entries.push_back({"hotspot", [&](int s, ExecMode m) {
                           HotspotParams p;
                           p.rows = std::uint64_t(2048 * shrink) * s;
                           p.iters = quick ? 4 : 8;
                           return runHotspot(RunConfig::forMode(m), p);
                       }});
    entries.push_back({"srad", [&](int s, ExecMode m) {
                           SradParams p;
                           p.rows = std::uint64_t(1024 * shrink) * s;
                           p.iters = quick ? 4 : 8;
                           return runSrad(RunConfig::forMode(m), p);
                       }});
    entries.push_back({"hotspot3D", [&](int s, ExecMode m) {
                           Hotspot3dParams p;
                           p.nz = std::uint64_t(8 * shrink * s);
                           p.iters = quick ? 4 : 8;
                           return runHotspot3d(RunConfig::forMode(m), p);
                       }});

    // Sweep points: (scale, entry) x {Near-L3, Aff-Alloc}, results
    // collected in sweep order and printed afterwards.
    const int scales[4] = {1, 2, 4, 8};
    std::vector<std::function<RunResult()>> points;
    for (int scale : scales) {
        for (const auto &e : entries) {
            points.push_back(
                [&e, scale] { return e.run(scale, ExecMode::nearL3); });
            points.push_back(
                [&e, scale] { return e.run(scale, ExecMode::affAlloc); });
        }
    }
    const std::vector<RunResult> results =
        harness::runSweep(jobs, points);

    std::printf("%-12s %6s | %18s | %10s %10s\n", "workload", "scale",
                "speedup Aff/NearL3", "L3miss Aff", "L3miss NL3");
    std::vector<double> geo_per_scale[4];
    int si = 0;
    std::size_t at = 0;
    for (int scale : scales) {
        for (const auto &e : entries) {
            const RunResult &nl3 = results[at++];
            const RunResult &aff = results[at++];
            const double sp =
                double(nl3.cycles()) / double(aff.cycles());
            std::printf("%-12s %5dx | %18.2f | %9.1f%% %9.1f%%%s\n",
                        e.name.c_str(), scale, sp,
                        100.0 * aff.l3MissRate, 100.0 * nl3.l3MissRate,
                        aff.valid && nl3.valid ? "" : "  INVALID");
            geo_per_scale[si].push_back(sp);
        }
        std::printf("%-12s %5dx | %18.2f |\n", "geomean", scale,
                    sim::geomean(geo_per_scale[si]));
        ++si;
    }
    std::printf("\nExpected shape (paper): speedup shrinks with input "
                "scale as the L3 miss rate climbs\n(>75%% misses at 8x "
                "-> benefit largely gone).\n");
    return 0;
}
