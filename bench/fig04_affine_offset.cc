/**
 * @file
 * Reproduces Fig. 4: impact of affine data layout on vector addition.
 * C[i] = A[i] + B[i] with bank i forwarding to bank (i + delta) mod 64
 * for delta in {0, 4, ..., 64}, plus the In-Core baseline and a
 * randomized page placement. Reports speedup over In-Core and NoC
 * hops normalized to In-Core, broken into offload/data/control.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/affine_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    const harness::BenchObs obs = harness::BenchObs::parse(argc, argv);
    sim::MachineConfig cfg;
    harness::printMachineBanner(cfg,
                                "Fig. 4 - affine layout sweep (vecadd)");

    VecAddParams base;
    if (quick)
        base.n = 200'000;

    // Every sweep point builds its own machine inside runVecAdd, so
    // the points are independent; collect-then-print keeps the output
    // identical at any job count.
    std::vector<std::string> labels;
    std::vector<std::function<RunResult()>> points;

    labels.push_back("In-Core");
    points.push_back([base, &obs] {
        VecAddParams p = base;
        p.layout = VecAddLayout::heapLinear;
        RunConfig rc = RunConfig::forMode(ExecMode::inCore);
        obs.apply(rc, "vecadd", "In-Core");
        return runVecAdd(rc, p);
    });
    for (std::uint32_t delta = 0; delta <= 64; delta += 4) {
        char label[32];
        std::snprintf(label, sizeof(label), "Delta Bank %u", delta);
        labels.push_back(label);
        points.push_back([base, delta, &obs, label = std::string(label)] {
            VecAddParams p = base;
            p.layout = VecAddLayout::poolDelta;
            p.deltaBank = delta % 64;
            RunConfig rc = RunConfig::forMode(ExecMode::nearL3);
            obs.apply(rc, "vecadd", label);
            return runVecAdd(rc, p);
        });
    }
    labels.push_back("Random");
    points.push_back([base, &obs] {
        VecAddParams p = base;
        p.layout = VecAddLayout::heapRandom;
        RunConfig rc = RunConfig::forMode(ExecMode::nearL3);
        obs.apply(rc, "vecadd", "Random");
        return runVecAdd(rc, p);
    });

    const std::vector<RunResult> runs = harness::runSweep(jobs, points);

    struct Row
    {
        std::string label;
        RunResult run;
    };
    std::vector<Row> rows;
    for (std::size_t i = 0; i < runs.size(); ++i)
        rows.push_back({labels[i], runs[i]});

    const double base_cycles = double(rows[0].run.cycles());
    const double base_hops = double(rows[0].run.hops());
    std::printf("%-14s %9s | %8s %8s %8s %8s | %5s\n", "config",
                "speedup", "hops", "offload", "data", "control",
                "valid");
    double best = 0.0, worst = 1e30, random_speedup = 0.0;
    for (const auto &row : rows) {
        const double sp = base_cycles / double(row.run.cycles());
        std::printf("%-14s %9.2f | %8.3f %8.3f %8.3f %8.3f | %5s\n",
                    row.label.c_str(), sp,
                    double(row.run.hops()) / base_hops,
                    double(row.run.stats.hops[int(
                        TrafficClass::offload)]) /
                        base_hops,
                    double(row.run.stats.hops[int(TrafficClass::data)]) /
                        base_hops,
                    double(row.run.stats.hops[int(
                        TrafficClass::control)]) /
                        base_hops,
                    row.run.valid ? "yes" : "NO");
        if (row.label.rfind("Delta", 0) == 0) {
            best = std::max(best, sp);
            worst = std::min(worst, sp);
        }
        if (row.label == "Random")
            random_speedup = sp;
    }
    std::printf("\nNear-L3 speedup range across layouts: %.2fx .. %.2fx "
                "(paper: 1.1x .. 7.2x)\n"
                "Random layout reaches %.0f%% of aligned "
                "(paper: 42%%)\n",
                worst, best, 100.0 * random_speedup / best);
    for (const auto &row : rows)
        obs.reportRun(row.run, "vecadd", row.label);
    return 0;
}
