/**
 * @file
 * Ablation of the bank numbering scheme (§4.1 "Other Interleave
 * Patterns"): the 1D pool interleave of Eq. 1 walks bank ids in
 * order, so renumbering banks changes the physical walk. Sweeps the
 * Fig. 4 vecadd offsets and two representative workloads under
 * row-major (paper default), snake (boustrophedon) and 2x2-block
 * numbering.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/affine_workloads.hh"
#include "workloads/pointer_workloads.hh"

using namespace affalloc;
using namespace affalloc::workloads;

int
main(int argc, char **argv)
{
    const auto [quick, jobs] = harness::parseBenchFlags(argc, argv);
    sim::MachineConfig cfg;
    harness::printMachineBanner(cfg, "Ablation - bank numbering");

    const sim::BankNumbering schemes[] = {
        sim::BankNumbering::rowMajor, sim::BankNumbering::snake,
        sim::BankNumbering::block2};

    VecAddParams base;
    if (quick)
        base.n = 200'000;
    base.layout = VecAddLayout::heapLinear;

    // Sweep points per scheme: the In-Core baseline, 8 Delta-bank
    // runs, and the Lnr link_list chase — 30 points in total.
    std::vector<std::uint32_t> deltas;
    for (std::uint32_t delta = 4; delta < 64; delta += 8)
        deltas.push_back(delta);

    std::vector<std::function<RunResult()>> points;
    for (auto scheme : schemes) {
        points.push_back([base, scheme] {
            RunConfig rc = RunConfig::forMode(ExecMode::inCore);
            rc.machine.bankNumbering = scheme;
            return runVecAdd(rc, base);
        });
        for (std::uint32_t delta : deltas) {
            points.push_back([base, scheme, delta] {
                RunConfig rc = RunConfig::forMode(ExecMode::nearL3);
                rc.machine.bankNumbering = scheme;
                VecAddParams p = base;
                p.layout = VecAddLayout::poolDelta;
                p.deltaBank = delta;
                return runVecAdd(rc, p);
            });
        }
    }
    for (auto scheme : schemes) {
        points.push_back([quick, scheme] {
            RunConfig rc = RunConfig::forMode(ExecMode::affAlloc);
            rc.machine.bankNumbering = scheme;
            rc.allocOpts.policy = alloc::BankPolicy::linear;
            LinkListParams p;
            if (quick) {
                p.numLists = 256;
                p.nodesPerList = 128;
            }
            return runLinkList(rc, p);
        });
    }
    const std::vector<RunResult> results =
        harness::runSweep(jobs, points);

    // Fig. 4-style offset sensitivity per numbering: worst-case and
    // average Near-L3 speedup across Delta in {4,...,60}.
    std::printf("vecadd Delta-bank sweep (Near-L3 speedup over "
                "In-Core):\n%-10s %8s %8s %8s\n", "scheme", "best",
                "worst", "mean");
    std::size_t at = 0;
    for (auto scheme : schemes) {
        const RunResult &incore = results[at++];
        double best = 0, worst = 1e30, sum = 0;
        int count = 0;
        for (std::size_t d = 0; d < deltas.size(); ++d) {
            const RunResult &r = results[at++];
            const double sp =
                double(incore.cycles()) / double(r.cycles());
            best = std::max(best, sp);
            worst = std::min(worst, sp);
            sum += sp;
            ++count;
        }
        std::printf("%-10s %8.2f %8.2f %8.2f\n",
                    sim::bankNumberingName(scheme), best, worst,
                    sum / count);
    }

    // Pointer chasing: linear allocation walks bank ids in order, so
    // snake numbering shortens Lnr-policy chases.
    std::printf("\nlink_list under the Lnr policy (cycles / hops):\n");
    for (auto scheme : schemes) {
        const RunResult &r = results[at++];
        std::printf("  %-10s %10llu cycles %12llu hops%s\n",
                    sim::bankNumberingName(scheme),
                    (unsigned long long)r.cycles(),
                    (unsigned long long)r.hops(),
                    r.valid ? "" : " INVALID");
    }
    std::printf("\nExpected shape: snake numbering removes the "
                "row-wrap jump of consecutive banks, helping\n"
                "sequential walks (Lnr chases); aligned affine "
                "layouts are numbering-invariant.\n");
    return 0;
}
