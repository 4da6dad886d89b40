#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>

#include "obs/placement_explain.hh"
#include "test_helpers.hh"

using namespace affalloc;
using alloc::AllocatorOptions;
using alloc::BankPolicy;
using test::MachineFixture;

namespace
{

MachineFixture
makeFixture(BankPolicy policy, double h = 5.0)
{
    AllocatorOptions opts;
    opts.policy = policy;
    opts.hybridH = h;
    return MachineFixture(opts);
}

} // namespace

TEST(BankPolicy, Names)
{
    EXPECT_STREQ(alloc::bankPolicyName(BankPolicy::random), "Rnd");
    EXPECT_STREQ(alloc::bankPolicyName(BankPolicy::linear), "Lnr");
    EXPECT_STREQ(alloc::bankPolicyName(BankPolicy::minHop), "Min-Hop");
    EXPECT_STREQ(alloc::bankPolicyName(BankPolicy::hybrid), "Hybrid");
}

TEST(BankPolicy, LinearRoundRobins)
{
    auto f = makeFixture(BankPolicy::linear);
    for (BankId expect = 0; expect < 64; ++expect)
        EXPECT_EQ(f.allocator->selectBank({}), expect);
    EXPECT_EQ(f.allocator->selectBank({}), 0u); // wraps
}

TEST(BankPolicy, RandomCoversManyBanks)
{
    auto f = makeFixture(BankPolicy::random);
    std::set<BankId> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(f.allocator->selectBank({}));
    EXPECT_EQ(seen.size(), 64u);
}

TEST(BankPolicy, MinHopIgnoresLoad)
{
    auto f = makeFixture(BankPolicy::minHop);
    // Pile allocations onto bank 5; min-hop keeps choosing it anyway.
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const void *aff[1] = {static_cast<char *>(anchor) + 5 * 64};
    for (int i = 0; i < 100; ++i) {
        void *p = f.allocator->mallocAff(64, 1, aff);
        EXPECT_EQ(f.machine->bankOfHost(p), 5u);
    }
    EXPECT_EQ(f.allocator->bankLoads()[5], 100u);
}

TEST(BankPolicy, HybridSpillsUnderLoad)
{
    // Eq. 4 with H > 0: once a bank is overloaded relative to the
    // average, a neighbouring bank wins (Fig. 7's n7 spill).
    auto f = makeFixture(BankPolicy::hybrid, 5.0);
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const void *aff[1] = {static_cast<char *>(anchor) + 9 * 64};
    std::set<BankId> used;
    for (int i = 0; i < 200; ++i) {
        void *p = f.allocator->mallocAff(64, 1, aff);
        used.insert(f.machine->bankOfHost(p));
    }
    EXPECT_GT(used.size(), 1u) << "hybrid should spill off bank 9";
    // But affinity still matters: the load-weighted mean distance to
    // bank 9 stays below what a uniform (random) layout would give.
    double dist_sum = 0.0;
    for (BankId b = 0; b < 64; ++b)
        dist_sum += double(f.allocator->bankLoads()[b]) *
                    f.machine->hopsBetween(b, 9);
    const double mean_dist = dist_sum / 200.0;
    double uniform = 0.0;
    for (BankId b = 0; b < 64; ++b)
        uniform += f.machine->hopsBetween(b, 9) / 64.0;
    EXPECT_LT(mean_dist, 0.8 * uniform);
}

TEST(BankPolicy, HigherHBalancesMore)
{
    // Compare max bank load after identical allocation sequences.
    auto run = [](double h) {
        auto f = makeFixture(BankPolicy::hybrid, h);
        void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
        const void *aff[1] = {static_cast<char *>(anchor) + 20 * 64};
        for (int i = 0; i < 300; ++i)
            f.allocator->mallocAff(64, 1, aff);
        std::uint64_t mx = 0;
        for (auto l : f.allocator->bankLoads())
            mx = std::max(mx, l);
        return mx;
    };
    EXPECT_GE(run(1.0), run(7.0));
}

TEST(BankPolicy, HybridWithoutAffinityBalancesPerfectly)
{
    auto f = makeFixture(BankPolicy::hybrid, 5.0);
    for (int i = 0; i < 640; ++i)
        f.allocator->mallocAff(64, 0, nullptr);
    const auto &loads = f.allocator->bankLoads();
    const auto [mn, mx] = std::minmax_element(loads.begin(), loads.end());
    EXPECT_EQ(*mn, *mx) << "equal-affinity allocations spread evenly";
}

TEST(BankPolicy, ScoreFunctionMatchesEq4)
{
    // Hand-check Eq. 4: affinity at bank 0, bank 0 has load 1, all
    // others 0, total 1, H = 5, avg_load = 1/64.
    // score(0) = 0 + 5*(1/(1/64) - 1) = 5*63 = 315
    // score(1) = 1 + 5*(0 - 1)        = -4  -> a neighbour must win.
    auto f = makeFixture(BankPolicy::hybrid, 5.0);
    void *anchor = f.allocator->allocInterleaved(64 * 64, 64, 0);
    const void *aff[1] = {anchor};
    void *p1 = f.allocator->mallocAff(64, 1, aff); // load(0) = 1
    EXPECT_EQ(f.machine->bankOfHost(p1), 0u);
    const BankId second = f.allocator->selectBank({0});
    EXPECT_NE(second, 0u);
    EXPECT_EQ(f.machine->hopsBetween(second, 0), 1u);
}

// ------------------------------------------------------------------
// Randomized differential test against a direct Eq. 4 scorer
// ------------------------------------------------------------------

namespace
{

/**
 * Eq. 4 scored the direct way: for every live bank, the mean Manhattan
 * distance from its tile to each affinity bank's tile, plus
 * H * (load / avg_load - 1); the first-lowest score wins and the
 * first-lowest other live bank is the runner-up.
 */
obs::PlacementDecision
directEq4(nsc::Machine &m, const std::vector<std::uint64_t> &loads,
          double H, const char *policy, const std::vector<BankId> &aff)
{
    const noc::Mesh &mesh = m.network().mesh();
    const std::uint32_t B = m.config().numBanks();
    std::uint64_t total = 0;
    for (std::uint64_t l : loads)
        total += l;
    const double avg_load = double(total) / double(B);
    const auto dist = [](std::uint32_t a, std::uint32_t b) {
        return a > b ? a - b : b - a;
    };
    std::vector<double> hops(B), load(B), score(B);
    for (BankId b = 0; b < B; ++b) {
        const TileId tb = m.tileOfBank(b);
        double sum = 0.0;
        for (BankId a : aff) {
            const TileId ta = m.tileOfBank(a);
            sum += dist(mesh.xOf(tb), mesh.xOf(ta)) +
                   dist(mesh.yOf(tb), mesh.yOf(ta));
        }
        hops[b] = aff.empty() ? 0.0 : sum / double(aff.size());
        load[b] = avg_load > 0.0
                      ? H * (double(loads[b]) / avg_load - 1.0)
                      : 0.0;
        score[b] = hops[b] + load[b];
    }
    const auto argmin = [&](BankId skip) {
        BankId best = invalidBank;
        for (BankId b = 0; b < B; ++b)
            if (b != skip && m.bankLive(b) &&
                (best == invalidBank || score[b] < score[best]))
                best = b;
        return best;
    };
    obs::PlacementDecision d;
    d.policy = policy;
    d.numAffinity = static_cast<std::uint32_t>(aff.size());
    d.chosen = argmin(invalidBank);
    d.chosenAffinity = hops[d.chosen];
    d.chosenLoad = load[d.chosen];
    d.chosenScore = score[d.chosen];
    d.runnerUp = argmin(d.chosen);
    d.runnerUpScore = d.runnerUp == invalidBank ? 0.0 : score[d.runnerUp];
    return d;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(BankPolicy, SelectBankMatchesDirectScorer)
{
    struct Mesh
    {
        std::uint32_t x, y;
    };
    // 72 wide takes the non-separable (direct) hop path.
    const Mesh meshes[] = {{8, 8}, {16, 4}, {72, 2}};
    // H = -1 stands for the Min-Hop policy.
    const double weights[] = {0.0, 0.5, 5.0, -1.0};
    std::mt19937_64 rng(4242);
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    int config = 0;
    for (const Mesh &mesh : meshes) {
        for (double h : weights) {
            for (int offline : {0, 2}) {
                for (bool explain : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << mesh.x << "x" << mesh.y << " H=" << h
                                 << " offline=" << offline
                                 << " explain=" << explain);
                    sim::MachineConfig cfg;
                    cfg.meshX = mesh.x;
                    cfg.meshY = mesh.y;
                    os::SimOS os(cfg);
                    nsc::Machine machine(cfg, os);
                    AllocatorOptions opts;
                    opts.policy =
                        h < 0 ? BankPolicy::minHop : BankPolicy::hybrid;
                    opts.hybridH = h < 0 ? 5.0 : h;
                    alloc::AffinityAllocator allocator(machine, opts);
                    const std::uint32_t B = cfg.numBanks();
                    const double H = h < 0 ? 0.0 : h;
                    const char *name = alloc::bankPolicyName(opts.policy);

                    const std::string dir = ::testing::TempDir();
                    const std::string got_path =
                        dir + "eq4_got_" + std::to_string(config) + ".txt";
                    const std::string want_path =
                        dir + "eq4_want_" + std::to_string(config) + ".txt";
                    ++config;
                    using Log = obs::PlacementExplainer;
                    std::unique_ptr<Log> got_log, want_log;
                    if (explain) {
                        got_log = std::make_unique<Log>(got_path);
                        want_log = std::make_unique<Log>(want_path);
                    }

                    // Random loads, then a few dead banks.
                    for (BankId b = 0; b < B; ++b)
                        for (std::uint64_t i = below(6); i > 0; --i)
                            allocator.allocSlotAtBank(64, b);
                    while (machine.faultPlan().numOfflineBanks() <
                           std::uint32_t(offline)) {
                        const auto b = static_cast<BankId>(below(B));
                        if (machine.bankLive(b))
                            machine.injectBankFault(b);
                    }
                    allocator.setExplainer(got_log.get());

                    for (int trial = 0; trial < 200; ++trial) {
                        if (trial % 50 == 49) {
                            // Shift the loads between rounds.
                            for (int i = 0; i < 20; ++i)
                                allocator.allocSlotAtBank(
                                    64, static_cast<BankId>(below(B)));
                        }
                        std::vector<BankId> aff(
                            h < 0 ? 1 + below(40) : below(41));
                        for (BankId &a : aff)
                            a = static_cast<BankId>(below(B));
                        const obs::PlacementDecision want = directEq4(
                            machine, allocator.bankLoads(), H, name, aff);
                        ASSERT_EQ(allocator.selectBank(aff), want.chosen)
                            << "trial " << trial;
                        if (want_log)
                            want_log->record(want);
                    }
                    allocator.setExplainer(nullptr);
                    if (explain) {
                        got_log->close();
                        want_log->close();
                        EXPECT_EQ(slurp(got_path), slurp(want_path));
                        std::remove(got_path.c_str());
                        std::remove(want_path.c_str());
                    }
                }
            }
        }
    }
}
