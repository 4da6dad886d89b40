#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "graph/generators.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

using namespace affalloc;
using graph::Csr;
using graph::KroneckerParams;
using graph::VertexId;

namespace
{

/**
 * powerLaw() with a binary search of the whole cumulative weight array
 * per endpoint: the oracle of its cutpoint sampler.
 */
Csr
binarySearchPowerLaw(VertexId num_vertices, std::uint64_t num_edges,
                     double exponent, std::uint64_t seed, bool weighted,
                     bool symmetrize)
{
    Rng rng(seed);
    const double theta = 1.0 / (exponent - 1.0);
    std::vector<double> cum(num_vertices + 1, 0.0);
    for (VertexId v = 0; v < num_vertices; ++v)
        cum[v + 1] = cum[v] + std::pow(double(v + 1), -theta);
    const double total = cum.back();

    std::vector<VertexId> perm(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v)
        perm[v] = v;
    for (VertexId v = num_vertices - 1; v > 0; --v)
        std::swap(perm[v], perm[rng.below(v + 1)]);

    auto sample = [&]() -> VertexId {
        const double r = rng.uniform() * total;
        const auto it = std::upper_bound(cum.begin(), cum.end(), r);
        const std::size_t idx = std::size_t(it - cum.begin());
        return perm[static_cast<VertexId>(idx == 0 ? 0 : idx - 1)];
    };

    std::vector<graph::Edge> edges;
    edges.reserve(num_edges);
    for (std::uint64_t e = 0; e < num_edges; ++e) {
        graph::Edge edge{sample(), sample(), 1};
        if (weighted)
            edge.weight = static_cast<std::uint32_t>(rng.between(1, 255));
        edges.push_back(edge);
    }
    return graph::buildCsr(num_vertices, std::move(edges), symmetrize,
                           weighted);
}

/** powerLaw() and its oracle build the same graph for one shape. */
::testing::AssertionResult
matchesOracle(VertexId n, std::uint64_t m, double exponent,
              std::uint64_t seed, bool weighted, bool symmetrize)
{
    const Csr fast = graph::powerLaw(n, m, exponent, seed, weighted,
                                     symmetrize);
    const Csr slow =
        binarySearchPowerLaw(n, m, exponent, seed, weighted, symmetrize);
    if (fast.numVertices == slow.numVertices &&
        fast.rowOffsets == slow.rowOffsets && fast.edges == slow.edges &&
        fast.weights == slow.weights)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "n=" << n << " m=" << m << " exponent=" << exponent
           << " seed=" << seed << " weighted=" << weighted
           << " symmetrize=" << symmetrize;
}

} // namespace

TEST(Kronecker, SizeMatchesParameters)
{
    KroneckerParams p;
    p.scale = 12;
    p.edgeFactor = 8;
    const Csr g = graph::kronecker(p);
    EXPECT_EQ(g.numVertices, 1u << 12);
    // Symmetrized and deduped: between edgeFactor*n and 2x that.
    EXPECT_GT(g.numEdges(), (1u << 12) * 8u / 2);
    EXPECT_LE(g.numEdges(), (1u << 12) * 16u);
    g.validate();
}

TEST(Kronecker, Deterministic)
{
    KroneckerParams p;
    p.scale = 10;
    p.edgeFactor = 4;
    const Csr a = graph::kronecker(p);
    const Csr b = graph::kronecker(p);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.weights, b.weights);
}

TEST(Kronecker, DifferentSeedsDiffer)
{
    KroneckerParams p;
    p.scale = 10;
    p.edgeFactor = 4;
    const Csr a = graph::kronecker(p);
    p.seed = 999;
    const Csr b = graph::kronecker(p);
    EXPECT_NE(a.edges, b.edges);
}

TEST(Kronecker, WeightsInTable3Range)
{
    KroneckerParams p;
    p.scale = 10;
    p.edgeFactor = 4;
    const Csr g = graph::kronecker(p);
    ASSERT_FALSE(g.weights.empty());
    for (auto w : g.weights) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 255u);
    }
}

TEST(Kronecker, SkewedDegreeDistribution)
{
    KroneckerParams p;
    p.scale = 12;
    p.edgeFactor = 16;
    const Csr g = graph::kronecker(p);
    std::uint32_t max_deg = 0;
    for (graph::VertexId v = 0; v < g.numVertices; ++v)
        max_deg = std::max(max_deg, g.degree(v));
    // RMAT hubs dwarf the average.
    EXPECT_GT(max_deg, 8 * g.averageDegree());
}

TEST(PowerLaw, TargetsEdgeCount)
{
    const Csr g = graph::powerLaw(4096, 64 * 1024, 2.2, 7);
    // Dedup removes some, but the bulk survives.
    EXPECT_GT(g.numEdges(), 40u * 1024);
    EXPECT_LE(g.numEdges(), 64u * 1024);
    g.validate();
}

TEST(PowerLaw, SkewIncreasesWithSmallerExponent)
{
    const Csr flat = graph::powerLaw(4096, 32 * 1024, 3.5, 7);
    const Csr skewed = graph::powerLaw(4096, 32 * 1024, 2.0, 7);
    auto max_degree = [](const Csr &g) {
        std::uint32_t m = 0;
        for (graph::VertexId v = 0; v < g.numVertices; ++v)
            m = std::max(m, g.degree(v));
        return m;
    };
    EXPECT_GT(max_degree(skewed), max_degree(flat));
}

TEST(PowerLaw, CutpointSamplerMatchesBinarySearch)
{
    // Seeded random shapes: tiny and non-power-of-two vertex counts,
    // no edges and more edges than vertex pairs, exponents across
    // [1.01, 8], both symmetrize settings.
    Rng shapes(20261020);
    for (int i = 0; i < 240; ++i) {
        const bool dense = i < 3 || i % 8 == 1;
        const VertexId n =
            i < 3 ? VertexId(i + 1)
                  : VertexId(shapes.between(1, dense ? 64 : 5000));
        std::uint64_t m = shapes.below(4 * std::uint64_t(n) + 64);
        if (dense)
            m = std::uint64_t(n) * n + shapes.between(1, 64);
        else if (i % 8 == 0)
            m = 0;
        double exponent = 1.01 + 6.99 * shapes.uniform();
        if (i == 4)
            exponent = 1.01;
        else if (i == 5)
            exponent = 8.0;
        const bool weighted = shapes.chance(0.5);
        const bool symmetrize = shapes.chance(0.5);
        ASSERT_TRUE(matchesOracle(n, m, exponent, shapes.next(), weighted,
                                  symmetrize));
    }
    // The benchmark's graph input at its default and held-out seeds.
    for (std::uint64_t seed : {1u, 1001u})
        ASSERT_TRUE(matchesOracle(93750, 1500000, 2.2, seed, true, false));
}

TEST(PowerLaw, CutpointSamplerExactAtBucketEdges)
{
    // Where a cutpoint table can go wrong: draws a few ulps either side
    // of a bucket edge j / M, over cumulative arrays with entries on
    // and one ulp beside the table's thresholds (j / M) * total. Totals
    // range from subnormal to the top binade, where u * total * M would
    // overflow.
    static constexpr int binades[] = {-1060, -500, 0, 10, 500, 1023};
    Rng rng(1974);
    for (int trial = 0; trial < 240; ++trial) {
        const std::size_t n = rng.between(1, 300);
        const std::size_t buckets = std::bit_ceil(n);
        const double total =
            std::ldexp(1.0 + rng.uniform(), binades[trial % 6]);
        std::vector<double> cum{0.0, total};
        for (std::size_t k = 1; k < n; ++k) {
            const double t = double(rng.below(buckets)) /
                             double(buckets) * total;
            switch (rng.below(4)) {
              case 0: cum.push_back(t); break;
              case 1: cum.push_back(std::nextafter(t, 0.0)); break;
              case 2: cum.push_back(std::nextafter(t, total)); break;
              default: cum.push_back(total * rng.uniform()); break;
            }
        }
        std::sort(cum.begin(), cum.end());
        const graph::CutpointSampler sampler(cum);
        auto check = [&](double u) {
            if (u < 0.0 || u >= 1.0)
                return;
            const auto it = std::upper_bound(cum.begin(), cum.end(),
                                             u * total);
            ASSERT_EQ(sampler(u), std::size_t(it - cum.begin()) - 1)
                << "trial " << trial << " u=" << u << " n=" << n;
        };
        for (std::size_t j = 0; j <= buckets; ++j) {
            double below = double(j) / double(buckets);
            double above = below;
            for (int step = 0; step < 4; ++step) {
                check(below);
                check(above);
                below = std::nextafter(below, 0.0);
                above = std::nextafter(above, 1.0);
            }
        }
        for (int draw = 0; draw < 1000; ++draw)
            check(rng.uniform());
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(PowerLaw, RejectsInputsItCannotSample)
{
    EXPECT_THROW(graph::powerLaw(0, 16, 2.2, 1), FatalError);
    EXPECT_THROW(graph::powerLaw(64, 16, std::nan(""), 1), FatalError);
    EXPECT_THROW(
        graph::powerLaw(64, 16, std::numeric_limits<double>::infinity(), 1),
        FatalError);
    EXPECT_THROW(graph::powerLaw(64, 16, 1.0, 1), FatalError);
    EXPECT_THROW(graph::powerLaw(64, 16, 0.5, 1), FatalError);
    EXPECT_EQ(graph::powerLaw(1, 16, 1.01, 1).numVertices, 1u);
}

TEST(RealWorldStandIns, MatchTable4Scale)
{
    const Csr tw = graph::twitchLike();
    EXPECT_EQ(tw.numVertices, 168114u);
    // Avg degree ~81: allow dedup slack.
    EXPECT_GT(tw.averageDegree(), 40.0);
    EXPECT_LT(tw.averageDegree(), 100.0);

    const Csr gp = graph::gplusLike();
    EXPECT_EQ(gp.numVertices, 107614u);
    EXPECT_GT(gp.averageDegree(), 60.0);
    EXPECT_LT(gp.averageDegree(), 150.0);
    EXPECT_GT(gp.averageDegree(), tw.averageDegree());
}
