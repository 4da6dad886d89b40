#include "graph/generators.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace affalloc::graph
{

Csr
kronecker(const KroneckerParams &p)
{
    if (p.a + p.b + p.c >= 1.0)
        SIM_FATAL("graph", "Kronecker quadrant probabilities must sum below 1");
    const VertexId n = VertexId(1) << p.scale;
    const std::uint64_t m = std::uint64_t(p.edgeFactor) * n;
    Rng rng(p.seed);

    // Graph500 convention: permute vertex labels so degree is not
    // correlated with vertex id (otherwise contiguous partitioning
    // would pile every hub into one partition).
    std::vector<VertexId> perm(n);
    for (VertexId v = 0; v < n; ++v)
        perm[v] = v;
    for (VertexId v = n - 1; v > 0; --v)
        std::swap(perm[v], perm[rng.below(v + 1)]);

    std::vector<Edge> edges;
    edges.reserve(m);
    const bool weighted = p.maxWeight > 0;
    for (std::uint64_t e = 0; e < m; ++e) {
        VertexId src = 0;
        VertexId dst = 0;
        for (std::uint32_t bit = 0; bit < p.scale; ++bit) {
            const double r = rng.uniform();
            if (r < p.a) {
                // top-left quadrant: no bits set
            } else if (r < p.a + p.b) {
                dst |= VertexId(1) << bit;
            } else if (r < p.a + p.b + p.c) {
                src |= VertexId(1) << bit;
            } else {
                src |= VertexId(1) << bit;
                dst |= VertexId(1) << bit;
            }
        }
        Edge edge{perm[src], perm[dst], 1};
        if (weighted) {
            edge.weight = static_cast<std::uint32_t>(
                rng.between(p.minWeight, p.maxWeight));
        }
        edges.push_back(edge);
    }
    return buildCsr(n, std::move(edges), p.symmetric, weighted);
}

CutpointSampler::CutpointSampler(std::vector<double> cum)
    : cum_(std::move(cum)), guide_(std::bit_ceil(cum_.size() - 1) + 1),
      total_(cum_.back()), buckets_(double(guide_.size() - 1))
{
    // One merge walk: guide_ is nondecreasing because its thresholds
    // are. j / M is exact (M is a power of two), so each threshold is
    // rounded the same way as the u * total of a draw.
    std::size_t i = 0;
    for (std::size_t j = 0; j < guide_.size(); ++j) {
        const double threshold = double(j) / buckets_ * total_;
        while (i < cum_.size() && cum_[i] <= threshold)
            ++i;
        guide_[j] = i;
    }
}

std::size_t
CutpointSampler::operator()(double u) const
{
    // j / M <= u < (j + 1) / M, and rounding u * total is monotone in
    // u, so the answer lies in [guide_[j], guide_[j + 1]]; cum_[0] = 0
    // <= r makes it at least 1.
    const double r = u * total_;
    const auto j = static_cast<std::size_t>(u * buckets_);
    const auto it = std::upper_bound(cum_.begin() + guide_[j],
                                     cum_.begin() + guide_[j + 1], r);
    return std::size_t(it - cum_.begin()) - 1;
}

Csr
powerLaw(VertexId num_vertices, std::uint64_t num_edges, double exponent,
         std::uint64_t seed, bool weighted, bool symmetrize)
{
    if (num_vertices == 0)
        SIM_FATAL("graph", "power-law graph needs at least one vertex");
    if (!std::isfinite(exponent) || exponent <= 1.0)
        SIM_FATAL("graph", "power-law exponent %g must be finite and above 1",
                  exponent);
    Rng rng(seed);
    std::vector<Edge> edges;
    edges.reserve(num_edges);
    {
        // Chung-Lu: vertex v gets expected degree proportional to
        // (v+1)^(-1/(exponent-1)); sample endpoints from the cumulative
        // weight distribution via inversion. The sampler and labels die
        // before buildCsr, the generator's peak.
        const double theta = 1.0 / (exponent - 1.0);
        std::vector<double> cum(num_vertices + 1, 0.0);
        for (VertexId v = 0; v < num_vertices; ++v)
            cum[v + 1] = cum[v] + std::pow(double(v + 1), -theta);
        const CutpointSampler index(std::move(cum));

        // Permute labels so degree is uncorrelated with vertex id (see
        // kronecker()).
        std::vector<VertexId> perm(num_vertices);
        for (VertexId v = 0; v < num_vertices; ++v)
            perm[v] = v;
        for (VertexId v = num_vertices - 1; v > 0; --v)
            std::swap(perm[v], perm[rng.below(v + 1)]);

        auto sample = [&]() -> VertexId {
            return perm[index(rng.uniform())];
        };
        for (std::uint64_t e = 0; e < num_edges; ++e) {
            Edge edge{sample(), sample(), 1};
            if (weighted)
                edge.weight = static_cast<std::uint32_t>(rng.between(1, 255));
            edges.push_back(edge);
        }
    }
    return buildCsr(num_vertices, std::move(edges), symmetrize, weighted);
}

Csr
twitchLike(std::uint64_t seed)
{
    // Table 4: 168,114 vertices, 13.6M directed edges, avg degree 81.
    return powerLaw(168114, 13595114 / 2, 2.2, seed, /*weighted=*/true,
                    /*symmetrize=*/true);
}

Csr
gplusLike(std::uint64_t seed)
{
    // Table 4: 107,614 vertices, 13.7M directed edges, avg degree 127.
    return powerLaw(107614, 13673453 / 2, 2.05, seed, /*weighted=*/true,
                    /*symmetrize=*/true);
}

} // namespace affalloc::graph
