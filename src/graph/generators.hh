/**
 * @file
 * Synthetic graph generators standing in for the paper's inputs:
 * Graph500-style Kronecker (Table 3), degree-controlled power-law
 * graphs (Fig. 19), and synthetic stand-ins matched to the published
 * statistics of the Table 4 real-world graphs.
 */

#ifndef AFFALLOC_GRAPH_GENERATORS_HH
#define AFFALLOC_GRAPH_GENERATORS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.hh"

namespace affalloc::graph
{

/** Parameters of the RMAT/Kronecker generator. */
struct KroneckerParams
{
    /** log2 of the vertex count (Table 3: 17 -> 128k vertices). */
    std::uint32_t scale = 17;
    /** Directed edges generated per vertex before symmetrization. */
    std::uint32_t edgeFactor = 16;
    /** RMAT quadrant probabilities (Table 3: 0.57 / 0.19 / 0.19). */
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    /** Weight range (Table 3: [1, 255]); 0 max means unweighted. */
    std::uint32_t minWeight = 1;
    std::uint32_t maxWeight = 255;
    /** Symmetrize into an undirected graph (GAP convention). */
    bool symmetric = true;
    std::uint64_t seed = 42;
};

/** Generate a Kronecker (RMAT) graph. */
Csr kronecker(const KroneckerParams &params);

/**
 * Inversion sampler over a cumulative weight array, sped up by a
 * cutpoint (guide) table (Chen & Asau, 1974). For u in [0, 1) it
 * returns the i with cum[i] <= u * total < cum[i + 1], total being
 * cum.back(): exactly the index a binary search of the whole array
 * finds (DESIGN.md §12), but it searches only the few entries of cum
 * that bucket floor(u * M) spans, M = 2^ceil(log2(cum.size() - 1)).
 */
class CutpointSampler
{
  public:
    /**
     * @p cum must be nondecreasing with cum[0] = 0, at least two
     * entries and a finite cum.back() > 0.
     */
    explicit CutpointSampler(std::vector<double> cum);

    /** The weighted index that @p u in [0, 1) selects. */
    std::size_t operator()(double u) const;

  private:
    std::vector<double> cum_;
    /** guide_[j] = upper_bound(cum_, (j / M) * total); M + 1 entries. */
    std::vector<std::size_t> guide_;
    double total_;
    double buckets_;
};

/**
 * Chung-Lu style power-law graph with a target vertex count and
 * average degree (Fig. 19's degree sweep fixes |E| and varies D).
 * Needs at least one vertex and a finite exponent above 1.
 */
Csr powerLaw(VertexId num_vertices, std::uint64_t num_edges,
             double exponent, std::uint64_t seed, bool weighted = false,
             bool symmetrize = false);

/** Synthetic stand-in for twitch-gamers (Table 4: 168k V, 13.6M E). */
Csr twitchLike(std::uint64_t seed = 1);

/** Synthetic stand-in for gplus (Table 4: 108k V, 13.7M E). */
Csr gplusLike(std::uint64_t seed = 2);

} // namespace affalloc::graph

#endif // AFFALLOC_GRAPH_GENERATORS_HH
