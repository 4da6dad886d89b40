/**
 * @file
 * Error-path coverage: every fatal() guard in the data-structure and
 * graph layers (plus the machine/config validators) must actually
 * fire on bad input instead of silently corrupting a run. Each test
 * names the guard it exercises.
 */

#include <gtest/gtest.h>

#include "ds/dynamic_graph.hh"
#include "ds/linked_csr.hh"
#include "ds/pointer_structs.hh"
#include "ds/spatial_pq.hh"
#include "ds/spatial_queue.hh"
#include "graph/generators.hh"
#include "graph/reference.hh"
#include "sim/log.hh"

#include "test_helpers.hh"

using namespace affalloc;
using test::MachineFixture;

namespace
{

/** Small valid weighted graph: a 4-cycle. */
graph::Csr
smallGraph(bool weighted)
{
    std::vector<graph::Edge> edges = {
        {0, 1, 3}, {1, 2, 1}, {2, 3, 2}, {3, 0, 5}};
    return graph::buildCsr(4, std::move(edges), true, weighted);
}

/** A recorded affine array to anchor structures to. */
void *
recordedArray(MachineFixture &f, std::uint64_t elems = 1024)
{
    alloc::AffineArray req;
    req.elem_size = 4;
    req.num_elem = elems;
    return f.allocator->mallocAff(req);
}

} // namespace

// --------------------------------------------------------- graph/

TEST(ErrorPaths, BfsSourceOutOfRange)
{
    const graph::Csr g = smallGraph(false);
    EXPECT_THROW(graph::bfsReference(g, 4), FatalError);
    EXPECT_NO_THROW(graph::bfsReference(g, 3));
}

TEST(ErrorPaths, SsspSourceOutOfRange)
{
    const graph::Csr g = smallGraph(true);
    EXPECT_THROW(graph::ssspReference(g, 99), FatalError);
}

TEST(ErrorPaths, SsspRequiresWeights)
{
    const graph::Csr g = smallGraph(false);
    EXPECT_THROW(graph::ssspReference(g, 0), FatalError);
}

TEST(ErrorPaths, CsrRejectsEdgeOutsideVertexRange)
{
    std::vector<graph::Edge> edges = {{0, 7, 1}};
    EXPECT_THROW(graph::buildCsr(4, std::move(edges), false, false),
                 FatalError);
}

TEST(ErrorPaths, KroneckerRejectsBadQuadrantProbabilities)
{
    graph::KroneckerParams p;
    p.scale = 4;
    p.a = 0.5;
    p.b = 0.3;
    p.c = 0.3; // a + b + c >= 1 leaves no room for quadrant d
    EXPECT_THROW(graph::kronecker(p), FatalError);
}

// ------------------------------------------------------------ ds/

TEST(ErrorPaths, SpatialQueueRejectsEmptyConfiguration)
{
    MachineFixture f;
    void *arr = recordedArray(f);
    EXPECT_THROW(ds::SpatialQueue(*f.allocator, arr, 0, 4), FatalError);
    EXPECT_THROW(ds::SpatialQueue(*f.allocator, arr, 1024, 0),
                 FatalError);
    EXPECT_THROW(ds::SpatialQueue(*f.allocator, arr, 1024, 4, 0),
                 FatalError);
}

TEST(ErrorPaths, SpatialQueueRejectsUnrecordedArray)
{
    MachineFixture f;
    int stack_array[16] = {};
    EXPECT_THROW(ds::SpatialQueue(*f.allocator, stack_array, 16, 4),
                 FatalError);
}

TEST(ErrorPaths, SpatialPqRejectsEmptyConfiguration)
{
    MachineFixture f;
    void *arr = recordedArray(f);
    EXPECT_THROW(ds::SpatialPriorityQueue(*f.allocator, arr, 0, 4),
                 FatalError);
    EXPECT_THROW(ds::SpatialPriorityQueue(*f.allocator, arr, 1024, 0),
                 FatalError);
}

TEST(ErrorPaths, SpatialPqRejectsUnrecordedArray)
{
    MachineFixture f;
    int stack_array[16] = {};
    EXPECT_THROW(
        ds::SpatialPriorityQueue(*f.allocator, stack_array, 16, 4),
        FatalError);
}

TEST(ErrorPaths, DynamicGraphRejectsUnrecordedVertexArray)
{
    MachineFixture f;
    int stack_array[16] = {};
    EXPECT_THROW(ds::DynamicGraph(16, *f.allocator, stack_array, 4),
                 FatalError);
}

TEST(ErrorPaths, DynamicGraphRejectsEdgeOutOfRange)
{
    MachineFixture f;
    void *arr = recordedArray(f, 16);
    ds::DynamicGraph g(16, *f.allocator, arr, 4);
    EXPECT_THROW(g.addEdge(0, 16), FatalError);
    EXPECT_THROW(g.addEdge(16, 0), FatalError);
    EXPECT_NO_THROW(g.addEdge(0, 15));
}

TEST(ErrorPaths, HashJoinTableRequiresPowerOfTwoBuckets)
{
    MachineFixture f;
    EXPECT_THROW(ds::HashJoinTable(*f.allocator, 0, true), FatalError);
    EXPECT_THROW(ds::HashJoinTable(*f.allocator, 96, true), FatalError);
    EXPECT_NO_THROW(ds::HashJoinTable(*f.allocator, 128, true));
}

TEST(ErrorPaths, LinkedCsrRejectsBadNodeSize)
{
    MachineFixture f;
    void *arr = recordedArray(f, 4);
    const graph::Csr g = smallGraph(false);
    ds::LinkedCsrOptions opts;
    opts.nodeBytes = 32; // below one cache line
    EXPECT_THROW(ds::LinkedCsr(g, *f.allocator, arr, 4, opts),
                 FatalError);
    opts.nodeBytes = 96; // not a power of two
    EXPECT_THROW(ds::LinkedCsr(g, *f.allocator, arr, 4, opts),
                 FatalError);
}

TEST(ErrorPaths, LinkedCsrWeightedRequiresWeightedSource)
{
    MachineFixture f;
    void *arr = recordedArray(f, 4);
    const graph::Csr g = smallGraph(false);
    ds::LinkedCsrOptions opts;
    opts.weighted = true;
    EXPECT_THROW(ds::LinkedCsr(g, *f.allocator, arr, 4, opts),
                 FatalError);
}

TEST(ErrorPaths, LinkedCsrRejectsUnrecordedVertexArray)
{
    MachineFixture f;
    int stack_array[4] = {};
    const graph::Csr g = smallGraph(false);
    EXPECT_THROW(ds::LinkedCsr(g, *f.allocator, stack_array, 4),
                 FatalError);
}

// ------------------------------------------------------ validators

TEST(ErrorPaths, MachineConfigRejectsBadRatesAndFaults)
{
    sim::MachineConfig cfg;
    EXPECT_NO_THROW(cfg.validate());

    cfg = sim::MachineConfig{};
    cfg.clockGhz = 0.0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = sim::MachineConfig{};
    cfg.dramTotalGBs = -1.0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = sim::MachineConfig{};
    cfg.linkBytes = 0;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = sim::MachineConfig{};
    cfg.faults.offloadRejectRate = -0.25;
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = sim::MachineConfig{};
    cfg.faults.offlineBanks = cfg.numTiles();
    EXPECT_THROW(cfg.validate(), FatalError);

    cfg = sim::MachineConfig{};
    cfg.faults.linkDegradeFactor = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}
