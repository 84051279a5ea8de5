/**
 * @file
 * Unit tests for the COO container and CSR/CSC adjacency builder.
 */

#include <gtest/gtest.h>

#include <utility>

#include "graph/coo.hh"
#include "graph/csr.hh"
#include "perf/counters.hh"

namespace graphr
{
namespace
{

CooGraph
paperGraph()
{
    // The 8-vertex graph of paper Fig. 5(a).
    CooGraph g(8, {});
    const std::pair<int, int> edges[] = {
        {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 0}, {3, 0}, {3, 1},
        {4, 1}, {5, 0}, {5, 1}, {6, 0}, {6, 1}, {6, 2}, {6, 3},
        {7, 1}, {7, 2}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 4},
        {6, 5}, {7, 4}, {7, 6}, {7, 7},
    };
    for (const auto &[s, d] : edges)
        g.addEdge(static_cast<VertexId>(s), static_cast<VertexId>(d));
    return g;
}

TEST(CooTest, ConstructionAndCounts)
{
    const CooGraph g = paperGraph();
    EXPECT_EQ(g.numVertices(), 8u);
    EXPECT_EQ(g.numEdges(), 25u);
}

TEST(CooTest, DegreesMatchPaperFigure)
{
    const CooGraph g = paperGraph();
    const auto out = g.outDegrees();
    const auto in = g.inDegrees();
    EXPECT_EQ(out[0], 2u);
    EXPECT_EQ(out[6], 6u);
    EXPECT_EQ(out[7], 5u);
    std::uint64_t total_out = 0;
    std::uint64_t total_in = 0;
    for (VertexId v = 0; v < 8; ++v) {
        total_out += out[v];
        total_in += in[v];
    }
    EXPECT_EQ(total_out, g.numEdges());
    EXPECT_EQ(total_in, g.numEdges());
}

TEST(CooTest, SortBySourceOrdersPairs)
{
    CooGraph g(4, {});
    g.addEdge(3, 1);
    g.addEdge(0, 2);
    g.addEdge(3, 0);
    g.addEdge(1, 3);
    g.sortBySource();
    const auto edges = g.edges();
    for (std::size_t i = 1; i < edges.size(); ++i) {
        const bool ordered =
            edges[i - 1].src < edges[i].src ||
            (edges[i - 1].src == edges[i].src &&
             edges[i - 1].dst <= edges[i].dst);
        EXPECT_TRUE(ordered);
    }
}

TEST(CooTest, DedupeRemovesDuplicatePairs)
{
    CooGraph g(3, {});
    g.addEdge(0, 1, 5.0);
    g.addEdge(0, 1, 7.0);
    g.addEdge(1, 2);
    g.dedupe();
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(CooTest, RemoveSelfLoops)
{
    CooGraph g(3, {});
    g.addEdge(0, 0);
    g.addEdge(0, 1);
    g.addEdge(2, 2);
    g.removeSelfLoops();
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(g.edges()[0].dst, 1u);
}

TEST(CooTest, DensityMatchesDefinition)
{
    const CooGraph g = paperGraph();
    EXPECT_DOUBLE_EQ(g.density(), 25.0 / 64.0);
}

TEST(CsrTest, OutNeighborsMatchEdges)
{
    const CooGraph g = paperGraph();
    const CsrGraph csr(g, CsrGraph::Direction::kOut);
    EXPECT_EQ(csr.numEdges(), g.numEdges());
    EXPECT_EQ(csr.degree(6), 6u);

    std::uint64_t found = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        found += csr.neighbors(v).size();
    EXPECT_EQ(found, g.numEdges());

    // Every COO edge appears under its source.
    for (const Edge &e : g.edges()) {
        bool present = false;
        for (const Adjacency &adj : csr.neighbors(e.src))
            present |= adj.neighbor == e.dst;
        EXPECT_TRUE(present) << e.src << "->" << e.dst;
    }
}

TEST(CsrTest, InNeighborsMatchEdges)
{
    const CooGraph g = paperGraph();
    const CsrGraph csc(g, CsrGraph::Direction::kIn);
    for (const Edge &e : g.edges()) {
        bool present = false;
        for (const Adjacency &adj : csc.neighbors(e.dst))
            present |= adj.neighbor == e.src;
        EXPECT_TRUE(present);
    }
}

// ------------------------------------------------- fingerprint memo

/** The fingerprint of @p g's current content, from a fresh graph
 *  that has no memo yet. */
std::uint64_t
freshFingerprint(const CooGraph &g)
{
    return CooGraph(g.numVertices(),
                    std::vector<Edge>(g.edges().begin(), g.edges().end()))
        .fingerprint();
}

std::uint64_t
hashesDone()
{
    return perf::Registry::instance().counter("graph.fingerprints").value();
}

TEST(CooFingerprintTest, MemoisedUntilTheNextMutation)
{
    const CooGraph g = paperGraph();
    const std::uint64_t before = hashesDone();
    const std::uint64_t fp = g.fingerprint();
    EXPECT_EQ(g.fingerprint(), fp);
    EXPECT_EQ(hashesDone() - before, 1u);

    // A copy shares the memo; a moved-from graph drops it.
    CooGraph copy = g;
    EXPECT_EQ(copy.fingerprint(), fp);
    EXPECT_EQ(hashesDone() - before, 1u);
    const CooGraph moved = std::move(copy);
    EXPECT_EQ(moved.fingerprint(), fp);
    EXPECT_EQ(copy.fingerprint(), freshFingerprint(copy));
}

TEST(CooFingerprintTest, EveryMutatorInvalidatesTheMemo)
{
    const auto expect_invalidated = [](const char *what, auto mutate) {
        CooGraph g = paperGraph();
        g.addEdge(2, 2); // a self loop and a duplicate to remove
        g.addEdge(0, 2);
        const std::uint64_t stale = g.fingerprint();
        mutate(g);
        EXPECT_NE(g.fingerprint(), stale) << what;
        EXPECT_EQ(g.fingerprint(), freshFingerprint(g)) << what;
    };
    expect_invalidated("addEdge", [](CooGraph &g) { g.addEdge(1, 0); });
    expect_invalidated("sortBySource",
                       [](CooGraph &g) { g.sortBySource(); });
    expect_invalidated("dedupe", [](CooGraph &g) { g.dedupe(); });
    expect_invalidated("removeSelfLoops",
                       [](CooGraph &g) { g.removeSelfLoops(); });
    expect_invalidated("mutableEdges", [](CooGraph &g) {
        g.mutableEdges().front().weight = 3.0;
    });
}

TEST(CsrTest, WeightsPreserved)
{
    CooGraph g(3, {});
    g.addEdge(0, 1, 2.5);
    g.addEdge(1, 2, 7.25);
    const CsrGraph csr(g, CsrGraph::Direction::kOut);
    EXPECT_DOUBLE_EQ(csr.neighbors(0)[0].weight, 2.5);
    EXPECT_DOUBLE_EQ(csr.neighbors(1)[0].weight, 7.25);
}

TEST(CsrTest, OffsetsMonotone)
{
    const CooGraph g = paperGraph();
    const CsrGraph csr(g, CsrGraph::Direction::kOut);
    const auto offsets = csr.offsets();
    ASSERT_EQ(offsets.size(), g.numVertices() + 1);
    for (std::size_t i = 1; i < offsets.size(); ++i)
        EXPECT_LE(offsets[i - 1], offsets[i]);
    EXPECT_EQ(offsets.back(), g.numEdges());
}

} // namespace
} // namespace graphr
