/**
 * @file
 * Golden weakly connected components.
 *
 * Table 2 notes GraphR supports "more examples (but not all)" of
 * vertex programs; WCC by min-label propagation is the canonical
 * third parallel-add-op workload: processEdge is the identity
 * (an addition with weight 0), reduce is min, and the active list is
 * required. Labels propagate over the symmetrised edge set.
 */

#ifndef GRAPHR_ALGORITHMS_WCC_HH
#define GRAPHR_ALGORITHMS_WCC_HH

#include <vector>

#include "algorithms/traversal.hh"
#include "graph/coo.hh"

namespace graphr
{

/** Result of a WCC run. */
struct WccResult
{
    /** Component label per vertex (the minimum vertex id reachable). */
    std::vector<VertexId> labels;
    /** Number of distinct components. */
    std::uint64_t numComponents = 0;
    /** Synchronous propagation rounds executed. */
    int iterations = 0;
};

/** Min-label propagation over the symmetrised graph (shared through
 *  sharedSymmetrized(), algorithms/golden_cache.hh). */
WccResult wcc(const CooGraph &graph);

/**
 * Reference via disjoint-set union — used by tests to validate the
 * label-propagation result independently.
 */
WccResult wccUnionFind(const CooGraph &graph);

/** Edges plus their reverses (weights preserved). */
CooGraph symmetrize(const CooGraph &graph);

/**
 * The WCC relaxation over an already-symmetrised graph: every vertex
 * starts active with its own id as label, weights enter as zero.
 * Shared by every cost model that replays WCC rounds. The sweep
 * references `sym_graph`, which must outlive it.
 */
RelaxationSweep makeWccSweep(const CooGraph &sym_graph);

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_WCC_HH
