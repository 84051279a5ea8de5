/**
 * @file
 * Process-wide golden-result and derived-graph caches.
 *
 * Timing-mode runners and the baseline models take their iteration
 * counts from the golden algorithms, and every WCC consumer walks the
 * symmetrised graph. Recomputing those per run made a warm request
 * pay for its graph again; here each is computed once per key and
 * shared by the GraphR-family runners and the baselines alike:
 *
 *  - golden PageRank/BFS/SSSP/WCC, keyed by (graph fingerprint,
 *    algorithm, parameters);
 *  - the symmetrised graph, keyed by the source graph's fingerprint.
 *
 * Fingerprints come from CooGraph::fingerprint(), which memoises its
 * hash, so a lookup on a graph already seen costs no O(E) pass.
 * Entries are shared_ptrs: eviction never invalidates a result a
 * caller still holds. Concurrent requests for one key compute it once
 * (common/lru_cache.hh).
 */

#ifndef GRAPHR_ALGORITHMS_GOLDEN_CACHE_HH
#define GRAPHR_ALGORITHMS_GOLDEN_CACHE_HH

#include <memory>

#include "algorithms/pagerank.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/lru_cache.hh"
#include "graph/coo.hh"

namespace graphr
{

/** Hit/miss counters of the golden-result cache. */
using GoldenCacheStats = LruCacheStats;

std::shared_ptr<const PageRankResult>
goldenPageRank(const CooGraph &graph, const PageRankParams &params);

std::shared_ptr<const TraversalResult> goldenBfs(const CooGraph &graph,
                                                 VertexId source);

std::shared_ptr<const TraversalResult> goldenSssp(const CooGraph &graph,
                                                  VertexId source);

std::shared_ptr<const WccResult> goldenWcc(const CooGraph &graph);

/** symmetrize(@p graph), built once per source fingerprint. */
std::shared_ptr<const CooGraph> sharedSymmetrized(const CooGraph &graph);

/** Golden-result lookups since start or the last clear (the
 *  symmetrised-graph cache is not counted here). */
GoldenCacheStats goldenCacheStats();

/** Drop every golden result and symmetrised graph; reset the stats. */
void clearGoldenCache();

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_GOLDEN_CACHE_HH
