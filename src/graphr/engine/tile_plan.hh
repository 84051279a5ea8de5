/**
 * @file
 * TilePlan: the immutable product of streaming-apply preprocessing.
 *
 * GraphR preprocesses a graph once (offline, in software — paper
 * section 3.4): grid-partition the adjacency matrix, sort the COO
 * edge list into streaming-apply tile order (O(E log E)) and extract
 * the per-tile activity metadata the cost model consumes. Every
 * execution layer — single node, multi-node stripes, out-of-core
 * blocks, driver sweeps — walks the same three products, so they are
 * bundled here as one shareable, immutable plan. PlanCache
 * (plan_cache.hh) memoises plans per (graph fingerprint, tiling) so
 * repeated runs stop redoing the sort.
 */

#ifndef GRAPHR_GRAPHR_ENGINE_TILE_PLAN_HH
#define GRAPHR_GRAPHR_ENGINE_TILE_PLAN_HH

#include <cstdint>
#include <memory>

#include "graph/coo.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"
#include "graphr/tile_meta.hh"

namespace graphr
{

/**
 * Preprocessing products shared by all tile-walking runners. Built
 * once per (graph, tiling); treated as immutable afterwards so one
 * instance can be shared across runs and backends — concurrent
 * readers need no synchronisation, which is what lets PlanCache hand
 * one TilePlanPtr to every worker of a parallel sweep.
 */
struct TilePlan
{
    GridPartition partition;
    OrderedEdgeList ordered;
    TileMetaTable meta;
    /** Fingerprint of the graph the plan was built from. */
    std::uint64_t fingerprint = 0;

    TilePlan(const CooGraph &graph, const TilingParams &tiling);

    /**
     * Assemble a plan from already-prepared parts (no sort): the
     * deserialisation path of the on-disk plan store. The parts must
     * come from a prior prepare under the same tiling — the store
     * validates checksums and fingerprints before calling this.
     */
    TilePlan(VertexId num_vertices, const TilingParams &tiling,
             std::vector<Edge> edges, std::vector<TileSpan> tile_spans,
             std::vector<TileMeta> tile_meta, std::uint64_t total_nnz,
             std::uint64_t graph_fingerprint);

    /**
     * Assemble a plan by draining a tile-at-a-time chunk source (the
     * streaming decode path of compressed plan artifacts): edges and
     * tile spans come from the cursor without a sort, and the per-tile
     * metadata is recomputed deterministically from the ordered list —
     * the same code path a fresh prepare takes, so downstream results
     * are byte-identical.
     */
    TilePlan(VertexId num_vertices, const TilingParams &tiling,
             TileChunkSource &chunks, std::uint64_t graph_fingerprint);
};

/** Plans are shared (cache + concurrent runners): ref-counted const. */
using TilePlanPtr = std::shared_ptr<const TilePlan>;

/**
 * Order-sensitive 64-bit FNV-1a fingerprint of a graph (vertex count,
 * edge count, every edge's endpoints and weight bits): the key of
 * every plan-level cache. Forwards to CooGraph::fingerprint(), so the
 * O(E) hash runs once per graph, not once per lookup.
 */
std::uint64_t graphFingerprint(const CooGraph &graph);

} // namespace graphr

#endif // GRAPHR_GRAPHR_ENGINE_TILE_PLAN_HH
