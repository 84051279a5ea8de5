/**
 * @file
 * Coordinate-list (COO) graph container.
 */

#ifndef GRAPHR_GRAPH_COO_HH
#define GRAPHR_GRAPH_COO_HH

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "graph/edge.hh"

namespace graphr
{

/**
 * A directed graph stored as a coordinate list, the representation
 * GraphR keeps in memory ReRAM and on disk (paper Fig. 4/5). Vertices
 * are implicit in [0, numVertices).
 */
class CooGraph
{
  public:
    CooGraph() = default;

    /** Construct from an explicit vertex count and edge list. */
    CooGraph(VertexId num_vertices, std::vector<Edge> edges);

    VertexId numVertices() const { return numVertices_; }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }
    std::span<const Edge> edges() const { return edges_; }

    /**
     * Writable edge list. Clears the memoised fingerprint: finish
     * editing through the returned reference before the next
     * fingerprint() call.
     */
    std::vector<Edge> &
    mutableEdges()
    {
        fingerprint_.reset();
        return edges_;
    }

    /** Append one edge; endpoints must be < numVertices(). */
    void addEdge(VertexId src, VertexId dst, Value weight = 1.0);

    /** Sort edges by (src, dst) — the paper's assumed initial order. */
    void sortBySource();

    /** Remove duplicate (src, dst) pairs, keeping the first weight. */
    void dedupe();

    /** Remove self loops (src == dst). */
    void removeSelfLoops();

    /** Out-degree of every vertex. */
    std::vector<EdgeId> outDegrees() const;

    /** In-degree of every vertex. */
    std::vector<EdgeId> inDegrees() const;

    /** Edge density |E| / |V|^2 (the x-axis of paper Fig. 21). */
    double density() const;

    /**
     * Order-sensitive 64-bit FNV-1a fingerprint (vertex count, edge
     * count, every edge's endpoints and weight bits). The O(E) hash
     * runs on the first call and is memoised until the next mutator,
     * so every cache keyed by one graph (plans, golden results, the
     * symmetrised graph) shares a single hash. Safe to call from
     * concurrent readers.
     */
    std::uint64_t fingerprint() const;

  private:
    /**
     * Race-free memo of fingerprint(); 0 means "not computed" (a
     * graph that really hashes to 0 is simply rehashed). Copies keep
     * the memo, a moved-from graph loses it.
     */
    class FingerprintMemo
    {
      public:
        FingerprintMemo() = default;
        FingerprintMemo(const FingerprintMemo &other)
            : value_(other.get())
        {
        }
        FingerprintMemo(FingerprintMemo &&other) noexcept
            : value_(other.value_.exchange(0))
        {
        }
        FingerprintMemo &
        operator=(const FingerprintMemo &other)
        {
            set(other.get());
            return *this;
        }
        FingerprintMemo &
        operator=(FingerprintMemo &&other) noexcept
        {
            set(other.value_.exchange(0));
            return *this;
        }

        std::uint64_t get() const { return value_.load(); }
        void set(std::uint64_t value) const { value_.store(value); }
        void reset() { set(0); }

      private:
        mutable std::atomic<std::uint64_t> value_{0};
    };

    VertexId numVertices_ = 0;
    std::vector<Edge> edges_;
    FingerprintMemo fingerprint_;
};

} // namespace graphr

#endif // GRAPHR_GRAPH_COO_HH
