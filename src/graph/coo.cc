#include "coo.hh"

#include <algorithm>
#include <bit>

#include "common/checksum.hh"
#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

CooGraph::CooGraph(VertexId num_vertices, std::vector<Edge> edges)
    : numVertices_(num_vertices), edges_(std::move(edges))
{
    for (const Edge &e : edges_) {
        GRAPHR_ASSERT(e.src < numVertices_ && e.dst < numVertices_,
                      "edge (", e.src, ",", e.dst, ") out of range for |V|=",
                      numVertices_);
    }
}

void
CooGraph::addEdge(VertexId src, VertexId dst, Value weight)
{
    GRAPHR_ASSERT(src < numVertices_ && dst < numVertices_,
                  "edge (", src, ",", dst, ") out of range for |V|=",
                  numVertices_);
    edges_.push_back(Edge{src, dst, weight});
    fingerprint_.reset();
}

void
CooGraph::sortBySource()
{
    fingerprint_.reset();
    std::sort(edges_.begin(), edges_.end(),
              [](const Edge &a, const Edge &b) {
                  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
              });
}

void
CooGraph::dedupe()
{
    sortBySource(); // clears the fingerprint memo
    auto last = std::unique(edges_.begin(), edges_.end(),
                            [](const Edge &a, const Edge &b) {
                                return a.src == b.src && a.dst == b.dst;
                            });
    edges_.erase(last, edges_.end());
}

void
CooGraph::removeSelfLoops()
{
    auto last = std::remove_if(edges_.begin(), edges_.end(),
                               [](const Edge &e) { return e.src == e.dst; });
    edges_.erase(last, edges_.end());
    fingerprint_.reset();
}

std::vector<EdgeId>
CooGraph::outDegrees() const
{
    std::vector<EdgeId> deg(numVertices_, 0);
    for (const Edge &e : edges_)
        ++deg[e.src];
    return deg;
}

std::vector<EdgeId>
CooGraph::inDegrees() const
{
    std::vector<EdgeId> deg(numVertices_, 0);
    for (const Edge &e : edges_)
        ++deg[e.dst];
    return deg;
}

double
CooGraph::density() const
{
    if (numVertices_ == 0)
        return 0.0;
    const double nv = static_cast<double>(numVertices_);
    return static_cast<double>(numEdges()) / (nv * nv);
}

std::uint64_t
CooGraph::fingerprint() const
{
    if (const std::uint64_t memo = fingerprint_.get(); memo != 0)
        return memo;
    Fnv1a64 h;
    h.updateWord(numVertices_);
    h.updateWord(numEdges());
    for (const Edge &e : edges_) {
        h.updateWord((static_cast<std::uint64_t>(e.src) << 32) |
                     static_cast<std::uint64_t>(e.dst));
        h.updateWord(std::bit_cast<std::uint64_t>(
            static_cast<double>(e.weight)));
    }
    static perf::Counter &hashes =
        perf::Registry::instance().counter("graph.fingerprints");
    hashes.add();
    fingerprint_.set(h.digest());
    return h.digest();
}

} // namespace graphr
