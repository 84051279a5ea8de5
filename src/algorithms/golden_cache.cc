#include "golden_cache.hh"

#include <bit>
#include <functional>
#include <variant>

#include "perf/counters.hh"

namespace graphr
{

namespace
{

enum class Algorithm : std::uint8_t
{
    kPageRank,
    kBfs,
    kSssp,
    kWcc,
};

/** (graph, algorithm, parameters); unused parameter words stay 0. */
struct Key
{
    std::uint64_t fingerprint = 0;
    Algorithm algorithm = Algorithm::kPageRank;
    std::uint64_t params[3] = {0, 0, 0};

    bool operator==(const Key &other) const = default;
};

struct KeyHash
{
    std::size_t
    operator()(const Key &key) const
    {
        std::uint64_t h = key.fingerprint;
        h ^= static_cast<std::uint64_t>(key.algorithm) << 56;
        h ^= key.params[0] * 0x9e3779b97f4a7c15ull;
        h ^= key.params[1] << 17;
        h ^= key.params[2] * 0xc2b2ae3d27d4eb4full;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }
};

using GoldenValue = std::variant<PageRankResult, TraversalResult, WccResult>;

/** Small LRU: result vectors of huge graphs are memory-heavy. */
LruCache<Key, GoldenValue, KeyHash> &
goldenCache()
{
    static LruCache<Key, GoldenValue, KeyHash> cache(16);
    return cache;
}

/** Two entries: a symmetrised graph holds twice its source's edges,
 *  and a sweep walks its datasets one after another. */
LruCache<std::uint64_t, CooGraph, std::hash<std::uint64_t>> &
symmetrizedCache()
{
    static LruCache<std::uint64_t, CooGraph, std::hash<std::uint64_t>>
        cache(2);
    return cache;
}

/**
 * The cached result for @p key, computing it with @p compute() on a
 * miss. The returned pointer aliases the cache entry, so it keeps the
 * whole entry alive.
 */
template <typename Result, typename Compute>
std::shared_ptr<const Result>
cached(const Key &key, Compute &&compute)
{
    static perf::Counter &hits =
        perf::Registry::instance().counter("golden_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("golden_cache.misses");
    static perf::Counter &runs =
        perf::Registry::instance().counter("golden.runs");
    bool hit = false;
    const std::shared_ptr<const GoldenValue> entry =
        goldenCache().getOrBuild(
            key,
            [&compute] {
                runs.add();
                return std::make_shared<const GoldenValue>(compute());
            },
            &hit);
    (hit ? hits : misses).add();
    return std::shared_ptr<const Result>(entry, &std::get<Result>(*entry));
}

} // namespace

std::shared_ptr<const PageRankResult>
goldenPageRank(const CooGraph &graph, const PageRankParams &params)
{
    const Key key{graph.fingerprint(),
                  Algorithm::kPageRank,
                  {std::bit_cast<std::uint64_t>(params.damping),
                   static_cast<std::uint64_t>(params.maxIterations),
                   std::bit_cast<std::uint64_t>(params.tolerance)}};
    return cached<PageRankResult>(
        key, [&graph, &params] { return pagerank(graph, params); });
}

std::shared_ptr<const TraversalResult>
goldenBfs(const CooGraph &graph, VertexId source)
{
    const Key key{graph.fingerprint(), Algorithm::kBfs, {source, 0, 0}};
    return cached<TraversalResult>(
        key, [&graph, source] { return bfs(graph, source); });
}

std::shared_ptr<const TraversalResult>
goldenSssp(const CooGraph &graph, VertexId source)
{
    const Key key{graph.fingerprint(), Algorithm::kSssp, {source, 0, 0}};
    return cached<TraversalResult>(
        key, [&graph, source] { return sssp(graph, source); });
}

std::shared_ptr<const WccResult>
goldenWcc(const CooGraph &graph)
{
    const Key key{graph.fingerprint(), Algorithm::kWcc, {0, 0, 0}};
    return cached<WccResult>(key, [&graph] { return wcc(graph); });
}

std::shared_ptr<const CooGraph>
sharedSymmetrized(const CooGraph &graph)
{
    return symmetrizedCache().getOrBuild(graph.fingerprint(), [&graph] {
        return std::make_shared<const CooGraph>(symmetrize(graph));
    });
}

GoldenCacheStats
goldenCacheStats()
{
    return goldenCache().stats();
}

void
clearGoldenCache()
{
    goldenCache().clear();
    symmetrizedCache().clear();
}

} // namespace graphr
