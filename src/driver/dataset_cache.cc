#include "dataset_cache.hh"

#include <bit>
#include <functional>

#include "perf/counters.hh"

namespace graphr::driver
{

namespace
{

struct Key
{
    std::string spec;
    double scale = 1.0;
    std::uint64_t seed = 0;

    bool operator==(const Key &other) const = default;
};

struct KeyHash
{
    std::size_t
    operator()(const Key &key) const
    {
        std::uint64_t h = std::hash<std::string>{}(key.spec);
        h ^= std::bit_cast<std::uint64_t>(key.scale) *
             0x9e3779b97f4a7c15ull;
        h ^= key.seed * 0xc2b2ae3d27d4eb4full;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }
};

LruCache<Key, ResolvedDataset, KeyHash> &
datasetCache()
{
    static LruCache<Key, ResolvedDataset, KeyHash> cache(
        kDatasetCacheCapacity);
    return cache;
}

} // namespace

std::shared_ptr<const ResolvedDataset>
sharedDataset(const std::string &spec, double scale, std::uint64_t seed)
{
    if (isFileSpec(spec)) {
        return std::make_shared<const ResolvedDataset>(
            resolveDataset(spec, scale, seed));
    }
    static perf::Counter &hits =
        perf::Registry::instance().counter("dataset_cache.hits");
    static perf::Counter &misses =
        perf::Registry::instance().counter("dataset_cache.misses");
    bool hit = false;
    std::shared_ptr<const ResolvedDataset> dataset =
        datasetCache().getOrBuild(
            Key{spec, scale, seed},
            [&spec, scale, seed] {
                misses.add(); // failed resolves count too
                return std::make_shared<const ResolvedDataset>(
                    resolveDataset(spec, scale, seed));
            },
            &hit);
    if (hit)
        hits.add();
    return dataset;
}

LruCacheStats
datasetCacheStats()
{
    return datasetCache().stats();
}

std::size_t
datasetCacheSize()
{
    return datasetCache().size();
}

void
clearDatasetCache()
{
    datasetCache().clear();
}

} // namespace graphr::driver
