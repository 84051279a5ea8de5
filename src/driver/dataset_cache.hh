/**
 * @file
 * Process-wide cache of resolved datasets.
 *
 * GraphR generates or loads a graph once and streams it many times;
 * a long-lived process (graphr_serve, a bench suite) should too.
 * sharedDataset() keeps the last few resolved graphs keyed by
 * (spec, scale, seed), so a warm request costs a lookup instead of an
 * O(E) regeneration, and the graph keeps its memoised fingerprint
 * between requests.
 *
 * - Bounded to kDatasetCacheCapacity entries: a stream that cycles
 *   through many graphs keeps only the most recent ones.
 * - File specs (isFileSpec) bypass the cache: a file can change
 *   between two requests that name it identically, so it is re-read
 *   every time.
 * - A failed resolve is never cached: every requester of the failing
 *   key gets the error and the next request tries again.
 * - Concurrent requests for one key resolve it once.
 *
 * Callers share one immutable copy through the returned shared_ptr;
 * eviction never invalidates a dataset a caller still holds.
 */

#ifndef GRAPHR_DRIVER_DATASET_CACHE_HH
#define GRAPHR_DRIVER_DATASET_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/lru_cache.hh"
#include "driver/dataset.hh"

namespace graphr::driver
{

/** Resolved datasets kept in memory at once. */
inline constexpr std::size_t kDatasetCacheCapacity = 2;

/** resolveDataset(spec, scale, seed), shared process-wide. */
std::shared_ptr<const ResolvedDataset>
sharedDataset(const std::string &spec, double scale = 1.0,
              std::uint64_t seed = 42);

/** Hit/miss counters of the cache (file-spec bypasses count as
 *  neither). */
LruCacheStats datasetCacheStats();

/** Datasets currently cached. */
std::size_t datasetCacheSize();

/** Drop every entry and reset the statistics. */
void clearDatasetCache();

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_DATASET_CACHE_HH
