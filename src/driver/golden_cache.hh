/**
 * @file
 * The driver's view of the golden-result cache.
 *
 * The cache itself lives beside the algorithms
 * (algorithms/golden_cache.hh), where the GraphR-family runners and
 * the baseline backends share it without depending on the driver.
 * This header keeps the driver-level names that the service, the perf
 * suites and the tests reset and report through.
 */

#ifndef GRAPHR_DRIVER_GOLDEN_CACHE_HH
#define GRAPHR_DRIVER_GOLDEN_CACHE_HH

#include "algorithms/golden_cache.hh"

namespace graphr::driver
{

using graphr::GoldenCacheStats;
using graphr::goldenCacheStats;

/** Drop every golden result and symmetrised graph; reset the stats.
 *  The dataset cache (driver/dataset_cache.hh) is left alone. */
inline void
clearGoldenCache()
{
    graphr::clearGoldenCache();
}

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_GOLDEN_CACHE_HH
