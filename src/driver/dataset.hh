/**
 * @file
 * Dataset resolver: one string names any graph the driver can run on.
 *
 * Accepted spec forms:
 *  - Table-3 names: "wiki-vote", "WV", "orkut", "netflix", ... —
 *    matched case-insensitively against the DatasetId table with
 *    '-'/'_' ignored; generated at the requested scale.
 *  - Generator specs: "rmat:vertices=1024,edges=8192,seed=1",
 *    "er:vertices=...,edges=...", "grid:width=8,height=8",
 *    "chain:n=16", "star:n=32", "complete:n=8",
 *    "bipartite:users=64,items=32,ratings=512".
 *  - Files: "file:path" explicitly, or any spec containing a '/' —
 *    ".bin"/".grph" loads the binary format, anything else the text
 *    edge list (graph/io).
 *
 * Unknown names throw DriverError listing what is known.
 */

#ifndef GRAPHR_DRIVER_DATASET_HH
#define GRAPHR_DRIVER_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/params.hh"
#include "graph/coo.hh"

namespace graphr::driver
{

/** A graph resolved from a dataset spec. */
struct ResolvedDataset
{
    std::string name; ///< canonical name for reports
    CooGraph graph;
    /** True for user->item rating graphs (Netflix, bipartite:...). */
    bool bipartite = false;
    /** Users in a bipartite graph (max src + 1); 0 otherwise. */
    VertexId numUsers = 0;
};

/**
 * Resolve a dataset spec string.
 *
 * @param spec  see file comment for the accepted forms
 * @param scale Table-3 datasets are generated at 1/scale of the
 *              paper's edge count (>= 1); ignored for other forms
 * @param seed  generator seed for table and generator specs (a
 *              spec-level seed=... overrides it)
 */
ResolvedDataset resolveDataset(const std::string &spec,
                               double scale = 1.0,
                               std::uint64_t seed = 42);

/**
 * True when @p spec names a file ("file:path", or a spec without ':'
 * that contains a '/'): its graph is whatever the file holds when it
 * is read, not a function of the spec.
 */
bool isFileSpec(const std::string &spec);

/** Table-3 dataset names ("wiki-vote", ...) the resolver accepts. */
std::vector<std::string> knownDatasetNames();

} // namespace graphr::driver

#endif // GRAPHR_DRIVER_DATASET_HH
