#include "out_of_core.hh"

#include <algorithm>

#include "algorithms/golden_cache.hh"
#include "common/logging.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr
{

OutOfCoreRunner::OutOfCoreRunner(const GraphRConfig &config,
                                 const StorageParams &storage)
    : config_(config), storage_(storage)
{
    config_.validate();
    GRAPHR_ASSERT(storage_.seqBandwidthGBs > 0.0,
                  "storage bandwidth must be positive");
}

double
OutOfCoreRunner::streamSeconds(std::uint64_t bytes,
                               std::uint64_t block_switches) const
{
    return static_cast<double>(bytes) /
               (storage_.seqBandwidthGBs * 1e9) +
           static_cast<double>(block_switches) *
               storage_.accessLatencyUs * 1e-6;
}

OutOfCoreReport
OutOfCoreRunner::sequentialSweeps(const CooGraph &graph,
                                  SimReport node_report) const
{
    OutOfCoreReport report;
    report.node = std::move(node_report);

    // Only the block arithmetic is needed here — GridPartition is
    // pure index math, cheaper than even a plan-cache lookup.
    const GridPartition part(graph.numVertices(), config_.tiling);
    report.numBlocks = part.numBlocks();

    // Every iteration streams the whole ordered edge list once.
    const std::uint64_t iterations =
        std::max<std::uint64_t>(report.node.iterations, 1);
    const std::uint64_t bytes_per_iter =
        graph.numEdges() * config_.bytesPerEdge;
    report.bytesStreamed = bytes_per_iter * iterations;
    const double disk_per_iter =
        streamSeconds(bytes_per_iter, part.numBlocks());
    report.diskSeconds =
        disk_per_iter * static_cast<double>(iterations);

    // The sequential order lets the framework prefetch block i+1
    // while the node processes block i: per-iteration cost is the
    // max of the two streams.
    const double node_per_iter =
        report.node.seconds / static_cast<double>(iterations);
    report.totalSeconds = std::max(node_per_iter, disk_per_iter) *
                          static_cast<double>(iterations);

    report.diskJoules = static_cast<double>(report.bytesStreamed) *
                        storage_.energyPjPerByte * 1e-12;
    report.totalJoules = report.node.joules + report.diskJoules;
    return report;
}

OutOfCoreReport
OutOfCoreRunner::runPageRank(const CooGraph &graph,
                             const PageRankParams &params)
{
    GraphRNode node(config_);
    return sequentialSweeps(graph, node.runPageRank(graph, params));
}

OutOfCoreReport
OutOfCoreRunner::runSpmv(const CooGraph &graph,
                         const std::vector<Value> &x)
{
    GraphRNode node(config_);
    return sequentialSweeps(graph, node.runSpmv(graph, x));
}

OutOfCoreReport
OutOfCoreRunner::runCf(const CooGraph &ratings, const CfParams &params)
{
    GraphRNode node(config_);
    return sequentialSweeps(ratings, node.runCf(ratings, params));
}

OutOfCoreReport
OutOfCoreRunner::selectiveRounds(const CooGraph &graph,
                                 SimReport node_report,
                                 RelaxationSweep &sweep) const
{
    OutOfCoreReport report;
    report.node = std::move(node_report);

    const TilePlanPtr plan =
        PlanCache::instance().get(graph, config_.tiling);
    const GridPartition &part = plan->partition;
    report.numBlocks = part.numBlocks();
    const std::uint64_t block = part.blockSize();

    // Edge bytes per source block-row (selective scheduling unit),
    // off the plan's tile table: a tile's rows never straddle a
    // block boundary, so its whole nnz belongs to one block-row.
    std::vector<std::uint64_t> row_bytes(part.blocksPerDim(), 0);
    for (const TileMeta &meta : plan->meta.tiles())
        row_bytes[meta.row0 / block] += meta.nnz * config_.bytesPerEdge;

    // Replay the rounds; a block-row is streamed when any of its
    // sources is active.
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        for (std::uint64_t row = 0; row < part.blocksPerDim(); ++row) {
            const std::uint64_t lo = row * block;
            const std::uint64_t hi = std::min<std::uint64_t>(
                lo + block, graph.numVertices());
            bool any = false;
            for (std::uint64_t v = lo; v < hi && !any; ++v)
                any = active[v];
            if (!any)
                continue;
            report.bytesStreamed += row_bytes[row];
            report.diskSeconds += streamSeconds(
                row_bytes[row], part.blocksPerDim());
        }
        sweep.step();
    }

    report.totalSeconds = std::max(report.node.seconds,
                                   report.diskSeconds);
    report.diskJoules = static_cast<double>(report.bytesStreamed) *
                        storage_.energyPjPerByte * 1e-12;
    report.totalJoules = report.node.joules + report.diskJoules;
    return report;
}

OutOfCoreReport
OutOfCoreRunner::runBfs(const CooGraph &graph, VertexId source)
{
    GraphRNode node(config_);
    SimReport sim = node.runBfs(graph, source);
    RelaxationSweep sweep(graph, source, /*unit_weights=*/true);
    return selectiveRounds(graph, std::move(sim), sweep);
}

OutOfCoreReport
OutOfCoreRunner::runSssp(const CooGraph &graph, VertexId source)
{
    GraphRNode node(config_);
    SimReport sim = node.runSssp(graph, source);
    RelaxationSweep sweep(graph, source, /*unit_weights=*/false);
    return selectiveRounds(graph, std::move(sim), sweep);
}

OutOfCoreReport
OutOfCoreRunner::runWcc(const CooGraph &graph)
{
    GraphRNode node(config_);
    SimReport sim = node.runWcc(graph);

    const std::shared_ptr<const CooGraph> sym = sharedSymmetrized(graph);
    RelaxationSweep sweep = makeWccSweep(*sym);
    return selectiveRounds(*sym, std::move(sim), sweep);
}

} // namespace graphr
