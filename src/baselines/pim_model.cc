#include "pim_model.hh"

#include "algorithms/traversal.hh"
#include "algorithms/golden_cache.hh"
#include "common/logging.hh"
#include "graph/csr.hh"

namespace graphr
{

PimModel::PimModel(PimParams params) : params_(params)
{
    GRAPHR_ASSERT(params_.cubes > 0 && params_.vaultsPerCube > 0,
                  "bad PIM configuration");
}

double
PimModel::edgeBatchSeconds(std::uint64_t edges) const
{
    // The remote fraction of edges crosses cubes: with vertices
    // hash-partitioned over #cubes, (cubes-1)/cubes of destinations
    // are remote and pay the message cost.
    const double remote_frac =
        static_cast<double>(params_.cubes - 1) / params_.cubes;
    const double cycles_per_edge =
        params_.cyclesPerEdge + remote_frac * params_.remoteMsgCycles;
    const double compute_s =
        static_cast<double>(edges) * cycles_per_edge *
        params_.loadImbalance /
        (static_cast<double>(totalCores()) * params_.coreGhz * 1e9);

    // Internal bandwidth roofline: edge record + vertex line traffic.
    constexpr double bytes_per_edge = 32.0;
    const double bw_s = static_cast<double>(edges) * bytes_per_edge /
                        (params_.internalBandwidthTBs * 1e12);
    return std::max(compute_s, bw_s);
}

void
PimModel::finalize(BaselineReport &report, double seconds) const
{
    report.seconds = seconds;
    report.joules = params_.activeWatts * seconds;
}

BaselineReport
PimModel::runPageRank(const CooGraph &graph, std::uint64_t iterations)
{
    BaselineReport report;
    report.platform = "pim";
    report.algorithm = "pagerank";
    report.iterations = iterations;
    report.edgesProcessed = graph.numEdges() * iterations;

    const double per_iter =
        edgeBatchSeconds(graph.numEdges()) + params_.barrierUs * 1e-6;
    finalize(report, per_iter * static_cast<double>(iterations));
    return report;
}

BaselineReport
PimModel::runSpmv(const CooGraph &graph)
{
    BaselineReport report = runPageRank(graph, 1);
    report.algorithm = "spmv";
    return report;
}

namespace
{

BaselineReport
pimRelaxation(const CooGraph &graph, RelaxationSweep &sweep,
              const char *name, const PimModel &model,
              const PimParams &params)
{
    BaselineReport report;
    report.platform = "pim";
    report.algorithm = name;

    CsrGraph out(graph, CsrGraph::Direction::kOut);
    double seconds = 0.0;
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        std::uint64_t frontier_edges = 0;
        for (VertexId u = 0; u < graph.numVertices(); ++u) {
            if (active[u])
                frontier_edges += out.degree(u);
        }
        // Small frontiers cannot use all vault cores; retain a
        // minimum serial cost of one edge per active round. Frontier
        // skew and Put-queue congestion inflate the round's work.
        seconds += model.edgeBatchSeconds(std::max<std::uint64_t>(
                       frontier_edges, 1)) *
                       params.traversalWorkInflation +
                   params.barrierUs * 1e-6;
        report.edgesProcessed += frontier_edges;
        ++report.iterations;
        sweep.step();
    }
    report.seconds = seconds;
    report.joules = params.activeWatts * seconds;
    return report;
}

} // namespace

BaselineReport
PimModel::runBfs(const CooGraph &graph, VertexId source)
{
    RelaxationSweep sweep(graph, source, /*unit_weights=*/true);
    return pimRelaxation(graph, sweep, "bfs", *this, params_);
}

BaselineReport
PimModel::runSssp(const CooGraph &graph, VertexId source)
{
    RelaxationSweep sweep(graph, source, /*unit_weights=*/false);
    return pimRelaxation(graph, sweep, "sssp", *this, params_);
}

BaselineReport
PimModel::runWcc(const CooGraph &graph)
{
    const std::shared_ptr<const CooGraph> sym = sharedSymmetrized(graph);
    RelaxationSweep sweep = makeWccSweep(*sym);
    return pimRelaxation(*sym, sweep, "wcc", *this, params_);
}

BaselineReport
PimModel::runCf(const CooGraph &ratings, const CfParams &cf)
{
    BaselineReport report;
    report.platform = "pim";
    report.algorithm = "cf";
    report.iterations = static_cast<std::uint64_t>(cf.epochs);
    report.edgesProcessed = ratings.numEdges() * cf.epochs;

    // Each rating costs 6K MAC-class operations on the in-order
    // cores; treat K MACs as K cycles.
    const double k = static_cast<double>(cf.featureLength);
    const double cycles = static_cast<double>(ratings.numEdges()) * 6.0 *
                          k * params_.loadImbalance;
    const double compute_s =
        cycles / (static_cast<double>(totalCores()) * params_.coreGhz *
                  1e9);
    const double bytes =
        static_cast<double>(ratings.numEdges()) * (8.0 + 3.0 * k * 4.0);
    const double bw_s = bytes / (params_.internalBandwidthTBs * 1e12);
    const double per_epoch =
        std::max(compute_s, bw_s) + params_.barrierUs * 1e-6;
    finalize(report, per_epoch * static_cast<double>(cf.epochs));
    return report;
}

} // namespace graphr
