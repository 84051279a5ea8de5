#include "node.hh"

#include <cmath>
#include <utility>

#include "algorithms/golden_cache.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "common/logging.hh"
#include "graphr/engine/plan_cache.hh"

namespace graphr
{

namespace
{

/** Validate before any member uses the configuration. */
GraphRConfig
validated(GraphRConfig config)
{
    config.validate();
    return config;
}

} // namespace

GraphRNode::GraphRNode(GraphRConfig config)
    : config_(validated(std::move(config)))
{
}

TileExecutor
GraphRNode::makeExecutor(const CooGraph &graph)
{
    bool hit = false;
    TilePlanPtr plan =
        PlanCache::instance().get(graph, config_.tiling, &hit);
    TileExecutor exec(config_, std::move(plan));
    exec.stats().planCacheHit = hit;
    return exec;
}

SimReport
GraphRNode::runPageRank(const CooGraph &graph,
                        const PageRankParams &params,
                        std::vector<Value> *ranks_out)
{
    GRAPHR_ASSERT(graph.numVertices() > 0, "empty graph");
    TileExecutor exec = makeExecutor(graph);

    MacSpec spec;
    spec.name = "pagerank";

    std::uint64_t iterations = 0;
    std::vector<Value> ranks;
    // Function scope: referenced by spec.edgeScale below.
    std::vector<EdgeId> out_deg;

    if (config_.functional) {
        // Execute through the modelled analog datapath. The
        // programmed weight of an edge is its PageRank contribution
        // factor — constant across iterations, so resident tiles
        // (ProgramCharging::kOnce) are programmed once per run.
        const VertexId nv = graph.numVertices();
        out_deg = graph.outDegrees();
        spec.edgeScale = [damping = params.damping,
                          &out_deg](const Edge &e) {
            return damping / static_cast<double>(out_deg[e.src]);
        };

        ranks.assign(nv, 1.0 / static_cast<double>(nv));
        for (int iter = 0; iter < params.maxIterations; ++iter) {
            double dangling = 0.0;
            for (VertexId v = 0; v < nv; ++v) {
                if (out_deg[v] == 0)
                    dangling += ranks[v];
            }
            const double base =
                (1.0 - params.damping) / static_cast<double>(nv) +
                params.damping * dangling / static_cast<double>(nv);
            std::vector<Value> next(nv, base);
            exec.functionalMacSweep(spec, ranks, next);

            double delta = 0.0;
            for (VertexId v = 0; v < nv; ++v)
                delta += std::abs(next[v] - ranks[v]);
            ranks = std::move(next);
            ++iterations;
            if (params.tolerance > 0.0 && delta < params.tolerance)
                break;
        }
    } else {
        const std::shared_ptr<const PageRankResult> golden =
            goldenPageRank(graph, params);
        iterations = static_cast<std::uint64_t>(golden->iterations);
        if (ranks_out != nullptr)
            ranks = golden->ranks;
    }

    spec.sweeps = iterations;
    SimReport report = exec.macReport(spec);
    lastStats_ = exec.stats();
    if (ranks_out != nullptr)
        *ranks_out = std::move(ranks);
    return report;
}

SimReport
GraphRNode::runSpmv(const CooGraph &graph, const std::vector<Value> &x,
                    std::vector<Value> *y_out)
{
    GRAPHR_ASSERT(x.size() == graph.numVertices(),
                  "input vector length mismatch");
    TileExecutor exec = makeExecutor(graph);

    MacSpec spec;
    spec.name = "spmv";
    spec.sweeps = 1;
    spec.applyVariation = false; // SpMV is the exact validation path

    std::vector<Value> y;
    if (config_.functional) {
        spec.edgeScale = [out_deg = graph.outDegrees()](const Edge &e) {
            return e.weight / static_cast<double>(out_deg[e.src]);
        };
        y.assign(graph.numVertices(), 0.0);
        exec.functionalMacSweep(spec, x, y);
    } else if (y_out != nullptr) {
        y = spmv(graph, x);
    }

    SimReport report = exec.macReport(spec);
    lastStats_ = exec.stats();
    if (y_out != nullptr)
        *y_out = std::move(y);
    return report;
}

SimReport
GraphRNode::runBfs(const CooGraph &graph, VertexId source,
                   std::vector<Value> *dist_out)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source out of range");
    TileExecutor exec = makeExecutor(graph);
    AddOpSpec spec;
    spec.initLabels.assign(graph.numVertices(), kInfDistance);
    spec.initActive.assign(graph.numVertices(), false);
    spec.initLabels[source] = 0.0;
    spec.initActive[source] = true;
    spec.mode = WeightMode::kUnit;
    SimReport report = exec.addOpRun(graph, spec, "bfs", dist_out);
    lastStats_ = exec.stats();
    return report;
}

SimReport
GraphRNode::runSssp(const CooGraph &graph, VertexId source,
                    std::vector<Value> *dist_out)
{
    GRAPHR_ASSERT(source < graph.numVertices(), "source out of range");
    TileExecutor exec = makeExecutor(graph);
    AddOpSpec spec;
    spec.initLabels.assign(graph.numVertices(), kInfDistance);
    spec.initActive.assign(graph.numVertices(), false);
    spec.initLabels[source] = 0.0;
    spec.initActive[source] = true;
    spec.mode = WeightMode::kOriginal;
    SimReport report = exec.addOpRun(graph, spec, "sssp", dist_out);
    lastStats_ = exec.stats();
    return report;
}

SimReport
GraphRNode::runWcc(const CooGraph &graph,
                   std::vector<VertexId> *labels_out)
{
    // Min-label propagation needs both edge directions.
    const std::shared_ptr<const CooGraph> sym = sharedSymmetrized(graph);
    TileExecutor exec = makeExecutor(*sym);

    AddOpSpec spec;
    spec.initLabels.resize(sym->numVertices());
    for (VertexId v = 0; v < sym->numVertices(); ++v)
        spec.initLabels[v] = static_cast<Value>(v);
    spec.initActive.assign(sym->numVertices(), true);
    spec.mode = WeightMode::kZero;

    std::vector<Value> labels;
    SimReport report =
        exec.addOpRun(*sym, spec, "wcc",
                      labels_out != nullptr ? &labels : nullptr);
    lastStats_ = exec.stats();
    if (labels_out != nullptr) {
        labels_out->resize(labels.size());
        for (std::size_t v = 0; v < labels.size(); ++v)
            (*labels_out)[v] = static_cast<VertexId>(labels[v]);
    }
    return report;
}

SimReport
GraphRNode::runCf(const CooGraph &ratings, const CfParams &params)
{
    GRAPHR_ASSERT(params.featureLength > 0, "feature length must be > 0");
    TileExecutor exec = makeExecutor(ratings);
    // One MVM pass per feature; the gradient updates reuse the pass
    // results through the sALU datapath.
    MacSpec spec;
    spec.name = "cf";
    spec.sweeps = static_cast<std::uint64_t>(params.epochs);
    spec.passesPerTile = static_cast<std::uint32_t>(params.featureLength);
    SimReport report = exec.macReport(spec);
    lastStats_ = exec.stats();
    return report;
}

} // namespace graphr
