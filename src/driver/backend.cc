#include "backend.hh"

#include "algorithms/golden_cache.hh"
#include "graphr/node.hh"

namespace graphr::driver
{

namespace
{

/** Common result header every backend fills the same way. */
RunResult
makeResult(const std::string &backend, const Workload &workload,
           const ResolvedDataset &dataset)
{
    RunResult r;
    r.workload = workload.name;
    r.backend = backend;
    r.dataset = dataset.name;
    r.vertices = dataset.graph.numVertices();
    r.edges = dataset.graph.numEdges();
    return r;
}

/** Validate a BFS/SSSP source against the graph. */
VertexId
checkedSource(const Workload &workload, const ResolvedDataset &dataset)
{
    if (workload.params.source >= dataset.graph.numVertices()) {
        throw DriverError(
            "source vertex " + std::to_string(workload.params.source) +
            " out of range for dataset '" + dataset.name + "' (|V| = " +
            std::to_string(dataset.graph.numVertices()) + ")");
    }
    return workload.params.source;
}

/**
 * CF parameters adjusted to the dataset: a bipartite graph knows its
 * user/item split; on a general graph the first half of the vertex
 * range is treated as users unless users=... was given.
 */
CfParams
effectiveCf(const Workload &workload, const ResolvedDataset &dataset)
{
    CfParams cf = workload.params.cf;
    if (cf.numUsers == 0) {
        cf.numUsers = dataset.bipartite
                          ? dataset.numUsers
                          : std::max<VertexId>(
                                1, dataset.graph.numVertices() / 2);
    }
    if (cf.numUsers >= dataset.graph.numVertices()) {
        throw DriverError("cf users=" + std::to_string(cf.numUsers) +
                          " leaves no item vertices on dataset '" +
                          dataset.name + "'");
    }
    return cf;
}

/**
 * Shared dispatch for any runner exposing the GraphR-family method
 * surface (GraphRNode, OutOfCoreRunner): one run* entry per workload,
 * SpMV taking an explicit input vector.
 */
template <typename Runner>
RunResult
runGraphRFamily(Runner &runner, const std::string &backend_name,
                const Workload &workload,
                const ResolvedDataset &dataset)
{
    RunResult result = makeResult(backend_name, workload, dataset);
    const CooGraph &graph = dataset.graph;
    switch (workload.kind) {
      case WorkloadKind::kPageRank:
        result.absorb(
            runner.runPageRank(graph, workload.params.pagerank));
        break;
      case WorkloadKind::kSpmv: {
        const std::vector<Value> x(graph.numVertices(), 1.0);
        result.absorb(runner.runSpmv(graph, x));
        break;
      }
      case WorkloadKind::kBfs:
        result.absorb(
            runner.runBfs(graph, checkedSource(workload, dataset)));
        break;
      case WorkloadKind::kSssp:
        result.absorb(
            runner.runSssp(graph, checkedSource(workload, dataset)));
        break;
      case WorkloadKind::kWcc:
        result.absorb(runner.runWcc(graph));
        break;
      case WorkloadKind::kCf:
        result.absorb(
            runner.runCf(graph, effectiveCf(workload, dataset)));
        break;
    }
    return result;
}

/** The paper's evaluated GraphR node. */
class GraphRBackend : public Backend
{
  public:
    explicit GraphRBackend(const BackendOptions &options)
        : config_(options.config)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "graphr";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        GraphRNode node(config_);
        return runGraphRFamily(node, name(), workload, dataset);
    }

  private:
    GraphRConfig config_;
};

/** GraphR cluster with destination-stripe partitioning. */
class MultiNodeBackend : public Backend
{
  public:
    explicit MultiNodeBackend(const BackendOptions &options)
        : cluster_(options.config, options.numNodes, options.link)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "multinode";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        RunResult result = makeResult(name(), workload, dataset);
        const CooGraph &graph = dataset.graph;
        switch (workload.kind) {
          case WorkloadKind::kPageRank:
            result.absorb(
                cluster_.runPageRank(graph, workload.params.pagerank));
            break;
          case WorkloadKind::kSpmv:
            result.absorb(cluster_.runSpmv(graph));
            break;
          case WorkloadKind::kBfs:
            result.absorb(cluster_.runBfs(
                graph, checkedSource(workload, dataset)));
            break;
          case WorkloadKind::kSssp:
            result.absorb(cluster_.runSssp(
                graph, checkedSource(workload, dataset)));
            break;
          case WorkloadKind::kWcc:
            result.absorb(cluster_.runWcc(graph));
            break;
          case WorkloadKind::kCf:
            result.absorb(
                cluster_.runCf(graph, effectiveCf(workload, dataset)));
            break;
        }
        return result;
    }

  private:
    MultiNodeGraphR cluster_;
};

/** GraphR node fed block-by-block from modelled disk. */
class OutOfCoreBackend : public Backend
{
  public:
    explicit OutOfCoreBackend(const BackendOptions &options)
        : runner_(options.config, options.storage)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "outofcore";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        return runGraphRFamily(runner_, name(), workload, dataset);
    }

  private:
    OutOfCoreRunner runner_;
};

/**
 * Shared dispatch for the three baseline models (identical method
 * surface; PageRank takes the golden iteration count so baselines
 * and GraphR converge identically).
 */
template <typename Model>
RunResult
runBaseline(Model &model, const std::string &backend_name,
            const Workload &workload, const ResolvedDataset &dataset)
{
    RunResult result = makeResult(backend_name, workload, dataset);
    const CooGraph &graph = dataset.graph;
    switch (workload.kind) {
      case WorkloadKind::kPageRank: {
        // Cached: a `--backend all` sweep computes the golden
        // iteration count once, not once per baseline backend.
        const std::shared_ptr<const PageRankResult> golden =
            goldenPageRank(graph, workload.params.pagerank);
        result.absorb(model.runPageRank(
            graph, static_cast<std::uint64_t>(golden->iterations)));
        break;
      }
      case WorkloadKind::kSpmv:
        result.absorb(model.runSpmv(graph));
        break;
      case WorkloadKind::kBfs:
        result.absorb(
            model.runBfs(graph, checkedSource(workload, dataset)));
        break;
      case WorkloadKind::kSssp:
        result.absorb(
            model.runSssp(graph, checkedSource(workload, dataset)));
        break;
      case WorkloadKind::kWcc:
        result.absorb(model.runWcc(graph));
        break;
      case WorkloadKind::kCf:
        result.absorb(
            model.runCf(graph, effectiveCf(workload, dataset)));
        break;
    }
    return result;
}

class CpuBackend : public Backend
{
  public:
    explicit CpuBackend(const BackendOptions &options)
        : model_(options.cpu)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "cpu";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        return runBaseline(model_, name(), workload, dataset);
    }

  private:
    CpuModel model_;
};

class GpuBackend : public Backend
{
  public:
    explicit GpuBackend(const BackendOptions &options)
        : model_(options.gpu)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "gpu";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        return runBaseline(model_, name(), workload, dataset);
    }

  private:
    GpuModel model_;
};

class PimBackend : public Backend
{
  public:
    explicit PimBackend(const BackendOptions &options)
        : model_(options.pim)
    {
    }

    const std::string &
    name() const override
    {
        static const std::string n = "pim";
        return n;
    }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        return runBaseline(model_, name(), workload, dataset);
    }

  private:
    PimModel model_;
};

} // namespace

const std::vector<std::string> &
allBackendNames()
{
    static const std::vector<std::string> names = {
        "graphr", "multinode", "outofcore", "cpu", "gpu", "pim",
    };
    return names;
}

std::unique_ptr<Backend>
makeBackend(const std::string &name, const BackendOptions &options)
{
    if (name == "graphr")
        return std::make_unique<GraphRBackend>(options);
    if (name == "multinode")
        return std::make_unique<MultiNodeBackend>(options);
    if (name == "outofcore")
        return std::make_unique<OutOfCoreBackend>(options);
    if (name == "cpu")
        return std::make_unique<CpuBackend>(options);
    if (name == "gpu")
        return std::make_unique<GpuBackend>(options);
    if (name == "pim")
        return std::make_unique<PimBackend>(options);
    std::string msg = "unknown backend '" + name + "' (known:";
    for (const std::string &n : allBackendNames())
        msg += " " + n;
    msg += ")";
    throw DriverError(msg);
}

} // namespace graphr::driver
