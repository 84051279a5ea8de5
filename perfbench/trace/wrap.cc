/**
 * @file
 * Spans around the public calls of each layer, interposed at link time.
 *
 * The trace binary links graphr_core with `-Wl,--wrap=<symbol>` for
 * every `#define SYM` line below (CMakeLists.txt reads them from this
 * file). The linker then sends each call that crosses a translation
 * unit to `__wrap_<symbol>`, defined here, which opens a span and
 * calls the original through `__real_<symbol>`. The program's sources
 * stay untouched; the spans sit exactly at the calls the request path
 * makes. Calls inside the defining translation unit are not seen.
 *
 * Each wrapper is checked against the public declaration with a
 * static_assert, so a changed signature fails this build instead of
 * calling through a mismatched type.
 */

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "algorithms/collaborative_filtering.hh"
#include "algorithms/pagerank.hh"
#include "algorithms/spmv.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/thread_pool.hh"
#include "driver/backend.hh"
#include "driver/dataset.hh"
#include "driver/driver.hh"
#include "driver/prepare.hh"
#include "driver/spec_json.hh"
#include "graphr/engine/plan_cache.hh"
#include "graphr/engine/tile_plan.hh"
#include "service/request.hh"
#include "spans.hh"
#include "store/plan_store.hh"

using namespace graphr;
using perfbench::Span;

#define PB_STR(x) #x
#define PB_XSTR(x) PB_STR(x)
#define PB_REAL(sym) __asm__("__real_" PB_XSTR(sym))
#define PB_WRAP(sym) __asm__("__wrap_" PB_XSTR(sym))

// ------------------------------------------------------------ service

#define SYM _ZN6graphr7service16parseRequestLineERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
service::ParsedLine realParseRequestLine(const std::string &) PB_REAL(SYM);
service::ParsedLine wrapParseRequestLine(const std::string &) PB_WRAP(SYM);
#undef SYM
service::ParsedLine
wrapParseRequestLine(const std::string &line)
{
    Span span("service.parse");
    return realParseRequestLine(line);
}
static_assert(std::is_same_v<decltype(&wrapParseRequestLine),
                             decltype(&service::parseRequestLine)>);

#define SYM _ZN6graphr6driver17sweepSpecFromJsonERKNS_9JsonValueEbRKSt6vectorINSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESaISA_EE
driver::SweepSpec realSweepSpecFromJson(const JsonValue &, bool,
                                        const std::vector<std::string> &)
    PB_REAL(SYM);
driver::SweepSpec wrapSweepSpecFromJson(const JsonValue &, bool,
                                        const std::vector<std::string> &)
    PB_WRAP(SYM);
#undef SYM
driver::SweepSpec
wrapSweepSpecFromJson(const JsonValue &request, bool single,
                      const std::vector<std::string> &extra)
{
    Span span("service.spec");
    return realSweepSpecFromJson(request, single, extra);
}
static_assert(std::is_same_v<decltype(&wrapSweepSpecFromJson),
                             decltype(&driver::sweepSpecFromJson)>);

#define SYM _ZN6graphr7service15resultsResponseERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPKcRKSt6vectorINS_6driver9RunResultESaISD_EE
std::string realResultsResponse(const std::string &, const char *,
                                const std::vector<driver::RunResult> &)
    PB_REAL(SYM);
std::string wrapResultsResponse(const std::string &, const char *,
                                const std::vector<driver::RunResult> &)
    PB_WRAP(SYM);
#undef SYM
std::string
wrapResultsResponse(const std::string &id, const char *type,
                    const std::vector<driver::RunResult> &results)
{
    Span span("service.serialize");
    return realResultsResponse(id, type, results);
}
static_assert(std::is_same_v<decltype(&wrapResultsResponse),
                             decltype(&service::resultsResponse)>);

// --------------------------------------------------------- thread pool

// A task records how long it waited in the queue as a "pool.wait"
// span, and runs under its submitter's span and request id.
#define SYM _ZN6graphr10ThreadPool6submitESt8functionIFvvEE
void realSubmit(ThreadPool *, std::function<void()>) PB_REAL(SYM);
void wrapSubmit(ThreadPool *, std::function<void()>) PB_WRAP(SYM);
#undef SYM
void
wrapSubmit(ThreadPool *pool, std::function<void()> task)
{
    if (!perfbench::enabled()) {
        realSubmit(pool, std::move(task));
        return;
    }
    const perfbench::Context ctx = perfbench::currentContext();
    const std::int64_t queued = perfbench::nowNs();
    realSubmit(pool, [task = std::move(task), ctx, queued]() {
        perfbench::recordSpan("pool.wait", perfbench::newSpanId(),
                              ctx.span, ctx.rid, queued,
                              perfbench::nowNs());
        const perfbench::ScopedContext scope(ctx);
        task();
    });
}
static_assert(std::is_same_v<decltype(&ThreadPool::submit),
                             void (ThreadPool::*)(std::function<void()>)>);

// -------------------------------------------------------------- driver

#define SYM _ZN6graphr6driver8runSweepERKNS0_9SweepSpecEPSo
std::vector<driver::RunResult> realRunSweep(const driver::SweepSpec &,
                                            std::ostream *) PB_REAL(SYM);
std::vector<driver::RunResult> wrapRunSweep(const driver::SweepSpec &,
                                            std::ostream *) PB_WRAP(SYM);
#undef SYM
std::vector<driver::RunResult>
wrapRunSweep(const driver::SweepSpec &spec, std::ostream *progress)
{
    Span span("driver.sweep");
    return realRunSweep(spec, progress);
}
static_assert(std::is_same_v<decltype(&wrapRunSweep),
                             decltype(&driver::runSweep)>);

#define SYM _ZN6graphr6driver10runPrepareERKNS0_11PrepareSpecEPSo
std::vector<driver::PrepareResult>
realRunPrepare(const driver::PrepareSpec &, std::ostream *) PB_REAL(SYM);
std::vector<driver::PrepareResult>
wrapRunPrepare(const driver::PrepareSpec &, std::ostream *) PB_WRAP(SYM);
#undef SYM
std::vector<driver::PrepareResult>
wrapRunPrepare(const driver::PrepareSpec &spec, std::ostream *progress)
{
    Span span("driver.prepare");
    return realRunPrepare(spec, progress);
}
static_assert(std::is_same_v<decltype(&wrapRunPrepare),
                             decltype(&driver::runPrepare)>);

#define SYM _ZN6graphr6driver14resolveDatasetERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEdm
driver::ResolvedDataset realResolveDataset(const std::string &, double,
                                           std::uint64_t) PB_REAL(SYM);
driver::ResolvedDataset wrapResolveDataset(const std::string &, double,
                                           std::uint64_t) PB_WRAP(SYM);
#undef SYM
driver::ResolvedDataset
wrapResolveDataset(const std::string &spec, double scale,
                   std::uint64_t seed)
{
    Span span("driver.resolve");
    return realResolveDataset(spec, scale, seed);
}
static_assert(std::is_same_v<decltype(&wrapResolveDataset),
                             decltype(&driver::resolveDataset)>);

namespace
{

/** Forwards to a real backend inside a "backend.<name>" span; the
 *  span attribute is 1 for the functional (crossbar) datapath. */
class TracedBackend : public driver::Backend
{
  public:
    TracedBackend(std::unique_ptr<driver::Backend> inner,
                  const char *span, bool functional)
        : inner_(std::move(inner)), span_(span), functional_(functional)
    {
    }

    const std::string &name() const override { return inner_->name(); }

    driver::RunResult
    run(const driver::Workload &workload,
        const driver::ResolvedDataset &dataset) override
    {
        Span span(span_);
        span.setAttr(functional_ ? 1 : 0);
        return inner_->run(workload, dataset);
    }

  private:
    std::unique_ptr<driver::Backend> inner_;
    const char *span_;
    bool functional_;
};

const char *
backendSpanName(const std::string &name)
{
    if (name == "graphr")
        return "backend.graphr";
    if (name == "multinode")
        return "backend.multinode";
    if (name == "outofcore")
        return "backend.outofcore";
    if (name == "cpu")
        return "backend.cpu";
    if (name == "gpu")
        return "backend.gpu";
    if (name == "pim")
        return "backend.pim";
    return "backend.other";
}

} // namespace

#define SYM _ZN6graphr6driver11makeBackendERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_14BackendOptionsE
std::unique_ptr<driver::Backend>
realMakeBackend(const std::string &, const driver::BackendOptions &)
    PB_REAL(SYM);
std::unique_ptr<driver::Backend>
wrapMakeBackend(const std::string &, const driver::BackendOptions &)
    PB_WRAP(SYM);
#undef SYM
std::unique_ptr<driver::Backend>
wrapMakeBackend(const std::string &name,
                const driver::BackendOptions &options)
{
    return std::make_unique<TracedBackend>(
        realMakeBackend(name, options), backendSpanName(name),
        options.config.functional);
}
static_assert(std::is_same_v<decltype(&wrapMakeBackend),
                             decltype(&driver::makeBackend)>);

// -------------------------------------------------------------- engine

#define SYM _ZN6graphr16graphFingerprintERKNS_8CooGraphE
std::uint64_t realGraphFingerprint(const CooGraph &) PB_REAL(SYM);
std::uint64_t wrapGraphFingerprint(const CooGraph &) PB_WRAP(SYM);
#undef SYM
std::uint64_t
wrapGraphFingerprint(const CooGraph &graph)
{
    Span span("engine.fingerprint");
    return realGraphFingerprint(graph);
}
static_assert(std::is_same_v<decltype(&wrapGraphFingerprint),
                             decltype(&graphFingerprint)>);

// Span attribute: 1 when the plan came from memory.
#define SYM _ZN6graphr9PlanCache3getERKNS_8CooGraphERKNS_12TilingParamsEPb
TilePlanPtr realPlanCacheGet(PlanCache *, const CooGraph &,
                             const TilingParams &, bool *) PB_REAL(SYM);
TilePlanPtr wrapPlanCacheGet(PlanCache *, const CooGraph &,
                             const TilingParams &, bool *) PB_WRAP(SYM);
#undef SYM
TilePlanPtr
wrapPlanCacheGet(PlanCache *cache, const CooGraph &graph,
                 const TilingParams &tiling, bool *cache_hit)
{
    Span span("engine.plan");
    bool hit = false;
    TilePlanPtr plan = realPlanCacheGet(cache, graph, tiling, &hit);
    span.setAttr(hit ? 1 : 0);
    if (cache_hit != nullptr)
        *cache_hit = hit;
    return plan;
}
static_assert(
    std::is_same_v<decltype(&PlanCache::get),
                   TilePlanPtr (PlanCache::*)(const CooGraph &,
                                              const TilingParams &,
                                              bool *)>);

// --------------------------------------------------------------- graph

// The fresh-prepare constructor (sort + tile), not the store's
// decode constructors.
#define SYM _ZN6graphr8TilePlanC1ERKNS_8CooGraphERKNS_12TilingParamsE
void realTilePlanCtor(TilePlan *, const CooGraph &, const TilingParams &)
    PB_REAL(SYM);
void wrapTilePlanCtor(TilePlan *, const CooGraph &, const TilingParams &)
    PB_WRAP(SYM);
#undef SYM
void
wrapTilePlanCtor(TilePlan *self, const CooGraph &graph,
                 const TilingParams &tiling)
{
    Span span("graph.prepare");
    realTilePlanCtor(self, graph, tiling);
}
static_assert(
    std::is_constructible_v<TilePlan, const CooGraph &, const TilingParams &>);

// --------------------------------------------------------------- store

// Span attribute: 1 when a valid artifact was decoded.
#define SYM _ZNK6graphr9PlanStore4loadEmRKNS_12TilingParamsE
TilePlanPtr realStoreLoad(const PlanStore *, std::uint64_t,
                          const TilingParams &) PB_REAL(SYM);
TilePlanPtr wrapStoreLoad(const PlanStore *, std::uint64_t,
                          const TilingParams &) PB_WRAP(SYM);
#undef SYM
TilePlanPtr
wrapStoreLoad(const PlanStore *store, std::uint64_t fingerprint,
              const TilingParams &tiling)
{
    Span span("store.load");
    TilePlanPtr plan = realStoreLoad(store, fingerprint, tiling);
    span.setAttr(plan ? 1 : 0);
    return plan;
}
static_assert(std::is_same_v<decltype(&PlanStore::load),
                             TilePlanPtr (PlanStore::*)(
                                 std::uint64_t, const TilingParams &)
                                 const>);

#define SYM _ZNK6graphr9PlanStore4saveB5cxx11ERKNS_8TilePlanERKNS_12TilingParamsE
std::string realStoreSave(const PlanStore *, const TilePlan &,
                          const TilingParams &) PB_REAL(SYM);
std::string wrapStoreSave(const PlanStore *, const TilePlan &,
                          const TilingParams &) PB_WRAP(SYM);
#undef SYM
std::string
wrapStoreSave(const PlanStore *store, const TilePlan &plan,
              const TilingParams &tiling)
{
    Span span("store.save");
    return realStoreSave(store, plan, tiling);
}
static_assert(std::is_same_v<decltype(&PlanStore::save),
                             std::string (PlanStore::*)(
                                 const TilePlan &, const TilingParams &)
                                 const>);

// ---------------------------------------------------------- algorithms

#define SYM _ZN6graphr8pagerankERKNS_8CooGraphERKNS_14PageRankParamsE
PageRankResult realPagerank(const CooGraph &, const PageRankParams &)
    PB_REAL(SYM);
PageRankResult wrapPagerank(const CooGraph &, const PageRankParams &)
    PB_WRAP(SYM);
#undef SYM
PageRankResult
wrapPagerank(const CooGraph &graph, const PageRankParams &params)
{
    Span span("algorithms.pagerank");
    return realPagerank(graph, params);
}
static_assert(std::is_same_v<decltype(&wrapPagerank), decltype(&pagerank)>);

#define SYM _ZN6graphr3bfsERKNS_8CooGraphEj
TraversalResult realBfs(const CooGraph &, VertexId) PB_REAL(SYM);
TraversalResult wrapBfs(const CooGraph &, VertexId) PB_WRAP(SYM);
#undef SYM
TraversalResult
wrapBfs(const CooGraph &graph, VertexId source)
{
    Span span("algorithms.bfs");
    return realBfs(graph, source);
}
static_assert(std::is_same_v<decltype(&wrapBfs), decltype(&bfs)>);

#define SYM _ZN6graphr4ssspERKNS_8CooGraphEj
TraversalResult realSssp(const CooGraph &, VertexId) PB_REAL(SYM);
TraversalResult wrapSssp(const CooGraph &, VertexId) PB_WRAP(SYM);
#undef SYM
TraversalResult
wrapSssp(const CooGraph &graph, VertexId source)
{
    Span span("algorithms.sssp");
    return realSssp(graph, source);
}
static_assert(std::is_same_v<decltype(&wrapSssp), decltype(&sssp)>);

#define SYM _ZN6graphr3wccERKNS_8CooGraphE
WccResult realWcc(const CooGraph &) PB_REAL(SYM);
WccResult wrapWcc(const CooGraph &) PB_WRAP(SYM);
#undef SYM
WccResult
wrapWcc(const CooGraph &graph)
{
    Span span("algorithms.wcc");
    return realWcc(graph);
}
static_assert(std::is_same_v<decltype(&wrapWcc), decltype(&wcc)>);

#define SYM _ZN6graphr4spmvERKNS_8CooGraphERKSt6vectorIdSaIdEE
std::vector<Value> realSpmv(const CooGraph &, const std::vector<Value> &)
    PB_REAL(SYM);
std::vector<Value> wrapSpmv(const CooGraph &, const std::vector<Value> &)
    PB_WRAP(SYM);
#undef SYM
std::vector<Value>
wrapSpmv(const CooGraph &graph, const std::vector<Value> &x)
{
    Span span("algorithms.spmv");
    return realSpmv(graph, x);
}
static_assert(std::is_same_v<decltype(&wrapSpmv), decltype(&spmv)>);

#define SYM _ZN6graphr22collaborativeFilteringERKNS_8CooGraphERKNS_8CfParamsE
CfResult realCf(const CooGraph &, const CfParams &) PB_REAL(SYM);
CfResult wrapCf(const CooGraph &, const CfParams &) PB_WRAP(SYM);
#undef SYM
CfResult
wrapCf(const CooGraph &ratings, const CfParams &params)
{
    Span span("algorithms.cf");
    return realCf(ratings, params);
}
static_assert(std::is_same_v<decltype(&wrapCf),
                             decltype(&collaborativeFiltering)>);
