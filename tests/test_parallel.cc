/**
 * @file
 * Tests of the parallel sweep machinery: the ThreadPool, shared-cache
 * concurrency (PlanCache per-key once-construction, golden-PageRank
 * cache hammering), and — the headline property — that a parallel
 * `all x all` sweep produces byte-identical JSON to the serial path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/lru_cache.hh"
#include "common/thread_pool.hh"
#include "driver/dataset_cache.hh"
#include "driver/driver.hh"
#include "driver/golden_cache.hh"
#include "driver/run_result.hh"
#include "graph/generator.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"

namespace graphr
{
namespace
{

using driver::DriverError;
using driver::RunResult;
using driver::SweepSpec;

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);

    // The pool is reusable after a wait().
    for (int i = 0; i < 10; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPoolTest, DestructorDrainsQueue)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    EXPECT_GE(ThreadPool::effectiveJobs(0), 1u);
    EXPECT_EQ(ThreadPool::effectiveJobs(3), 3u);
}

// ------------------------------------------------- PlanCache concurrency

TEST(ParallelCacheTest, PlanCacheBuildsEachKeyOnce)
{
    // Many threads hammer a private cache with a handful of graphs;
    // per-key once-construction means the miss count equals the key
    // count and every thread sees the same plan object per graph.
    constexpr int kGraphs = 4;
    constexpr int kThreads = 8;
    constexpr int kItersPerThread = 25;

    std::vector<CooGraph> graphs;
    for (int g = 0; g < kGraphs; ++g) {
        graphs.push_back(makeRmat({.numVertices = 128,
                                   .numEdges = 512,
                                   .seed = 100 + static_cast<std::uint64_t>(g)}));
    }

    PlanCache cache;
    const TilingParams tiling;
    std::vector<std::vector<TilePlanPtr>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kItersPerThread; ++i) {
                    const int g = (t + i) % kGraphs;
                    seen[static_cast<std::size_t>(t)].push_back(
                        cache.get(graphs[static_cast<std::size_t>(g)],
                                  tiling));
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    EXPECT_EQ(cache.stats().misses, static_cast<std::uint64_t>(kGraphs));
    EXPECT_EQ(cache.stats().hits,
              static_cast<std::uint64_t>(kThreads * kItersPerThread -
                                         kGraphs));
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kGraphs));

    // One distinct plan pointer per graph across all threads.
    std::set<const TilePlan *> distinct;
    for (const auto &thread_seen : seen)
        for (const TilePlanPtr &plan : thread_seen)
            distinct.insert(plan.get());
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kGraphs));
}

TEST(ParallelCacheTest, FailedBuildPropagatesAndRetries)
{
    // PlanCache's factory cannot be made to fail from the outside, so
    // exercise the retry contract directly on the shared LruCache
    // template both caches are built on.
    struct Hash
    {
        std::size_t operator()(const int &k) const
        {
            return static_cast<std::size_t>(k);
        }
    };
    LruCache<int, int, Hash> lru(4);
    EXPECT_THROW(lru.getOrBuild(1,
                                []() -> std::shared_ptr<const int> {
                                    throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The failed entry was dropped: a later build succeeds.
    bool hit = true;
    const std::shared_ptr<const int> value = lru.getOrBuild(
        1, [] { return std::make_shared<const int>(7); }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(*value, 7);
}

TEST(ParallelCacheTest, GoldenCacheHammering)
{
    driver::clearGoldenCache();
    const CooGraph graph =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 17});
    PageRankParams params;
    params.maxIterations = 20;

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const PageRankResult>> results(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < 10; ++i) {
                    results[static_cast<std::size_t>(t)] =
                        goldenPageRank(graph, params);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    EXPECT_EQ(driver::goldenCacheStats().misses, 1u);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[static_cast<std::size_t>(t)].get(),
                  results[0].get());
    driver::clearGoldenCache();
}

/** Run @p body on kThreads threads at once; results by thread. */
template <typename Body>
auto
onThreads(Body body)
{
    constexpr int kThreads = 8;
    std::vector<decltype(body())> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&results, &body, t] {
            results[static_cast<std::size_t>(t)] = body();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    return results;
}

TEST(ParallelCacheTest, ConcurrentRequestsForOneDatasetResolveOnce)
{
    driver::clearDatasetCache();
    const auto datasets = onThreads([] {
        return driver::sharedDataset("rmat:vertices=128,edges=512,seed=8");
    });
    EXPECT_EQ(driver::datasetCacheStats().misses, 1u);
    for (const auto &dataset : datasets)
        EXPECT_EQ(dataset.get(), datasets[0].get());
    driver::clearDatasetCache();
}

TEST(ParallelCacheTest, ConcurrentFingerprintsHashOnce)
{
    const CooGraph graph =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 19});
    perf::Counter &hashes =
        perf::Registry::instance().counter("graph.fingerprints");
    const std::uint64_t before = hashes.value();
    const auto fingerprints =
        onThreads([&graph] { return graph.fingerprint(); });
    for (const std::uint64_t fp : fingerprints)
        EXPECT_EQ(fp, fingerprints[0]);
    // Racing first callers may each hash; after that the memo holds.
    const std::uint64_t raced = hashes.value() - before;
    EXPECT_GE(raced, 1u);
    EXPECT_LE(raced, fingerprints.size());
    EXPECT_EQ(graph.fingerprint(), fingerprints[0]);
    EXPECT_EQ(hashes.value() - before, raced);
}

TEST(ParallelCacheTest, SymmetrizedGraphAndGoldenWccBuiltOnce)
{
    driver::clearGoldenCache();
    const CooGraph graph =
        makeRmat({.numVertices = 128, .numEdges = 512, .seed = 23});
    const auto syms =
        onThreads([&graph] { return sharedSymmetrized(graph); });
    for (const auto &sym : syms)
        EXPECT_EQ(sym.get(), syms[0].get());
    EXPECT_EQ(syms[0]->numEdges(), symmetrize(graph).numEdges());

    const auto labels = onThreads([&graph] { return goldenWcc(graph); });
    for (const auto &result : labels)
        EXPECT_EQ(result.get(), labels[0].get());
    EXPECT_EQ(driver::goldenCacheStats().misses, 1u);
    EXPECT_EQ(labels[0]->labels, wccUnionFind(graph).labels);
    driver::clearGoldenCache();
}

// --------------------------------------------------- sweep determinism

SweepSpec
fullMatrixSpec()
{
    SweepSpec spec;
    spec.workloads = {"all"};
    spec.backends = {"all"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3",
                     "chain:n=16"};
    spec.params =
        driver::ParamMap::parse("epochs=1,features=4,iterations=5");
    return spec;
}

std::string
sweepJson(const SweepSpec &spec)
{
    std::ostringstream oss;
    writeResultsJson(oss, runSweep(spec));
    return oss.str();
}

TEST(ParallelSweepTest, JsonByteIdenticalAcrossJobCounts)
{
    SweepSpec spec = fullMatrixSpec();
    spec.jobs = 1;
    const std::string serial = sweepJson(spec);
    spec.jobs = 4;
    const std::string parallel = sweepJson(spec);
    EXPECT_EQ(serial, parallel);

    spec.jobs = 0; // hardware concurrency
    EXPECT_EQ(serial, sweepJson(spec));
}

TEST(ParallelSweepTest, ProgressLinesAreWholeLines)
{
    SweepSpec spec = fullMatrixSpec();
    spec.jobs = 4;
    std::ostringstream progress;
    const std::vector<RunResult> results = runSweep(spec, &progress);

    std::istringstream lines(progress.str());
    std::string line;
    std::size_t count = 0;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(line.starts_with("running ")) << line;
        EXPECT_TRUE(line.ends_with(" ...")) << line;
        ++count;
    }
    EXPECT_EQ(count, results.size());
}

TEST(ParallelSweepTest, ErrorsSurfaceDeterministically)
{
    // An out-of-range BFS source fails on every backend; the parallel
    // path must still throw DriverError (the first error in spec
    // order) rather than crash or deadlock.
    SweepSpec spec;
    spec.workloads = {"bfs"};
    spec.backends = {"all"};
    spec.datasets = {"chain:n=8"};
    spec.params = driver::ParamMap::parse("source=99");
    spec.jobs = 4;
    EXPECT_THROW(runSweep(spec), DriverError);
}

TEST(ParallelSweepTest, DatasetResolvedOncePerSpec)
{
    // Two specs naming the same generator resolve independently, but
    // each spec is resolved exactly once per sweep: the run results
    // of duplicated combinations must be identical objects
    // value-wise. (The per-spec once-construction is exercised by
    // every parallel test; this checks the visible contract.)
    SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"graphr", "cpu", "gpu", "pim"};
    spec.datasets = {"rmat:vertices=128,edges=512,seed=3"};
    spec.jobs = 4;
    const std::vector<RunResult> results = runSweep(spec);
    ASSERT_EQ(results.size(), 4u);
    for (const RunResult &r : results) {
        EXPECT_EQ(r.dataset, "rmat");
        EXPECT_EQ(r.vertices, results[0].vertices);
        EXPECT_EQ(r.edges, results[0].edges);
    }
}

} // namespace
} // namespace graphr
