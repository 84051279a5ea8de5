/**
 * @file
 * Tests for the graphr_serve serving core: the request parser's
 * error paths (malformed JSON, unknown type/workload/backend/dataset,
 * queue overflow — all structured responses, never a crash), the
 * warm-state guarantees (a repeated request is plan-cache-hot and
 * edge-sort-free), response/one-shot-driver equivalence, and
 * serial-vs-concurrent byte-identical response streams.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_reader.hh"
#include "driver/driver.hh"
#include "driver/dataset_cache.hh"
#include "driver/golden_cache.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"
#include "service/request.hh"
#include "service/server.hh"

namespace graphr
{
namespace
{

namespace fs = std::filesystem;

/** Isolates the process-wide caches around every test. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resetCaches();
    }

    void
    TearDown() override
    {
        resetCaches();
    }

    static void
    resetCaches()
    {
        PlanCache::instance().setStore(nullptr);
        driver::clearDatasetCache();
        PlanCache::instance().clear();
        driver::clearGoldenCache();
        // The status latency summary reads the process-wide perf
        // registry; reset it so each test sees only its own requests.
        perf::Registry::instance().resetAll();
    }
};

/** One serve session over string streams; returns the response text. */
std::string
serveText(service::Server &server, const std::string &input)
{
    std::istringstream in(input);
    std::ostringstream out;
    server.serve(in, out);
    return out.str();
}

std::string
serveText(const std::string &input,
          const service::ServeOptions &options = {})
{
    service::Server server(options);
    return serveText(server, input);
}

/** Split response text into lines (each one JSON object). */
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

/** Every response must parse back as one JSON object per line. */
JsonValue
parsedResponse(const std::string &line)
{
    const JsonValue v = JsonValue::parse(line);
    EXPECT_TRUE(v.isObject()) << line;
    return v;
}

void
expectError(const std::string &line, const std::string &id,
            const std::string &fragment)
{
    const JsonValue v = parsedResponse(line);
    EXPECT_FALSE(v.find("ok")->asBool()) << line;
    if (id.empty())
        EXPECT_TRUE(v.find("id")->isNull()) << line;
    else
        EXPECT_EQ(v.find("id")->asString(), id) << line;
    EXPECT_NE(v.find("error")->asString().find(fragment),
              std::string::npos)
        << "expected '" << fragment << "' in: " << line;
}

const char *const kRunRequest =
    R"({"id":"r1","type":"run","workload":"pagerank",)"
    R"("backend":"outofcore","dataset":"rmat:vertices=128,edges=1024,seed=9"})";

TEST_F(ServeTest, MalformedJsonIsAStructuredErrorResponse)
{
    const auto out = lines(serveText("{\"id\": \"x\", nope\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "", "JSON error");
}

TEST_F(ServeTest, MissingOrBadIdIsAnError)
{
    const auto out = lines(serveText(
        "{\"type\":\"status\"}\n{\"id\":\"\",\"type\":\"status\"}\n"
        "{\"id\":7,\"type\":\"status\"}\n"));
    ASSERT_EQ(out.size(), 3u);
    expectError(out[0], "", "needs a string 'id'");
    expectError(out[1], "", "non-empty");
    expectError(out[2], "", "non-empty");
}

TEST_F(ServeTest, UnknownTypeIsAnError)
{
    const auto out =
        lines(serveText("{\"id\":\"x\",\"type\":\"frobnicate\"}\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "x", "unknown request type 'frobnicate'");
}

TEST_F(ServeTest, UnknownNamesAndMembersAreErrors)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","workload":"nope","dataset":"chain:n=8"})"
        "\n"
        R"({"id":"b","type":"run","backend":"nope","dataset":"chain:n=8"})"
        "\n"
        R"({"id":"c","type":"run","dataset":"chain:n=8","plan_dir":"x"})"
        "\n"
        R"({"id":"d","type":"run","workload":"pagerank"})"
        "\n"));
    ASSERT_EQ(out.size(), 4u);
    expectError(out[0], "a", "unknown workload 'nope'");
    expectError(out[1], "b", "unknown backend 'nope'");
    expectError(out[2], "c", "unknown member 'plan_dir'");
    expectError(out[3], "d", "needs 'dataset'");
}

TEST_F(ServeTest, UnknownDatasetFailsAtExecutionWithAnErrorResponse)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","dataset":"no-such-graph"})" "\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "a", "no-such-graph");
}

TEST_F(ServeTest, RunRequestRejectsListValuedSpecs)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","workloads":["all"],"dataset":"chain:n=8"})"
        "\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "a", "exactly one");
}

TEST_F(ServeTest, QueueDepthBoundsAdmission)
{
    service::ServeOptions options;
    options.queueDepth = 0; // reject every work request
    const auto out = lines(serveText(
        std::string(kRunRequest) + "\n" +
            R"({"id":"q","type":"status"})" + "\n",
        options));
    ASSERT_EQ(out.size(), 2u);
    expectError(out[0], "r1", "queue full");
    const JsonValue status = parsedResponse(out[1]);
    EXPECT_TRUE(status.find("ok")->asBool());
    EXPECT_EQ(status.find("served")->find("rejected")->asU64(), 1u);
    EXPECT_EQ(status.find("served")->find("admitted")->asU64(), 0u);
}

TEST_F(ServeTest, ResponseMatchesOneShotDriverExecution)
{
    // The serve pipeline (JSON -> spec -> batch -> pool) must produce
    // byte-identical results to calling the driver directly with the
    // same spec — the one-shot graphr_run path.
    driver::SweepSpec spec;
    spec.workloads = {"pagerank"};
    spec.backends = {"outofcore"};
    spec.datasets = {"rmat:vertices=128,edges=1024,seed=9"};
    const std::vector<driver::RunResult> direct =
        driver::runSweep(spec, nullptr);
    const std::string expected =
        service::resultsResponse("r1", "run", direct);

    resetCaches();
    const auto out = lines(serveText(std::string(kRunRequest) + "\n"));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], expected);
}

TEST_F(ServeTest, WarmRepeatRequestHitsThePlanCacheAndSkipsTheSort)
{
    service::Server server({});

    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const std::string first =
        serveText(server, std::string(kRunRequest) + "\n");
    const std::uint64_t sorts_cold =
        OrderedEdgeList::sortsPerformed() - sorts_before;
    EXPECT_GT(sorts_cold, 0u);

    // Second session on the same server: resident plan, zero sorts.
    const std::string second =
        serveText(server, std::string(kRunRequest) + "\n");
    EXPECT_EQ(OrderedEdgeList::sortsPerformed() - sorts_before,
              sorts_cold)
        << "warm request re-sorted the edge list";
    EXPECT_EQ(first, second);

    // And the status barrier reports the hit.
    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(status.size(), 1u);
    const JsonValue v = parsedResponse(status[0]);
    EXPECT_GE(v.find("plan_cache")->find("hits")->asU64(), 1u);
    EXPECT_EQ(v.find("served")->find("completed")->asU64(), 2u);
}

/** One response line per request, through the connection seam. */
std::string
handleOne(service::Server &server, const std::string &line)
{
    std::mutex mutex;
    std::condition_variable ready;
    std::vector<std::string> responses;
    const service::Server::SessionPtr session =
        server.openSession([&](std::string &&text) {
            const std::lock_guard<std::mutex> lock(mutex);
            responses.push_back(std::move(text));
            ready.notify_one();
        });
    server.handleLine(session, line);
    std::unique_lock<std::mutex> lock(mutex);
    ready.wait(lock, [&responses] { return !responses.empty(); });
    const std::string response = responses.front();
    lock.unlock();
    server.closeSession(session);
    return response;
}

std::uint64_t
counterValue(const char *name)
{
    return perf::Registry::instance().counter(name).value();
}

TEST_F(ServeTest, WarmRepeatRequestPaysForNoResolveHashOrGoldenRun)
{
    // A request per path that used to regenerate per request: the
    // golden PageRank (outofcore), the symmetrised graph (wcc, also
    // on a baseline) and the plain plan lookup (sssp).
    const std::string dataset = "rmat:vertices=256,edges=2048,seed=4";
    std::vector<std::string> requests;
    const std::pair<const char *, const char *> combos[] = {
        {"pagerank", "outofcore"},
        {"wcc", "outofcore"},
        {"wcc", "cpu"},
        {"sssp", "graphr"},
    };
    for (const auto &[workload, backend] : combos) {
        requests.push_back(std::string(R"({"id":"w","type":"run",)") +
                           R"("workload":")" + workload +
                           R"(","backend":")" + backend +
                           R"(","dataset":")" + dataset + R"("})");
    }

    std::vector<std::string> cold;
    for (const std::string &request : requests) {
        resetCaches();
        service::Server server({});
        cold.push_back(handleOne(server, request));
    }

    resetCaches();
    service::Server server({});
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const std::string first = handleOne(server, requests[i]);
        const std::uint64_t resolves = counterValue("dataset_cache.misses");
        const std::uint64_t hashes = counterValue("graph.fingerprints");
        const std::uint64_t golden = counterValue("golden.runs");
        const std::string second = handleOne(server, requests[i]);
        EXPECT_EQ(counterValue("dataset_cache.misses"), resolves)
            << requests[i];
        EXPECT_EQ(counterValue("graph.fingerprints"), hashes)
            << requests[i];
        EXPECT_EQ(counterValue("golden.runs"), golden) << requests[i];
        EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
        EXPECT_EQ(second, first);
        EXPECT_EQ(first, cold[i]);
    }
    // The first request resolved the graph; every later one hit.
    EXPECT_EQ(counterValue("dataset_cache.misses"), 1u);
    EXPECT_EQ(counterValue("dataset_cache.hits"), 2 * requests.size() - 1);

    const JsonValue status = parsedResponse(
        handleOne(server, R"({"id":"q","type":"status"})"));
    const JsonValue *datasets = status.find("dataset_cache");
    ASSERT_NE(datasets, nullptr);
    EXPECT_EQ(datasets->find("misses")->asU64(), 1u);
    EXPECT_EQ(datasets->find("hits")->asU64(), 2 * requests.size() - 1);
    EXPECT_EQ(datasets->find("entries")->asU64(), 1u);
}

TEST_F(ServeTest, StatusReportsCumulativeRequestLatencySummary)
{
    // Three work requests then a status barrier: the latency summary
    // must count exactly the answered work requests (the registry was
    // reset in SetUp) with a consistent min <= median <= max.
    service::Server server({});
    serveText(server,
              R"({"id":"a","type":"run","dataset":"chain:n=64"})" "\n"
              R"({"id":"b","type":"run","dataset":"star:n=64"})" "\n"
              R"({"id":"bad","type":"run","dataset":"no-such"})" "\n");
    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(status.size(), 1u);
    const JsonValue v = parsedResponse(status[0]);
    const JsonValue *latency = v.find("latency");
    ASSERT_NE(latency, nullptr);
    // Failed requests are answered (and timed) too.
    EXPECT_EQ(latency->find("count")->asU64(), 3u);
    const double min_ms = latency->find("min_ms")->asDouble();
    const double median_ms = latency->find("median_ms")->asDouble();
    const double max_ms = latency->find("max_ms")->asDouble();
    EXPECT_GE(min_ms, 0.0);
    EXPECT_LE(min_ms, median_ms);
    EXPECT_LE(median_ms, max_ms);
}

TEST_F(ServeTest, ConcurrentExecutionMatchesSerialByteForByte)
{
    // Distinct datasets (deterministic cache misses), a sweep, and a
    // trailing status barrier. Only the status "jobs" and "latency"
    // fields may differ between worker counts.
    const std::string input =
        R"({"id":"r1","type":"run","dataset":"chain:n=64"})" "\n"
        R"({"id":"r2","type":"run","dataset":"star:n=64"})" "\n"
        R"({"id":"r3","type":"run","dataset":"grid:width=8,height=8"})" "\n"
        R"({"id":"s1","type":"sweep","workloads":["pagerank","wcc"],)"
        R"("datasets":["chain:n=64"]})" "\n"
        R"({"id":"q","type":"status"})" "\n";

    service::ServeOptions serial;
    serial.jobs = 1;
    const std::string serial_out = serveText(input, serial);

    resetCaches();
    service::ServeOptions concurrent;
    concurrent.jobs = 4;
    const std::string concurrent_out = serveText(input, concurrent);

    const auto strip_variable = [](const std::string &text) {
        // The status "jobs" field reports the actual worker count,
        // and the "latency" summary is wall-clock; both are the only
        // jobs-dependent bytes.
        const std::string no_jobs = std::regex_replace(
            text, std::regex("\"jobs\":\\d+"), "\"jobs\":N");
        return std::regex_replace(no_jobs,
                                  std::regex("\"latency\":\\{[^}]*\\}"),
                                  "\"latency\":{}");
    };
    EXPECT_EQ(strip_variable(serial_out),
              strip_variable(concurrent_out));

    // Sanity: every id answered, in admission order.
    const auto out = lines(serial_out);
    ASSERT_EQ(out.size(), 5u);
    const char *expected_ids[] = {"r1", "r2", "r3", "s1", "q"};
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(parsedResponse(out[i]).find("id")->asString(),
                  expected_ids[i]);
    }
}

TEST_F(ServeTest, AFailingRequestCannotPoisonConcurrentRequests)
{
    // Each request executes as its own pool task; the bad dataset
    // must answer alone with an error while the good requests around
    // it answer normally.
    service::ServeOptions options;
    options.jobs = 4;
    const auto out = lines(serveText(
        R"({"id":"g1","type":"run","dataset":"chain:n=64"})" "\n"
        R"({"id":"bad","type":"run","dataset":"no-such-graph"})" "\n"
        R"({"id":"g2","type":"run","dataset":"star:n=64"})" "\n",
        options));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(parsedResponse(out[0]).find("ok")->asBool()) << out[0];
    expectError(out[1], "bad", "no-such-graph");
    EXPECT_TRUE(parsedResponse(out[2]).find("ok")->asBool()) << out[2];

    // The good responses match what the requests yield on their own.
    resetCaches();
    const auto solo_g1 = lines(serveText(
        R"({"id":"g1","type":"run","dataset":"chain:n=64"})" "\n"));
    const auto solo_g2 = lines(serveText(
        R"({"id":"g2","type":"run","dataset":"star:n=64"})" "\n"));
    EXPECT_EQ(out[0], solo_g1.at(0));
    EXPECT_EQ(out[2], solo_g2.at(0));
}

TEST_F(ServeTest, PrepareNeedsADaemonPlanStore)
{
    const auto out = lines(serveText(
        R"({"id":"p","type":"prepare","datasets":["chain:n=16"]})"
        "\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "p", "--plan-dir");
}

TEST_F(ServeTest, PrepareWritesArtifactsTheNextRunLoadsSortFree)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "serve_plans";
    fs::remove_all(dir);

    service::ServeOptions options;
    options.store.planDir = dir.string();
    service::Server server(options);

    const auto prepared = lines(serveText(
        server,
        R"({"id":"p","type":"prepare",)"
        R"("datasets":["rmat:vertices=128,edges=1024,seed=9"]})"
        "\n"));
    ASSERT_EQ(prepared.size(), 1u);
    const JsonValue p = parsedResponse(prepared[0]);
    ASSERT_TRUE(p.find("ok")->asBool()) << prepared[0];
    EXPECT_EQ(p.find("prepared")->items().size(), 2u)
        << "plain + symmetrized variants";

    // Drop the in-memory cache: the run must warm-load from disk
    // without a single edge sort.
    PlanCache::instance().clear();
    const std::uint64_t sorts_before =
        OrderedEdgeList::sortsPerformed();
    const auto run =
        lines(serveText(server, std::string(kRunRequest) + "\n"));
    ASSERT_EQ(run.size(), 1u);
    EXPECT_TRUE(parsedResponse(run[0]).find("ok")->asBool()) << run[0];
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before);

    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    const JsonValue v = parsedResponse(status[0]);
    EXPECT_GE(v.find("store")->find("load_hits")->asU64(), 1u);
    EXPECT_GE(v.find("store")->find("saves")->asU64(), 2u);

    fs::remove_all(dir);
}

TEST_F(ServeTest, TenantNameIsValidated)
{
    // The tenant names a <plan-dir> subdirectory, so the charset is
    // traversal-proof by construction; status is not tenant-scoped.
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","dataset":"chain:n=8","tenant":"../evil"})"
        "\n"
        R"({"id":"b","type":"run","dataset":"chain:n=8","tenant":""})"
        "\n"
        R"({"id":"c","type":"run","dataset":"chain:n=8","tenant":7})"
        "\n"
        R"({"id":"d","type":"status","tenant":"acme"})" "\n"));
    ASSERT_EQ(out.size(), 4u);
    expectError(out[0], "a", "'tenant' must be");
    expectError(out[1], "b", "'tenant' must be");
    expectError(out[2], "c", "'tenant' must be");
    expectError(out[3], "d", "not tenant-scoped");
}

TEST_F(ServeTest, TenantNeedsADaemonPlanStore)
{
    const auto out = lines(serveText(
        R"({"id":"a","type":"run","dataset":"chain:n=8","tenant":"acme"})"
        "\n"));
    ASSERT_EQ(out.size(), 1u);
    expectError(out[0], "a", "--plan-dir");
}

TEST_F(ServeTest, TenantNamespacesIsolatePlansOnDiskAndInMemory)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "tenant_plans";
    fs::remove_all(dir);

    service::ServeOptions options;
    options.store.planDir = dir.string();
    service::Server server(options);

    const std::string dataset = "rmat:vertices=128,edges=1024,seed=9";
    const auto runAs = [&](const std::string &id,
                           const std::string &tenant) {
        const auto out = lines(serveText(
            server, "{\"id\":\"" + id + "\",\"type\":\"run\","
                    "\"workload\":\"pagerank\","
                    "\"backend\":\"outofcore\","
                    "\"dataset\":\"" + dataset + "\","
                    "\"tenant\":\"" + tenant + "\"}\n"));
        EXPECT_EQ(out.size(), 1u);
        EXPECT_TRUE(parsedResponse(out.at(0)).find("ok")->asBool())
            << out.at(0);
        return out.at(0);
    };
    const auto artifactCount = [](const fs::path &tenant_dir) {
        std::size_t n = 0;
        if (fs::is_directory(tenant_dir))
            for (const auto &entry :
                 fs::directory_iterator(tenant_dir))
                n += entry.is_regular_file() ? 1 : 0;
        return n;
    };

    // Cold run as acme: plan built (sorted) and saved under acme/.
    const std::string acme_report = runAs("a1", "acme");
    EXPECT_GT(artifactCount(dir / "acme"), 0u);

    // Same plan as beta: the in-memory plan cache is namespaced per
    // tenant store, so this must rebuild (sort again), never reuse
    // acme's resident plan or load acme's artifact — and it saves
    // its own copy under beta/.
    const std::uint64_t sorts_after_acme =
        OrderedEdgeList::sortsPerformed();
    const std::string beta_report = runAs("b1", "beta");
    EXPECT_GT(OrderedEdgeList::sortsPerformed(), sorts_after_acme)
        << "beta reused acme's plan across the tenant boundary";
    EXPECT_EQ(artifactCount(dir / "beta"),
              artifactCount(dir / "acme"));

    // The reports themselves are byte-identical apart from the id:
    // isolation must not change results.
    const auto strip_id = [](const std::string &text) {
        return std::regex_replace(text, std::regex("\"id\":\"[^\"]*\""),
                                  "\"id\":\"X\"");
    };
    EXPECT_EQ(strip_id(acme_report), strip_id(beta_report));

    // Warm same-tenant restart: with the memory cache dropped, the
    // acme run loads its own artifact sort-free.
    PlanCache::instance().clear();
    const std::uint64_t sorts_before_warm =
        OrderedEdgeList::sortsPerformed();
    runAs("a2", "acme");
    EXPECT_EQ(OrderedEdgeList::sortsPerformed(), sorts_before_warm)
        << "acme's warm run did not load from its own namespace";

    // Status reports per-tenant served counters, name-sorted.
    const auto status = lines(
        serveText(server, "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(status.size(), 1u);
    const JsonValue v = parsedResponse(status[0]);
    const JsonValue *tenants = v.find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->members().size(), 2u);
    EXPECT_EQ(tenants->members()[0].first, "acme");
    EXPECT_EQ(tenants->members()[0].second.find("served")->asU64(),
              2u);
    EXPECT_EQ(tenants->members()[1].first, "beta");
    EXPECT_EQ(tenants->members()[1].second.find("served")->asU64(),
              1u);

    fs::remove_all(dir);
}

TEST_F(ServeTest, StatusReportsTheStdinSessionInItsConnectionsBlock)
{
    // A lone blocking session is connection 1 of 1; every fault-free
    // counter that can be zero must be zero.
    service::Server server({});
    const auto out = lines(serveText(
        server, std::string(kRunRequest) + "\n" +
                    "{\"id\":\"q\",\"type\":\"status\"}\n"));
    ASSERT_EQ(out.size(), 2u);
    const JsonValue v = parsedResponse(out[1]);
    const JsonValue *conns = v.find("connections");
    ASSERT_NE(conns, nullptr) << out[1];
    EXPECT_EQ(conns->find("active")->asU64(), 1u);
    EXPECT_EQ(conns->find("total_accepted")->asU64(), 1u);
    const auto &per = conns->find("per_connection")->items();
    ASSERT_EQ(per.size(), 1u);
    EXPECT_EQ(per[0].find("conn")->asU64(), 1u);
    EXPECT_EQ(per[0].find("admitted")->asU64(), 1u);
    EXPECT_EQ(per[0].find("rejected")->asU64(), 0u);
    EXPECT_EQ(per[0].find("completed")->asU64(), 1u);
    EXPECT_EQ(per[0].find("failed")->asU64(), 0u);
    EXPECT_TRUE(v.find("tenants")->members().empty());
}

} // namespace
} // namespace graphr
