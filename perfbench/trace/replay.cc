/**
 * @file
 * perfbench_trace: in-process replay of one benchmark workload's
 * request stream, three times: untraced, traced, untraced.
 *
 *   perfbench_trace serve --jobs N --conns C [--plan-dir DIR]
 *                   --setup FILE --stream FILE --out FILE
 *   perfbench_trace sweep --invocations FILE --out FILE
 *
 * serve: each pass clears the process-wide caches, starts a fresh
 * service::Server (its plan store in DIR/pass<k>), replays the setup
 * lines untimed, then replays the stream lines closed-loop from C
 * client threads through Server::openSession/handleLine, one line in
 * flight per session, exactly as the TCP client does.
 *
 * sweep: each line of FILE is one graphr_run argument list separated
 * by tabs; each pass runs every invocation in order through
 * driver::parseCli and driver::runSweep with cold caches, like a
 * fresh graphr_run process.
 *
 * Only pass 1 records spans (spans.hh), over the stream; the untraced
 * passes on either side of it give the tracing overhead without an
 * ordering bias. FILE gets, per pass, every response, every request's
 * latency and the perf counter registry before and after the stream,
 * plus the spans of the traced pass.
 */

#include <condition_variable>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "driver/cli.hh"
#include "driver/driver.hh"
#include "driver/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"
#include "service/server.hh"
#include "spans.hh"

namespace
{

using namespace graphr;

struct PassResult
{
    bool traced = false;
    double wallSeconds = 0.0;
    std::vector<double> latencyMs;
    std::vector<std::string> responses;
    std::map<std::string, std::uint64_t> countersBefore;
    std::map<std::string, std::uint64_t> countersAfter;
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

void
resetCaches()
{
    PlanCache::instance().clear();
    driver::clearGoldenCache();
}

/** One client connection's response slot. */
struct Slot
{
    std::mutex mutex;
    std::condition_variable ready;
    bool answered = false;
    std::string text;
};

/**
 * Closed-loop replay of @p lines from @p conns sessions: each client
 * takes the next unsent line, waits for its response, repeats. When
 * @p pass is non-null, latencies and responses land there by line
 * index and, if tracing is on, each request gets a root span.
 */
void
replay(service::Server &server, const std::vector<std::string> &lines,
       unsigned conns, PassResult *pass)
{
    std::mutex next_mutex;
    std::size_t next = 0;
    const auto client = [&] {
        Slot slot;
        const service::Server::SessionPtr session =
            server.openSession([&slot](std::string &&text) {
                const std::lock_guard<std::mutex> lock(slot.mutex);
                slot.text = std::move(text);
                slot.answered = true;
                slot.ready.notify_one();
            });
        for (;;) {
            std::size_t index = 0;
            {
                const std::lock_guard<std::mutex> lock(next_mutex);
                if (next >= lines.size())
                    break;
                index = next++;
            }
            const bool traced = perfbench::enabled();
            const std::uint64_t root = perfbench::newSpanId();
            const std::int64_t t0 = perfbench::nowNs();
            {
                const perfbench::ScopedContext scope({root, index + 1});
                server.handleLine(session, lines[index]);
            }
            std::string response;
            {
                std::unique_lock<std::mutex> lock(slot.mutex);
                slot.ready.wait(lock, [&slot] { return slot.answered; });
                slot.answered = false;
                response = std::move(slot.text);
            }
            const std::int64_t t1 = perfbench::nowNs();
            if (traced) {
                perfbench::recordSpan("request", root, 0, index + 1, t0,
                                      t1);
            }
            if (pass != nullptr) {
                pass->latencyMs[index] = (t1 - t0) / 1e6;
                pass->responses[index] = std::move(response);
            }
        }
        server.closeSession(session);
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c)
        threads.emplace_back(client);
    for (std::thread &t : threads)
        t.join();
}

PassResult
servePass(const service::ServeOptions &options, unsigned conns,
          const std::vector<std::string> &setup,
          const std::vector<std::string> &stream, bool traced)
{
    resetCaches();
    service::Server server(options);
    replay(server, setup, conns, nullptr);

    PassResult pass;
    pass.traced = traced;
    pass.latencyMs.assign(stream.size(), 0.0);
    pass.responses.assign(stream.size(), std::string());
    pass.countersBefore = perf::Registry::instance().counterValues();
    perfbench::setEnabled(traced);
    const std::int64_t t0 = perfbench::nowNs();
    replay(server, stream, conns, &pass);
    pass.wallSeconds = (perfbench::nowNs() - t0) / 1e9;
    perfbench::setEnabled(false);
    pass.countersAfter = perf::Registry::instance().counterValues();
    return pass;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    std::vector<std::string> out;
    std::string field;
    std::istringstream in(line);
    while (std::getline(in, field, '\t'))
        out.push_back(field);
    return out;
}

PassResult
sweepPass(const std::vector<std::string> &invocations, bool traced)
{
    PassResult pass;
    pass.traced = traced;
    pass.countersBefore = perf::Registry::instance().counterValues();
    perfbench::setEnabled(traced);
    const std::int64_t start = perfbench::nowNs();
    for (std::size_t i = 0; i < invocations.size(); ++i) {
        const driver::CliOptions cli =
            driver::parseCli(splitTabs(invocations[i]));
        resetCaches();
        const std::uint64_t root = perfbench::newSpanId();
        const std::int64_t t0 = perfbench::nowNs();
        std::vector<driver::RunResult> results;
        {
            const perfbench::ScopedContext scope({root, i + 1});
            results = driver::runSweep(cli.sweep, nullptr);
        }
        const std::int64_t t1 = perfbench::nowNs();
        if (traced)
            perfbench::recordSpan("request", root, 0, i + 1, t0, t1);
        std::ostringstream report;
        driver::writeResultsJson(report, results);
        pass.latencyMs.push_back((t1 - t0) / 1e6);
        pass.responses.push_back(report.str());
    }
    pass.wallSeconds = (perfbench::nowNs() - start) / 1e9;
    perfbench::setEnabled(false);
    pass.countersAfter = perf::Registry::instance().counterValues();
    return pass;
}

void
writeCounters(JsonWriter &w, const std::map<std::string, std::uint64_t> &c)
{
    w.beginObject();
    for (const auto &[name, value] : c)
        w.field(name, value);
    w.endObject();
}

void
writeOutput(const std::string &path, const std::vector<PassResult> &passes)
{
    std::ofstream out(path);
    out << "{\"spans\": ";
    perfbench::writeSpans(out);
    out << ",\n\"passes\": ";
    JsonWriter w(out, /*indent=*/0);
    w.beginArray();
    for (const PassResult &p : passes) {
        w.beginObject();
        w.field("traced", p.traced);
        w.field("wall_s", p.wallSeconds);
        w.key("latency_ms").beginArray();
        for (const double ms : p.latencyMs)
            w.value(ms);
        w.endArray();
        w.key("responses").beginArray();
        for (const std::string &r : p.responses)
            w.value(r);
        w.endArray();
        w.key("counters_before");
        writeCounters(w, p.countersBefore);
        w.key("counters_after");
        writeCounters(w, p.countersAfter);
        w.endObject();
    }
    w.endArray();
    out << "}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
usage()
{
    return "usage: perfbench_trace serve --jobs N --conns C "
           "[--plan-dir DIR] --setup FILE --stream FILE --out FILE\n"
           "       perfbench_trace sweep --invocations FILE --out FILE\n";
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            throw std::runtime_error("missing mode");
        const std::string mode = argv[1];
        std::map<std::string, std::string> flags;
        for (int i = 2; i + 1 < argc; i += 2)
            flags[argv[i]] = argv[i + 1];
        const auto flag = [&flags](const std::string &name) {
            const auto it = flags.find(name);
            if (it == flags.end())
                throw std::runtime_error("missing " + name);
            return it->second;
        };

        std::vector<PassResult> passes;
        if (mode == "serve") {
            service::ServeOptions options;
            options.jobs = static_cast<std::uint32_t>(
                std::stoul(flag("--jobs")));
            const unsigned conns =
                static_cast<unsigned>(std::stoul(flag("--conns")));
            const std::vector<std::string> setup =
                readLines(flag("--setup"));
            const std::vector<std::string> stream =
                readLines(flag("--stream"));
            for (const bool traced : {false, true, false}) {
                if (flags.count("--plan-dir")) {
                    options.store.planDir = flags["--plan-dir"] +
                                            "/pass" +
                                            std::to_string(passes.size());
                }
                passes.push_back(
                    servePass(options, conns, setup, stream, traced));
            }
        } else if (mode == "sweep") {
            const std::vector<std::string> invocations =
                readLines(flag("--invocations"));
            for (const bool traced : {false, true, false})
                passes.push_back(sweepPass(invocations, traced));
        } else {
            throw std::runtime_error("unknown mode '" + mode + "'");
        }
        writeOutput(flag("--out"), passes);
        return 0;
    } catch (const std::exception &err) {
        std::cerr << "perfbench_trace: " << err.what() << "\n" << usage();
        return 1;
    }
}
