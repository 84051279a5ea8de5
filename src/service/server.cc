#include "server.hh"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>

#include "common/json.hh"
#include "driver/dataset_cache.hh"
#include "driver/golden_cache.hh"
#include "graphr/engine/plan_cache.hh"
#include "perf/counters.hh"
#include "store/plan_store.hh"

namespace graphr::service
{

namespace
{

/** Cumulative admission->response latency of work requests. */
perf::LatencyHistogram &
requestLatency()
{
    static perf::LatencyHistogram &histogram =
        perf::Registry::instance().latency("serve.request_ns");
    return histogram;
}

/** Publish one served-request event into the perf registry. */
void
bump(std::string_view name)
{
    perf::Registry::instance().counter(name).add();
}

/** Strip surrounding whitespace (JSONL lines may end in \r). */
std::string
trimmed(const std::string &line)
{
    std::size_t first = 0;
    std::size_t last = line.size();
    while (first < last &&
           (line[first] == ' ' || line[first] == '\t'))
        ++first;
    while (last > first &&
           (line[last - 1] == ' ' || line[last - 1] == '\t' ||
            line[last - 1] == '\r' || line[last - 1] == '\n'))
        --last;
    return line.substr(first, last - first);
}

/**
 * std::getline with a byte cap. Returns false only at immediate EOF
 * (no line at all). @p complete reports whether the terminating
 * newline was seen — false means the stream ended (or was stopped)
 * mid-line. A line longer than @p cap (0 = unlimited) sets
 * @p oversized: the excess bytes are consumed and discarded, so
 * memory stays bounded at cap and the stream is positioned at the
 * next line, but @p line is then truncated garbage, not a request.
 */
bool
readLineBounded(std::istream &in, std::string &line, std::size_t cap,
                bool &complete, bool &oversized)
{
    using traits = std::char_traits<char>;
    line.clear();
    complete = false;
    oversized = false;
    std::streambuf *buf = in.rdbuf();
    int ch = buf->sbumpc();
    if (traits::eq_int_type(ch, traits::eof())) {
        in.setstate(std::ios::eofbit | std::ios::failbit);
        return false;
    }
    for (; !traits::eq_int_type(ch, traits::eof());
         ch = buf->sbumpc()) {
        if (ch == '\n') {
            complete = true;
            break;
        }
        if (cap != 0 && line.size() >= cap)
            oversized = true; // keep consuming, stop accumulating
        else
            line.push_back(traits::to_char_type(ch));
    }
    if (traits::eq_int_type(ch, traits::eof()))
        in.setstate(std::ios::eofbit);
    return true;
}

} // namespace

Server::Server(const ServeOptions &options)
    : options_(options),
      pool_(ThreadPool::effectiveJobs(options.jobs))
{
    // Attach (or detach) the daemon-wide store up front: an unusable
    // --plan-dir must fail at startup, not on the first request.
    driver::installPlanStore(options_.store);
}

Server::~Server()
{
    drainAll();
    PlanCache::instance().setStore(nullptr);
}

ServeCounters
Server::counters() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

Server::SessionPtr
Server::openSession(ResponseSink sink)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    SessionPtr session(new Session(nextSessionId_++, std::move(sink)));
    sessions_.push_back(session);
    ++totalSessions_;
    return session;
}

void
Server::closeSession(const SessionPtr &session)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!session->open_)
        return;
    session->open_ = false;
    session->sink_ = nullptr;
    sessions_.erase(
        std::remove(sessions_.begin(), sessions_.end(), session),
        sessions_.end());
}

void
Server::serve(std::istream &in, std::ostream &out)
{
    const SessionPtr session =
        openSession([&out](std::string &&line) {
            // One line per response, flushed immediately so pipelined
            // clients see answers as they drain, not at EOF.
            out << line << '\n' << std::flush;
        });
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        session->blockingReader_ = true;
    }
    std::string line;
    bool complete = false;
    bool oversized = false;
    while (!stop_.load() &&
           readLineBounded(in, line, options_.maxLineBytes, complete,
                           oversized)) {
        // A stop-flag EOF can surface mid-line; the unterminated
        // fragment is half a request the client never finished, not
        // input to answer (a final newline-less line from a client
        // that simply closed cleanly still parses: stop_ is unset).
        if (!complete && stop_.load())
            break;
        if (oversized) {
            handleOversizedLine(session);
            continue;
        }
        const std::string request = trimmed(line);
        if (!request.empty())
            handleLine(session, request);
    }
    drainSession(*session);
    closeSession(session);
}

void
Server::handleLine(const SessionPtr &session, const std::string &line)
{
    const ParsedLine parsed = parseRequestLine(line);
    const std::chrono::steady_clock::time_point admitted_at =
        std::chrono::steady_clock::now();

    std::unique_lock<std::mutex> lock(mutex_);
    Session &sess = *session;
    // Backpressure for blocking readers: responses flush in admission
    // order, so a slow in-flight request makes later (even immediate)
    // responses buffer in ready_. Cap that buffer at the admission
    // depth by pausing the reader — a flood of malformed or rejected
    // lines then blocks on the pipe instead of growing daemon memory.
    // Event-loop sessions skip this (the loop thread must never
    // sleep); they apply backpressure at the socket via
    // sessionBacklog() instead.
    if (sess.blockingReader_) {
        idle_.wait(lock, [this, &sess] {
            return sess.ready_.size() <= options_.queueDepth;
        });
    }
    const std::uint64_t seq = sess.nextSeq_++;

    if (!parsed.ok) {
        ++counters_.invalid;
        ++sess.counters_.invalid;
        bump("serve.invalid");
        respondImmediate(sess, seq,
                         errorResponse(parsed.request.id,
                                       parsed.error));
        return;
    }
    const Request &request = parsed.request;

    if (request.type == RequestType::kStatus) {
        // Status is a barrier: drain everything admitted before it
        // (on every session) so its counters and cache statistics are
        // deterministic.
        idle_.wait(lock, [this] { return outstanding_ == 0; });
        sess.ready_.emplace(seq, statusTextLocked(request.id));
        flushSessionLocked(sess);
        return;
    }

    // Bounded admission, twice: beyond queueDepth outstanding
    // requests across all sessions — or connQueueDepth on this one —
    // the caller gets a structured rejection, never a silent drop.
    // The per-connection quota is checked second so a greedy
    // connection's rejections name its own bound, not the global one.
    if (outstanding_ >= options_.queueDepth) {
        ++counters_.rejected;
        ++sess.counters_.rejected;
        bump("serve.rejected");
        respondImmediate(
            sess, seq,
            errorResponse(
                request.id,
                "queue full (" + std::to_string(outstanding_) +
                    " outstanding, depth " +
                    std::to_string(options_.queueDepth) +
                    "); retry after a response drains"));
        return;
    }
    if (options_.connQueueDepth != 0 &&
        sess.outstanding_ >= options_.connQueueDepth) {
        ++counters_.rejected;
        ++sess.counters_.rejected;
        bump("serve.rejected");
        respondImmediate(
            sess, seq,
            errorResponse(
                request.id,
                "connection queue full (" +
                    std::to_string(sess.outstanding_) +
                    " outstanding on this connection, depth " +
                    std::to_string(options_.connQueueDepth) +
                    "); retry after a response drains"));
        return;
    }

    // Tenant namespace resolution. A failure (daemon has no store, or
    // the tenant subdirectory is unusable) is an answered request —
    // admitted then failed — not an admission rejection: the caller
    // asked something well-formed that this daemon cannot honour.
    std::shared_ptr<PlanStore> tenantStore;
    if (!request.tenant.empty()) {
        try {
            tenantStore = tenantStoreLocked(request.tenant);
        } catch (const std::exception &err) {
            ++counters_.admitted;
            ++counters_.failed;
            ++sess.counters_.admitted;
            ++sess.counters_.failed;
            bump("serve.admitted");
            bump("serve.failed");
            respondImmediate(
                sess, seq, errorResponse(request.id, err.what()));
            return;
        }
    }

    if (request.type == RequestType::kPrepare) {
        if (options_.store.planDir.empty()) {
            ++counters_.admitted;
            ++counters_.failed;
            ++sess.counters_.admitted;
            ++sess.counters_.failed;
            bump("serve.admitted");
            bump("serve.failed");
            respondImmediate(
                sess, seq,
                errorResponse(request.id,
                              "prepare needs a plan store: start "
                              "graphr_serve with --plan-dir"));
            return;
        }
        ++counters_.admitted;
        ++sess.counters_.admitted;
        ++outstanding_;
        ++sess.outstanding_;
        bump("serve.admitted");
        perf::Registry::instance()
            .counter("serve.queue_depth_peak")
            .recordMax(outstanding_);
        driver::PrepareSpec spec = request.prepare;
        spec.store = options_.store;
        if (tenantStore)
            spec.store.planDir = tenantStore->directory();
        spec.jobs = 1; // request-level concurrency comes from the pool
        pool_.submit([this, session, seq, id = request.id, spec,
                      admitted_at, tenant = request.tenant,
                      tenantStore] {
            // Bind this worker thread to the tenant's store for the
            // whole request: PlanCache::get and installPlanStore both
            // honour the override, so nothing the request does can
            // touch another tenant's artifacts.
            std::optional<PlanCache::ScopedStoreOverride> scope;
            if (tenantStore)
                scope.emplace(tenantStore);
            if (deadlineExpired(admitted_at)) {
                // Expired while queued: skip the work entirely (the
                // finishJob override writes the timeout response).
                finishJob(session, seq, id, std::string(), false,
                          admitted_at, tenant);
                return;
            }
            try {
                finishJob(session, seq, id,
                          prepareResponse(id,
                                          driver::runPrepare(spec,
                                                             nullptr)),
                          true, admitted_at, tenant);
            } catch (const std::exception &err) {
                finishJob(session, seq, id,
                          errorResponse(id, err.what()), false,
                          admitted_at, tenant);
            }
        });
        return;
    }

    // Run and sweep requests execute identically — one SweepSpec
    // task on the pool (a run is the single-combination case, which
    // parseRequestLine already enforced). One task per request keeps
    // every worker busy under bursts; responses still come back in
    // admission order via the seq-ordered flush, and a failing
    // request answers alone without touching its neighbours.
    ++counters_.admitted;
    ++sess.counters_.admitted;
    ++outstanding_;
    ++sess.outstanding_;
    bump("serve.admitted");
    perf::Registry::instance()
        .counter("serve.queue_depth_peak")
        .recordMax(outstanding_);
    driver::SweepSpec spec = request.sweep;
    spec.store = options_.store;
    spec.jobs = 1; // request-level concurrency comes from the pool
    const char *type =
        request.type == RequestType::kRun ? "run" : "sweep";
    pool_.submit([this, session, seq, id = request.id, spec, type,
                  admitted_at, tenant = request.tenant, tenantStore] {
        std::optional<PlanCache::ScopedStoreOverride> scope;
        if (tenantStore)
            scope.emplace(tenantStore);
        if (deadlineExpired(admitted_at)) {
            // Expired while queued: skip the work entirely (the
            // finishJob override writes the timeout response).
            finishJob(session, seq, id, std::string(), false,
                      admitted_at, tenant);
            return;
        }
        try {
            finishJob(session, seq, id,
                      resultsResponse(id, type,
                                      driver::runSweep(spec, nullptr)),
                      true, admitted_at, tenant);
        } catch (const std::exception &err) {
            finishJob(session, seq, id, errorResponse(id, err.what()),
                      false, admitted_at, tenant);
        }
    });
}

void
Server::handleOversizedLine(const SessionPtr &session)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Session &sess = *session;
    // Same backpressure as handleLine: the error response still
    // occupies an admission-order slot in ready_.
    if (sess.blockingReader_) {
        idle_.wait(lock, [this, &sess] {
            return sess.ready_.size() <= options_.queueDepth;
        });
    }
    const std::uint64_t seq = sess.nextSeq_++;
    ++counters_.invalid;
    ++sess.counters_.invalid;
    bump("serve.invalid");
    bump("serve.oversized");
    // The id would be somewhere in the discarded bytes; a null id is
    // the honest answer (request.hh renders empty as null).
    respondImmediate(
        sess, seq,
        errorResponse("",
                      "request line exceeds the " +
                          std::to_string(options_.maxLineBytes) +
                          "-byte limit; split the request or raise "
                          "--max-line-bytes"));
}

std::size_t
Server::sessionBacklog(const Session &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(session.outstanding_) +
           session.ready_.size();
}

void
Server::drainSession(const Session &session)
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock,
               [&session] { return session.outstanding_ == 0; });
}

void
Server::drainAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
}

bool
Server::deadlineExpired(
    std::chrono::steady_clock::time_point admitted) const
{
    if (options_.requestTimeoutMs == 0)
        return false;
    return std::chrono::steady_clock::now() - admitted >
           std::chrono::milliseconds(options_.requestTimeoutMs);
}

std::shared_ptr<PlanStore>
Server::tenantStoreLocked(const std::string &tenant)
{
    if (options_.store.planDir.empty()) {
        throw driver::DriverError(
            "tenant namespaces need a plan store: start graphr_serve "
            "with --plan-dir");
    }
    const auto it = tenantStores_.find(tenant);
    if (it != tenantStores_.end())
        return it->second;
    // The name was validated at parse time ([A-Za-z0-9_-] only), so
    // this path cannot escape the daemon's plan directory. The store
    // stays attached for the server's lifetime — its statistics are
    // cumulative, like the daemon-wide store's.
    std::shared_ptr<PlanStore> store;
    try {
        store = std::make_shared<PlanStore>(options_.store.planDir +
                                            "/" + tenant);
    } catch (const StoreError &err) {
        throw driver::DriverError(
            std::string("cannot use tenant namespace '") + tenant +
            "': " + err.what());
    }
    tenantStores_.emplace(tenant, store);
    return store;
}

void
Server::finishJob(const SessionPtr &session, std::uint64_t seq,
                  const std::string &id, std::string text, bool ok,
                  std::chrono::steady_clock::time_point admitted,
                  const std::string &tenant)
{
    // Latency is recorded outside the lock (the histogram is atomic):
    // admission to response-ready, per answered work request.
    const auto elapsed =
        std::chrono::steady_clock::now() - admitted;
    requestLatency().record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
    // Deadline check at completion: whether the work was skipped
    // while queued or merely finished late, the caller sees the same
    // structured timeout in the request's admission slot. Any result
    // computed on the way is abandoned — but the warm state it built
    // (plan cache, store artifacts) is not.
    const bool timed_out = deadlineExpired(admitted);
    if (timed_out) {
        ok = false;
        text = errorResponse(
            id, "timeout: request exceeded --request-timeout-ms=" +
                    std::to_string(options_.requestTimeoutMs) +
                    " and was abandoned");
        bump("serve.timeouts");
    } else {
        bump(ok ? "serve.completed" : "serve.failed");
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    Session &sess = *session;
    if (timed_out) {
        ++counters_.timedOut;
        ++sess.counters_.timedOut;
    } else if (ok) {
        ++counters_.completed;
        ++sess.counters_.completed;
    } else {
        ++counters_.failed;
        ++sess.counters_.failed;
    }
    // Every answered work request counts as served for its tenant
    // (completed, failed or timed out — the tenant's namespace did
    // the work either way).
    if (!tenant.empty())
        ++tenantServed_[tenant];
    sess.ready_.emplace(seq, std::move(text));
    --outstanding_;
    --sess.outstanding_;
    flushSessionLocked(sess);
    // Wakes the status barrier (outstanding_ may have hit zero), the
    // drain waits and the blocking readers' backpressure wait (ready_
    // may have drained).
    idle_.notify_all();
}

void
Server::respondImmediate(Session &session, std::uint64_t seq,
                         std::string text)
{
    session.ready_.emplace(seq, std::move(text));
    flushSessionLocked(session);
}

void
Server::flushSessionLocked(Session &session)
{
    for (auto it = session.ready_.find(session.nextFlush_);
         it != session.ready_.end();
         it = session.ready_.find(session.nextFlush_)) {
        // A closed session's responses are computed and counted, then
        // discarded — the flush cursor still advances so drains
        // terminate.
        if (session.sink_)
            session.sink_(std::move(it->second));
        session.ready_.erase(it);
        ++session.nextFlush_;
    }
}

std::string
Server::statusTextLocked(const std::string &id) const
{
    std::ostringstream os;
    {
        JsonWriter w(os, /*indent=*/0);
        w.beginObject();
        w.field("id", id);
        w.field("ok", true);
        w.field("type", "status");
        w.key("served");
        w.beginObject();
        w.field("admitted", counters_.admitted);
        w.field("completed", counters_.completed);
        w.field("failed", counters_.failed);
        w.field("rejected", counters_.rejected);
        w.field("invalid", counters_.invalid);
        w.field("timed_out", counters_.timedOut);
        w.endObject();

        // The connection layer: sessions currently open, in open
        // order (ids are monotonic, so this is also conn-id order).
        // Deterministic fault-free: a lone stdin client always reads
        // active=1, total_accepted=1 and its own counters.
        w.key("connections");
        w.beginObject();
        w.field("active",
                static_cast<std::uint64_t>(sessions_.size()));
        w.field("total_accepted", totalSessions_);
        w.key("per_connection");
        w.beginArray();
        for (const SessionPtr &s : sessions_) {
            w.beginObject();
            w.field("conn", s->id_);
            w.field("admitted", s->counters_.admitted);
            w.field("rejected", s->counters_.rejected);
            w.field("completed", s->counters_.completed);
            w.field("failed", s->counters_.failed);
            w.endObject();
        }
        w.endArray();
        w.endObject();

        // Per-tenant answered-request counters, name-sorted (the
        // backing map is ordered). Empty until a request carries a
        // "tenant", so fault-free single-tenant runs stay byte-stable.
        w.key("tenants");
        w.beginObject();
        for (const auto &[name, served] : tenantServed_) {
            w.key(name);
            w.beginObject();
            w.field("served", served);
            w.endObject();
        }
        w.endObject();

        w.field("jobs",
                static_cast<std::uint64_t>(pool_.numThreads()));
        w.field("queue_depth",
                static_cast<std::uint64_t>(options_.queueDepth));
        w.field("conn_queue_depth",
                static_cast<std::uint64_t>(options_.connQueueDepth));
        w.field("request_timeout_ms",
                static_cast<std::uint64_t>(options_.requestTimeoutMs));

        // Cumulative per-request latency (work requests only; the
        // registry is process-wide, so a process hosting several
        // Server instances reports their union). The status barrier
        // has drained every prior request, so count is deterministic
        // for a single-server process; the times are
        // wall-clock and inherently not. Median is histogram-derived
        // (~3% bucket resolution); min/max/count are exact.
        const perf::LatencyHistogram &latency = requestLatency();
        w.key("latency");
        w.beginObject();
        w.field("count", latency.count());
        w.field("min_ms",
                static_cast<double>(latency.min()) / 1e6);
        w.field("median_ms",
                static_cast<double>(latency.quantile(0.5)) / 1e6);
        w.field("max_ms",
                static_cast<double>(latency.max()) / 1e6);
        w.endObject();

        const LruCacheStats dataset = driver::datasetCacheStats();
        w.key("dataset_cache");
        w.beginObject();
        w.field("hits", dataset.hits);
        w.field("misses", dataset.misses);
        w.field("entries", static_cast<std::uint64_t>(
                               driver::datasetCacheSize()));
        w.endObject();

        const PlanCache::Stats plan = PlanCache::instance().stats();
        w.key("plan_cache");
        w.beginObject();
        w.field("size", static_cast<std::uint64_t>(
                            PlanCache::instance().size()));
        w.field("hits", plan.hits);
        w.field("misses", plan.misses);
        w.endObject();

        const driver::GoldenCacheStats golden =
            driver::goldenCacheStats();
        w.key("golden_cache");
        w.beginObject();
        w.field("hits", golden.hits);
        w.field("misses", golden.misses);
        w.endObject();

        w.key("store");
        if (const std::shared_ptr<PlanStore> store =
                PlanCache::instance().store()) {
            const PlanStore::Stats stats = store->stats();
            w.beginObject();
            w.field("dir", store->directory());
            w.field("load_hits", stats.loadHits);
            w.field("load_misses", stats.loadMisses);
            w.field("load_rejects", stats.loadRejects);
            w.field("saves", stats.saves);
            w.endObject();
        } else {
            w.null();
        }

        // Degradation telemetry: every transparently absorbed fault
        // (retries, store loads degraded to re-prepare, abandoned
        // requests, fired failpoints). All zero on a healthy
        // fault-free run, so these bytes stay deterministic for the
        // smoke/chaos greps; a nonzero value is the daemon saying "I
        // survived something".
        w.key("robustness");
        w.beginObject();
        for (const char *name :
             {"store.degraded_loads", "store.retries", "serve.retries",
              "serve.timeouts", "failpoint.fires"}) {
            w.field(name,
                    perf::Registry::instance().counter(name).value());
        }
        w.endObject();
        w.endObject();
    }
    return os.str();
}

} // namespace graphr::service
