#include "spans.hh"

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

namespace perfbench
{

namespace
{

struct Record
{
    const char *name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t rid;
    std::int64_t t0;
    std::int64_t t1;
    std::uint32_t thread;
    int attr;
};

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextId{1};
std::atomic<std::uint32_t> gNextThread{0};

std::mutex gMutex;
std::vector<Record> gRecords; // guarded by gMutex

thread_local Context tContext;
thread_local std::uint32_t tThread = gNextThread.fetch_add(1);

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
writeSpans(std::ostream &os)
{
    const std::lock_guard<std::mutex> lock(gMutex);
    os << "[";
    for (std::size_t i = 0; i < gRecords.size(); ++i) {
        const Record &r = gRecords[i];
        os << (i ? ",\n" : "\n") << "[\"" << r.name << "\"," << r.id
           << "," << r.parent << "," << r.rid << "," << r.t0 << ","
           << r.t1 << "," << r.thread << "," << r.attr << "]";
    }
    os << "]";
}

std::uint64_t
newSpanId()
{
    return gNextId.fetch_add(1, std::memory_order_relaxed);
}

void
recordSpan(const char *name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t rid, std::int64_t t0, std::int64_t t1, int attr)
{
    const std::lock_guard<std::mutex> lock(gMutex);
    gRecords.push_back(
        Record{name, id, parent, rid, t0, t1, tThread, attr});
}

Context
currentContext()
{
    return tContext;
}

ScopedContext::ScopedContext(Context ctx) : saved_(tContext)
{
    tContext = ctx;
}

ScopedContext::~ScopedContext()
{
    tContext = saved_;
}

Span::Span(const char *name) : name_(name), on_(enabled())
{
    if (!on_)
        return;
    saved_ = tContext;
    id_ = newSpanId();
    tContext.span = id_;
    t0_ = nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    const std::int64_t t1 = nowNs();
    tContext = saved_;
    recordSpan(name_, id_, saved_.span, saved_.rid, t0_, t1, attr_);
}

} // namespace perfbench
