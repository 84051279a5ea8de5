/**
 * @file
 * In-memory span recorder for the traced benchmark pass.
 *
 * A span is one timed call into a layer: a static name, start and end
 * on the steady clock, the span that was current on the calling thread
 * when it began (its parent) and the request id of that thread. The
 * replay driver opens one root span per request; work handed to a
 * ThreadPool carries its submitter's parent and request id across the
 * thread hop (see wrap.cc), so every span of a request shares its id.
 *
 * Recording is off unless setEnabled(true); while off, a Span costs
 * one relaxed atomic load. Spans stay in memory until the replay
 * writes them out at the end of the run.
 */

#ifndef PERFBENCH_TRACE_SPANS_HH
#define PERFBENCH_TRACE_SPANS_HH

#include <cstdint>
#include <ostream>

namespace perfbench
{

/** Nanoseconds on the steady clock. */
std::int64_t nowNs();

void setEnabled(bool on);
bool enabled();

/** Write every recorded span as a JSON array of
 *  [name, id, parent, rid, t0_ns, t1_ns, thread, attr]. */
void writeSpans(std::ostream &os);

/** Allocate a span id (for spans whose start and end are recorded
 *  on different threads, like a request's root). */
std::uint64_t newSpanId();

/** Record a finished span. @p name must be a string literal. */
void recordSpan(const char *name, std::uint64_t id, std::uint64_t parent,
                std::uint64_t rid, std::int64_t t0, std::int64_t t1,
                int attr = 0);

/** The calling thread's current span and request id. */
struct Context
{
    std::uint64_t span = 0;
    std::uint64_t rid = 0;
};
Context currentContext();

/** Make @p ctx current on this thread for the object's lifetime. */
class ScopedContext
{
  public:
    explicit ScopedContext(Context ctx);
    ~ScopedContext();
    ScopedContext(const ScopedContext &) = delete;
    ScopedContext &operator=(const ScopedContext &) = delete;

  private:
    Context saved_;
};

/** RAII span on the calling thread: a child of the current span,
 *  current itself until it ends. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Free-form integer recorded with the span (hit flags). */
    void setAttr(int attr) { attr_ = attr; }

  private:
    const char *name_;
    bool on_;
    Context saved_;
    std::uint64_t id_ = 0;
    std::int64_t t0_ = 0;
    int attr_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_SPANS_HH
