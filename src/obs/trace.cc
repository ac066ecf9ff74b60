#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "obs/fsio.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

namespace coldboot::obs
{

namespace
{

/** Span/flow ids render as hex strings: Chrome's flow-id matching
 *  and Perfetto's args display both take them verbatim. */
std::string
hexId(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Tracer instances get process-unique ids so the per-thread shard
 *  cache can never hand a shard of a destroyed tracer to a new one
 *  reusing its address (tests create short-lived tracers). */
std::atomic<uint64_t> g_next_tracer_id{1};

struct ShardCacheEntry
{
    uint64_t tracer_id;
    std::shared_ptr<TraceShard> shard;
};

/** This thread's shard per tracer. shared_ptr keeps a cached shard
 *  alive even if its tracer dies first; the unique tracer_id keys
 *  make such orphans unreachable. */
thread_local std::vector<ShardCacheEntry> tl_shard_cache;

Counter &
traceDroppedCounter()
{
    static Counter &c = StatRegistry::global().counter(
        "obs.trace.dropped",
        "trace events dropped at the per-thread shard capacity");
    return c;
}

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

PhaseTracer::PhaseTracer(size_t shard_capacity_)
    : tracer_id(
          g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      shard_capacity(shard_capacity_)
{
    epoch_ns.store(steadyNowNs(), std::memory_order_relaxed);
}

PhaseTracer::~PhaseTracer() = default;

PhaseTracer &
PhaseTracer::global()
{
    // Disarmed until a sink that will export it arms it: `--trace`
    // (obs::Runtime) or a server serving /trace.
    static PhaseTracer instance;
    static const bool disarmed = (instance.setEnabled(false), true);
    (void)disarmed;
    return instance;
}

double
PhaseTracer::nowUs() const
{
    int64_t now = steadyNowNs();
    return static_cast<double>(
               now - epoch_ns.load(std::memory_order_relaxed)) /
           1e3;
}

uint64_t
PhaseTracer::newId()
{
    return next_id.fetch_add(1, std::memory_order_relaxed);
}

TraceShard &
PhaseTracer::myShard()
{
    for (const ShardCacheEntry &e : tl_shard_cache)
        if (e.tracer_id == tracer_id)
            return *e.shard;
    auto shard = std::make_shared<TraceShard>();
    shard->tid = next_tid.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(shards_mu);
        shards.push_back(shard);
    }
    tl_shard_cache.push_back({tracer_id, shard});
    return *tl_shard_cache.back().shard;
}

uint64_t
PhaseTracer::currentSpanId()
{
    return myShard().current_span;
}

void
PhaseTracer::recordEvent(TraceEvent ev)
{
    if (!recording.load(std::memory_order_relaxed))
        return;
    TraceShard &sh = myShard();
    ev.tid = sh.tid;
    std::lock_guard<std::mutex> lock(sh.mu);
    if (sh.events.size() >= shard_capacity) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        traceDroppedCounter().add(1);
        if (!overflow_warned.exchange(true))
            cb_warn("trace buffer full (%zu events on one thread); "
                    "dropping further events - see obs.trace.dropped",
                    shard_capacity);
        return;
    }
    sh.events.push_back(std::move(ev));
}

void
PhaseTracer::recordSpan(const std::string &name, double ts_us,
                        double dur_us)
{
    if (!recording.load(std::memory_order_relaxed))
        return;
    TraceEvent ev;
    ev.name = name;
    ev.ts_us = ts_us;
    ev.dur_us = dur_us;
    ev.phase = TraceEvent::Phase::Complete;
    ev.id = newId();
    ev.parent = myShard().current_span;
    recordEvent(std::move(ev));
}

void
PhaseTracer::recordFlowStart(const std::string &name,
                             uint64_t flow_id)
{
    if (!recording.load(std::memory_order_relaxed))
        return;
    TraceEvent ev;
    ev.name = name;
    ev.ts_us = nowUs();
    ev.phase = TraceEvent::Phase::FlowStart;
    ev.id = flow_id;
    recordEvent(std::move(ev));
}

void
PhaseTracer::recordFlowFinish(const std::string &name,
                              uint64_t flow_id, double ts_us)
{
    if (!recording.load(std::memory_order_relaxed))
        return;
    TraceEvent ev;
    ev.name = name;
    ev.ts_us = ts_us;
    ev.phase = TraceEvent::Phase::FlowFinish;
    ev.id = flow_id;
    recordEvent(std::move(ev));
}

size_t
PhaseTracer::eventCount() const
{
    std::vector<std::shared_ptr<TraceShard>> copy;
    {
        std::lock_guard<std::mutex> lock(shards_mu);
        copy = shards;
    }
    size_t n = 0;
    for (const auto &sh : copy) {
        std::lock_guard<std::mutex> lock(sh->mu);
        n += sh->events.size();
    }
    return n;
}

uint64_t
PhaseTracer::droppedCount() const
{
    return dropped.load(std::memory_order_relaxed);
}

std::vector<TraceEvent>
PhaseTracer::events() const
{
    std::vector<std::shared_ptr<TraceShard>> copy;
    {
        std::lock_guard<std::mutex> lock(shards_mu);
        copy = shards;
    }
    std::vector<TraceEvent> out;
    for (const auto &sh : copy) {
        std::lock_guard<std::mutex> lock(sh->mu);
        out.insert(out.end(), sh->events.begin(), sh->events.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts_us < b.ts_us;
                     });
    return out;
}

std::string
PhaseTracer::chromeTraceJson() const
{
    std::vector<TraceEvent> merged = events();
    std::string out = "[";
    for (size_t i = 0; i < merged.size(); ++i) {
        const TraceEvent &e = merged[i];
        out += i ? ",\n " : "\n ";
        switch (e.phase) {
        case TraceEvent::Phase::Complete: {
            out += "{\"name\": \"" + json::escape(e.name) +
                   "\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": " +
                   json::number(e.ts_us) +
                   ", \"dur\": " + json::number(e.dur_us) +
                   ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
                   ", \"args\": {\"span\": \"" + hexId(e.id) +
                   "\", \"parent\": \"" + hexId(e.parent) + "\"";
            if (e.flow != 0)
                out += ", \"flow\": \"" + hexId(e.flow) + "\"";
            out += "}}";
            break;
        }
        case TraceEvent::Phase::FlowStart:
            out += "{\"name\": \"" + json::escape(e.name) +
                   "\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": \"" +
                   hexId(e.id) + "\", \"ts\": " + json::number(e.ts_us) +
                   ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
                   "}";
            break;
        case TraceEvent::Phase::FlowFinish:
            out += "{\"name\": \"" + json::escape(e.name) +
                   "\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": "
                   "\"e\", \"id\": \"" +
                   hexId(e.id) + "\", \"ts\": " + json::number(e.ts_us) +
                   ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
                   "}";
            break;
        }
    }
    out += "\n]\n";
    return out;
}

void
PhaseTracer::writeTraceFile(const std::string &path) const
{
    writeFileCreatingDirs(path, chromeTraceJson(), "trace output");
}

void
PhaseTracer::resetForTest()
{
    std::vector<std::shared_ptr<TraceShard>> copy;
    {
        std::lock_guard<std::mutex> lock(shards_mu);
        copy = shards;
    }
    for (const auto &sh : copy) {
        std::lock_guard<std::mutex> lock(sh->mu);
        sh->events.clear();
    }
    dropped.store(0, std::memory_order_relaxed);
    overflow_warned.store(false, std::memory_order_relaxed);
    next_id.store(1, std::memory_order_relaxed);
    epoch_ns.store(steadyNowNs(), std::memory_order_relaxed);
}

//
// ScopedSpan
//

ScopedSpan::ScopedSpan(std::string name_, PhaseTracer &tracer_)
    : tracer(tracer_), shard(&tracer_.myShard()),
      name(std::move(name_)), start_us(tracer_.nowUs())
{
    span_id = tracer.newId();
    parent_id = shard->current_span;
    saved_context = shard->current_span;
    shard->current_span = span_id;
}

ScopedSpan::ScopedSpan(std::string name_, uint64_t parent_span,
                       uint64_t flow_id_, PhaseTracer &tracer_)
    : tracer(tracer_), shard(&tracer_.myShard()),
      name(std::move(name_)), flow_id(flow_id_),
      start_us(tracer_.nowUs())
{
    span_id = tracer.newId();
    parent_id = parent_span;
    saved_context = shard->current_span;
    shard->current_span = span_id;
}

ScopedSpan::~ScopedSpan()
{
    stop();
}

double
ScopedSpan::stop()
{
    if (done)
        return dur_us / 1e6;
    done = true;
    dur_us = tracer.nowUs() - start_us;

    // Restore the thread's span context. The shard outlives any
    // tracer teardown (shared ownership), and only this thread
    // touches current_span.
    shard->current_span = saved_context;

    TraceEvent ev;
    ev.name = name;
    ev.ts_us = start_us;
    ev.dur_us = dur_us;
    ev.phase = TraceEvent::Phase::Complete;
    ev.id = span_id;
    ev.parent = parent_id;
    ev.flow = flow_id;

    // The flow arrow must terminate *inside* this span's slice:
    // stamp the finish at the span midpoint so viewers bind it here
    // rather than to a neighboring slice sharing the boundary ts.
    if (flow_id != 0)
        tracer.recordFlowFinish(name, flow_id,
                                start_us + dur_us / 2.0);
    tracer.recordEvent(std::move(ev));
    return dur_us / 1e6;
}

//
// ScopedTimer
//

ScopedTimer::ScopedTimer(Distribution &dist_)
    : dist(dist_), start(std::chrono::steady_clock::now())
{
}

ScopedTimer::~ScopedTimer()
{
    stop();
}

double
ScopedTimer::stop()
{
    if (!done) {
        done = true;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
        dist.sample(elapsed);
    }
    return elapsed;
}

} // namespace coldboot::obs
