/**
 * @file
 * Causal phase tracing: named wall-clock spans with 64-bit ids and
 * parent links, recorded into per-thread sharded buffers and
 * exportable as Chrome `trace_event` JSON that chrome://tracing and
 * Perfetto load directly.
 *
 * Three event kinds are recorded:
 *  - complete spans (`ph: "X"`), each carrying its span id and its
 *    parent span id in the event `args`;
 *  - flow start / flow finish pairs (`ph: "s"` / `ph: "f"`), which
 *    draw the arrow from the point a task was *submitted* to the
 *    span in which it *ran* - the causality that would otherwise be
 *    lost when work crosses the work-stealing exec::ThreadPool.
 *
 * Causality is tracked through a per-thread span context: every
 * ScopedSpan pushes its id as the thread's current span and restores
 * the previous one at stop, so nested spans get correct parent ids
 * with no pool (or any other machinery) involved. The pool captures
 * the submitter's context and re-establishes it around each task
 * (see exec::ThreadPool::submit), so a task's span is parented to
 * the span that submitted it, on whatever worker it lands.
 *
 * Recording appends to the calling thread's own shard (one
 * uncontended mutex per thread, taken briefly at export time by the
 * merger), so tracing scales with the pool instead of serializing it
 * behind one global lock. Shards are bounded; events past the cap
 * are counted in `obs.trace.dropped` (and droppedCount()) and warned
 * about once - never silently discarded.
 *
 * ScopedSpan is the usual entry point: construct it at the top of a
 * phase and the span is recorded when it goes out of scope (or when
 * stop() is called, which also returns the duration for derived
 * stats such as throughput). ScopedTimer is the registry-side
 * sibling: it samples its elapsed seconds into a Distribution.
 */

#ifndef COLDBOOT_OBS_TRACE_HH
#define COLDBOOT_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coldboot::obs
{

class Distribution;

/** One recorded trace event, timestamps in microseconds since the
 *  tracer epoch. */
struct TraceEvent
{
    enum class Phase : uint8_t
    {
        /** A completed span (`ph: "X"`). */
        Complete,
        /** Flow start at a task's submission site (`ph: "s"`). */
        FlowStart,
        /** Flow finish inside the task's run span (`ph: "f"`). */
        FlowFinish,
    };

    std::string name;
    double ts_us = 0.0;
    /** Complete events only. */
    double dur_us = 0.0;
    uint32_t tid = 0;
    Phase phase = Phase::Complete;
    /** Span id (Complete) or flow-binding id (FlowStart/FlowFinish);
     *  0 = none assigned. */
    uint64_t id = 0;
    /** Parent span id; 0 = root (Complete events only). */
    uint64_t parent = 0;
    /** Flow id that finishes inside this span; 0 = none. */
    uint64_t flow = 0;
};

/** Per-thread event shard (see PhaseTracer). The `current_span`
 *  context cell is touched only by the owning thread. */
struct TraceShard
{
    std::mutex mu;
    std::vector<TraceEvent> events;
    uint32_t tid = 0;
    /** The owning thread's active span id (0 = none). */
    uint64_t current_span = 0;
};

/**
 * Thread-safe recorder of spans and flow events. Recording is cheap
 * (an uncontended per-thread mutex push per event; spans are
 * per-phase or per-pool-task, not per-block); shards are bounded so
 * a runaway loop cannot exhaust memory, and events lost to the bound
 * are counted, never silently dropped. A tracer records from
 * construction, except the global one (see global()).
 */
class PhaseTracer
{
  public:
    /** @param shard_capacity Events retained per thread before
     *  overflow counting starts (tests shrink this). */
    explicit PhaseTracer(size_t shard_capacity = defaultShardCapacity);

    ~PhaseTracer();

    PhaseTracer(const PhaseTracer &) = delete;
    PhaseTracer &operator=(const PhaseTracer &) = delete;

    /**
     * The process-global tracer instance. It buffers events only once
     * armed by a sink that will export them - a binary's `--trace`
     * (runtime.hh) or an ObsHttpServer serving /trace - so a
     * long-lived process with no sink does not accumulate spans.
     * Unarmed spans still time themselves.
     */
    static PhaseTracer &global();

    void setEnabled(bool on) { recording = on; }
    bool enabled() const { return recording; }

    /** Microseconds since the tracer epoch. */
    double nowUs() const;

    /** A fresh, process-unique span or flow id (never 0). */
    uint64_t newId();

    /** The calling thread's active span id (0 = none). */
    uint64_t currentSpanId();

    /**
     * Record a completed span. The calling thread's context supplies
     * the parent link and a fresh id is assigned; dropped (and
     * counted) when the shard is full, silently ignored when
     * disabled.
     */
    void recordSpan(const std::string &name, double ts_us,
                    double dur_us);

    /** Record a fully specified event (the ScopedSpan path). */
    void recordEvent(TraceEvent ev);

    /**
     * Record a flow start (`ph: "s"`) at the current time on the
     * calling thread - Perfetto binds it to the slice enclosing its
     * timestamp, so call it while the submitting span is open.
     */
    void recordFlowStart(const std::string &name, uint64_t flow_id);

    /** Record a flow finish (`ph: "f"`, `bp: "e"`) at @p ts_us. */
    void recordFlowFinish(const std::string &name, uint64_t flow_id,
                          double ts_us);

    /** Number of events currently buffered across all shards. */
    size_t eventCount() const;

    /** Events dropped at the shard capacity since the last reset. */
    uint64_t droppedCount() const;

    /**
     * Merged copy of the buffered events, sorted by timestamp (tests
     * and custom exporters).
     */
    std::vector<TraceEvent> events() const;

    /**
     * Chrome trace_event JSON: a bare array of complete ("X") events
     * with name/ph/ts/dur/pid/tid fields - span id, parent id and
     * flow id ride in "args" - plus flow ("s"/"f") events
     * linking task submission to execution.
     */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to @p path (cb_fatal on I/O error). */
    void writeTraceFile(const std::string &path) const;

    /** Drop all buffered events and restart the epoch. */
    void resetForTest();

    /**
     * The calling thread's shard of this tracer, created on first
     * use. Only ScopedSpan needs this directly (context save and
     * restore); everything else goes through the record calls.
     */
    TraceShard &myShard();

  private:
    static constexpr size_t defaultShardCapacity = 1u << 17;

    const uint64_t tracer_id;
    const size_t shard_capacity;

    mutable std::mutex shards_mu;
    std::vector<std::shared_ptr<TraceShard>> shards;
    std::atomic<uint32_t> next_tid{0};
    std::atomic<uint64_t> next_id{1};
    std::atomic<uint64_t> dropped{0};
    std::atomic<bool> overflow_warned{false};
    /** Epoch as steady_clock nanos - atomic so resetForTest can
     *  restart it while other threads stamp events. */
    std::atomic<int64_t> epoch_ns{0};
    std::atomic<bool> recording{true};
};

/**
 * RAII span: assigns itself an id, links to the thread's current
 * span as parent, becomes the current span for its lifetime, and
 * records a complete trace event when it goes out of scope.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(std::string name,
                        PhaseTracer &tracer = PhaseTracer::global());

    /**
     * Pool-task form: parent the span to @p parent_span (the
     * submitter's context captured at submit time) instead of the
     * worker thread's context, and close flow @p flow_id inside the
     * recorded span. Used by exec::ThreadPool to stitch causality
     * across submit / steal / run.
     */
    ScopedSpan(std::string name, uint64_t parent_span,
               uint64_t flow_id,
               PhaseTracer &tracer = PhaseTracer::global());

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan();

    /** This span's id (stable from construction). */
    uint64_t id() const { return span_id; }

    /** The parent span id recorded for this span (0 = root). */
    uint64_t parentId() const { return parent_id; }

    /**
     * End the span now and record it; idempotent.
     * @return Span duration in seconds.
     */
    double stop();

  private:
    PhaseTracer &tracer;
    TraceShard *shard;
    std::string name;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
    /** Context to restore at stop (may differ from parent_id for
     *  pool tasks). */
    uint64_t saved_context = 0;
    uint64_t flow_id = 0;
    double start_us;
    double dur_us = 0.0;
    bool done = false;
};

/**
 * RAII timer: samples its elapsed wall-clock seconds into a
 * Distribution when it goes out of scope (or at stop()).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Distribution &dist);

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer();

    /**
     * Sample now instead of at destruction; idempotent.
     * @return Elapsed seconds.
     */
    double stop();

  private:
    Distribution &dist;
    std::chrono::steady_clock::time_point start;
    double elapsed = 0.0;
    bool done = false;
};

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_TRACE_HH
