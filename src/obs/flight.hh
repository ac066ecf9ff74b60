/**
 * @file
 * Post-mortem flight recorder: a fixed-size per-thread ring of
 * compact binary events (span begin/end, log records, counter
 * deltas) that can be dumped from an async-signal context, so a
 * SIGSEGV three hours into a mining run still tells you what every
 * thread was doing in its last moments.
 *
 * Event encoding: each event is exactly `wordsPerEvent` (10) 64-bit
 * words - timestamp, kind, two payload words, and 48 bytes of
 * NUL-padded name - stored in an array of `std::atomic<uint64_t>`.
 * The owning thread writes the words relaxed and then publishes with
 * a release store of the ring head; readers (the `/flight` endpoint,
 * the crash handler, a concurrent test) acquire the head and read
 * the words relaxed. A reader racing a wraparound can observe a torn
 * event (mixed old/new words) but never undefined behavior and never
 * a torn *word*; the dump format is robust to that (every decoded
 * field is bounded) and the window is the oldest slot only.
 *
 * Signal-safety argument for the dump path (writePostMortem):
 * it allocates nothing, takes no locks, and calls only write(2)
 * plus hand-rolled integer/string formatting into stack buffers;
 * ring access is atomic loads. The crash handler additionally only
 * open(2)s the pre-configured dump path (stored in a fixed char
 * array at install time) and re-raises the signal with disposition
 * reset so the process still dies with the original signal. The
 * stats snapshot embedded in the dump is pre-rendered on the normal
 * path (updateStatsSnapshot, refreshed every 250 ms by obs::Runtime
 * while the recorder is on) into a seqlock-protected atomic byte
 * buffer, so the handler copies bytes instead of walking registry
 * data structures.
 *
 * Determinism: recording is observation-only - it never feeds back
 * into attack results - and the hot path is a single relaxed load
 * when disabled, so the DESIGN.md §9 contract holds byte-identically
 * with the recorder on or off (gated by tests/smoke_flight).
 */

#ifndef COLDBOOT_OBS_FLIGHT_HH
#define COLDBOOT_OBS_FLIGHT_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coldboot::obs
{

/** What a flight event records. Stable numeric values: they appear
 *  in dumps and must stay decodable across versions. */
enum class FlightKind : uint64_t
{
    None = 0,
    /** A span opened; a = span id, b = parent span id. */
    SpanBegin = 1,
    /** A span closed; a = span id, b = duration in microseconds. */
    SpanEnd = 2,
    /** A log record; a = level (0 warn, 1 info), name = message. */
    Log = 3,
    /** A progress/counter delta; a = delta, b = running total. */
    Counter = 4,
    /** cb_fatal fired; name = message. */
    Fatal = 5,
};

/** One decoded flight event (tests and the JSON renderers). */
struct FlightEvent
{
    uint64_t ts_us = 0;
    FlightKind kind = FlightKind::None;
    uint64_t a = 0;
    uint64_t b = 0;
    std::string name;
};

/**
 * The process-global flight recorder. Disabled (and unallocated)
 * until setEnabled(true); once enabled, every thread that records
 * claims one ring for its lifetime. installCrashHandler() arms the
 * SIGSEGV/SIGBUS/SIGABRT and cb_fatal dump paths.
 */
class FlightRecorder
{
  public:
    /** Events retained per thread. */
    static constexpr size_t eventCapacity = 256;
    /** Rings available; threads past this count drop (counted). */
    static constexpr size_t maxRings = 256;
    /** Name payload bytes per event (NUL-padded, truncated). */
    static constexpr size_t nameBytes = 48;
    /** 64-bit words per encoded event: ts, kind, a, b, name. */
    static constexpr size_t wordsPerEvent = 4 + nameBytes / 8;

    /** The process-global recorder (constructs it if needed). */
    static FlightRecorder &global();

    /**
     * The global recorder if it has ever been constructed, else
     * nullptr. Async-signal-safe (one atomic load, never
     * constructs); the crash handler's entry point.
     */
    static FlightRecorder *instance();

    /**
     * Turn recording on (allocating the rings on first enable,
     * ~maxRings * eventCapacity * 80 bytes) or off. Off keeps the
     * rings and their contents; only new records stop.
     */
    void setEnabled(bool on);

    bool enabled() const
    {
        return is_enabled.load(std::memory_order_relaxed);
    }

    /**
     * Record one event into the calling thread's ring. A single
     * relaxed load and return when disabled; never blocks, never
     * allocates after the rings exist. @p name is truncated to
     * nameBytes.
     */
    void record(FlightKind kind, const char *name, uint64_t a = 0,
                uint64_t b = 0);

    /** Events not recorded (disabled ring claim or exhaustion). */
    uint64_t droppedEvents() const
    {
        return dropped.load(std::memory_order_relaxed);
    }

    /** Rings claimed by threads so far. */
    size_t ringsInUse() const;

    /**
     * Arm crash forensics: record span/log events from here on,
     * install SIGSEGV/SIGBUS/SIGABRT handlers and the cb_fatal /
     * log hooks, and write the post-mortem JSON to @p path when any
     * of them fires. Also takes an initial stats snapshot. Enables
     * recording.
     */
    void installCrashHandler(const std::string &path);

    /** Dump path configured by installCrashHandler ("" if unset). */
    std::string crashDumpPath() const;

    /**
     * Re-render the registry stats snapshot that the crash handler
     * embeds in dumps. Cheap enough to call per telemetry tick;
     * takes the registry lock, so normal path only.
     */
    void updateStatsSnapshot();

    /**
     * Async-signal-safe post-mortem dump: write the last events of
     * every ring plus the pre-rendered stats snapshot as JSON to
     * @p fd. @p sig is the fatal signal (0 for cb_fatal paths),
     * @p reason a short static label. @p crashing_ring is the ring
     * index of the faulting thread, -1 if unknown.
     */
    void writePostMortem(int fd, int sig, const char *reason,
                         int crashing_ring) const;

    /**
     * Async-signal-safe: open the configured crash path and write a
     * post-mortem there (silent no-op when no path is configured),
     * then note the dump location on stderr. Called by the fatal
     * signal handler and the cb_fatal hook; exposed for tests.
     */
    void crashDump(int sig, const char *reason);

    /**
     * Normal-path JSON of the recorder state (the `/flight`
     * endpoint): same shape as the post-mortem dump with
     * `"reason": "live"`.
     */
    std::string dumpJson() const;

    /** Decoded events of ring @p ring, oldest first (tests). */
    std::vector<FlightEvent> ringEvents(size_t ring) const;

    /** The calling thread's ring index (claiming one if enabled);
     *  -1 when unavailable. */
    int myRingIndex();

    /**
     * Disable recording, zero every ring, and clear drop counts.
     * Ring claims made by live threads stay valid. Does not remove
     * installed signal handlers.
     */
    void resetForTest();

  private:
    FlightRecorder();

    struct Ring;

    Ring *myRing();

    /** Microseconds since recorder construction. */
    uint64_t nowUs() const;

    std::atomic<bool> is_enabled{false};
    std::atomic<uint64_t> dropped{0};
    std::atomic<uint32_t> rings_claimed{0};
    /** Allocated on first enable; the singleton is deliberately
     *  leaked, so the signal handler may read the rings at any time
     *  for the life of the process. */
    std::unique_ptr<Ring[]> rings_owned;
    std::atomic<Ring *> rings{nullptr};
    mutable std::mutex alloc_mu;
    std::chrono::steady_clock::time_point epoch;

    /** Fixed storage so the handler never touches std::string. */
    char crash_path[512] = {};
    std::atomic<bool> handler_installed{false};

    /** Seqlock-protected pre-rendered stats JSON (see file docs). */
    static constexpr size_t statsSnapCapacity = 64 * 1024;
    std::atomic<uint32_t> snap_seq{0};
    std::atomic<uint32_t> snap_len{0};
    std::unique_ptr<std::atomic<unsigned char>[]> snap_buf;
    std::mutex snap_writer_mu;
};

namespace detail
{

/**
 * Async-signal-safe decimal formatting of @p v into @p buf.
 * @return Characters written (no NUL appended); 0 if @p cap is too
 * small.
 */
size_t flightFormatUint(uint64_t v, char *buf, size_t cap);

/** Static label for a FlightKind ("span_begin", "log", ...). */
const char *flightKindName(uint64_t kind);

} // namespace detail

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_FLIGHT_HH
