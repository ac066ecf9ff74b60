#include "obs/flight.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/syscall.h>
#endif

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

namespace coldboot::obs
{

struct FlightRecorder::Ring
{
    /** Events ever written; slot = head % eventCapacity. */
    std::atomic<uint64_t> head{0};
    /** OS thread id of the claiming thread (0 when unknown). */
    std::atomic<uint64_t> tid{0};
    /** Encoded events, wordsPerEvent words each (see flight.hh). */
    std::atomic<uint64_t> words[eventCapacity * wordsPerEvent];
};

namespace
{

/** Set once when the singleton is constructed; the only path the
 *  signal handler uses to reach the recorder. */
std::atomic<FlightRecorder *> g_flight_instance{nullptr};

/** This thread's claimed ring (-1 unclaimed, -2 exhausted). File
 *  scope with constant init so reading it from the crash handler is
 *  just a TLS load, no lazy-init guard. */
constexpr int ringUnclaimed = -1;
constexpr int ringExhausted = -2;
thread_local int tl_ring_index = ringUnclaimed;

/** write(2) everything, retrying short writes and EINTR. */
void
writeAllFd(int fd, const char *p, size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
}

/**
 * Buffered async-signal-safe output: stack buffer flushed with
 * write(2). Every put path is allocation- and lock-free.
 */
struct SigWriter
{
    explicit SigWriter(int fd_) : fd(fd_) {}

    ~SigWriter() { flush(); }

    void flush()
    {
        if (len > 0) {
            writeAllFd(fd, buf, len);
            len = 0;
        }
    }

    void putRaw(const char *s, size_t n)
    {
        while (n > 0) {
            if (len == sizeof(buf))
                flush();
            size_t take = std::min(n, sizeof(buf) - len);
            std::memcpy(buf + len, s, take);
            len += take;
            s += take;
            n -= take;
        }
    }

    void putStr(const char *s) { putRaw(s, std::strlen(s)); }

    void putUint(uint64_t v)
    {
        char tmp[24];
        size_t n = detail::flightFormatUint(v, tmp, sizeof(tmp));
        putRaw(tmp, n);
    }

    void putInt(int64_t v)
    {
        if (v < 0) {
            putRaw("-", 1);
            putUint(static_cast<uint64_t>(-v));
        } else {
            putUint(static_cast<uint64_t>(v));
        }
    }

    /** Quoted JSON string with control/quote/backslash escapes. */
    void putJsonStr(const char *s)
    {
        putRaw("\"", 1);
        for (; *s; ++s) {
            unsigned char c = static_cast<unsigned char>(*s);
            if (c == '"' || c == '\\') {
                char esc[2] = {'\\', static_cast<char>(c)};
                putRaw(esc, 2);
            } else if (c < 0x20) {
                static const char hex[] = "0123456789abcdef";
                char esc[6] = {'\\', 'u', '0', '0',
                               hex[(c >> 4) & 0xf], hex[c & 0xf]};
                putRaw(esc, 6);
            } else {
                putRaw(reinterpret_cast<const char *>(&c), 1);
            }
        }
        putRaw("\"", 1);
    }

    int fd;
    char buf[1024];
    size_t len = 0;
};

/** Decode one encoded event from its word span (atomic loads). */
FlightEvent
decodeEvent(const std::atomic<uint64_t> *w)
{
    FlightEvent ev;
    ev.ts_us = w[0].load(std::memory_order_relaxed);
    uint64_t kind = w[1].load(std::memory_order_relaxed);
    ev.kind = kind <= static_cast<uint64_t>(FlightKind::Fatal)
                  ? static_cast<FlightKind>(kind)
                  : FlightKind::None;
    ev.a = w[2].load(std::memory_order_relaxed);
    ev.b = w[3].load(std::memory_order_relaxed);
    char name[FlightRecorder::nameBytes + 1];
    for (size_t i = 0; i < FlightRecorder::nameBytes / 8; ++i) {
        uint64_t word = w[4 + i].load(std::memory_order_relaxed);
        std::memcpy(name + i * 8, &word, 8);
    }
    name[FlightRecorder::nameBytes] = '\0';
    ev.name = name;
    return ev;
}

/** Signal-safe variant: decode the name bytes into @p out (cap
 *  nameBytes + 1), NUL-terminated. */
void
decodeName(const std::atomic<uint64_t> *w, char *out)
{
    for (size_t i = 0; i < FlightRecorder::nameBytes / 8; ++i) {
        uint64_t word = w[4 + i].load(std::memory_order_relaxed);
        std::memcpy(out + i * 8, &word, 8);
    }
    out[FlightRecorder::nameBytes] = '\0';
}

void
flightLogHook(int level, const char *msg)
{
    if (FlightRecorder *fr = FlightRecorder::instance())
        fr->record(FlightKind::Log, msg,
                   static_cast<uint64_t>(level));
}

void
flightFatalHook(const char *msg)
{
    FlightRecorder *fr = FlightRecorder::instance();
    if (!fr)
        return;
    fr->record(FlightKind::Fatal, msg);
    fr->crashDump(0, "fatal");
}

extern "C" void
flightCrashSignalHandler(int sig)
{
    if (FlightRecorder *fr = FlightRecorder::instance()) {
        const char *reason = sig == SIGSEGV   ? "SIGSEGV"
                             : sig == SIGBUS  ? "SIGBUS"
                             : sig == SIGABRT ? "SIGABRT"
                                              : "signal";
        fr->crashDump(sig, reason);
    }
    // SA_RESETHAND restored the default disposition; die with the
    // original signal so exit status and core behavior are unchanged.
    raise(sig);
}

} // anonymous namespace

namespace detail
{

size_t
flightFormatUint(uint64_t v, char *buf, size_t cap)
{
    char tmp[20];
    size_t n = 0;
    do {
        tmp[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v > 0);
    if (n > cap)
        return 0;
    for (size_t i = 0; i < n; ++i)
        buf[i] = tmp[n - 1 - i];
    return n;
}

const char *
flightKindName(uint64_t kind)
{
    switch (kind) {
    case 0: return "none";
    case 1: return "span_begin";
    case 2: return "span_end";
    case 3: return "log";
    case 4: return "counter";
    case 5: return "fatal";
    default: return "unknown";
    }
}

} // namespace detail

FlightRecorder::FlightRecorder()
    : epoch(std::chrono::steady_clock::now())
{
}

FlightRecorder &
FlightRecorder::global()
{
    // Deliberately leaked: the crash handler may need the rings at
    // any point up to process death, including during static
    // destruction after main().
    static FlightRecorder *instance = [] {
        auto *fr = new FlightRecorder;
        g_flight_instance.store(fr, std::memory_order_release);
        return fr;
    }();
    return *instance;
}

FlightRecorder *
FlightRecorder::instance()
{
    return g_flight_instance.load(std::memory_order_acquire);
}

uint64_t
FlightRecorder::nowUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

void
FlightRecorder::setEnabled(bool on)
{
    if (on && !rings.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(alloc_mu);
        if (!rings.load(std::memory_order_relaxed)) {
            rings_owned = std::make_unique<Ring[]>(maxRings);
            if (!snap_buf)
                snap_buf = std::make_unique<
                    std::atomic<unsigned char>[]>(statsSnapCapacity);
            rings.store(rings_owned.get(),
                        std::memory_order_release);
        }
    }
    is_enabled.store(on, std::memory_order_relaxed);
}

FlightRecorder::Ring *
FlightRecorder::myRing()
{
    Ring *all = rings.load(std::memory_order_acquire);
    if (!all)
        return nullptr;
    if (tl_ring_index >= 0)
        return &all[tl_ring_index];
    if (tl_ring_index == ringExhausted)
        return nullptr;
    uint32_t idx =
        rings_claimed.fetch_add(1, std::memory_order_relaxed);
    if (idx >= maxRings) {
        tl_ring_index = ringExhausted;
        return nullptr;
    }
    tl_ring_index = static_cast<int>(idx);
#ifdef __linux__
    all[idx].tid.store(
        static_cast<uint64_t>(syscall(SYS_gettid)),
        std::memory_order_relaxed);
#endif
    return &all[idx];
}

int
FlightRecorder::myRingIndex()
{
    if (enabled())
        myRing();
    return tl_ring_index >= 0 ? tl_ring_index : -1;
}

void
FlightRecorder::record(FlightKind kind, const char *name, uint64_t a,
                       uint64_t b)
{
    if (!is_enabled.load(std::memory_order_relaxed))
        return;
    Ring *ring = myRing();
    if (!ring) {
        dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    uint64_t h = ring->head.load(std::memory_order_relaxed);
    std::atomic<uint64_t> *w =
        &ring->words[(h % eventCapacity) * wordsPerEvent];
    w[0].store(nowUs(), std::memory_order_relaxed);
    w[1].store(static_cast<uint64_t>(kind),
               std::memory_order_relaxed);
    w[2].store(a, std::memory_order_relaxed);
    w[3].store(b, std::memory_order_relaxed);
    uint64_t packed[nameBytes / 8] = {};
    if (name != nullptr)
        std::memcpy(packed, name, strnlen(name, nameBytes));
    for (size_t i = 0; i < nameBytes / 8; ++i)
        w[4 + i].store(packed[i], std::memory_order_relaxed);
    ring->head.store(h + 1, std::memory_order_release);
}

size_t
FlightRecorder::ringsInUse() const
{
    return std::min<size_t>(
        rings_claimed.load(std::memory_order_acquire), maxRings);
}

void
FlightRecorder::installCrashHandler(const std::string &path)
{
    setEnabled(true);
    {
        std::lock_guard<std::mutex> lock(alloc_mu);
        std::snprintf(crash_path, sizeof(crash_path), "%s",
                      path.c_str());
    }
    updateStatsSnapshot();
    setLogHook(&flightLogHook);
    setFatalHook(&flightFatalHook);
    if (!handler_installed.exchange(true)) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = &flightCrashSignalHandler;
        sigemptyset(&sa.sa_mask);
        // Reset to default on entry (so the re-raise terminates) and
        // leave the signal unblocked (so the re-raise delivers).
        sa.sa_flags = SA_RESETHAND | SA_NODEFER;
        sigaction(SIGSEGV, &sa, nullptr);
        sigaction(SIGBUS, &sa, nullptr);
        sigaction(SIGABRT, &sa, nullptr);
    }
}

std::string
FlightRecorder::crashDumpPath() const
{
    std::lock_guard<std::mutex> lock(alloc_mu);
    return crash_path;
}

void
FlightRecorder::updateStatsSnapshot()
{
    {
        std::lock_guard<std::mutex> lock(alloc_mu);
        if (!snap_buf)
            snap_buf = std::make_unique<std::atomic<unsigned char>[]>(
                statsSnapCapacity);
    }
    std::string json = StatRegistry::global().dumpJson();
    if (json.size() > statsSnapCapacity)
        json = "{\"error\": \"stats snapshot exceeds capacity\"}";

    std::lock_guard<std::mutex> lock(snap_writer_mu);
    snap_seq.fetch_add(1, std::memory_order_relaxed); // odd: writing
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < json.size(); ++i)
        snap_buf[i].store(static_cast<unsigned char>(json[i]),
                          std::memory_order_relaxed);
    snap_len.store(static_cast<uint32_t>(json.size()),
                   std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    snap_seq.fetch_add(1, std::memory_order_relaxed); // even: done
}

void
FlightRecorder::writePostMortem(int fd, int sig, const char *reason,
                                int crashing_ring) const
{
    SigWriter w(fd);
    w.putStr("{\"signal\": ");
    w.putInt(sig);
    w.putStr(", \"reason\": ");
    w.putJsonStr(reason);
    w.putStr(", \"crashing_ring\": ");
    w.putInt(crashing_ring);
    w.putStr(", \"dropped_events\": ");
    w.putUint(dropped.load(std::memory_order_relaxed));
    w.putStr(", \"threads\": [");

    Ring *all = rings.load(std::memory_order_acquire);
    uint32_t in_use = static_cast<uint32_t>(
        std::min<uint64_t>(
            rings_claimed.load(std::memory_order_acquire), maxRings));
    for (uint32_t r = 0; all != nullptr && r < in_use; ++r) {
        const Ring &ring = all[r];
        uint64_t head = ring.head.load(std::memory_order_acquire);
        if (r > 0)
            w.putStr(", ");
        w.putStr("{\"ring\": ");
        w.putUint(r);
        w.putStr(", \"tid\": ");
        w.putUint(ring.tid.load(std::memory_order_relaxed));
        w.putStr(", \"events_total\": ");
        w.putUint(head);
        w.putStr(", \"events\": [");
        uint64_t count = std::min<uint64_t>(head, eventCapacity);
        for (uint64_t k = head - count; k < head; ++k) {
            const std::atomic<uint64_t> *ew =
                &ring.words[(k % eventCapacity) * wordsPerEvent];
            if (k != head - count)
                w.putStr(", ");
            w.putStr("{\"ts_us\": ");
            w.putUint(ew[0].load(std::memory_order_relaxed));
            w.putStr(", \"kind\": ");
            w.putJsonStr(detail::flightKindName(
                ew[1].load(std::memory_order_relaxed)));
            w.putStr(", \"a\": ");
            w.putUint(ew[2].load(std::memory_order_relaxed));
            w.putStr(", \"b\": ");
            w.putUint(ew[3].load(std::memory_order_relaxed));
            w.putStr(", \"name\": ");
            char name[nameBytes + 1];
            decodeName(ew, name);
            w.putJsonStr(name);
            w.putStr("}");
        }
        w.putStr("]}");
    }
    w.putStr("], \"stats\": ");

    // Copy the pre-rendered stats JSON out through the seqlock. A
    // bounded number of attempts: if a writer keeps interfering (it
    // cannot, in a crash, but this code must not loop forever), fall
    // back to null.
    bool got_snap = false;
    static thread_local char snap_copy[statsSnapCapacity];
    uint32_t snap_copy_len = 0;
    const std::atomic<unsigned char> *snap = snap_buf.get();
    if (snap != nullptr) {
        for (int attempt = 0; attempt < 8 && !got_snap; ++attempt) {
            uint32_t s1 = snap_seq.load(std::memory_order_acquire);
            if (s1 & 1u)
                continue;
            uint32_t len =
                std::min<uint32_t>(snap_len.load(
                                       std::memory_order_relaxed),
                                   statsSnapCapacity);
            for (uint32_t i = 0; i < len; ++i)
                snap_copy[i] = static_cast<char>(
                    snap[i].load(std::memory_order_relaxed));
            std::atomic_thread_fence(std::memory_order_acquire);
            if (snap_seq.load(std::memory_order_relaxed) == s1) {
                got_snap = len > 0;
                snap_copy_len = len;
            }
        }
    }
    if (got_snap)
        w.putRaw(snap_copy, snap_copy_len);
    else
        w.putStr("null");
    w.putStr("}\n");
    w.flush();
}

void
FlightRecorder::crashDump(int sig, const char *reason)
{
    if (crash_path[0] == '\0')
        return;
    int fd = ::open(crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    int crashing = tl_ring_index >= 0 ? tl_ring_index : -1;
    writePostMortem(fd, sig, reason, crashing);
    ::close(fd);

    SigWriter note(2);
    note.putStr("flight: post-mortem (");
    note.putStr(reason);
    note.putStr(") written to ");
    note.putStr(crash_path);
    note.putStr("\n");
}

std::string
FlightRecorder::dumpJson() const
{
    std::string out = "{\"signal\": 0, \"reason\": \"live\", ";
    out += "\"enabled\": ";
    out += enabled() ? "true" : "false";
    out += ", \"crashing_ring\": -1, \"dropped_events\": " +
           std::to_string(dropped.load(std::memory_order_relaxed)) +
           ", \"threads\": [";

    Ring *all = rings.load(std::memory_order_acquire);
    size_t in_use = ringsInUse();
    for (size_t r = 0; all != nullptr && r < in_use; ++r) {
        const Ring &ring = all[r];
        uint64_t head = ring.head.load(std::memory_order_acquire);
        if (r > 0)
            out += ", ";
        out += "{\"ring\": " + std::to_string(r) +
               ", \"tid\": " +
               std::to_string(
                   ring.tid.load(std::memory_order_relaxed)) +
               ", \"events_total\": " + std::to_string(head) +
               ", \"events\": [";
        uint64_t count = std::min<uint64_t>(head, eventCapacity);
        for (uint64_t k = head - count; k < head; ++k) {
            FlightEvent ev = decodeEvent(
                &ring.words[(k % eventCapacity) * wordsPerEvent]);
            if (k != head - count)
                out += ", ";
            out += "{\"ts_us\": " + std::to_string(ev.ts_us) +
                   ", \"kind\": \"" +
                   detail::flightKindName(
                       static_cast<uint64_t>(ev.kind)) +
                   "\", \"a\": " + std::to_string(ev.a) +
                   ", \"b\": " + std::to_string(ev.b) +
                   ", \"name\": \"" + json::escape(ev.name) + "\"}";
        }
        out += "]}";
    }
    out += "], \"stats\": ";

    // Same seqlock copy the post-mortem path uses, so /flight shows
    // exactly what a crash dump would embed (as of the last
    // updateStatsSnapshot).
    std::string snap_json;
    const std::atomic<unsigned char> *snap = nullptr;
    {
        // A first updateStatsSnapshot() may be allocating the buffer
        // right now; once set, it is never freed.
        std::lock_guard<std::mutex> lock(alloc_mu);
        snap = snap_buf.get();
    }
    if (snap != nullptr) {
        for (int attempt = 0; attempt < 64; ++attempt) {
            uint32_t s1 = snap_seq.load(std::memory_order_acquire);
            if (s1 & 1u)
                continue;
            uint32_t len =
                std::min<uint32_t>(snap_len.load(
                                       std::memory_order_relaxed),
                                   statsSnapCapacity);
            std::string candidate;
            candidate.resize(len);
            for (uint32_t i = 0; i < len; ++i)
                candidate[i] = static_cast<char>(
                    snap[i].load(std::memory_order_relaxed));
            std::atomic_thread_fence(std::memory_order_acquire);
            if (snap_seq.load(std::memory_order_relaxed) == s1) {
                snap_json = std::move(candidate);
                break;
            }
        }
    }
    out += snap_json.empty() ? "null" : snap_json;
    out += "}\n";
    return out;
}

std::vector<FlightEvent>
FlightRecorder::ringEvents(size_t ring_index) const
{
    std::vector<FlightEvent> out;
    Ring *all = rings.load(std::memory_order_acquire);
    if (all == nullptr || ring_index >= ringsInUse())
        return out;
    const Ring &ring = all[ring_index];
    uint64_t head = ring.head.load(std::memory_order_acquire);
    uint64_t count = std::min<uint64_t>(head, eventCapacity);
    out.reserve(count);
    for (uint64_t k = head - count; k < head; ++k)
        out.push_back(decodeEvent(
            &ring.words[(k % eventCapacity) * wordsPerEvent]));
    return out;
}

void
FlightRecorder::resetForTest()
{
    is_enabled.store(false, std::memory_order_relaxed);
    dropped.store(0, std::memory_order_relaxed);
    Ring *all = rings.load(std::memory_order_acquire);
    if (all == nullptr)
        return;
    size_t in_use = ringsInUse();
    for (size_t r = 0; r < in_use; ++r) {
        for (size_t i = 0; i < eventCapacity * wordsPerEvent; ++i)
            all[r].words[i].store(0, std::memory_order_relaxed);
        all[r].head.store(0, std::memory_order_release);
    }
}

} // namespace coldboot::obs
