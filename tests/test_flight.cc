/**
 * @file
 * Unit tests for the post-mortem flight recorder: event encoding and
 * ring wraparound, the async-signal-safe integer formatter, the live
 * JSON dump, concurrent record/read torture (the TSan leg runs the
 * whole `FlightRecorder` suite), and - in the separate
 * `FlightPostMortem` suite, which forks - the real crash paths: a
 * SIGSEGV and a cb_fatal in a child process must each leave a
 * parseable post-mortem JSON behind, and under obs::Runtime the
 * dump's stats must be fresh rather than those of the arming moment.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/flight.hh"
#include "obs/json.hh"
#include "obs/runtime.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

using namespace coldboot;
using namespace coldboot::obs;

namespace
{

/** Fresh, enabled global recorder for each test. */
FlightRecorder &
freshRecorder()
{
    FlightRecorder &fr = FlightRecorder::global();
    fr.resetForTest();
    fr.setEnabled(true);
    return fr;
}

} // anonymous namespace

TEST(FlightRecorder, FormatUintCoversEdges)
{
    char buf[32];

    size_t n = obs::detail::flightFormatUint(0, buf, sizeof(buf));
    EXPECT_EQ(std::string(buf, n), "0");

    n = obs::detail::flightFormatUint(42, buf, sizeof(buf));
    EXPECT_EQ(std::string(buf, n), "42");

    n = obs::detail::flightFormatUint(UINT64_MAX, buf, sizeof(buf));
    EXPECT_EQ(std::string(buf, n), "18446744073709551615");

    // A buffer too small for the value writes nothing.
    EXPECT_EQ(obs::detail::flightFormatUint(1234, buf, 3), 0u);
}

TEST(FlightRecorder, KindNamesAreStable)
{
    EXPECT_STREQ(obs::detail::flightKindName(1), "span_begin");
    EXPECT_STREQ(obs::detail::flightKindName(2), "span_end");
    EXPECT_STREQ(obs::detail::flightKindName(3), "log");
    EXPECT_STREQ(obs::detail::flightKindName(4), "counter");
    EXPECT_STREQ(obs::detail::flightKindName(5), "fatal");
}

TEST(FlightRecorder, RecordAndDecodeRoundTrip)
{
    FlightRecorder &fr = freshRecorder();

    fr.record(FlightKind::SpanBegin, "phase.alpha", 11, 7);
    fr.record(FlightKind::Counter, "job.progress", 4096, 8192);
    fr.record(FlightKind::Log, "warn: something", 0);

    int ring = fr.myRingIndex();
    ASSERT_GE(ring, 0);
    auto events = fr.ringEvents(static_cast<size_t>(ring));
    ASSERT_GE(events.size(), 3u);

    const FlightEvent &begin = events[events.size() - 3];
    EXPECT_EQ(begin.kind, FlightKind::SpanBegin);
    EXPECT_EQ(begin.a, 11u);
    EXPECT_EQ(begin.b, 7u);
    EXPECT_EQ(begin.name, "phase.alpha");

    const FlightEvent &counter = events[events.size() - 2];
    EXPECT_EQ(counter.kind, FlightKind::Counter);
    EXPECT_EQ(counter.a, 4096u);
    EXPECT_EQ(counter.b, 8192u);
    EXPECT_EQ(counter.name, "job.progress");

    const FlightEvent &log = events[events.size() - 1];
    EXPECT_EQ(log.kind, FlightKind::Log);
    EXPECT_EQ(log.name, "warn: something");

    // Timestamps are monotone within one thread's ring.
    EXPECT_LE(begin.ts_us, counter.ts_us);
    EXPECT_LE(counter.ts_us, log.ts_us);
}

TEST(FlightRecorder, LongNamesTruncateAtNameBytes)
{
    FlightRecorder &fr = freshRecorder();

    std::string lng(3 * FlightRecorder::nameBytes, 'x');
    fr.record(FlightKind::Log, lng.c_str());

    int ring = fr.myRingIndex();
    ASSERT_GE(ring, 0);
    auto events = fr.ringEvents(static_cast<size_t>(ring));
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().name,
              std::string(FlightRecorder::nameBytes, 'x'));
}

TEST(FlightRecorder, RingWrapsAroundKeepingNewestEvents)
{
    FlightRecorder &fr = freshRecorder();

    const size_t total = FlightRecorder::eventCapacity + 17;
    for (size_t i = 0; i < total; ++i)
        fr.record(FlightKind::Counter, "wrap", i, 2 * i);

    int ring = fr.myRingIndex();
    ASSERT_GE(ring, 0);
    auto events = fr.ringEvents(static_cast<size_t>(ring));
    ASSERT_EQ(events.size(), FlightRecorder::eventCapacity);

    // Oldest surviving event is #17; newest is the last recorded.
    EXPECT_EQ(events.front().a, 17u);
    EXPECT_EQ(events.back().a, total - 1);
    EXPECT_EQ(events.back().b, 2 * (total - 1));
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_EQ(events[i].a, events[i - 1].a + 1);
}

TEST(FlightRecorder, DisabledRecordIsANoop)
{
    FlightRecorder &fr = freshRecorder();
    fr.record(FlightKind::Log, "kept");
    int ring = fr.myRingIndex();
    ASSERT_GE(ring, 0);
    size_t before = fr.ringEvents(static_cast<size_t>(ring)).size();
    uint64_t dropped_before = fr.droppedEvents();

    fr.setEnabled(false);
    fr.record(FlightKind::Log, "discarded");

    EXPECT_EQ(fr.ringEvents(static_cast<size_t>(ring)).size(), before);
    // Disabled is off, not overflow: nothing counts as dropped.
    EXPECT_EQ(fr.droppedEvents(), dropped_before);
    fr.setEnabled(true);
}

TEST(FlightRecorder, DumpJsonParsesAndCarriesEvents)
{
    FlightRecorder &fr = freshRecorder();
    fr.record(FlightKind::SpanBegin, "dump.me", 5, 0);
    fr.record(FlightKind::SpanEnd, "dump.me", 5, 1234);
    fr.updateStatsSnapshot();

    auto doc = json::parse(fr.dumpJson());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("reason")->str, "live");
    EXPECT_EQ(doc->find("signal")->number, 0.0);
    EXPECT_TRUE(doc->find("enabled")->boolean);

    const auto *threads = doc->find("threads");
    ASSERT_NE(threads, nullptr);
    ASSERT_FALSE(threads->array.empty());

    bool saw_span_end = false;
    for (const auto &t : threads->array) {
        const auto *events = t.find("events");
        ASSERT_NE(events, nullptr);
        for (const auto &e : events->array) {
            if (e.find("kind")->str == "span_end" &&
                e.find("name")->str == "dump.me") {
                saw_span_end = true;
                EXPECT_EQ(e.find("a")->number, 5.0);
                EXPECT_EQ(e.find("b")->number, 1234.0);
            }
        }
    }
    EXPECT_TRUE(saw_span_end);

    // The pre-rendered stats snapshot embeds as a JSON object.
    const auto *stats = doc->find("stats");
    ASSERT_NE(stats, nullptr);
    EXPECT_NE(stats->find("stats"), nullptr);
}

TEST(FlightRecorder, ScopedSpanLeavesBeginEndBreadcrumbs)
{
    FlightRecorder &fr = freshRecorder();
    PhaseTracer tracer;

    uint64_t span_id = 0;
    {
        ScopedSpan span("breadcrumb.phase", tracer);
        span_id = span.id();
    }
    ASSERT_NE(span_id, 0u);

    int ring = fr.myRingIndex();
    ASSERT_GE(ring, 0);
    auto events = fr.ringEvents(static_cast<size_t>(ring));
    ASSERT_GE(events.size(), 2u);

    const FlightEvent &end = events.back();
    const FlightEvent &begin = events[events.size() - 2];
    EXPECT_EQ(begin.kind, FlightKind::SpanBegin);
    EXPECT_EQ(begin.a, span_id);
    EXPECT_EQ(begin.name, "breadcrumb.phase");
    EXPECT_EQ(end.kind, FlightKind::SpanEnd);
    EXPECT_EQ(end.a, span_id);
    EXPECT_EQ(end.name, "breadcrumb.phase");
}

TEST(FlightRecorder, ConcurrentRecordAndDumpTorture)
{
    FlightRecorder &fr = freshRecorder();

    // Writers hammer their own rings (wrapping many times) while the
    // main thread reads dumps concurrently - the reader/writer ring
    // protocol must stay clean under TSan.
    constexpr int writers = 4;
    constexpr size_t per_writer = 4 * FlightRecorder::eventCapacity;
    // coldboot-lint: allow(no-raw-thread) -- exercising the ring protocol below the ThreadPool layer
    std::vector<std::thread> pool;
    pool.reserve(writers);
    for (int w = 0; w < writers; ++w) {
        pool.emplace_back([&fr, w] {
            char name[32];
            std::snprintf(name, sizeof(name), "torture.%d", w);
            for (size_t i = 0; i < per_writer; ++i)
                fr.record(FlightKind::Counter, name, i,
                          static_cast<uint64_t>(w));
        });
    }

    for (int reads = 0; reads < 50; ++reads) {
        auto doc = json::parse(fr.dumpJson());
        ASSERT_TRUE(doc.has_value());
        for (size_t r = 0; r < fr.ringsInUse(); ++r)
            EXPECT_LE(fr.ringEvents(r).size(),
                      FlightRecorder::eventCapacity);
    }
    for (auto &t : pool)
        t.join();

    EXPECT_GE(fr.ringsInUse(), static_cast<size_t>(writers));

    // After the writers join, each ring holds a coherent tail.
    auto doc = json::parse(fr.dumpJson());
    ASSERT_TRUE(doc.has_value());
    const auto *threads = doc->find("threads");
    ASSERT_NE(threads, nullptr);
    size_t torture_rings = 0;
    for (const auto &t : threads->array) {
        const auto *events = t.find("events");
        if (events != nullptr && !events->array.empty() &&
            events->array.back().find("name")->str.rfind("torture.",
                                                         0) == 0)
            ++torture_rings;
    }
    EXPECT_EQ(torture_rings, static_cast<size_t>(writers));
}

TEST(FlightRecorder, ResetForTestClearsRingsAndDisables)
{
    FlightRecorder &fr = freshRecorder();
    fr.record(FlightKind::Log, "gone");
    int ring = fr.myRingIndex();
    ASSERT_GE(ring, 0);

    fr.resetForTest();
    EXPECT_FALSE(fr.enabled());
    EXPECT_TRUE(fr.ringEvents(static_cast<size_t>(ring)).empty());
    EXPECT_EQ(fr.droppedEvents(), 0u);
}

namespace
{

/**
 * Fork, run @p child in the child process, and reap it.
 * @return The child's raw waitpid status.
 */
template <typename Fn>
int
forkAndWait(Fn &&child)
{
    pid_t pid = fork();
    if (pid == 0) {
        child();
        _exit(97); // Unreachable for crashing children.
    }
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return status;
}

} // anonymous namespace

TEST(FlightPostMortem, SigsegvWritesParseableDump)
{
    const std::string path = "test_flight_sigsegv.json";
    std::remove(path.c_str());

    int status = forkAndWait([&path] {
        FlightRecorder &fr = FlightRecorder::global();
        fr.installCrashHandler(path);
        fr.record(FlightKind::SpanBegin, "doomed.phase", 99, 0);
        fr.record(FlightKind::Counter, "doomed.progress", 10, 10);
        std::raise(SIGSEGV);
    });

    // SA_RESETHAND + re-raise: the child still dies by SIGSEGV.
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);

    auto doc = json::parseFile(path);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("signal")->number,
              static_cast<double>(SIGSEGV));
    EXPECT_EQ(doc->find("reason")->str, "SIGSEGV");

    int crashing = static_cast<int>(
        doc->find("crashing_ring")->number);
    EXPECT_GE(crashing, 0);

    // The crashing thread's ring carries the pre-crash breadcrumbs.
    const auto *threads = doc->find("threads");
    ASSERT_NE(threads, nullptr);
    bool found_breadcrumbs = false;
    for (const auto &t : threads->array) {
        if (static_cast<int>(t.find("ring")->number) != crashing)
            continue;
        const auto *events = t.find("events");
        ASSERT_NE(events, nullptr);
        for (const auto &e : events->array)
            if (e.find("name")->str == "doomed.phase")
                found_breadcrumbs = true;
    }
    EXPECT_TRUE(found_breadcrumbs);
    std::remove(path.c_str());
}

TEST(FlightPostMortem, FatalHookWritesDumpBeforeExit)
{
    const std::string path = "test_flight_fatal.json";
    std::remove(path.c_str());

    int status = forkAndWait([&path] {
        FlightRecorder::global().installCrashHandler(path);
        cb_fatal("flight test: synthetic fatal");
    });

    // cb_fatal exits 1 after the hook runs; no signal involved.
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);

    auto doc = json::parseFile(path);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("signal")->number, 0.0);
    EXPECT_EQ(doc->find("reason")->str, "fatal");

    // The fatal message itself lands as the final Fatal event.
    const auto *threads = doc->find("threads");
    ASSERT_NE(threads, nullptr);
    bool saw_fatal = false;
    for (const auto &t : threads->array)
        for (const auto &e : t.find("events")->array)
            if (e.find("kind")->str == "fatal")
                saw_fatal = true;
    EXPECT_TRUE(saw_fatal);
    std::remove(path.c_str());
}

TEST(FlightPostMortem, RuntimeKeepsCrashStatsFresh)
{
    const std::string path = "test_flight_fresh_stats.json";
    std::remove(path.c_str());

    int status = forkAndWait([&path] {
        std::string prog = "test_flight", flag = "--flight-record",
                    file = path;
        char *argv[] = {prog.data(), flag.data(), file.data(),
                        nullptr};
        int argc = 3;
        Runtime runtime(argc, argv);
        runtime.start(Runtime::OnSignal::Record);
        // Bumped after arming, so only a later refresh can show it.
        StatRegistry::global().counter("flight.fresh.bumps").add(7);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(3);
        while (FlightRecorder::global().dumpJson().find(
                   "flight.fresh.bumps") == std::string::npos &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        std::raise(SIGSEGV);
    });

    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGSEGV);
    auto doc = json::parseFile(path);
    ASSERT_TRUE(doc.has_value());
    const auto *stats = doc->find("stats");
    ASSERT_NE(stats, nullptr);
    const auto *tree = stats->find("stats");
    ASSERT_NE(tree, nullptr);
    const auto *bumps = tree->find("flight.fresh.bumps");
    ASSERT_NE(bumps, nullptr);
    EXPECT_EQ(bumps->find("value")->number, 7.0);
    std::remove(path.c_str());
}

TEST(FlightPostMortem, CrashDumpWithoutPathIsANoop)
{
    FlightRecorder &fr = freshRecorder();
    // No installCrashHandler in this process: nothing to write, no
    // crash, no output file - just must not blow up.
    if (fr.crashDumpPath().empty())
        fr.crashDump(0, "test");
    SUCCEED();
}
