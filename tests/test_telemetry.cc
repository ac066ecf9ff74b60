/**
 * @file
 * Live telemetry plane tests: Prometheus text rendering +
 * validation, the progress/ETA tracker, the json::escape
 * control-char/UTF-8 contract, the obs::Runtime flag bootstrap, and
 * the embedded HTTP server exercised over real sockets - including a
 * concurrent-scrape suite that TSan runs in CI against live counter
 * traffic and per-worker pool stats publishing.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "obs/export.hh"
#include "obs/http.hh"
#include "obs/json.hh"
#include "obs/progress.hh"
#include "obs/runtime.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

using namespace coldboot;
using namespace coldboot::obs;

//
// Prometheus rendering + validation
//

TEST(PrometheusExport, NameMangling)
{
    EXPECT_EQ(prometheusName("attack.miner.blocks_scanned"),
              "attack_miner_blocks_scanned");
    EXPECT_EQ(prometheusName("exec.pool.worker.0.steals"),
              "exec_pool_worker_0_steals");
    EXPECT_EQ(prometheusName("9lives"), "_9lives");
    EXPECT_EQ(prometheusName("a-b c"), "a_b_c");
    EXPECT_EQ(prometheusName(""), "_");
}

namespace
{

StatSnapshot
counterSnap(const std::string &name, double v,
            const std::string &desc = "")
{
    StatSnapshot s;
    s.name = name;
    s.desc = desc;
    s.type = StatSnapshot::Type::Counter;
    s.value = v;
    return s;
}

} // anonymous namespace

TEST(PrometheusExport, RendersCounterAndGauge)
{
    std::vector<StatSnapshot> stats;
    stats.push_back(counterSnap("a.count", 7, "a counter"));
    StatSnapshot sc;
    sc.name = "b.gauge";
    sc.type = StatSnapshot::Type::Scalar;
    sc.value = 1.5;
    stats.push_back(sc);

    std::string text = renderPrometheusText(stats);
    EXPECT_NE(text.find("# HELP a_count a counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE a_count counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("\na_count 7\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE b_gauge gauge\n"),
              std::string::npos);

    std::string error;
    EXPECT_TRUE(validatePrometheusText(text, &error)) << error;
}

TEST(PrometheusExport, RendersHistogramCumulative)
{
    StatSnapshot s;
    s.name = "d.hist";
    s.type = StatSnapshot::Type::Distribution;
    s.dist.count = 6;
    s.dist.sum = 30.0;
    s.dist.bucket_edges = {1.0, 10.0};
    // underflow(-inf,1): 2, [1,10): 3, [10,inf): 1
    s.dist.bucket_counts = {2, 3, 1};
    std::string text = renderPrometheusText({s});
    EXPECT_NE(text.find("# TYPE d_hist histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("d_hist_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("d_hist_bucket{le=\"10\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("d_hist_bucket{le=\"+Inf\"} 6\n"),
              std::string::npos);
    EXPECT_NE(text.find("d_hist_sum 30\n"), std::string::npos);
    EXPECT_NE(text.find("d_hist_count 6\n"), std::string::npos);
    std::string error;
    EXPECT_TRUE(validatePrometheusText(text, &error)) << error;
}

TEST(PrometheusExport, RendersEdgelessDistributionAsGauges)
{
    StatSnapshot s;
    s.name = "e.dist";
    s.type = StatSnapshot::Type::Distribution;
    s.dist.count = 2;
    s.dist.sum = 3.0;
    s.dist.min = 1.0;
    s.dist.max = 2.0;
    s.dist.mean = 1.5;
    std::string text = renderPrometheusText({s});
    EXPECT_NE(text.find("e_dist_count 2\n"), std::string::npos);
    EXPECT_NE(text.find("e_dist_mean 1.5\n"), std::string::npos);
    std::string error;
    EXPECT_TRUE(validatePrometheusText(text, &error)) << error;
}

TEST(PrometheusExport, ValidatorRejectsMalformed)
{
    std::string error;
    // Bad metric name.
    EXPECT_FALSE(validatePrometheusText("9bad 1\n", &error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    // Bad value.
    EXPECT_FALSE(validatePrometheusText("ok_name abc\n", &error));
    // Unknown TYPE.
    EXPECT_FALSE(
        validatePrometheusText("# TYPE x florp\n", &error));
    // Duplicate TYPE.
    EXPECT_FALSE(validatePrometheusText(
        "# TYPE x counter\n# TYPE x counter\n", &error));
    // Unterminated label set.
    EXPECT_FALSE(
        validatePrometheusText("x{le=\"1\" 2\n", &error));
    // Trailing garbage.
    EXPECT_FALSE(
        validatePrometheusText("x 1 2 3\n", &error));
    // Valid corner cases.
    EXPECT_TRUE(validatePrometheusText("", &error));
    EXPECT_TRUE(validatePrometheusText(
        "# a free comment\nx{a=\"b\",c=\"d\\\"e\"} +Inf 123\n",
        &error))
        << error;
}

//
// Progress / ETA
//

TEST(Progress, PercentAndEta)
{
    ProgressTracker tracker;
    auto job = tracker.startJob("test.job", 1000);
    EXPECT_EQ(job->percent(), 0.0);
    EXPECT_EQ(job->etaSeconds(), -1.0); // unknown before any work
    job->advance(250);
    EXPECT_DOUBLE_EQ(job->percent(), 25.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    double eta = job->etaSeconds();
    EXPECT_GE(eta, 0.0); // 3x the elapsed time, whatever it was
    job->advance(750);
    EXPECT_DOUBLE_EQ(job->percent(), 100.0);
    EXPECT_EQ(job->etaSeconds(), 0.0);
    job->finish();
    EXPECT_TRUE(job->finished());
    EXPECT_EQ(job->percent(), 100.0);
    EXPECT_EQ(job->etaSeconds(), 0.0);
    double elapsed = job->elapsedSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(job->elapsedSeconds(), elapsed); // frozen at finish
}

TEST(Progress, FinishSnapsShortJobTo100)
{
    ProgressTracker tracker;
    auto job = tracker.startJob("test.partial", 100);
    job->advance(10);
    job->finish();
    EXPECT_EQ(job->percent(), 100.0);
    EXPECT_EQ(job->doneUnits(), 100u);
}

TEST(Progress, ZeroTotalJob)
{
    ProgressTracker tracker;
    auto job = tracker.startJob("test.empty", 0);
    EXPECT_EQ(job->percent(), 0.0);
    EXPECT_EQ(job->etaSeconds(), -1.0);
    job->finish();
    EXPECT_EQ(job->percent(), 100.0);
}

TEST(Progress, PercentClampsOverAdvance)
{
    ProgressTracker tracker;
    auto job = tracker.startJob("test.over", 10);
    job->advance(100);
    EXPECT_EQ(job->percent(), 100.0);
    EXPECT_EQ(job->etaSeconds(), 0.0);
}

TEST(Progress, TrackerSnapshotAndJson)
{
    ProgressTracker tracker;
    auto a = tracker.startJob("job.a", 10);
    auto b = tracker.startJob("job.b", 20);
    a->advance(5);
    b->finish();
    auto snaps = tracker.snapshot();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].name, "job.a");
    EXPECT_EQ(snaps[0].done_units, 5u);
    EXPECT_FALSE(snaps[0].finished);
    EXPECT_TRUE(snaps[1].finished);
    EXPECT_EQ(snaps[1].percent, 100.0);
    EXPECT_LT(snaps[0].id, snaps[1].id);

    auto doc = json::parse(tracker.dumpJson());
    ASSERT_TRUE(doc.has_value());
    const auto *jobs = doc->find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->array.size(), 2u);
    EXPECT_EQ(jobs->array[0].find("name")->str, "job.a");
    EXPECT_EQ(jobs->array[0].find("percent")->number, 50.0);
    EXPECT_TRUE(jobs->array[1].find("finished")->boolean);
}

TEST(Progress, BoundedFinishedRetention)
{
    ProgressTracker tracker;
    auto live = tracker.startJob("live", 10);
    for (int i = 0; i < 200; ++i)
        tracker.startJob("fin." + std::to_string(i), 1)->finish();
    auto snaps = tracker.snapshot();
    // Bounded: at most keptFinished finished jobs plus the live one.
    EXPECT_LE(snaps.size(), ProgressTracker::keptFinished + 1);
    bool live_present = false;
    for (const auto &s : snaps)
        live_present = live_present || s.name == "live";
    EXPECT_TRUE(live_present); // live jobs are never evicted
    tracker.resetForTest();
    EXPECT_TRUE(tracker.snapshot().empty());
}

//
// json::escape control characters and UTF-8
//

TEST(JsonEscape, AllControlCharsEscaped)
{
    for (int c = 0; c < 0x20; ++c) {
        std::string in(1, static_cast<char>(c));
        std::string out = json::escape(in);
        EXPECT_EQ(out[0], '\\') << "control 0x" << std::hex << c;
        // Round-trips through the in-tree parser.
        auto doc = json::parse("\"" + out + "\"");
        ASSERT_TRUE(doc.has_value()) << "control 0x" << std::hex << c;
    }
    EXPECT_EQ(json::escape("\b"), "\\b");
    EXPECT_EQ(json::escape("\f"), "\\f");
    EXPECT_EQ(json::escape("\n"), "\\n");
    EXPECT_EQ(json::escape("\r"), "\\r");
    EXPECT_EQ(json::escape("\t"), "\\t");
    EXPECT_EQ(json::escape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(json::escape("\x1f"), "\\u001f");
    EXPECT_EQ(json::escape("\"\\"), "\\\"\\\\");
}

TEST(JsonEscape, ValidUtf8PassesThrough)
{
    EXPECT_EQ(json::escape("caf\xc3\xa9"), "caf\xc3\xa9");
    EXPECT_EQ(json::escape("\xe2\x82\xac"), "\xe2\x82\xac"); // euro
    EXPECT_EQ(json::escape("\xf0\x9f\x94\x91"),
              "\xf0\x9f\x94\x91"); // key emoji (4-byte)
}

TEST(JsonEscape, InvalidUtf8Replaced)
{
    const std::string fffd = "\xef\xbf\xbd";
    // Stray continuation byte.
    EXPECT_EQ(json::escape("\x80"), fffd);
    // Truncated 2-byte sequence.
    EXPECT_EQ(json::escape("\xc3"), fffd);
    // Overlong encoding of '/' (0xc0 0xaf).
    EXPECT_EQ(json::escape("\xc0\xaf"), fffd + fffd);
    // Encoded UTF-16 surrogate (U+D800 = ed a0 80).
    EXPECT_EQ(json::escape("\xed\xa0\x80"), fffd + fffd + fffd);
    // Above U+10FFFF (f4 90 80 80).
    EXPECT_EQ(json::escape("\xf4\x90\x80\x80"),
              fffd + fffd + fffd + fffd);
    // Valid text around the damage survives.
    EXPECT_EQ(json::escape("a\x80z"), "a" + fffd + "z");
}

//
// obs::Runtime: the flags + sinks bootstrap the binaries share
//

namespace
{

/** A mutable, null-terminated argv over @p args, as main() gets. */
struct Argv
{
    explicit Argv(std::vector<std::string> args) : store(std::move(args))
    {
        for (auto &a : store)
            ptrs.push_back(a.data());
        ptrs.push_back(nullptr);
        argc = static_cast<int>(store.size());
    }

    std::vector<std::string>
    left() const
    {
        return {ptrs.begin(), ptrs.begin() + argc};
    }

    std::vector<std::string> store;
    std::vector<char *> ptrs;
    int argc = 0;
};

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() /
            (name + "_" + std::to_string(::getpid()) + ".json"))
        .string();
}

} // anonymous namespace

TEST(ObsRuntime, StripsSharedFlagsAnywhere)
{
    Argv args({"prog", "--trace", "t.json", "attack", "d.img",
               "--threads", "4",
               "--stats-json", "s.json", "--serve-obs", "0", "tail"});
    Runtime runtime(args.argc, args.ptrs.data());
    EXPECT_EQ(runtime.error(), "");
    EXPECT_EQ(args.left(),
              (std::vector<std::string>{"prog", "attack", "d.img",
                                        "--threads", "4", "tail"}));
    EXPECT_EQ(args.ptrs[args.argc], nullptr);
}

TEST(ObsRuntime, FlagMissingItsValueIsAUsageError)
{
    for (const char *flag : {"--stats-json", "--trace", "--serve-obs"}) {
        Argv args({"prog", "attack", flag});
        Runtime runtime(args.argc, args.ptrs.data());
        EXPECT_NE(runtime.error().find(flag), std::string::npos)
            << flag;
    }
}

TEST(ObsRuntime, OnlyFlagsArmTheSinks)
{
    // The environment switches these flags replaced arm nothing. This
    // is the process's first use of the global tracer (ctest runs
    // each test alone, and no earlier test in this file touches it).
    const std::vector<std::string> retired = {
        "STATS_JSON", "TRACE", "FLIGHT_RECORD", "SERVE_OBS"};
    for (const auto &name : retired)
        ::setenv(("COLDBOOT_" + name).c_str(), "1", 1);
    PhaseTracer &tracer = PhaseTracer::global();
    EXPECT_FALSE(tracer.enabled());

    const std::string stats_path = tempPath("runtime_stats");
    {
        Argv args({"prog", "--stats-json", stats_path});
        Runtime runtime(args.argc, args.ptrs.data());
        runtime.start(Runtime::OnSignal::Record);
        EXPECT_FALSE(tracer.enabled());
        ScopedSpan("runtime.unsinked").stop();
        EXPECT_EQ(tracer.eventCount(), 0u);
    }
    for (const auto &name : retired)
        ::unsetenv(("COLDBOOT_" + name).c_str());
    // Destruction wrote the file the flag asked for.
    EXPECT_TRUE(json::parseFile(stats_path).has_value());

    const std::string trace_path = tempPath("runtime_trace");
    {
        Argv args({"prog", "--trace", trace_path});
        Runtime runtime(args.argc, args.ptrs.data());
        runtime.start(Runtime::OnSignal::Record);
        EXPECT_TRUE(tracer.enabled());
        ScopedSpan("runtime.sinked").stop();
        runtime.finish();
    }
    auto trace = json::parseFile(trace_path);
    ASSERT_TRUE(trace.has_value());
    bool found = false;
    for (const auto &ev : trace->array)
        found = found || ev.find("name")->str == "runtime.sinked";
    EXPECT_TRUE(found);

    tracer.setEnabled(false);
    tracer.resetForTest();
    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());
}

//
// HTTP server over real sockets
//

namespace
{

struct HttpResponse
{
    int status = 0;
    std::string body;
    std::string raw;
};

/** A socket connected to a localhost port, or -1. */
int
connectLocal(uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                  sizeof(sa)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Minimal raw-socket HTTP/1.0-style client for localhost tests. */
HttpResponse
httpRequest(uint16_t port, const std::string &path,
            const std::string &method = "GET")
{
    HttpResponse out;
    int fd = connectLocal(port);
    if (fd < 0)
        return out;
    std::string req = method + " " + path +
                      " HTTP/1.1\r\nHost: localhost\r\n"
                      "Connection: close\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
        ssize_t n =
            ::send(fd, req.data() + off, req.size() - off, 0);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.raw.append(buf, static_cast<size_t>(n));
    ::close(fd);
    if (out.raw.size() > 12 && out.raw.rfind("HTTP/1.1 ", 0) == 0)
        out.status = std::atoi(out.raw.c_str() + 9);
    size_t hdr_end = out.raw.find("\r\n\r\n");
    if (hdr_end != std::string::npos)
        out.body = out.raw.substr(hdr_end + 4);
    return out;
}

} // anonymous namespace

TEST(ObsHttp, ParseServeSpec)
{
    ServeSpec spec;
    std::string error;
    EXPECT_TRUE(parseServeSpec("8080", &spec, &error));
    EXPECT_EQ(spec.addr, "127.0.0.1");
    EXPECT_EQ(spec.port, 8080);
    EXPECT_TRUE(parseServeSpec("0.0.0.0:0", &spec, &error));
    EXPECT_EQ(spec.addr, "0.0.0.0");
    EXPECT_EQ(spec.port, 0);
    EXPECT_FALSE(parseServeSpec("", &spec, &error));
    EXPECT_FALSE(parseServeSpec("abc", &spec, &error));
    EXPECT_FALSE(parseServeSpec("127.0.0.1:", &spec, &error));
    EXPECT_FALSE(parseServeSpec("127.0.0.1:99999", &spec, &error));
    EXPECT_FALSE(parseServeSpec("nothost:80", &spec, &error));
    EXPECT_FALSE(parseServeSpec(":80", &spec, &error));
}

namespace
{

/** Server bound to an ephemeral localhost port, for one test. */
struct ServerFixture
{
    std::unique_ptr<ObsHttpServer> server =
        std::make_unique<ObsHttpServer>();

    ServerFixture()
    {
        std::string error;
        bool ok = server->start(&error);
        EXPECT_TRUE(ok) << error;
    }
};

/**
 * A client that connects and never sends a byte. A watchdog shuts
 * the socket down after 10 s, so a server that would wait on it
 * forever fails the test instead of hanging it.
 */
class SilentClient
{
  public:
    explicit SilentClient(uint16_t port) : fd(connectLocal(port))
    {
        EXPECT_GE(fd, 0);
        watchdog->submit([this] {
            std::unique_lock<std::mutex> lock(mu);
            if (!cv.wait_for(lock, std::chrono::seconds(10),
                             [this] { return done; }))
                ::shutdown(fd, SHUT_RDWR);
        });
    }

    ~SilentClient()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            done = true;
        }
        cv.notify_all();
        watchdog.reset(); // joins, so fd is no longer in use
        ::close(fd);
    }

  private:
    int fd;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::unique_ptr<exec::ThreadPool> watchdog =
        std::make_unique<exec::ThreadPool>(1);
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // anonymous namespace

TEST(ObsHttp, HealthzAndRouting)
{
    ServerFixture fx;
    EXPECT_GT(fx.server->port(), 0);
    EXPECT_EQ(fx.server->address(), "127.0.0.1");

    auto health = httpRequest(fx.server->port(), "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");
    EXPECT_NE(health.raw.find("Content-Length: 3"),
              std::string::npos);
    EXPECT_NE(health.raw.find("Connection: close"),
              std::string::npos);

    EXPECT_EQ(httpRequest(fx.server->port(), "/nope").status, 404);
    EXPECT_EQ(httpRequest(fx.server->port(), "/healthz", "POST")
                  .status,
              405);
    // Query strings are ignored for routing.
    EXPECT_EQ(httpRequest(fx.server->port(), "/healthz?x=1").status,
              200);
    EXPECT_GE(fx.server->requestsServed(), 4u);
}

TEST(ObsHttp, MetricsEndpointIsValidPrometheus)
{
    StatRegistry::global().counter("telemetry.test.hits").add(3);
    ServerFixture fx;
    auto resp = httpRequest(fx.server->port(), "/metrics");
    ASSERT_EQ(resp.status, 200);
    EXPECT_NE(resp.raw.find("text/plain; version=0.0.4"),
              std::string::npos);
    std::string error;
    EXPECT_TRUE(validatePrometheusText(resp.body, &error)) << error;
    EXPECT_NE(resp.body.find("telemetry_test_hits"),
              std::string::npos);
}

TEST(ObsHttp, JsonEndpointsParse)
{
    StatRegistry::global().counter("telemetry.test.json").add(1);
    auto job =
        ProgressTracker::global().startJob("telemetry.test.job", 4);
    job->advance(1);
    ServerFixture fx;

    auto stats = httpRequest(fx.server->port(), "/stats");
    ASSERT_EQ(stats.status, 200);
    auto stats_doc = json::parse(stats.body);
    ASSERT_TRUE(stats_doc.has_value());
    const auto *tree = stats_doc->find("stats");
    ASSERT_NE(tree, nullptr);
    EXPECT_NE(tree->find("telemetry.test.json"), nullptr);

    // A retired endpoint answers like any unknown path.
    EXPECT_EQ(httpRequest(fx.server->port(), "/flight").status, 404);

    auto progress = httpRequest(fx.server->port(), "/progress");
    ASSERT_EQ(progress.status, 200);
    auto prog_doc = json::parse(progress.body);
    ASSERT_TRUE(prog_doc.has_value());
    const auto *jobs = prog_doc->find("jobs");
    ASSERT_NE(jobs, nullptr);
    bool found = false;
    for (const auto &j : jobs->array)
        found = found || j.find("name")->str == "telemetry.test.job";
    EXPECT_TRUE(found);
    job->finish();

    auto trace = httpRequest(fx.server->port(), "/trace");
    ASSERT_EQ(trace.status, 200);
    EXPECT_TRUE(json::parse(trace.body).has_value());
}

TEST(ObsHttp, HeadSendsHeadersOnly)
{
    ServerFixture fx;
    // /stats stamps meta.wall_seconds per request, so its length may
    // differ between two requests by that number's width.
    const struct
    {
        const char *path;
        double slack;
    } cases[] = {{"/healthz", 0}, {"/stats", 24}};
    for (const auto &c : cases) {
        auto head = httpRequest(fx.server->port(), c.path, "HEAD");
        auto get = httpRequest(fx.server->port(), c.path);
        ASSERT_EQ(get.status, 200) << c.path;
        EXPECT_EQ(head.status, 200) << c.path;
        // Nothing follows the blank line that ends the headers.
        EXPECT_EQ(head.raw.find("\r\n\r\n") + 4, head.raw.size())
            << c.path;
        // The Content-Length a GET carries.
        const size_t at = head.raw.find("Content-Length: ");
        ASSERT_NE(at, std::string::npos) << c.path;
        EXPECT_NEAR(std::atof(head.raw.c_str() + at + 16),
                    static_cast<double>(get.body.size()), c.slack)
            << c.path;
    }
}

TEST(ObsHttp, ScrapePublishesWorkerStats)
{
    // Pool work, then a bare server with no obs::Runtime: only the
    // scrape itself can mirror the pool's per-worker counters.
    exec::ThreadPool pool(3);
    exec::ThreadPool::ScopedGlobalOverride as_global(pool);
    std::atomic<uint64_t> sum{0};
    exec::parallelForChunks(0, 1024, 16, [&](const exec::ChunkRange &r) {
        sum.fetch_add(r.end - r.begin);
    });
    ASSERT_EQ(sum.load(), 1024u);
    ServerFixture fx;
    auto stats = httpRequest(fx.server->port(), "/stats");
    ASSERT_EQ(stats.status, 200);
    auto doc = json::parse(stats.body);
    ASSERT_TRUE(doc.has_value());
    const auto *tree = doc->find("stats");
    ASSERT_NE(tree, nullptr);
    EXPECT_NE(tree->find("exec.pool.worker.2.tasks_executed"), nullptr);
}

TEST(ObsHttp, QuitFlagAndStop)
{
    ServerFixture fx;
    EXPECT_FALSE(fx.server->quitRequested());
    auto resp = httpRequest(fx.server->port(), "/quit");
    EXPECT_EQ(resp.status, 200);
    EXPECT_TRUE(fx.server->quitRequested());
    uint16_t port = fx.server->port();
    fx.server->stop();
    // After stop the port no longer accepts.
    auto dead = httpRequest(port, "/healthz");
    EXPECT_EQ(dead.status, 0);
    // stop() is idempotent.
    fx.server->stop();
}

TEST(ObsHttp, MalformedRequestsAnswered)
{
    ServerFixture fx;
    // Raw garbage instead of an HTTP request line.
    int fd = connectLocal(fx.server->port());
    ASSERT_GE(fd, 0);
    const char *junk = "\r\n\r\n";
    ASSERT_GT(::send(fd, junk, 4, 0), 0);
    std::string got;
    char buf[512];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        got.append(buf, static_cast<size_t>(n));
    ::close(fd);
    EXPECT_NE(got.find("400"), std::string::npos);
    // The server survives to answer the next request.
    EXPECT_EQ(httpRequest(fx.server->port(), "/healthz").status,
              200);
}

TEST(ObsHttp, SilentClientCannotWedgeTheServer)
{
    ServerFixture fx;
    const uint16_t port = fx.server->port();
    const double patience =
        static_cast<double>(ObsHttpServer::ioTimeout.count()) + 1.0;
    {
        // Accepted first (listen backlogs are FIFO), so the scrape
        // queues behind it until the receive timeout drops it.
        SilentClient silent(port);
        auto t0 = std::chrono::steady_clock::now();
        EXPECT_EQ(httpRequest(port, "/healthz").status, 200);
        EXPECT_LT(secondsSince(t0), patience);
    }
    SilentClient silent(port);
    // Let the accept loop pick it up and block reading it.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    auto t0 = std::chrono::steady_clock::now();
    fx.server->stop();
    EXPECT_LT(secondsSince(t0), 1.0);
}

//
// Concurrent scrapes under live counter traffic (TSan suite)
//

TEST(TelemetryConcurrency, ScrapesRaceCountersAndRefresh)
{
    auto &c = StatRegistry::global().counter(
        "telemetry.race.counter");
    ObsHttpServer server;
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    uint16_t port = server.port();

    // Scrapers and a publishing task on a pool, mutators on the
    // caller: every combination of {counter add, worker-stats
    // publish, HTTP render} overlaps. The pool stands in for the
    // global one, so both the task and the /metrics and /stats
    // scrapes publish the per-worker counters of a pool under load.
    exec::ThreadPool pool(5);
    exec::ThreadPool::ScopedGlobalOverride as_global(pool);
    exec::ThreadPool::TaskGroup group(pool);
    std::atomic<int> bad{0};
    std::atomic<bool> mutating{true};
    const char *paths[] = {"/metrics", "/stats", "/trace",
                           "/progress"};
    for (int t = 0; t < 4; ++t) {
        group.run([&, t] {
            for (int i = 0; i < 8; ++i) {
                auto resp = httpRequest(port, paths[t]);
                if (resp.status != 200)
                    bad.fetch_add(1);
            }
        });
    }
    group.run([&] {
        do {
            exec::ThreadPool::publishGlobalWorkerStats();
        } while (mutating.load());
    });
    auto job = ProgressTracker::global().startJob(
        "telemetry.race.job", 1u << 16);
    for (int i = 0; i < (1 << 16); ++i) {
        c.add(1);
        job->advance(1);
    }
    mutating.store(false);
    group.wait();
    job->finish();
    EXPECT_EQ(bad.load(), 0);
    // Publishing mirrored every worker of the stand-in pool.
    EXPECT_NE(StatRegistry::global().dumpJson().find(
                  "exec.pool.worker.4.tasks_executed"),
              std::string::npos);
    server.stop();
}
