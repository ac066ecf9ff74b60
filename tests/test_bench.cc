/**
 * @file
 * Unit tests for the benchmark harness statistics kernel, the
 * BENCH.json emitter, and the logging runtime configuration.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/bench.hh"
#include "obs/json.hh"

using namespace coldboot;
using namespace coldboot::obs::bench;

//
// Statistics kernel
//

TEST(BenchStats, PercentileKnownValues)
{
    std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(sorted, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 50), 2.5);
    EXPECT_DOUBLE_EQ(percentile(sorted, 25), 1.75);
}

TEST(BenchStats, MedianOddEven)
{
    EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(BenchStats, MadKnownValues)
{
    // median = 3, |x - 3| = {2,1,0,1,2}, MAD = 1.
    EXPECT_DOUBLE_EQ(medianAbsDeviation({1.0, 2.0, 3.0, 4.0, 5.0}),
                     1.0);
    // An outlier barely moves the MAD (that's the point).
    EXPECT_DOUBLE_EQ(
        medianAbsDeviation({1.0, 2.0, 3.0, 4.0, 1000.0}), 1.0);
    EXPECT_DOUBLE_EQ(medianAbsDeviation({}), 0.0);
}

TEST(BenchStats, SummarizeKnownValues)
{
    SampleStats s = summarize({2.0, 4.0, 6.0, 8.0});
    EXPECT_EQ(s.n, 4u);
    EXPECT_DOUBLE_EQ(s.min, 2.0);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 5.0);
    EXPECT_DOUBLE_EQ(s.mad, 2.0);
    // Population stddev of {2,4,6,8}: sqrt(5).
    EXPECT_NEAR(s.stddev, std::sqrt(5.0), 1e-12);
    // The CI must bracket the median and stay within the range.
    EXPECT_LE(s.ci95_lo, s.median);
    EXPECT_GE(s.ci95_hi, s.median);
    EXPECT_GE(s.ci95_lo, s.min);
    EXPECT_LE(s.ci95_hi, s.max);
}

TEST(BenchStats, BootstrapDeterministicUnderFixedSeed)
{
    std::vector<double> samples{3.1, 2.9, 3.0, 3.3, 2.8,
                                3.2, 3.0, 2.7, 3.4, 3.1};
    SampleStats a = summarize(samples, 2000, 42);
    SampleStats b = summarize(samples, 2000, 42);
    EXPECT_DOUBLE_EQ(a.ci95_lo, b.ci95_lo);
    EXPECT_DOUBLE_EQ(a.ci95_hi, b.ci95_hi);
    // A different seed is allowed to move the interval (and with
    // these samples it does at least once over two tries).
    SampleStats c = summarize(samples, 2000, 43);
    EXPECT_LE(c.ci95_lo, c.ci95_hi);
}

TEST(BenchStats, SingleSampleDegenerates)
{
    SampleStats s = summarize({5.0});
    EXPECT_EQ(s.n, 1u);
    EXPECT_DOUBLE_EQ(s.median, 5.0);
    EXPECT_DOUBLE_EQ(s.mad, 0.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.ci95_lo, 5.0);
    EXPECT_DOUBLE_EQ(s.ci95_hi, 5.0);
}

TEST(BenchStats, ZeroResamplesDisablesCi)
{
    SampleStats s = summarize({1.0, 2.0, 3.0}, 0);
    EXPECT_DOUBLE_EQ(s.ci95_lo, s.median);
    EXPECT_DOUBLE_EQ(s.ci95_hi, s.median);
}

//
// Harness + BENCH.json emitter
//

namespace
{

void
trivialBench(BenchContext &ctx)
{
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 1000; ++i)
        sink = sink + i;
    ctx.setBytesProcessed(4096);
    ctx.setItemsProcessed(1000);
    ctx.report("trivial.answer", 42.0, "the answer");
}

} // anonymous namespace

TEST(BenchHarness, RunBenchAndEmitJson)
{
    BenchInfo info{"trivial", &trivialBench};
    RunConfig config;
    config.repetitions = 3;
    config.warmup = 1;
    config.quiet = true;
    BenchResult result = runBench(info, config);

    EXPECT_EQ(result.name, "trivial");
    EXPECT_EQ(result.wall_ns.n, 3u);
    EXPECT_GT(result.wall_ns.median, 0.0);
    EXPECT_GT(result.bytes_per_second, 0.0);
    EXPECT_GT(result.items_per_second, 0.0);
    EXPECT_GT(result.max_rss_kib, 0u);
    ASSERT_EQ(result.reports.count("trivial.answer"), 1u);
    EXPECT_DOUBLE_EQ(result.reports.at("trivial.answer").value,
                     42.0);

    std::string json =
        resultsToJson(config, collectEnvironment(), {result});
    auto doc = obs::json::parse(json);
    ASSERT_TRUE(doc.has_value()) << json;

    const auto *schema = doc->find("schema_version");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->number, benchJsonSchemaVersion);

    const auto *env = doc->find("environment");
    ASSERT_NE(env, nullptr);
    for (const char *key : {"compiler", "build_type", "cxx_flags",
                            "cpu", "os", "git_sha"})
        EXPECT_NE(env->find(key), nullptr) << key;

    const auto *benches = doc->find("benches");
    ASSERT_NE(benches, nullptr);
    ASSERT_TRUE(benches->isArray());
    ASSERT_EQ(benches->array.size(), 1u);
    const auto &bench = benches->array[0];
    EXPECT_EQ(bench.find("name")->str, "trivial");

    const auto *wall = bench.find("wall_ns");
    ASSERT_NE(wall, nullptr);
    for (const char *key : {"n", "min", "max", "mean", "stddev",
                            "median", "mad", "ci95_lo", "ci95_hi"})
        EXPECT_NE(wall->find(key), nullptr) << key;

    const auto *reports = bench.find("reports");
    ASSERT_NE(reports, nullptr);
    const auto *answer = reports->find("trivial.answer");
    ASSERT_NE(answer, nullptr);
    EXPECT_DOUBLE_EQ(answer->find("value")->number, 42.0);
    EXPECT_EQ(answer->find("desc")->str, "the answer");
}

namespace
{

void
shapeCheckedBench(BenchContext &ctx)
{
    ctx.report("shape.keys", 7.0);
    ctx.check(true, "holds");
    ctx.check(false, "7 keys, want at least 8");
}

} // anonymous namespace

TEST(BenchHarness, FailedShapeCheckFailsTheRun)
{
    RunConfig config;
    config.repetitions = 2;
    config.warmup = 1;
    config.quiet = true;
    BenchResult failing =
        runBench({"shape_probe", &shapeCheckedBench}, config);
    BenchResult passing = runBench({"trivial", &trivialBench}, config);

    // Named once, however many runs repeat it.
    ASSERT_EQ(failing.failed_checks.size(), 1u);
    EXPECT_EQ(failing.failed_checks[0], "7 keys, want at least 8");
    EXPECT_TRUE(passing.failed_checks.empty());

    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(reportFailedChecks({passing}, out), 0);
    EXPECT_EQ(reportFailedChecks({passing, failing}, out), 1);
    std::rewind(out);
    char line[128] = {};
    ASSERT_NE(std::fgets(line, sizeof(line), out), nullptr);
    std::fclose(out);
    EXPECT_STREQ(line, "shape check failed: shape_probe: 7 keys, want "
                       "at least 8\n");
}

TEST(BenchHarness, RegistryHoldsRegisteredBench)
{
    size_t before = benchRegistry().size();
    registerBench("registry_probe", &trivialBench);
    ASSERT_EQ(benchRegistry().size(), before + 1);
    EXPECT_EQ(benchRegistry().back().name, "registry_probe");
    benchRegistry().pop_back(); // leave the registry as we found it
}

//
// Logging runtime configuration
//

namespace
{

/** RAII: restore log level/format after a test. */
struct LogStateGuard
{
    LogLevel level = logLevel();
    LogFormat format = logFormat();
    ~LogStateGuard()
    {
        setLogLevel(level);
        setLogFormat(format);
    }
};

} // anonymous namespace

TEST(Logging, EnvLevelParsing)
{
    LogStateGuard guard;
    setenv("COLDBOOT_LOG_LEVEL", "quiet", 1);
    detail::reinitLoggingFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setenv("COLDBOOT_LOG_LEVEL", "warn", 1);
    detail::reinitLoggingFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setenv("COLDBOOT_LOG_LEVEL", "2", 1);
    detail::reinitLoggingFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Info);
    unsetenv("COLDBOOT_LOG_LEVEL");
}

TEST(Logging, EnvFormatParsing)
{
    LogStateGuard guard;
    setenv("COLDBOOT_LOG_FORMAT", "json", 1);
    detail::reinitLoggingFromEnv();
    EXPECT_EQ(logFormat(), LogFormat::JsonLines);
    setenv("COLDBOOT_LOG_FORMAT", "timestamped", 1);
    detail::reinitLoggingFromEnv();
    EXPECT_EQ(logFormat(), LogFormat::Timestamped);
    setenv("COLDBOOT_LOG_FORMAT", "plain", 1);
    detail::reinitLoggingFromEnv();
    EXPECT_EQ(logFormat(), LogFormat::Plain);
    unsetenv("COLDBOOT_LOG_FORMAT");
}

TEST(Logging, QuietSuppressesWarn)
{
    LogStateGuard guard;
    setLogLevel(LogLevel::Quiet);
    testing::internal::CaptureStderr();
    cb_warn("should not appear");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Logging, JsonLinesFormat)
{
    LogStateGuard guard;
    setLogLevel(LogLevel::Info);
    setLogFormat(LogFormat::JsonLines);
    testing::internal::CaptureStdout();
    cb_inform("hello \"quoted\"\nline");
    std::string out = testing::internal::GetCapturedStdout();
    auto doc = obs::json::parse(out);
    ASSERT_TRUE(doc.has_value()) << out;
    EXPECT_EQ(doc->find("level")->str, "info");
    EXPECT_EQ(doc->find("msg")->str, "hello \"quoted\"\nline");
    EXPECT_FALSE(doc->find("ts")->str.empty());
}

TEST(Logging, TimestampedFormat)
{
    LogStateGuard guard;
    setLogLevel(LogLevel::Warn);
    setLogFormat(LogFormat::Timestamped);
    testing::internal::CaptureStderr();
    cb_warn("stamped");
    std::string out = testing::internal::GetCapturedStderr();
    // "YYYY-MM-DDTHH:MM:SS.mmm warn: stamped\n"
    ASSERT_GE(out.size(), 24u);
    EXPECT_EQ(out[4], '-');
    EXPECT_EQ(out[10], 'T');
    EXPECT_NE(out.find(" warn: stamped\n"), std::string::npos) << out;
}

TEST(Logging, ConcurrentLinesDoNotInterleave)
{
    LogStateGuard guard;
    setLogLevel(LogLevel::Warn);
    setLogFormat(LogFormat::Plain);
    testing::internal::CaptureStderr();
    constexpr int threads = 8, lines = 50;
    // coldboot-lint: allow(no-raw-thread) -- stressing the logger below the ThreadPool layer
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([t] {
            for (int i = 0; i < lines; ++i)
                cb_warn("thread-%d-line-%d-end", t, i);
        });
    for (auto &th : pool)
        th.join();
    std::string out = testing::internal::GetCapturedStderr();

    std::istringstream stream(out);
    std::string line;
    int count = 0;
    while (std::getline(stream, line)) {
        ++count;
        EXPECT_TRUE(line.rfind("warn: thread-", 0) == 0 &&
                    line.find("-end") != std::string::npos)
            << "mangled line: " << line;
    }
    EXPECT_EQ(count, threads * lines);
}
