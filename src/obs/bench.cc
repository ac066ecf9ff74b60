#include "obs/bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#ifdef __unix__
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>
#endif

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/json.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::obs::bench
{

//
// Robust statistics kernel
//

double
percentile(const std::vector<double> &sorted, double p)
{
    cb_assert(!sorted.empty(), "percentile of an empty sample");
    cb_assert(p >= 0.0 && p <= 100.0, "percentile %g out of range", p);
    if (sorted.size() == 1)
        return sorted[0];
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return percentile(samples, 50.0);
}

double
medianAbsDeviation(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double med = median(samples);
    std::vector<double> dev;
    dev.reserve(samples.size());
    for (double v : samples)
        dev.push_back(std::fabs(v - med));
    return median(std::move(dev));
}

SampleStats
summarize(const std::vector<double> &samples, unsigned resamples,
          uint64_t seed)
{
    SampleStats s;
    s.n = samples.size();
    if (samples.empty())
        return s;

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    s.min = sorted.front();
    s.max = sorted.back();

    double sum = 0.0, sum_sq = 0.0;
    for (double v : samples) {
        sum += v;
        sum_sq += v * v;
    }
    s.mean = sum / static_cast<double>(s.n);
    double var =
        sum_sq / static_cast<double>(s.n) - s.mean * s.mean;
    s.stddev = var > 0.0 ? std::sqrt(var) : 0.0;

    s.median = percentile(sorted, 50.0);
    s.mad = medianAbsDeviation(samples);

    // Percentile bootstrap of the median: resample with replacement,
    // take each resample's median, report the [2.5, 97.5] percentiles
    // of that bootstrap distribution. Deterministic under the fixed
    // seed, so two summaries of the same samples always agree.
    if (resamples == 0 || s.n < 2) {
        s.ci95_lo = s.ci95_hi = s.median;
        return s;
    }
    Xoshiro256StarStar rng(seed);
    std::vector<double> boot_medians;
    boot_medians.reserve(resamples);
    std::vector<double> resample(s.n);
    for (unsigned r = 0; r < resamples; ++r) {
        for (size_t i = 0; i < s.n; ++i)
            resample[i] = sorted[rng.nextBelow(s.n)];
        std::sort(resample.begin(), resample.end());
        boot_medians.push_back(percentile(resample, 50.0));
    }
    std::sort(boot_medians.begin(), boot_medians.end());
    s.ci95_lo = percentile(boot_medians, 2.5);
    s.ci95_hi = percentile(boot_medians, 97.5);
    return s;
}

//
// Registration
//

std::vector<BenchInfo> &
benchRegistry()
{
    static std::vector<BenchInfo> registry;
    return registry;
}

int
registerBench(const char *name, BenchFn fn)
{
    for (const auto &info : benchRegistry())
        cb_assert(info.name != name,
                  "bench '%s' registered twice", name);
    benchRegistry().push_back({name, fn});
    return 0;
}

void
BenchContext::report(const std::string &key, double value,
                     const std::string &desc)
{
    report_map[key] = Report{value, desc};
    // The same figure through the registry, so --stats-json exports
    // carry it too.
    StatRegistry::global().setScalar("bench." + key, value, desc);
}

void
BenchContext::check(bool ok, const std::string &what)
{
    if (!ok && std::find(failed_checks.begin(), failed_checks.end(),
                         what) == failed_checks.end())
        failed_checks.push_back(what);
}

//
// Runner
//

namespace
{

/**
 * Redirect stdout to /dev/null for repetitions whose table output
 * would just repeat the first one's. No-op if /dev/null cannot be
 * opened.
 */
class StdoutMuter
{
  public:
    explicit StdoutMuter(bool mute)
    {
#ifdef __unix__
        if (!mute)
            return;
        std::fflush(stdout);
        saved_fd = dup(STDOUT_FILENO);
        int devnull = open("/dev/null", O_WRONLY);
        if (saved_fd < 0 || devnull < 0) {
            if (devnull >= 0)
                close(devnull);
            return;
        }
        dup2(devnull, STDOUT_FILENO);
        close(devnull);
        active = true;
#else
        (void)mute;
#endif
    }

    ~StdoutMuter()
    {
#ifdef __unix__
        if (active) {
            std::fflush(stdout);
            dup2(saved_fd, STDOUT_FILENO);
        }
        if (saved_fd >= 0)
            close(saved_fd);
#endif
    }

  private:
    int saved_fd = -1;
    bool active = false;
};

uint64_t
maxRssKib()
{
#ifdef __unix__
    rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        return static_cast<uint64_t>(usage.ru_maxrss);
#endif
    return 0;
}

/** First "model name" line of /proc/cpuinfo, or "unknown". */
std::string
cpuModelName()
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "model name", 10) == 0) {
            const char *colon = std::strchr(line, ':');
            if (colon) {
                model = colon + 1;
                while (!model.empty() &&
                       (model.front() == ' ' || model.front() == '\t'))
                    model.erase(model.begin());
                while (!model.empty() && (model.back() == '\n' ||
                                          model.back() == '\r'))
                    model.pop_back();
            }
            break;
        }
    }
    std::fclose(f);
    return model;
}

/** `git rev-parse` of the working tree we run from, or "unknown". */
std::string
gitSha()
{
#ifdef __unix__
    std::FILE *p =
        popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[64] = {};
    std::string sha;
    if (std::fgets(buf, sizeof(buf), p))
        sha = buf;
    pclose(p);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
#else
    return "unknown";
#endif
}

} // anonymous namespace

EnvironmentInfo
collectEnvironment()
{
    EnvironmentInfo env;
#if defined(__clang__)
    env.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    env.compiler = std::string("gcc ") + __VERSION__;
#else
    env.compiler = "unknown";
#endif
#ifdef COLDBOOT_BUILD_TYPE
    env.build_type = COLDBOOT_BUILD_TYPE;
#else
    env.build_type = "unknown";
#endif
#ifdef COLDBOOT_CXX_FLAGS
    env.cxx_flags = COLDBOOT_CXX_FLAGS;
#else
    env.cxx_flags = "";
#endif
    env.cpu = cpuModelName();
#ifdef __unix__
    utsname uts{};
    if (uname(&uts) == 0)
        env.os = std::string(uts.sysname) + " " + uts.release + " " +
                 uts.machine;
    else
        env.os = "unknown";
#else
    env.os = "unknown";
#endif
    env.git_sha = gitSha();
    return env;
}

BenchResult
runBench(const BenchInfo &info, const RunConfig &config)
{
    BenchResult result;
    result.name = info.name;

    BenchContext ctx(info.name, config.smoke);

    for (int w = 0; w < config.warmup; ++w) {
        StdoutMuter mute(true);
        info.fn(ctx);
    }

    std::vector<double> wall_ns;
    wall_ns.reserve(static_cast<size_t>(config.repetitions));
    for (int rep = 0; rep < config.repetitions; ++rep) {
        StdoutMuter mute(config.quiet || rep > 0);
        ScopedSpan span("bench." + info.name);
        auto t0 = std::chrono::steady_clock::now();
        info.fn(ctx);
        auto t1 = std::chrono::steady_clock::now();
        span.stop();
        wall_ns.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count());
    }

    result.wall_ns = summarize(wall_ns, config.bootstrap_resamples,
                               config.bootstrap_seed);
    result.max_rss_kib = maxRssKib();
    result.reports = ctx.reports();
    result.failed_checks = ctx.failedChecks();

    double median_s = result.wall_ns.median * 1e-9;
    if (median_s > 0.0) {
        result.bytes_per_second =
            static_cast<double>(ctx.bytesProcessed()) / median_s;
        result.items_per_second =
            static_cast<double>(ctx.itemsProcessed()) / median_s;
    }

    // Headline figures through the registry, same naming scheme as
    // the reports.
    auto &registry = StatRegistry::global();
    std::string prefix = "bench." + info.name;
    registry.setScalar(prefix + ".median_ns", result.wall_ns.median,
                       "median repetition wall time");
    registry.setScalar(prefix + ".mad_ns", result.wall_ns.mad,
                       "median absolute deviation of wall time");
    if (ctx.bytesProcessed())
        registry.setScalar(prefix + ".bytes_per_second",
                           result.bytes_per_second,
                           "derived throughput at the median time");
    return result;
}

int
reportFailedChecks(const std::vector<BenchResult> &results,
                   std::FILE *out)
{
    int status = 0;
    for (const auto &result : results)
        for (const auto &what : result.failed_checks) {
            std::fprintf(out, "shape check failed: %s: %s\n",
                         result.name.c_str(), what.c_str());
            status = 1;
        }
    return status;
}

std::string
resultTableHeader()
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%-22s %12s %12s %12s %10s %10s", "bench",
                  "median ms", "ci95 ms", "mad ms", "MiB/s", "rss MiB");
    return buf;
}

std::string
resultTableRow(const BenchResult &result)
{
    char ci[32];
    std::snprintf(ci, sizeof(ci), "%.2f-%.2f",
                  result.wall_ns.ci95_lo * 1e-6,
                  result.wall_ns.ci95_hi * 1e-6);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%-22s %12.3f %12s %12.3f %10.1f %10.1f",
                  result.name.c_str(), result.wall_ns.median * 1e-6,
                  ci, result.wall_ns.mad * 1e-6,
                  result.bytes_per_second / (1024.0 * 1024.0),
                  static_cast<double>(result.max_rss_kib) / 1024.0);
    return buf;
}

namespace
{

std::string
sampleStatsJson(const SampleStats &s)
{
    using json::number;
    std::string out = "{";
    out += "\"n\": " + std::to_string(s.n);
    out += ", \"min\": " + number(s.min);
    out += ", \"max\": " + number(s.max);
    out += ", \"mean\": " + number(s.mean);
    out += ", \"stddev\": " + number(s.stddev);
    out += ", \"median\": " + number(s.median);
    out += ", \"mad\": " + number(s.mad);
    out += ", \"ci95_lo\": " + number(s.ci95_lo);
    out += ", \"ci95_hi\": " + number(s.ci95_hi);
    out += "}";
    return out;
}

} // anonymous namespace

std::string
resultsToJson(const RunConfig &config, const EnvironmentInfo &env,
              const std::vector<BenchResult> &results)
{
    using json::escape;
    using json::number;

    std::string out = "{\n";
    out += "  \"schema_version\": " +
           std::to_string(benchJsonSchemaVersion) + ",\n";
    out += "  \"profile\": \"" +
           std::string(config.smoke ? "smoke" : "full") + "\",\n";
    out += "  \"repetitions\": " +
           std::to_string(config.repetitions) + ",\n";
    out += "  \"warmup\": " + std::to_string(config.warmup) + ",\n";
    out += "  \"environment\": {\n";
    out += "    \"compiler\": \"" + escape(env.compiler) + "\",\n";
    out += "    \"build_type\": \"" + escape(env.build_type) +
           "\",\n";
    out += "    \"cxx_flags\": \"" + escape(env.cxx_flags) + "\",\n";
    out += "    \"cpu\": \"" + escape(env.cpu) + "\",\n";
    out += "    \"os\": \"" + escape(env.os) + "\",\n";
    out += "    \"git_sha\": \"" + escape(env.git_sha) + "\"\n";
    out += "  },\n";
    out += "  \"benches\": [";
    bool first_bench = true;
    for (const auto &r : results) {
        out += first_bench ? "\n" : ",\n";
        first_bench = false;
        out += "    {\"name\": \"" + escape(r.name) + "\",\n";
        out += "     \"wall_ns\": " + sampleStatsJson(r.wall_ns) +
               ",\n";
        out += "     \"bytes_per_second\": " +
               number(r.bytes_per_second) + ",\n";
        out += "     \"items_per_second\": " +
               number(r.items_per_second) + ",\n";
        out += "     \"max_rss_kib\": " +
               std::to_string(r.max_rss_kib) + ",\n";
        out += "     \"reports\": {";
        bool first_report = true;
        for (const auto &kv : r.reports) {
            out += first_report ? "\n" : ",\n";
            first_report = false;
            out += "       \"" + escape(kv.first) +
                   "\": {\"value\": " + number(kv.second.value) +
                   ", \"desc\": \"" + escape(kv.second.desc) + "\"}";
        }
        out += first_report ? "}" : "\n     }";
        out += "\n    }";
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace coldboot::obs::bench
