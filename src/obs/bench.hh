/**
 * @file
 * The unified benchmark harness every `bench/bench_*.cc` registers
 * into (google-benchmark-style static registration, but in-tree and
 * integrated with the obs layer).
 *
 * A benchmark is a function `void name(BenchContext &)` registered
 * with `COLDBOOT_BENCH(name)`. The `coldboot-bench` driver runs each
 * registered bench with warmup + repetition control, times every
 * repetition, records the `getrusage` RSS high-water mark, and
 * computes robust statistics over the repetition times: min/max,
 * mean/stddev, median, MAD, and a 95% confidence interval for the
 * median via a deterministic percentile bootstrap.
 *
 * Benches publish their paper-figure reproductions ("report"
 * sections) through `BenchContext::report()`, which lands both in the
 * consolidated BENCH.json and in the global StatRegistry under
 * `bench.<key>` - one code path with the PR-1 CLI/test exports. Each
 * repetition also records an `obs::ScopedSpan`, so a `--trace` run
 * yields a Chrome trace of the whole suite.
 *
 * The emitted BENCH.json is schema-versioned (see benchJsonSchemaVersion)
 * and carries an environment fingerprint (compiler, flags, CPU, git
 * SHA) so `tools/bench_compare` can refuse to diff incomparable runs.
 */

#ifndef COLDBOOT_OBS_BENCH_HH
#define COLDBOOT_OBS_BENCH_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace coldboot::obs::bench
{

/** Bump when the BENCH.json layout changes incompatibly. */
constexpr int benchJsonSchemaVersion = 1;

//
// Robust statistics kernel
//

/** Summary statistics over one benchmark's repetition times. */
struct SampleStats
{
    uint64_t n = 0;
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    /** Population standard deviation. */
    double stddev = 0.0;
    double median = 0.0;
    /** Median absolute deviation (unscaled). */
    double mad = 0.0;
    /** 95% bootstrap confidence interval for the median. */
    double ci95_lo = 0.0;
    double ci95_hi = 0.0;
};

/**
 * Linear-interpolated percentile of a sorted sample.
 * @param sorted Ascending values (must be non-empty).
 * @param p      Percentile in [0, 100].
 */
double percentile(const std::vector<double> &sorted, double p);

/** Median of an unsorted sample (empty -> 0). */
double median(std::vector<double> samples);

/** Median absolute deviation of an unsorted sample (empty -> 0). */
double medianAbsDeviation(const std::vector<double> &samples);

/**
 * Full summary of a sample. The confidence interval comes from a
 * percentile bootstrap of the median with a fixed-seed deterministic
 * RNG: the same samples always produce the same interval.
 *
 * @param samples   The observations (repetition times, typically).
 * @param resamples Bootstrap resample count (0 disables the CI, which
 *                  then degenerates to [median, median]).
 * @param seed      Bootstrap RNG seed.
 */
SampleStats summarize(const std::vector<double> &samples,
                      unsigned resamples = 2000, uint64_t seed = 42);

//
// Registration
//

class BenchContext;

using BenchFn = void (*)(BenchContext &);

/** One registered benchmark. */
struct BenchInfo
{
    std::string name;
    BenchFn fn;
};

/** The process-global registration list, in registration order. */
std::vector<BenchInfo> &benchRegistry();

/** Register a bench; returns 0 (used by COLDBOOT_BENCH). */
int registerBench(const char *name, BenchFn fn);

/**
 * Per-run context handed to every bench function: profile selection
 * plus the channel for throughput hints and report figures.
 */
class BenchContext
{
  public:
    explicit BenchContext(std::string bench_name, bool smoke_profile)
        : name(std::move(bench_name)), smoke_run(smoke_profile)
    {
    }

    /**
     * True under `--profile smoke`: the bench must shrink its working
     * set / trial counts so a full-suite run finishes in seconds (the
     * tier-1 ctest exercises exactly this).
     */
    bool smoke() const { return smoke_run; }

    /** Convenience: pick a size by profile. */
    template <typename T>
    T pick(T full, T smoke_value) const
    {
        return smoke_run ? smoke_value : full;
    }

    /**
     * Bytes processed by one repetition (for derived MB/s). Call once
     * per run; the last value wins.
     */
    void setBytesProcessed(uint64_t bytes) { bytes_processed = bytes; }

    /** Items processed by one repetition (for derived items/s). */
    void setItemsProcessed(uint64_t items) { items_processed = items; }

    /**
     * Publish a named figure (a paper table/figure reproduction or
     * any derived metric). Lands in the bench's "reports" object in
     * BENCH.json and as StatRegistry scalar `bench.<key>`.
     */
    void report(const std::string &key, double value,
                const std::string &desc = "");

    /**
     * Check one expected shape of the bench's figures (a paper claim
     * they must reproduce). When @p ok is false, @p what is recorded
     * as a failed check: coldboot-bench names it and exits 1 after
     * writing its report.
     */
    void check(bool ok, const std::string &what);

    uint64_t bytesProcessed() const { return bytes_processed; }
    uint64_t itemsProcessed() const { return items_processed; }

    /** One published figure. */
    struct Report
    {
        double value = 0.0;
        std::string desc;
    };

    const std::map<std::string, Report> &reports() const
    {
        return report_map;
    }

    const std::string &benchName() const { return name; }

    /** Failed checks, each once, in the order first seen. */
    const std::vector<std::string> &failedChecks() const
    {
        return failed_checks;
    }

  private:
    std::string name;
    bool smoke_run;
    uint64_t bytes_processed = 0;
    uint64_t items_processed = 0;
    std::map<std::string, Report> report_map;
    std::vector<std::string> failed_checks;
};

//
// Runner
//

/** Harness configuration for one driver invocation. */
struct RunConfig
{
    int repetitions = 3;
    int warmup = 1;
    bool smoke = false;
    /**
     * Mute bench stdout on warmups and repetitions past the first
     * (the table/figure text only needs printing once). --quiet mutes
     * all of it.
     */
    bool quiet = false;
    /** Bootstrap resamples for the median CI. */
    unsigned bootstrap_resamples = 2000;
    uint64_t bootstrap_seed = 42;
};

/** Everything measured for one bench. */
struct BenchResult
{
    std::string name;
    /** Per-repetition wall time statistics, in nanoseconds. */
    SampleStats wall_ns;
    /** Derived from the median time; 0 when the bench gave no hint. */
    double bytes_per_second = 0.0;
    double items_per_second = 0.0;
    /** getrusage(RUSAGE_SELF) max RSS after the bench, in KiB. */
    uint64_t max_rss_kib = 0;
    /** Figures published via BenchContext::report(). */
    std::map<std::string, BenchContext::Report> reports;
    /** Shape checks that failed in any run (BenchContext::check). */
    std::vector<std::string> failed_checks;
};

/** Build/host fingerprint embedded in BENCH.json. */
struct EnvironmentInfo
{
    std::string compiler;
    std::string build_type;
    std::string cxx_flags;
    std::string cpu;
    std::string os;
    std::string git_sha;
};

/** Fingerprint of the running binary and host. */
EnvironmentInfo collectEnvironment();

/**
 * Run one bench under the harness: warmups, then config.repetitions
 * timed repetitions (each recorded as trace span
 * `bench.<name>`).
 */
BenchResult runBench(const BenchInfo &info, const RunConfig &config);

/**
 * Name every failed shape check of @p results on @p out, one line
 * each, and return the driver's exit status: 0 when every check held,
 * 1 otherwise.
 */
int reportFailedChecks(const std::vector<BenchResult> &results,
                       std::FILE *out);

/** One row of the human-readable result table (helper for the driver). */
std::string resultTableRow(const BenchResult &result);

/** Header line matching resultTableRow(). */
std::string resultTableHeader();

/**
 * The consolidated, schema-versioned BENCH.json document for a run.
 */
std::string resultsToJson(const RunConfig &config,
                          const EnvironmentInfo &env,
                          const std::vector<BenchResult> &results);

} // namespace coldboot::obs::bench

/**
 * Define and register a benchmark:
 *
 *   COLDBOOT_BENCH(table2_ciphers)
 *   {
 *       ...           // use ctx (a BenchContext &)
 *   }
 */
#define COLDBOOT_BENCH(bench_name)                                        \
    static void cb_bench_fn_##bench_name(                                 \
        ::coldboot::obs::bench::BenchContext &);                          \
    [[maybe_unused]] static const int cb_bench_reg_##bench_name =         \
        ::coldboot::obs::bench::registerBench(                            \
            #bench_name, &cb_bench_fn_##bench_name);                      \
    static void cb_bench_fn_##bench_name(                                 \
        [[maybe_unused]] ::coldboot::obs::bench::BenchContext &ctx)

#endif // COLDBOOT_OBS_BENCH_HH
