/**
 * @file
 * gem5-style statistics registry (the idiom common/logging.hh already
 * borrows from): named counters, scalars and distributions/
 * histograms, collected in a thread-safe process-global registry and
 * exportable as a flat text or JSON dump.
 *
 * Naming scheme: `layer.component.metric`, e.g.
 * `attack.miner.blocks_scanned` or `engine.latency.ChaCha8.
 * window_exposure_ns`. Per-channel components append the channel
 * (`memctrl.ch0.reads`). Every bench, test and the coldboot-tool CLI
 * report through this one code path, so throughput/exposure/decay
 * figures are regression-trackable from a single JSON artifact.
 */

#ifndef COLDBOOT_OBS_STATS_HH
#define COLDBOOT_OBS_STATS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coldboot::obs
{

/** Monotonically increasing event count (lock-free increment). */
class Counter
{
  public:
    void add(uint64_t n = 1)
    {
        count.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return count.load(std::memory_order_relaxed);
    }

    void reset() { count.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> count{0};
};

/** Point-in-time copy of a Distribution's accumulated state. */
struct DistributionSnapshot
{
    uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double mean = 0.0;
    /** Population standard deviation; 0 for fewer than 2 samples. */
    double stddev = 0.0;
    /** Sorted bucket edges (may be empty). */
    std::vector<double> bucket_edges;
    /**
     * bucket_edges.size() + 1 counts: (-inf, e0), [e0, e1), ...,
     * [e_last, +inf). Empty when no edges were configured.
     */
    std::vector<uint64_t> bucket_counts;
};

/**
 * Sampled-value distribution: min/max/mean/stddev plus optional
 * fixed-bucket histogram. sample() takes a mutex, so it is safe from
 * any thread and cheap relative to the simulation work per sample.
 */
class Distribution
{
  public:
    /** @param bucket_edges Strictly increasing edges (may be empty). */
    explicit Distribution(std::vector<double> bucket_edges = {});

    void sample(double value);

    DistributionSnapshot snapshot() const;

    void reset();

  private:
    mutable std::mutex mu;
    std::vector<double> edges;
    std::vector<uint64_t> buckets;
    uint64_t n = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
    double vmin = 0.0;
    double vmax = 0.0;
};

/**
 * Point-in-time typed copy of one registry entry - the enumeration
 * unit the Prometheus exporter is built on. `value` carries the
 * counter count or the scalar; distributions also fill `dist`.
 */
struct StatSnapshot
{
    enum class Type { Counter, Scalar, Distribution };

    std::string name;
    std::string desc;
    Type type = Type::Counter;
    double value = 0.0;
    /** Accumulated distribution state (Type::Distribution only). */
    DistributionSnapshot dist;
};

/**
 * The process-global (or test-local) registry of named stats.
 *
 * Lookup returns stable references: a Counter/Distribution
 * obtained once can be cached and used lock-free for the lifetime of
 * the registry (resetForTest() zeroes values but never invalidates
 * references).
 */
class StatRegistry
{
  public:
    StatRegistry();

    /** The process-global registry instance. */
    static StatRegistry &global();

    /** Find-or-create a counter. */
    Counter &counter(const std::string &name,
                     const std::string &desc = "");

    /**
     * Find-or-create a distribution. Bucket edges are only applied
     * on creation; later lookups ignore them.
     */
    Distribution &distribution(const std::string &name,
                               const std::string &desc = "",
                               std::vector<double> bucket_edges = {});

    /**
     * Set a named scalar (an externally computed figure, e.g. a bench
     * result or a derived throughput). Non-finite values are stored
     * as 0 so the JSON dump stays valid.
     */
    void setScalar(const std::string &name, double value,
                   const std::string &desc = "");

    /** Whether a stat of any kind exists under @p name. */
    bool has(const std::string &name) const;

    /** Value of a counter (0 when absent or not a counter). */
    uint64_t counterValue(const std::string &name) const;

    /** Value of a scalar (0 when absent or not a scalar). */
    double scalarValue(const std::string &name) const;

    /**
     * Typed point-in-time copy of every stat, name-sorted (the map
     * order). One consistent pass under the registry lock; safe to
     * call concurrently with any updates.
     */
    std::vector<StatSnapshot> snapshotAll() const;

    /**
     * Zero every stat and restart the wall clock. References stay
     * valid. Intended for tests and long-lived servers rolling over
     * a measurement epoch.
     */
    void resetForTest();

    /** Human-readable flat dump, one stat per line, name-sorted. */
    std::string dumpText() const;

    /**
     * Machine-readable dump:
     * {"meta": {"wall_seconds": ...}, "stats": {name: {...}, ...}}
     * with a "type" discriminator per stat.
     */
    std::string dumpJson() const;

    /** Write dumpJson() to @p path (cb_fatal on I/O error). */
    void writeJsonFile(const std::string &path) const;

  private:
    enum class Kind { CounterKind, DistributionKind, ScalarKind };

    struct Entry
    {
        Kind kind;
        std::string desc;
        Counter counter;
        std::unique_ptr<Distribution> dist;
        std::atomic<double> scalar{0.0};
    };

    Entry &findOrCreate(const std::string &name, Kind kind,
                        const std::string &desc);

    mutable std::mutex mu;
    /** Name-ordered for deterministic dumps; values are stable. */
    std::map<std::string, std::unique_ptr<Entry>> entries;
    std::chrono::steady_clock::time_point epoch;
};

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_STATS_HH
