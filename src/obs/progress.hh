/**
 * @file
 * Job progress and ETA tracking - the `/progress` endpoint's data
 * source and the long-campaign answer to "how far along is this
 * multi-GB mining run?".
 *
 * A ProgressJob counts work units done against a fixed total (for
 * the attack layer: dump bytes scanned against the DumpSource size)
 * and derives percent-complete and a remaining-time estimate from
 * its own elapsed steady-clock time. advance() is one relaxed atomic
 * add, so the scan loops can report per-chunk without measurable
 * overhead, and because progress is observation-only it cannot
 * perturb the determinism contract (DESIGN.md §9).
 *
 * The ProgressTracker keeps every live job plus a bounded tail of
 * finished ones (memory never grows unbounded over a long service
 * life) and renders them as JSON.
 */

#ifndef COLDBOOT_OBS_PROGRESS_HH
#define COLDBOOT_OBS_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coldboot::obs
{

/**
 * One tracked job. Obtained from ProgressTracker::startJob(); thread
 * safe - any number of workers may advance() concurrently.
 */
class ProgressJob
{
  public:
    ProgressJob(uint64_t id_, std::string name_, uint64_t total_);

    ProgressJob(const ProgressJob &) = delete;
    ProgressJob &operator=(const ProgressJob &) = delete;

    uint64_t id() const { return job_id; }
    const std::string &name() const { return job_name; }
    uint64_t totalUnits() const { return total; }

    uint64_t doneUnits() const
    {
        return done.load(std::memory_order_relaxed);
    }

    /** Record @p units of completed work (relaxed atomic add). */
    void advance(uint64_t units)
    {
        done.fetch_add(units, std::memory_order_relaxed);
    }

    /**
     * Mark the job complete: progress snaps to 100%, the end time is
     * frozen. Idempotent.
     */
    void finish();

    bool finished() const
    {
        return done_flag.load(std::memory_order_acquire);
    }

    /**
     * Percent complete in [0, 100]. Monotonically non-decreasing:
     * done only ever grows and finish() reports 100. A zero-total
     * job reports 0 until finished.
     */
    double percent() const;

    /** Seconds since the job started (frozen once finished). */
    double elapsedSeconds() const;

    /**
     * Estimated remaining seconds, extrapolated from the average
     * rate so far; -1 when unknown (no work done yet), 0 once
     * finished.
     */
    double etaSeconds() const;

  private:
    uint64_t job_id;
    std::string job_name;
    uint64_t total;
    std::atomic<uint64_t> done{0};
    std::atomic<bool> done_flag{false};
    std::chrono::steady_clock::time_point start;
    /** Valid only after finish(). */
    std::chrono::steady_clock::time_point end;
};

/** Point-in-time copy of one job for rendering. */
struct ProgressSnapshot
{
    uint64_t id = 0;
    std::string name;
    uint64_t total_units = 0;
    uint64_t done_units = 0;
    double percent = 0.0;
    double elapsed_seconds = 0.0;
    /** -1 when unknown. */
    double eta_seconds = -1.0;
    bool finished = false;
};

/**
 * Process-global (or test-local) registry of jobs. startJob() is
 * cheap; finished jobs are retained up to `keptFinished` entries so
 * `/progress` can show recently completed work without unbounded
 * growth.
 */
class ProgressTracker
{
  public:
    /** Finished jobs retained for display. */
    static constexpr size_t keptFinished = 64;

    /** The process-global tracker instance. */
    static ProgressTracker &global();

    /** Create and register a job. The tracker keeps it alive. */
    std::shared_ptr<ProgressJob> startJob(const std::string &name,
                                          uint64_t total_units);

    /**
     * Copies of every retained job, oldest first. Also trims the
     * finished-job tail, so a burst of finishes with no intervening
     * startJob() still converges to the keptFinished bound.
     */
    std::vector<ProgressSnapshot> snapshot();

    /**
     * {"jobs": [{"id","name","total_units","done_units","percent",
     *            "eta_seconds","elapsed_seconds","finished"}, ...]}
     */
    std::string dumpJson();

    /** Drop every job (for tests and epoch rollover). */
    void resetForTest();

  private:
    void evictFinished();

    mutable std::mutex mu;
    std::deque<std::shared_ptr<ProgressJob>> jobs;
    uint64_t next_id = 1;
};

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_PROGRESS_HH
