/**
 * @file
 * Admission-controlled job scheduler of the analysis service.
 *
 * Jobs wrap attack::AnalysisSession stage machines (DESIGN.md §14)
 * and run as tasks on the shared exec::ThreadPool - the scheduler
 * adds the policy layer the pool deliberately does not have:
 *
 *  - bounded concurrency: at most max_concurrent_jobs sessions step
 *    at once (each session still parallelises its scans across the
 *    whole pool, so this bounds memory and fairness, not CPU);
 *  - per-client fair share: one FIFO queue per client_id, admitted
 *    round-robin, so a client queueing fifty dumps cannot starve a
 *    client queueing one;
 *  - RSS-budget admission: each job is charged its streaming
 *    footprint (min(dump size, per_job_streaming_bytes)) against
 *    rss_budget_bytes before it may start, and dumps at or above
 *    mmap_threshold_bytes are forced onto the buffered-pread backend
 *    so a multi-GiB capture never mmaps wholesale into the daemon.
 *    One job is always admitted when none is running - the budget
 *    shapes concurrency, it cannot deadlock the queue;
 *  - bounded retention: finished jobs stay queryable up to
 *    keptTerminal of them, oldest evicted first, so a long-lived
 *    daemon's job table does not grow with every job it ever ran.
 *
 * Dump paths are validated at submit time (existing regular file,
 * non-empty, 64-byte aligned) precisely because the library treats a
 * bad dump as cb_fatal: a client typo must reject one submission,
 * not kill a daemon holding other clients' running jobs.
 *
 * Cancellation is cooperative end to end: cancel() on a queued job
 * dequeues it; on a running job it raises the session's CancelToken
 * and the job reaches Cancelled at the session's next per-chunk
 * checkpoint, leaving every other job untouched.
 */

#ifndef COLDBOOT_SERVE_SCHEDULER_HH
#define COLDBOOT_SERVE_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hh"

namespace coldboot::exec
{
class ThreadPool;
} // namespace coldboot::exec

namespace coldboot::serve
{

/** Scheduler tuning. */
struct SchedulerOptions
{
    /** Sessions stepping concurrently. */
    size_t max_concurrent_jobs = 2;
    /** Total streaming-footprint budget across running jobs. */
    uint64_t rss_budget_bytes = 2ull << 30;
    /** Per-job footprint charge cap - the working set a streaming
     *  scan actually keeps resident, not the whole dump. */
    uint64_t per_job_streaming_bytes = 256ull << 20;
    /** Dumps at or above this size use buffered pread, not mmap. */
    uint64_t mmap_threshold_bytes = 1ull << 30;
};

/**
 * The scheduler. Thread safe throughout; waitResult() blocks the
 * calling (handler) thread, everything else returns immediately.
 */
class JobScheduler
{
  public:
    /**
     * Terminal jobs retained for status() and waitResult(); past it
     * the oldest-finished is forgotten. Queued and running jobs are
     * always kept.
     */
    static constexpr size_t keptTerminal = 256;

    explicit JobScheduler(SchedulerOptions opts = {});

    JobScheduler(const JobScheduler &) = delete;
    JobScheduler &operator=(const JobScheduler &) = delete;

    /** Implies shutdown(). */
    ~JobScheduler();

    /**
     * Validate and enqueue a job. Returns the job id (>= 1), or 0
     * with @p error set when the spec is rejected (bad dump path,
     * draining, ...).
     */
    uint64_t submit(const JobSpec &spec, std::string *error);

    /** Status of one job. */
    std::optional<JobStatus> status(uint64_t job_id);

    /** Status of every retained job (all live ones plus the
     *  keptTerminal most recently finished), id order. */
    std::vector<JobStatus> list();

    /**
     * Block until the job is terminal and fill @p out. False for an
     * unknown id.
     */
    bool waitResult(uint64_t job_id, JobResult *out);

    /**
     * Cancel a job: dequeue it if queued, raise its cancel token if
     * running. False for unknown or already-terminal jobs.
     */
    bool cancel(uint64_t job_id);

    /**
     * Stop admitting work and bring the scheduler to rest. Queued
     * jobs are cancelled; running jobs either finish (cancel_running
     * false - graceful drain) or are cancel-raised (true - fast
     * drain). Blocks until no job is queued or running. Idempotent.
     */
    void drain(bool cancel_running);

    /** drain(cancel_running = true). */
    void shutdown() { drain(true); }

    /** Jobs currently running / queued (for tests and /metrics). */
    size_t runningJobs();
    size_t queuedJobs();

  private:
    struct Job;

    /** Admit queued jobs while policy allows; lock_ must be held. */
    void pump();
    /** Pool-task body: run @p job's session to a terminal state. */
    void runJob(const std::shared_ptr<Job> &job);
    void finishJob(const std::shared_ptr<Job> &job, JobState state,
                   const std::string &error);
    /** Record @p job as terminal and evict past keptTerminal; lock_
     *  must be held. */
    void retireLocked(const std::shared_ptr<Job> &job);
    JobStatus statusLocked(const std::shared_ptr<Job> &job);
    uint64_t chargeBytes(uint64_t dump_size) const;
    size_t queuedJobsLocked() const;

    SchedulerOptions opts_;
    std::mutex lock_;
    std::condition_variable terminal_cv_;
    uint64_t next_id_ = 1;
    bool draining_ = false;
    /** Retained jobs by id: every live job and the newest terminal
     *  ones (status/result). */
    std::map<uint64_t, std::shared_ptr<Job>> jobs_;
    /** Terminal job ids, oldest-finished first. */
    std::deque<uint64_t> terminal_;
    /** Per-client FIFO queues of not-yet-admitted jobs. */
    std::map<std::string, std::deque<std::shared_ptr<Job>>> queues_;
    /** Round-robin cursor over queues_ (client_id last admitted). */
    std::string rr_cursor_;
    size_t running_ = 0;
    /** Streaming-footprint charge of the running set. */
    uint64_t charged_bytes_ = 0;
    /** Pool tasks in flight (running jobs incl. ones finishing). */
    size_t inflight_tasks_ = 0;
};

} // namespace coldboot::serve

#endif // COLDBOOT_SERVE_SCHEDULER_HH
