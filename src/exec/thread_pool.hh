/**
 * @file
 * Work-stealing thread pool - the execution substrate every parallel
 * workload in the tree runs on (the dump scans are embarrassingly
 * parallel per 64-byte block; ROADMAP's north star demands they scale
 * with the hardware).
 *
 * Design:
 *  - one deque per worker; the owner pushes/pops at the back (LIFO,
 *    cache-warm), thieves steal half the queue from the front (FIFO,
 *    oldest first) so a single producer's backlog spreads in O(log n)
 *    steal operations;
 *  - idle workers park on a condition variable (no spin-waiting
 *    between bursts) and are woken per submitted task;
 *  - worker count resolves from the `COLDBOOT_THREADS` environment
 *    variable, an explicit setThreadOverride() (the CLI `--threads`
 *    flag), or std::thread::hardware_concurrency, in that priority
 *    order at pool construction;
 *  - destruction is graceful: every task already submitted runs to
 *    completion before the workers join;
 *  - task exceptions propagate to the submitter through
 *    TaskGroup::wait(), never to std::terminate.
 *
 * Determinism contract (see DESIGN.md §9): parallelForChunks() tiles
 * a range into fixed chunks whose *assignment* to workers is
 * arbitrary, and parallelMapReduceChunks() applies the reduction
 * strictly in chunk-index order - so any fold, even a
 * non-commutative one, produces output byte-identical to the
 * sequential run regardless of worker count or steal interleaving.
 *
 * Observability: per-worker tasks-executed / steal / park counters
 * and idle time are mirrored into obs::StatRegistry under
 * `exec.pool.*`, and every parallelForChunks() call records an
 * `exec.parallel_for` span in the PhaseTracer.
 */

#ifndef COLDBOOT_EXEC_THREAD_POOL_HH
#define COLDBOOT_EXEC_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace coldboot::obs
{
class Counter;
class Distribution;
} // namespace coldboot::obs

namespace coldboot::exec
{

/** Point-in-time statistics of one worker. */
struct WorkerStats
{
    uint64_t tasks_executed = 0;
    /** Successful steal operations this worker performed. */
    uint64_t steals = 0;
    /** Tasks this worker moved over from other workers' deques. */
    uint64_t tasks_stolen = 0;
    /** Times this worker parked on the idle condition variable. */
    uint64_t parks = 0;
    /** Wall-clock seconds spent parked. */
    double idle_seconds = 0.0;
    /** Deepest this worker's deque has ever been. */
    uint64_t queue_high_water = 0;
};

/** Aggregated pool statistics (see ThreadPool::stats()). */
struct PoolStats
{
    std::vector<WorkerStats> per_worker;

    uint64_t tasksExecuted() const;
    uint64_t steals() const;
    uint64_t tasksStolen() const;
};

/**
 * Parse a thread-count override ("4"); returns 0 for absent, empty,
 * non-numeric or zero input (0 = "no override"). Values are clamped
 * to 1024.
 */
unsigned parseThreadCount(const char *text);

/**
 * Worker count a new pool defaults to: setThreadOverride() value,
 * else COLDBOOT_THREADS, else hardware_concurrency (min 1).
 */
unsigned resolveThreadCount();

/**
 * Process-wide default worker count override (the CLI `--threads`
 * flag). 0 clears. Only affects pools constructed afterwards -
 * call it before the first ThreadPool::global() use.
 */
void setThreadOverride(unsigned n);

/**
 * The work-stealing pool.
 *
 * Tasks are submitted either fire-and-forget via submit() (the task
 * must not throw) or through a TaskGroup, which tracks completion
 * and propagates the first exception to wait(). A task may itself
 * submit further tasks (nested parallelism); a TaskGroup::wait()
 * executed on a worker thread helps drain queues instead of
 * blocking, so nesting cannot deadlock.
 */
class ThreadPool
{
  public:
    /** @param workers Worker count; 0 = resolveThreadCount(). */
    explicit ThreadPool(unsigned workers = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Graceful shutdown: runs every submitted task, then joins. */
    ~ThreadPool();

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /**
     * Fire-and-forget submission. On a worker thread the task lands
     * on that worker's own deque; external submissions round-robin
     * across workers. The task must not throw (use a TaskGroup for
     * exception propagation). Submitting from outside the pool after
     * shutdown has begun is a fatal error.
     */
    void submit(std::function<void()> fn);

    /** Snapshot of the per-worker counters. */
    PoolStats stats() const;

    /**
     * Mirror stats() into the StatRegistry as per-worker scalars:
     * `exec.pool.worker.<i>.{tasks_executed,steals,tasks_stolen,
     * parks,idle_seconds,queue_high_water}`. The readers call it:
     * each `/metrics` and `/stats` scrape, and obs::Runtime before
     * it writes `--stats-json`.
     */
    void publishWorkerStats() const;

    /**
     * The effective global pool *if one already exists*: the active
     * ScopedGlobalOverride's pool, else the global() singleton when
     * it has been constructed. Returns nullptr rather than creating
     * anything - observers must never instantiate a pool.
     */
    static ThreadPool *currentGlobal();

    /** publishWorkerStats() on currentGlobal(); no-op when none. */
    static void publishGlobalWorkerStats();

    /**
     * The process-global pool, created on first use with
     * resolveThreadCount() workers (or the pool installed by a
     * ScopedGlobalOverride).
     */
    static ThreadPool &global();

    /**
     * RAII swap of the global pool - tests and benches use it to run
     * the same workload over pools of different widths:
     *
     *     ThreadPool pool(7);
     *     ThreadPool::ScopedGlobalOverride ov(pool);
     *     // ThreadPool::global() now returns `pool`
     */
    class ScopedGlobalOverride
    {
      public:
        explicit ScopedGlobalOverride(ThreadPool &pool);
        ScopedGlobalOverride(const ScopedGlobalOverride &) = delete;
        ScopedGlobalOverride &
        operator=(const ScopedGlobalOverride &) = delete;
        ~ScopedGlobalOverride();

      private:
        ThreadPool *previous;
    };

    /**
     * Completion tracking + exception propagation for a batch of
     * tasks. The group may be waited from any thread; waiting from a
     * worker of the same pool helps execute queued tasks (of any
     * group) so nested fan-outs make progress instead of
     * deadlocking.
     */
    class TaskGroup
    {
      public:
        explicit TaskGroup(ThreadPool &pool);

        TaskGroup(const TaskGroup &) = delete;
        TaskGroup &operator=(const TaskGroup &) = delete;

        /** Waits for completion; pending exceptions are dropped. */
        ~TaskGroup();

        /** Submit one task belonging to this group. */
        void run(std::function<void()> fn);

        /**
         * Block (or help) until every task of the group completed;
         * rethrows the first exception any task raised.
         */
        void wait();

      private:
        struct State;
        ThreadPool &pool;
        std::shared_ptr<State> state;
    };

  private:
    struct Worker;

    /**
     * submit() with a completion hook: @p done runs after @p fn and
     * after the task's trace span is recorded, so a waiter released
     * by @p done exports a trace that already holds the span.
     */
    void submit(std::function<void()> fn, std::function<void()> done);
    void workerMain(unsigned self);
    bool claimTask(unsigned self, std::function<void()> &out);
    void execute(unsigned self, std::function<void()> &task);
    /** Claim and run one queued task; false when none available. */
    bool helpOne();

    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;

    /** Registry stats cached at construction (lock-free hot path). */
    obs::Counter *c_tasks = nullptr;
    obs::Counter *c_steals = nullptr;
    obs::Counter *c_stolen = nullptr;
    obs::Counter *c_parks = nullptr;
    obs::Distribution *d_idle = nullptr;

    std::mutex park_mu;
    std::condition_variable park_cv;
    /** Tasks sitting in deques, not yet claimed by a worker. */
    std::atomic<uint64_t> queued{0};
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> next_rr{0};
};

//
// Deterministic chunked parallel-for
//

/** One chunk of a [begin, end) range: [this->begin, this->end). */
struct ChunkRange
{
    uint64_t index;
    uint64_t begin;
    uint64_t end;
};

/** Number of grain-sized chunks tiling [begin, end). */
uint64_t chunkCount(uint64_t begin, uint64_t end, uint64_t grain);

/** The @p index-th chunk of the tiling (index < chunkCount). */
ChunkRange chunkAt(uint64_t begin, uint64_t end, uint64_t grain,
                   uint64_t index);

/**
 * The pool a `threads` value names: 0 = the global pool, 1 = none
 * (in-line on the calling thread), N > 1 = a dedicated pool of N
 * workers, built on the first get() and joined with this object. A
 * call with several parallel stages holds one StagePool, so it
 * builds at most one pool however many stages dispatch.
 */
class StagePool
{
  public:
    explicit StagePool(unsigned threads_) : threads(threads_) {}
    StagePool(const StagePool &) = delete;
    StagePool &operator=(const StagePool &) = delete;

    /** The pool to run on; nullptr = in-line. */
    ThreadPool *get();

  private:
    unsigned threads;
    std::unique_ptr<ThreadPool> own;
};

/**
 * Apply @p fn to every grain-sized chunk of [begin, end) on @p pool:
 * one task per worker, and the calling thread, claim chunks in
 * ascending order from one shared counter until none is left. Runs
 * inline when the pool is none, the range has a single chunk or the
 * pool has one worker. @p fn must tolerate concurrent invocation on
 * distinct chunks. Returns, or rethrows one of the chunks'
 * exceptions, only after every submitted task has finished.
 */
void parallelForChunks(StagePool &pool, uint64_t begin, uint64_t end,
                       uint64_t grain,
                       const std::function<void(const ChunkRange &)> &fn);

/** parallelForChunks() on the pool @p threads names (StagePool). */
void parallelForChunks(uint64_t begin, uint64_t end, uint64_t grain,
                       const std::function<void(const ChunkRange &)> &fn,
                       unsigned threads = 0);

/**
 * Deterministic ordered map-reduce over grain-sized chunks: @p map
 * runs in parallel (one call per chunk, any order), then @p reduce
 * consumes the per-chunk results strictly in ascending chunk order
 * on the calling thread. Because the reduction order is fixed, the
 * result is byte-identical to a sequential run for any fold,
 * commutative or not - this is what keeps mined-key / found-key
 * output independent of the worker count.
 *
 * @tparam T      Per-chunk result type (moved into @p reduce).
 * @param map     T map(const ChunkRange &)  - thread-safe.
 * @param reduce  void reduce(T &&, const ChunkRange &) - caller
 *                thread, ascending chunk index.
 * @param pool    As for parallelForChunks().
 */
template <typename T, typename MapFn, typename ReduceFn>
void
parallelMapReduceChunks(StagePool &pool, uint64_t begin, uint64_t end,
                        uint64_t grain, MapFn &&map, ReduceFn &&reduce)
{
    const uint64_t n = chunkCount(begin, end, grain);
    if (n == 0)
        return;
    ThreadPool *p = n > 1 ? pool.get() : nullptr;
    if (!p || p->workerCount() == 1) {
        for (uint64_t i = 0; i < n; ++i) {
            ChunkRange c = chunkAt(begin, end, grain, i);
            reduce(map(c), c);
        }
        return;
    }
    // Distinct elements of `results` are written by distinct chunks;
    // parallelForChunks returns only after every task has finished,
    // which synchronizes them with the ordered reduction below.
    std::vector<std::optional<T>> results(n);
    parallelForChunks(
        pool, begin, end, grain,
        [&](const ChunkRange &c) { results[c.index].emplace(map(c)); });
    for (uint64_t i = 0; i < n; ++i) {
        ChunkRange c = chunkAt(begin, end, grain, i);
        reduce(std::move(*results[i]), c);
        results[i].reset();
    }
}

/** parallelMapReduceChunks() on the pool @p threads names. */
template <typename T, typename MapFn, typename ReduceFn>
void
parallelMapReduceChunks(uint64_t begin, uint64_t end, uint64_t grain,
                        MapFn &&map, ReduceFn &&reduce,
                        unsigned threads = 0)
{
    StagePool pool(threads);
    parallelMapReduceChunks<T>(pool, begin, end, grain,
                               std::forward<MapFn>(map),
                               std::forward<ReduceFn>(reduce));
}

} // namespace coldboot::exec

#endif // COLDBOOT_EXEC_THREAD_POOL_HH
