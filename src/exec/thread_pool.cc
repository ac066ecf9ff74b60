#include "exec/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/logging.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::exec
{

namespace
{

/** Worker identity of the current thread (nullptr off-pool). */
thread_local ThreadPool *tl_pool = nullptr;
thread_local unsigned tl_worker = 0;

std::mutex g_override_mu;
ThreadPool *g_override = nullptr;

std::atomic<unsigned> g_thread_override{0};

/** The global() singleton once constructed (for currentGlobal()). */
std::atomic<ThreadPool *> g_global_pool{nullptr};

/** Lock-free running-maximum update. */
void
bumpHighWater(std::atomic<uint64_t> &hwm, uint64_t depth)
{
    uint64_t cur = hwm.load(std::memory_order_relaxed);
    while (depth > cur &&
           !hwm.compare_exchange_weak(cur, depth,
                                      std::memory_order_relaxed)) {
    }
}

} // anonymous namespace

uint64_t
PoolStats::tasksExecuted() const
{
    uint64_t n = 0;
    for (const auto &w : per_worker)
        n += w.tasks_executed;
    return n;
}

uint64_t
PoolStats::steals() const
{
    uint64_t n = 0;
    for (const auto &w : per_worker)
        n += w.steals;
    return n;
}

uint64_t
PoolStats::tasksStolen() const
{
    uint64_t n = 0;
    for (const auto &w : per_worker)
        n += w.tasks_stolen;
    return n;
}

unsigned
parseThreadCount(const char *text)
{
    if (text == nullptr || *text == '\0')
        return 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0')
        return 0;
    return static_cast<unsigned>(std::min(v, 1024ul));
}

unsigned
resolveThreadCount()
{
    unsigned n = g_thread_override.load(std::memory_order_relaxed);
    if (n == 0)
        n = parseThreadCount(std::getenv("COLDBOOT_THREADS"));
    if (n == 0)
        n = std::thread::hardware_concurrency();
    return std::max(1u, n);
}

void
setThreadOverride(unsigned n)
{
    g_thread_override.store(std::min(n, 1024u),
                            std::memory_order_relaxed);
}

/** Per-worker state: a deque plus owner-updated counters. */
struct ThreadPool::Worker
{
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
    std::atomic<uint64_t> tasks_executed{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> tasks_stolen{0};
    std::atomic<uint64_t> parks{0};
    std::atomic<uint64_t> idle_ns{0};
    std::atomic<uint64_t> queue_hwm{0};
};

ThreadPool::ThreadPool(unsigned n)
{
    if (n == 0)
        n = resolveThreadCount();
    n = std::clamp(n, 1u, 1024u);
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.push_back(std::make_unique<Worker>());

    // Registry refs are cached before the workers exist so the hot
    // path never takes the registry lock.
    auto &registry = obs::StatRegistry::global();
    c_tasks = &registry.counter("exec.pool.tasks_executed",
                                "tasks run by pool workers");
    c_steals = &registry.counter(
        "exec.pool.steals", "successful work-stealing operations");
    c_stolen = &registry.counter(
        "exec.pool.tasks_stolen",
        "tasks migrated between worker deques by stealing");
    c_parks = &registry.counter(
        "exec.pool.parks", "times a worker parked idle");
    d_idle = &registry.distribution(
        "exec.pool.idle_seconds",
        "wall-clock seconds per worker park interval");
    registry.setScalar("exec.pool.workers", n,
                       "worker count of the most recently created "
                       "pool");

    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back(&ThreadPool::workerMain, this, i);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(park_mu);
        stopping.store(true, std::memory_order_release);
    }
    park_cv.notify_all();
    for (auto &t : threads)
        t.join();
}

void
ThreadPool::submit(std::function<void()> fn)
{
    submit(std::move(fn), nullptr);
}

void
ThreadPool::submit(std::function<void()> fn, std::function<void()> done)
{
    // Causal tracing: capture the submitting thread's span context
    // plus a fresh flow id, emit the flow start here (inside the
    // submitter's open span), and wrap the task so its run records
    // an "exec.task" span parented to the *submitter* - not to
    // whatever the executing worker happened to be doing - with the
    // flow finish landing inside it. This is what keeps traces
    // causal across submit/steal/run.
    obs::PhaseTracer &tracer = obs::PhaseTracer::global();
    if (tracer.enabled()) {
        uint64_t flow = tracer.newId();
        uint64_t parent = tracer.currentSpanId();
        tracer.recordFlowStart("exec.task", flow);
        fn = [inner = std::move(fn), parent, flow]() mutable {
            obs::ScopedSpan span("exec.task", parent, flow);
            inner();
            // Drop captured state before the span closes, keeping the
            // tracing wrapper invisible to the TaskGroup contract
            // (captures are gone once wait() returns).
            inner = nullptr;
        };
    }
    if (done)
        fn = [inner = std::move(fn), done = std::move(done)]() mutable {
            inner();
            inner = nullptr;
            done();
        };

    unsigned target;
    if (tl_pool == this) {
        // Tasks spawned by a worker land on its own deque (warm
        // caches; thieves balance any backlog).
        target = tl_worker;
    } else {
        if (stopping.load(std::memory_order_acquire))
            cb_fatal("ThreadPool::submit after shutdown began");
        target = static_cast<unsigned>(
            next_rr.fetch_add(1, std::memory_order_relaxed) %
            workers.size());
    }
    size_t depth;
    {
        std::lock_guard<std::mutex> lk(workers[target]->mu);
        workers[target]->tasks.push_back(std::move(fn));
        depth = workers[target]->tasks.size();
    }
    bumpHighWater(workers[target]->queue_hwm, depth);
    queued.fetch_add(1, std::memory_order_release);
    // Fence against the check-then-sleep race: a parking worker that
    // already tested `queued` holds park_mu until it actually sleeps,
    // so acquiring it here orders this notify after that sleep.
    { std::lock_guard<std::mutex> lk(park_mu); }
    park_cv.notify_one();
}

bool
ThreadPool::claimTask(unsigned self, std::function<void()> &out)
{
    Worker &me = *workers[self];
    {
        std::lock_guard<std::mutex> lk(me.mu);
        if (!me.tasks.empty()) {
            out = std::move(me.tasks.back());
            me.tasks.pop_back();
            queued.fetch_sub(1, std::memory_order_release);
            return true;
        }
    }
    // Steal half of the first non-empty victim deque, oldest tasks
    // first; one is executed now, the rest move to our deque (they
    // stay "queued" - only the executed task leaves the count).
    const unsigned n = workerCount();
    for (unsigned hop = 1; hop < n; ++hop) {
        Worker &victim = *workers[(self + hop) % n];
        std::vector<std::function<void()>> loot;
        {
            std::lock_guard<std::mutex> lk(victim.mu);
            size_t avail = victim.tasks.size();
            if (avail == 0)
                continue;
            size_t take = (avail + 1) / 2;
            loot.reserve(take);
            for (size_t i = 0; i < take; ++i) {
                loot.push_back(std::move(victim.tasks.front()));
                victim.tasks.pop_front();
            }
        }
        me.steals.fetch_add(1, std::memory_order_relaxed);
        me.tasks_stolen.fetch_add(loot.size(),
                                  std::memory_order_relaxed);
        c_steals->add();
        c_stolen->add(loot.size());
        out = std::move(loot.front());
        if (loot.size() > 1) {
            size_t depth;
            {
                std::lock_guard<std::mutex> lk(me.mu);
                for (size_t i = 1; i < loot.size(); ++i)
                    me.tasks.push_back(std::move(loot[i]));
                depth = me.tasks.size();
            }
            bumpHighWater(me.queue_hwm, depth);
        }
        queued.fetch_sub(1, std::memory_order_release);
        return true;
    }
    return false;
}

void
ThreadPool::execute(unsigned self, std::function<void()> &task)
{
    // Count before running: completion is signaled from inside the
    // task (TaskGroup's wrapper), so a waiter that saw the last task
    // finish must already find these counters consistent.
    workers[self]->tasks_executed.fetch_add(
        1, std::memory_order_relaxed);
    c_tasks->add();
    try {
        task();
    } catch (...) {
        // TaskGroup tasks catch internally; a throwing fire-and-
        // forget submit() task is a contract violation.
        cb_fatal("ThreadPool: unhandled exception escaped a "
                 "fire-and-forget task");
    }
    task = nullptr;
}

bool
ThreadPool::helpOne()
{
    if (tl_pool != this)
        return false;
    std::function<void()> task;
    if (!claimTask(tl_worker, task))
        return false;
    execute(tl_worker, task);
    return true;
}

void
ThreadPool::workerMain(unsigned self)
{
    tl_pool = this;
    tl_worker = self;
    Worker &me = *workers[self];
    std::function<void()> task;
    while (true) {
        if (claimTask(self, task)) {
            execute(self, task);
            continue;
        }
        std::unique_lock<std::mutex> lk(park_mu);
        if (stopping.load(std::memory_order_acquire) &&
            queued.load(std::memory_order_acquire) == 0)
            break;
        if (queued.load(std::memory_order_acquire) > 0) {
            // A task exists but was mid-steal when we scanned; retry
            // rather than sleeping on it.
            lk.unlock();
            std::this_thread::yield();
            continue;
        }
        me.parks.fetch_add(1, std::memory_order_relaxed);
        c_parks->add();
        auto park_start = std::chrono::steady_clock::now();
        park_cv.wait(lk, [&] {
            return stopping.load(std::memory_order_acquire) ||
                   queued.load(std::memory_order_acquire) > 0;
        });
        auto idle = std::chrono::steady_clock::now() - park_start;
        uint64_t ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(idle)
                .count());
        me.idle_ns.fetch_add(ns, std::memory_order_relaxed);
        d_idle->sample(static_cast<double>(ns) * 1e-9);
        if (stopping.load(std::memory_order_acquire) &&
            queued.load(std::memory_order_acquire) == 0)
            break;
    }
    tl_pool = nullptr;
}

PoolStats
ThreadPool::stats() const
{
    PoolStats out;
    out.per_worker.reserve(workers.size());
    for (const auto &w : workers) {
        WorkerStats s;
        s.tasks_executed =
            w->tasks_executed.load(std::memory_order_relaxed);
        s.steals = w->steals.load(std::memory_order_relaxed);
        s.tasks_stolen =
            w->tasks_stolen.load(std::memory_order_relaxed);
        s.parks = w->parks.load(std::memory_order_relaxed);
        s.idle_seconds =
            static_cast<double>(
                w->idle_ns.load(std::memory_order_relaxed)) *
            1e-9;
        s.queue_high_water =
            w->queue_hwm.load(std::memory_order_relaxed);
        out.per_worker.push_back(s);
    }
    return out;
}

void
ThreadPool::publishWorkerStats() const
{
    auto &registry = obs::StatRegistry::global();
    PoolStats snap = stats();
    for (size_t i = 0; i < snap.per_worker.size(); ++i) {
        const WorkerStats &w = snap.per_worker[i];
        const std::string prefix =
            "exec.pool.worker." + std::to_string(i) + ".";
        registry.setScalar(prefix + "tasks_executed",
                           static_cast<double>(w.tasks_executed),
                           "tasks run by this worker");
        registry.setScalar(prefix + "steals",
                           static_cast<double>(w.steals),
                           "steal operations by this worker");
        registry.setScalar(prefix + "tasks_stolen",
                           static_cast<double>(w.tasks_stolen),
                           "tasks this worker moved over from other "
                           "deques");
        registry.setScalar(prefix + "parks",
                           static_cast<double>(w.parks),
                           "times this worker parked idle");
        registry.setScalar(prefix + "idle_seconds", w.idle_seconds,
                           "wall-clock seconds this worker spent "
                           "parked");
        registry.setScalar(prefix + "queue_high_water",
                           static_cast<double>(w.queue_high_water),
                           "deepest this worker's deque has been");
    }
}

ThreadPool *
ThreadPool::currentGlobal()
{
    {
        std::lock_guard<std::mutex> lk(g_override_mu);
        if (g_override != nullptr)
            return g_override;
    }
    return g_global_pool.load(std::memory_order_acquire);
}

void
ThreadPool::publishGlobalWorkerStats()
{
    if (ThreadPool *pool = currentGlobal())
        pool->publishWorkerStats();
}

ThreadPool &
ThreadPool::global()
{
    {
        std::lock_guard<std::mutex> lk(g_override_mu);
        if (g_override != nullptr)
            return *g_override;
    }
    static ThreadPool the_pool;
    g_global_pool.store(&the_pool, std::memory_order_release);
    return the_pool;
}

ThreadPool::ScopedGlobalOverride::ScopedGlobalOverride(ThreadPool &pool)
{
    std::lock_guard<std::mutex> lk(g_override_mu);
    previous = g_override;
    g_override = &pool;
}

ThreadPool::ScopedGlobalOverride::~ScopedGlobalOverride()
{
    std::lock_guard<std::mutex> lk(g_override_mu);
    g_override = previous;
}

//
// TaskGroup
//

struct ThreadPool::TaskGroup::State
{
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
    std::exception_ptr error;
};

ThreadPool::TaskGroup::TaskGroup(ThreadPool &p)
    : pool(p), state(std::make_shared<State>())
{
}

ThreadPool::TaskGroup::~TaskGroup()
{
    try {
        wait();
    } catch (...) {
        // Destructor swallows what an explicit wait() would have
        // thrown.
    }
}

void
ThreadPool::TaskGroup::run(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lk(state->mu);
        ++state->outstanding;
    }
    pool.submit(
        [st = state, fn = std::move(fn)]() mutable {
            try {
                fn();
            } catch (...) {
                std::lock_guard<std::mutex> lk(st->mu);
                if (!st->error)
                    st->error = std::current_exception();
            }
            // Destroy the captured callable before signaling
            // completion: wait() returning guarantees task captures
            // are gone.
            fn = nullptr;
        },
        // Completion is signalled after the task's trace span is
        // recorded, so a trace exported once wait() returns has it.
        [st = state] {
            std::unique_lock<std::mutex> lk(st->mu);
            size_t left = --st->outstanding;
            lk.unlock();
            if (left == 0)
                st->cv.notify_all();
        });
}

void
ThreadPool::TaskGroup::wait()
{
    if (tl_pool == &pool) {
        // On a worker: help drain queues so nested fan-outs make
        // progress; briefly sleep when every remaining task of the
        // group is already running elsewhere.
        while (true) {
            {
                std::unique_lock<std::mutex> lk(state->mu);
                if (state->outstanding == 0)
                    break;
            }
            if (!pool.helpOne()) {
                std::unique_lock<std::mutex> lk(state->mu);
                if (state->outstanding == 0)
                    break;
                state->cv.wait_for(lk,
                                   std::chrono::milliseconds(1));
            }
        }
    } else {
        std::unique_lock<std::mutex> lk(state->mu);
        state->cv.wait(lk,
                       [&] { return state->outstanding == 0; });
    }
    std::lock_guard<std::mutex> lk(state->mu);
    if (state->error) {
        std::exception_ptr e = state->error;
        state->error = nullptr;
        std::rethrow_exception(e);
    }
}

//
// Deterministic chunked parallel-for
//

uint64_t
chunkCount(uint64_t begin, uint64_t end, uint64_t grain)
{
    cb_assert(grain > 0, "chunkCount: zero grain");
    return end > begin ? (end - begin + grain - 1) / grain : 0;
}

ChunkRange
chunkAt(uint64_t begin, uint64_t end, uint64_t grain, uint64_t index)
{
    uint64_t lo = begin + index * grain;
    uint64_t hi = std::min(end, lo + grain);
    cb_assert(lo < hi, "chunkAt: index %llu out of range",
              static_cast<unsigned long long>(index));
    return {index, lo, hi};
}

ThreadPool *
StagePool::get()
{
    if (threads == 1)
        return nullptr;
    if (threads == 0)
        return &ThreadPool::global();
    if (!own)
        own = std::make_unique<ThreadPool>(threads);
    return own.get();
}

void
parallelForChunks(uint64_t begin, uint64_t end, uint64_t grain,
                  const std::function<void(const ChunkRange &)> &fn,
                  unsigned threads)
{
    StagePool pool(threads);
    parallelForChunks(pool, begin, end, grain, fn);
}

void
parallelForChunks(StagePool &pool, uint64_t begin, uint64_t end,
                  uint64_t grain,
                  const std::function<void(const ChunkRange &)> &fn)
{
    const uint64_t n = chunkCount(begin, end, grain);
    if (n == 0)
        return;
    ThreadPool *p = n > 1 ? pool.get() : nullptr;
    if (!p || p->workerCount() == 1) {
        for (uint64_t i = 0; i < n; ++i)
            fn(chunkAt(begin, end, grain, i));
        return;
    }
    obs::ScopedSpan span("exec.parallel_for");
    // One task per worker (at most one per chunk), each claiming the
    // next chunk in ascending order until none is left. A task per
    // chunk made a submitter outside the pool hand out tasks while
    // competing with the busy workers for the cores, ~0.2 ms each
    // on a 4-core host, so a stage of 100 small chunks ran at the
    // pace of its submissions.
    std::atomic<uint64_t> next{0};
    auto claim = [&] {
        for (uint64_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
            fn(chunkAt(begin, end, grain, i));
    };
    ThreadPool::TaskGroup group(*p);
    for (uint64_t t = std::min<uint64_t>(n, p->workerCount()); t > 0; --t)
        group.run(claim);
    // The caller claims chunks too rather than sleep while the workers
    // wake. Should one of its chunks throw, the group's destructor
    // still waits for every task before the exception leaves.
    claim();
    group.wait();
}

} // namespace coldboot::exec
