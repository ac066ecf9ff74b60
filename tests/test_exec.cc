/**
 * @file
 * Execution-subsystem tests: the work-stealing ThreadPool (including
 * a torture test with nested submits, exception propagation and
 * shutdown-while-busy - the TSan CI leg runs these), the
 * deterministic chunked parallel-for, the DumpSource backends, and
 * the cross-thread-count determinism contract of the attack scans
 * (DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <latch>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "attack/aes_search.hh"
#include "attack/key_miner.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "crypto/aes.hh"
#include "exec/cancel.hh"
#include "exec/dump_io.hh"
#include "exec/scan.hh"
#include "exec/thread_pool.hh"
#include "memctrl/scrambler.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "platform/memory_image.hh"
#include "simd/simd.hh"

namespace coldboot::exec
{
namespace
{

//
// ThreadPool
//

TEST(ThreadPool, ParseThreadCount)
{
    EXPECT_EQ(parseThreadCount("4"), 4u);
    EXPECT_EQ(parseThreadCount("1"), 1u);
    EXPECT_EQ(parseThreadCount("0"), 0u);
    EXPECT_EQ(parseThreadCount(""), 0u);
    EXPECT_EQ(parseThreadCount(nullptr), 0u);
    EXPECT_EQ(parseThreadCount("abc"), 0u);
    EXPECT_EQ(parseThreadCount("4x"), 0u);
    EXPECT_EQ(parseThreadCount("99999"), 1024u); // clamp
}

TEST(ThreadPool, ResolveHonoursOverrideAndEnv)
{
    setThreadOverride(5);
    EXPECT_EQ(resolveThreadCount(), 5u);
    setThreadOverride(0);

    setenv("COLDBOOT_THREADS", "3", 1);
    EXPECT_EQ(resolveThreadCount(), 3u);
    // An explicit override beats the environment.
    setThreadOverride(2);
    EXPECT_EQ(resolveThreadCount(), 2u);
    setThreadOverride(0);
    unsetenv("COLDBOOT_THREADS");

    EXPECT_GE(resolveThreadCount(), 1u);
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    constexpr int kTasks = 2000;
    std::atomic<int> ran{0};
    {
        ThreadPool pool(4);
        ThreadPool::TaskGroup group(pool);
        for (int i = 0; i < kTasks; ++i)
            group.run([&] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        group.wait();
        EXPECT_EQ(ran.load(), kTasks);
        EXPECT_EQ(pool.stats().tasksExecuted(),
                  static_cast<uint64_t>(kTasks));
    }
}

TEST(ThreadPool, ShutdownWhileBusyDrainsQueue)
{
    // Fire-and-forget tasks submitted right before destruction: the
    // graceful-shutdown contract says every one of them still runs.
    constexpr int kTasks = 500;
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < kTasks; ++i)
            pool.submit([&, i] {
                if (i % 50 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                ran.fetch_add(1, std::memory_order_relaxed);
            });
    } // dtor joins after the queue is empty
    EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPool, ExceptionPropagatesToWait)
{
    ThreadPool pool(2);
    ThreadPool::TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 64; ++i)
        group.run([&, i] {
            ran.fetch_add(1);
            if (i == 13)
                throw std::runtime_error("boom 13");
        });
    try {
        group.wait();
        FAIL() << "wait() must rethrow the task exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 13");
    }
    // wait() returns only after every task completed, exception or
    // not - the group is reusable state-wise and all tasks ran.
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, TaskSpansAreRecordedBeforeWaitReturns)
{
    // A trace exported right after wait() must hold every task's
    // span and flow finish: completion is signalled only after the
    // task's span is recorded.
    auto &tracer = obs::PhaseTracer::global();
    tracer.setEnabled(true);
    ThreadPool pool(4);
    for (int round = 0; round < 100; ++round) {
        tracer.resetForTest();
        ThreadPool::TaskGroup group(pool);
        for (int i = 0; i < 16; ++i)
            group.run([] {});
        group.wait();
        size_t starts = 0, finishes = 0, slices = 0;
        for (const auto &ev : tracer.events()) {
            starts += ev.phase == obs::TraceEvent::Phase::FlowStart;
            finishes += ev.phase == obs::TraceEvent::Phase::FlowFinish;
            slices += ev.phase == obs::TraceEvent::Phase::Complete &&
                      ev.name == "exec.task";
        }
        EXPECT_EQ(starts, 16u) << "round " << round;
        EXPECT_EQ(finishes, 16u) << "round " << round;
        EXPECT_EQ(slices, 16u) << "round " << round;
    }
    tracer.setEnabled(false);
    tracer.resetForTest();
}

TEST(ThreadPool, NestedSubmitsDoNotDeadlock)
{
    // Each outer task fans out an inner group and waits on it from a
    // worker thread; the help-while-waiting path must keep everything
    // moving even with more outer tasks than workers.
    ThreadPool pool(2);
    std::atomic<int> leaves{0};
    ThreadPool::TaskGroup outer(pool);
    for (int i = 0; i < 16; ++i)
        outer.run([&] {
            ThreadPool::TaskGroup inner(pool);
            for (int j = 0; j < 8; ++j)
                inner.run([&] { leaves.fetch_add(1); });
            inner.wait();
        });
    outer.wait();
    EXPECT_EQ(leaves.load(), 16 * 8);
}

TEST(ThreadPool, Torture)
{
    // Mixed stress: nested fan-outs, tasks of wildly different
    // length, an exception in flight, and a shutdown racing the last
    // submissions. Run under TSan in CI.
    std::atomic<uint64_t> work{0};
    for (int round = 0; round < 4; ++round) {
        ThreadPool pool(4);
        ThreadPool::TaskGroup group(pool);
        for (int i = 0; i < 128; ++i)
            group.run([&, i] {
                if (i % 3 == 0) {
                    ThreadPool::TaskGroup inner(pool);
                    for (int j = 0; j < 4; ++j)
                        inner.run([&] {
                            work.fetch_add(
                                1, std::memory_order_relaxed);
                        });
                    inner.wait();
                } else if (i % 7 == 0) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(100));
                    work.fetch_add(1, std::memory_order_relaxed);
                } else {
                    work.fetch_add(1, std::memory_order_relaxed);
                }
            });
        group.wait();

        // An exception from a nested group surfaces at its wait and
        // must not poison the pool for subsequent batches.
        ThreadPool::TaskGroup faulty(pool);
        faulty.run([] { throw std::runtime_error("torture"); });
        EXPECT_THROW(faulty.wait(), std::runtime_error);

        // Shutdown-while-busy: leave fire-and-forget work queued as
        // the pool is destroyed.
        for (int i = 0; i < 64; ++i)
            pool.submit([&] {
                work.fetch_add(1, std::memory_order_relaxed);
            });
    }
    EXPECT_GT(work.load(), 0u);
}

TEST(ThreadPool, StatsAccountForStolenWork)
{
    ThreadPool pool(4);
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 512; ++i)
        group.run([] {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
    group.wait();
    auto stats = pool.stats();
    EXPECT_EQ(stats.per_worker.size(), 4u);
    EXPECT_EQ(stats.tasksExecuted(), 512u);
    // Steal counters are interleaving-dependent; just require
    // consistency between the two views of the same events.
    EXPECT_GE(stats.tasksStolen(), stats.steals() > 0 ? 1u : 0u);
}

TEST(ThreadPool, ScopedGlobalOverrideSwapsAndRestores)
{
    ThreadPool &original = ThreadPool::global();
    {
        ThreadPool pool(2);
        ThreadPool::ScopedGlobalOverride ov(pool);
        EXPECT_EQ(&ThreadPool::global(), &pool);
        {
            ThreadPool inner_pool(3);
            ThreadPool::ScopedGlobalOverride inner(inner_pool);
            EXPECT_EQ(&ThreadPool::global(), &inner_pool);
        }
        EXPECT_EQ(&ThreadPool::global(), &pool);
    }
    EXPECT_EQ(&ThreadPool::global(), &original);
}

//
// Chunked parallel-for
//

TEST(ParallelFor, ChunkTiling)
{
    EXPECT_EQ(chunkCount(0, 0, 64), 0u);
    EXPECT_EQ(chunkCount(0, 64, 64), 1u);
    EXPECT_EQ(chunkCount(0, 65, 64), 2u);
    EXPECT_EQ(chunkCount(10, 10, 64), 0u);
    EXPECT_EQ(chunkCount(0, 1000, 2000), 1u);

    // Remainder chunk is the short tail, offsets are contiguous.
    auto c0 = chunkAt(100, 300, 128, 0);
    auto c1 = chunkAt(100, 300, 128, 1);
    EXPECT_EQ(c0.begin, 100u);
    EXPECT_EQ(c0.end, 228u);
    EXPECT_EQ(c1.begin, 228u);
    EXPECT_EQ(c1.end, 300u);
    EXPECT_EQ(c1.index, 1u);
}

TEST(ParallelFor, VisitsEveryChunkExactlyOnce)
{
    constexpr uint64_t kEnd = 100000, kGrain = 777;
    const uint64_t n = chunkCount(0, kEnd, kGrain);
    std::vector<std::atomic<int>> visits(n);
    std::atomic<uint64_t> covered{0};

    parallelForChunks(
        0, kEnd, kGrain,
        [&](const ChunkRange &c) {
            visits[c.index].fetch_add(1);
            covered.fetch_add(c.end - c.begin);
        },
        4);

    EXPECT_EQ(covered.load(), kEnd);
    for (uint64_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "chunk " << i;
}

TEST(ParallelFor, ExceptionPropagates)
{
    EXPECT_THROW(parallelForChunks(
                     0, 10000, 100,
                     [](const ChunkRange &c) {
                         if (c.index == 7)
                             throw std::runtime_error("chunk 7");
                     },
                     2),
                 std::runtime_error);
}

/** A pool whose every worker sits in a task until open(). */
class ParkedPool
{
  public:
    explicit ParkedPool(unsigned workers) : pool(workers)
    {
        for (unsigned i = 0; i < workers; ++i)
            pool.submit([this] {
                parked.fetch_add(1);
                gate.wait();
            });
        // A worker inside its parking task claims nothing else, so
        // each worker ends up holding one.
        while (parked.load() < workers)
            std::this_thread::yield();
    }
    ~ParkedPool() { open(); }

    void
    open()
    {
        if (!opened.exchange(true))
            gate.count_down();
    }

    std::latch gate{1};
    std::atomic<unsigned> parked{0};
    std::atomic<bool> opened{false};
    /** Last, so it joins its workers before the gate dies. */
    ThreadPool pool;
};

/** Wait up to ten seconds for @p done; false on timeout. */
template <typename Pred>
bool
waitFor(Pred &&done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

TEST(ParallelFor, CallingThreadClaimsChunks)
{
    // Every worker is parked, so only the calling thread can make
    // progress: it must visit every chunk itself, then wait for its
    // submitted tasks, queued behind the parked ones, before it
    // returns.
    constexpr uint64_t kChunks = 16;
    ParkedPool parked(2);
    ThreadPool::ScopedGlobalOverride ov(parked.pool);
    std::atomic<uint64_t> visited{0};
    std::atomic<bool> elsewhere{false}, returned{false};
    // The caller runs on a pool of its own, outside the parked one.
    ThreadPool caller(1);
    ThreadPool::TaskGroup call(caller);
    call.run([&] {
        const auto self = std::this_thread::get_id();
        parallelForChunks(0, kChunks, 1, [&](const ChunkRange &) {
            if (std::this_thread::get_id() != self)
                elsewhere = true;
            visited.fetch_add(1);
        });
        returned = true;
    });
    EXPECT_TRUE(waitFor([&] { return visited.load() == kChunks; }))
        << "the caller visited " << visited.load() << " of " << kChunks
        << " chunks while the workers were parked";
    EXPECT_FALSE(elsewhere.load());
    EXPECT_FALSE(returned.load())
        << "returned before its submitted tasks ran";
    parked.open();
    call.wait();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(visited.load(), kChunks);
}

TEST(ParallelFor, CallerExceptionWaitsForSubmittedTasks)
{
    // The caller's first chunk throws while every worker is parked.
    // The exception must reach the caller only after the submitted
    // tasks have run, and they visit every other chunk.
    constexpr uint64_t kChunks = 16;
    ParkedPool parked(2);
    ThreadPool::ScopedGlobalOverride ov(parked.pool);
    std::atomic<uint64_t> visited{0};
    std::atomic<bool> returned{false};
    uint64_t visited_at_throw = 0;
    std::string what;
    ThreadPool caller(1);
    ThreadPool::TaskGroup call(caller);
    call.run([&] {
        const auto self = std::this_thread::get_id();
        try {
            parallelForChunks(0, kChunks, 1, [&](const ChunkRange &) {
                visited.fetch_add(1);
                if (std::this_thread::get_id() == self)
                    throw std::runtime_error("caller chunk");
            });
        } catch (const std::runtime_error &e) {
            what = e.what();
            visited_at_throw = visited.load();
        }
        returned = true;
    });
    EXPECT_TRUE(waitFor([&] { return visited.load() > 0; }))
        << "the caller ran no chunk while the workers were parked";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load())
        << "the exception propagated before the submitted tasks ran";
    parked.open();
    call.wait();
    EXPECT_EQ(what, "caller chunk");
    EXPECT_EQ(visited_at_throw, kChunks);
}

TEST(ParallelFor, OrderedReductionIsDeterministic)
{
    // A non-commutative fold (string concatenation) must come out
    // identical to the sequential run at any pool width.
    auto run = [](unsigned threads) {
        std::string out;
        parallelMapReduceChunks<std::string>(
            0, 5000, 97,
            [](const ChunkRange &c) {
                return std::to_string(c.index) + ":" +
                       std::to_string(c.end - c.begin) + ";";
            },
            [&](std::string &&part, const ChunkRange &) {
                out += part;
            },
            threads);
        return out;
    };

    const std::string expected = run(1);
    for (unsigned w : {2u, 7u}) {
        EXPECT_EQ(run(w), expected) << "width " << w;
        ThreadPool pool(w);
        ThreadPool::ScopedGlobalOverride ov(pool);
        EXPECT_EQ(run(0), expected) << "global width " << w;
    }
}

//
// DumpSource
//

class DumpSourceFile
{
  public:
    explicit DumpSourceFile(const std::vector<uint8_t> &bytes)
    {
        // Under the system temp dir: death-test children abort
        // before ~DumpSourceFile, and their leftovers must not land
        // in the repo tree.
        path = (std::filesystem::temp_directory_path() /
                "test_exec_dump.XXXXXX").string();
        int fd = mkstemp(path.data());
        if (fd >= 0) {
            ssize_t n = write(fd, bytes.data(), bytes.size());
            (void)n;
            close(fd);
        }
    }

    ~DumpSourceFile() { std::remove(path.c_str()); }

    std::string path;
};

std::vector<uint8_t>
patternBytes(size_t n)
{
    std::vector<uint8_t> bytes(n);
    Xoshiro256StarStar rng(0xD0D0);
    rng.fillBytes(bytes);
    return bytes;
}

TEST(DumpSource, MemoryBackendViewsMatchInput)
{
    auto bytes = patternBytes(4096);
    MemoryDumpSource src({bytes.data(), bytes.size()});
    EXPECT_EQ(src.size(), 4096u);
    EXPECT_EQ(src.lines(), 64u);
    EXPECT_STREQ(src.backendName(), "memory");

    ChunkBuffer buf;
    auto view = src.chunk(128, 256, buf);
    EXPECT_EQ(view.data(), bytes.data() + 128); // zero-copy
    EXPECT_EQ(view.size(), 256u);
}

TEST(DumpSource, MmapAndBufferedReturnIdenticalBytes)
{
    auto bytes = patternBytes(64 * 1024);
    DumpSourceFile file(bytes);

    auto mapped = openDumpSource(file.path, DumpBackend::Mmap);
    auto buffered = openDumpSource(file.path, DumpBackend::Buffered);
    EXPECT_STREQ(mapped->backendName(), "mmap");
    EXPECT_STREQ(buffered->backendName(), "buffered");
    EXPECT_EQ(mapped->size(), bytes.size());
    EXPECT_EQ(buffered->size(), bytes.size());

    ChunkBuffer mbuf, bbuf;
    for (uint64_t off : {uint64_t(0), uint64_t(64), uint64_t(4096),
                         uint64_t(bytes.size() - 192)}) {
        auto mv = mapped->chunk(off, 192, mbuf);
        auto bv = buffered->chunk(off, 192, bbuf);
        ASSERT_EQ(mv.size(), bv.size());
        EXPECT_EQ(std::memcmp(mv.data(), bv.data(), mv.size()), 0)
            << "offset " << off;
        EXPECT_EQ(std::memcmp(mv.data(), bytes.data() + off, 192), 0);
        // Buffered chunks land in 64-byte-aligned scratch.
        EXPECT_EQ(reinterpret_cast<uintptr_t>(bv.data()) % 64, 0u);
    }
}

TEST(DumpSource, PrefetchClampsAtDumpTail)
{
    auto bytes = patternBytes(8192);
    DumpSourceFile file(bytes);
    for (auto backend : {DumpBackend::Mmap, DumpBackend::Buffered}) {
        auto src = openDumpSource(file.path, backend);
        // Hints past or straddling the tail are no-ops, not errors -
        // read-ahead loops prefetch "the next chunk" unguarded.
        src->prefetch(src->size(), 4096);
        src->prefetch(src->size() - 64, 4096);
        src->prefetch(src->size() + 4096, 4096);
        src->prefetch(0, 0);
    }
}

TEST(DumpSource, AutoModePrefersMmap)
{
    auto bytes = patternBytes(4096);
    DumpSourceFile file(bytes);

    auto plain = openDumpSource(file.path, DumpBackend::Auto);
    EXPECT_STREQ(plain->backendName(), "mmap");
}

TEST(DumpSource, RejectsBadSizes)
{
    // The process-global pool keeps worker threads alive; a plain
    // fork()-style death test would inherit their locked mutexes and
    // deadlock, so re-exec the statement in a fresh process instead.
    testing::FLAGS_gtest_death_test_style = "threadsafe";

    auto odd = patternBytes(100); // not a multiple of 64
    DumpSourceFile file(odd);
    EXPECT_DEATH(openDumpSource(file.path), "multiple of");
    EXPECT_DEATH(openDumpSource("test_exec_nonexistent.img"),
                 "open");

    DumpSourceFile empty(patternBytes(0));
    EXPECT_DEATH(openDumpSource(empty.path), "nonzero multiple");
    DumpSourceFile torn(patternBytes(64 * 4 + 17)); // mid-line tear
    EXPECT_DEATH(openDumpSource(torn.path), "multiple of");

    auto bytes = patternBytes(128);
    MemoryDumpSource src({bytes.data(), bytes.size()});
    ChunkBuffer buf;
    EXPECT_DEATH(src.chunk(64, 128, buf), "outside");
}

TEST(DumpSource, ChunkBufferAlignsAndGrows)
{
    ChunkBuffer buf;
    EXPECT_EQ(buf.capacity(), 0u);
    uint8_t *p = buf.ensure(100);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
    EXPECT_GE(buf.capacity(), 100u);
    size_t cap = buf.capacity();
    EXPECT_EQ(buf.ensure(50), p); // no shrink, no realloc
    EXPECT_EQ(buf.capacity(), cap);
    uint8_t *q = buf.ensure(1 << 20);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % 64, 0u);
    EXPECT_GE(buf.capacity(), size_t(1) << 20);
}

//
// The dump-scan stage (exec/scan.hh)
//

/** One chunk as its map saw it. */
struct SeenChunk
{
    uint64_t index;
    bool bytes_match;
    uint64_t checksum;
};

/** scanDump over @p src, recording what every map call saw. */
std::vector<SeenChunk>
scanRecord(const DumpSource &src, const std::vector<uint8_t> &expect,
           const ScanPlan &plan)
{
    std::vector<SeenChunk> seen;
    scanDump<SeenChunk>(
        src, plan,
        [&](std::span<const uint8_t> bytes, const ChunkRange &c) {
            uint64_t hi = std::min<uint64_t>(expect.size(),
                                             c.end + plan.overlap);
            bool match =
                bytes.size() == hi - c.begin &&
                std::equal(bytes.begin(), bytes.end(),
                           expect.begin() +
                               static_cast<ptrdiff_t>(c.begin));
            uint64_t sum = 0;
            for (uint8_t b : bytes)
                sum = sum * 131 + b;
            return SeenChunk{c.index, match, sum};
        },
        [&](SeenChunk &&chunk, const ChunkRange &) {
            seen.push_back(chunk);
        });
    return seen;
}

TEST(ScanDump, ChunksSeeTheirRangePlusOverlap)
{
    auto bytes = patternBytes(64 * 1024);
    DumpSourceFile file(bytes);
    auto buffered = openDumpSource(file.path, DumpBackend::Buffered);
    MemoryDumpSource memory({bytes.data(), bytes.size()});

    // A range that stops short of the dump (the whole overlap is
    // read) and one that runs to its end (the overlap is clamped).
    const ScanPlan plans[] = {
        {.name = "test.scan.short", .begin = 192, .end = 40000,
         .grain = 4096, .overlap = 239},
        {.name = "test.scan.tail", .begin = 0, .end = bytes.size(),
         .grain = 4096, .overlap = 239},
    };
    for (const DumpSource *src :
         {static_cast<const DumpSource *>(&memory),
          static_cast<const DumpSource *>(buffered.get())}) {
        for (const ScanPlan &base : plans) {
            for (unsigned threads : {1u, 4u}) {
                ScanPlan plan = base;
                plan.threads = threads;
                auto seen = scanRecord(*src, bytes, plan);
                ASSERT_EQ(seen.size(),
                          chunkCount(plan.begin, plan.end, plan.grain));
                for (size_t i = 0; i < seen.size(); ++i) {
                    EXPECT_EQ(seen[i].index, i);
                    EXPECT_TRUE(seen[i].bytes_match)
                        << src->backendName() << " " << plan.name
                        << " threads " << threads << " chunk " << i;
                }
            }
        }
    }
}

TEST(ScanDump, ReduceSeesTheSameSequenceAtEveryWidth)
{
    auto bytes = patternBytes(256 * 1024);
    DumpSourceFile file(bytes);
    auto buffered = openDumpSource(file.path, DumpBackend::Buffered);
    MemoryDumpSource memory({bytes.data(), bytes.size()});

    auto fingerprint = [&](const DumpSource &src, unsigned threads) {
        ScanPlan plan{.name = "test.scan.order", .begin = 64,
                      .end = bytes.size() - 64, .grain = 8192,
                      .overlap = 100, .threads = threads};
        std::string fp;
        for (const SeenChunk &c : scanRecord(src, bytes, plan))
            fp += std::to_string(c.index) + ":" +
                  std::to_string(c.checksum) + ";";
        return fp;
    };
    const std::string expected = fingerprint(memory, 1);
    EXPECT_EQ(fingerprint(memory, 4), expected);
    EXPECT_EQ(fingerprint(*buffered, 1), expected);
    EXPECT_EQ(fingerprint(*buffered, 4), expected);
}

/** The newest retained progress job named @p name. */
std::optional<obs::ProgressSnapshot>
lastJobNamed(const std::string &name)
{
    std::optional<obs::ProgressSnapshot> found;
    for (auto &job : obs::ProgressTracker::global().snapshot())
        if (job.name == name)
            found = job;
    return found;
}

TEST(ScanDump, ProgressJobFinishesAtRangeLength)
{
    auto bytes = patternBytes(64 * 1024);
    MemoryDumpSource memory({bytes.data(), bytes.size()});
    for (unsigned threads : {1u, 4u}) {
        ScanPlan plan{.name = "test.scan.progress", .begin = 640,
                      .end = 50000, .grain = 4096, .threads = threads};
        uint64_t advanced = 0;
        scanDump<int>(
            memory, plan,
            [](std::span<const uint8_t>, const ChunkRange &) {
                return 0;
            },
            [&](int &&, const ChunkRange &) {
                // Progress counts each chunk after its reduce.
                auto job = lastJobNamed(plan.name);
                ASSERT_TRUE(job.has_value());
                EXPECT_EQ(job->done_units, advanced);
                EXPECT_FALSE(job->finished);
                advanced = job->done_units + 4096;
            });
        auto job = lastJobNamed(plan.name);
        ASSERT_TRUE(job.has_value());
        EXPECT_TRUE(job->finished);
        EXPECT_EQ(job->total_units, plan.end - plan.begin);
        EXPECT_EQ(job->done_units, plan.end - plan.begin);
    }
}

TEST(ScanDump, CancelledScanThrowsAndFinishesItsJob)
{
    auto bytes = patternBytes(64 * 1024);
    MemoryDumpSource memory({bytes.data(), bytes.size()});
    CancelToken token;
    token.requestCancel();
    ScanPlan plan{.name = "test.scan.cancel", .end = bytes.size(),
                  .grain = 4096, .threads = 4, .cancel = &token};
    std::atomic<bool> mapped{false};
    EXPECT_THROW(scanDump<int>(
                     memory, plan,
                     [&](std::span<const uint8_t>, const ChunkRange &) {
                         mapped = true;
                         return 0;
                     },
                     [](int &&, const ChunkRange &) {}),
                 CancelledError);
    EXPECT_FALSE(mapped); // the checkpoint runs before the read
    auto job = lastJobNamed(plan.name);
    ASSERT_TRUE(job.has_value());
    EXPECT_TRUE(job->finished);
}

//
// Determinism contract across thread counts (DESIGN.md §9)
//

/** Dump with planted scrambler keys and one scrambled AES table. */
platform::MemoryImage
buildAttackDump(std::vector<uint8_t> &master_out)
{
    platform::MemoryImage dump(MiB(4));
    Xoshiro256StarStar rng(0x5EED);
    rng.fillBytes(dump.bytesMutable());
    auto out = dump.bytesMutable();

    memctrl::Ddr4Scrambler scr(0xBEEF, 0);
    uint8_t keys[4][64];
    for (unsigned k = 0; k < 4; ++k) {
        scr.poolKey(k * 512, keys[k]);
        for (unsigned copy = 0; copy < 6; ++copy) {
            size_t line = (k * 6 + copy + 11) * 397 % dump.lines();
            std::memcpy(&out[line * 64], keys[k], 64);
        }
    }

    master_out.assign(32, 0);
    Xoshiro256StarStar key_rng(0x1234);
    key_rng.fillBytes(master_out);
    auto sched = crypto::aesExpandKey(master_out);
    uint64_t table_off = (dump.lines() / 3) * 64;
    for (size_t i = 0; i < sched.size(); ++i)
        out[table_off + i] = sched[i] ^ keys[1][i % 64];
    return dump;
}

/** Serialized mining + search output for byte-exact comparison. */
std::string
scanFingerprint(const platform::MemoryImage &dump)
{
    attack::MinerParams miner_params;
    miner_params.scan_limit_bytes = 0;
    auto mined = attack::mineScramblerKeys(dump, miner_params);

    auto found =
        attack::searchAesKeyTables(dump, mined, attack::SearchParams{});

    std::string fp;
    for (const auto &mk : mined) {
        fp.append(reinterpret_cast<const char *>(mk.key.data()),
                  mk.key.size());
        fp += std::to_string(mk.occurrences) + "@" +
              std::to_string(mk.first_offset) + ";";
    }
    for (const auto &rk : found) {
        fp.append(reinterpret_cast<const char *>(rk.master.data()),
                  rk.master.size());
        fp += "@" + std::to_string(rk.table_offset) + ";";
    }
    return fp;
}

TEST(ExecDeterminism, MiningAndSearchIdenticalAcrossWidths)
{
    std::vector<uint8_t> master;
    auto dump = buildAttackDump(master);

    std::string reference;
    for (unsigned w : {1u, 2u, 7u}) {
        ThreadPool pool(w);
        ThreadPool::ScopedGlobalOverride ov(pool);
        std::string fp = scanFingerprint(dump);
        EXPECT_FALSE(fp.empty());
        if (reference.empty())
            reference = fp;
        else
            EXPECT_EQ(fp, reference) << "width " << w;
    }

    // The planted AES master key is actually recovered, not just
    // consistently missed.
    EXPECT_NE(reference.find(std::string(
                  reinterpret_cast<const char *>(master.data()),
                  master.size())),
              std::string::npos);
}

TEST(ExecDeterminism, FingerprintIdenticalAcrossSimdBackendsAndWidths)
{
    // The §15 cross-backend contract, enforced end to end: the full
    // mine + search pipeline must produce byte-identical output under
    // every usable SIMD backend at every pool width. Backends the
    // host cannot run are skipped, not failed (the differential
    // kernel tests in test_simd.cc cover whatever is usable).
    std::vector<uint8_t> master;
    auto dump = buildAttackDump(master);

    std::string reference;
    unsigned exercised = 0;
    for (unsigned i = 0; i < simd::kBackendCount; ++i) {
        auto be = static_cast<simd::Backend>(i);
        if (!simd::backendUsable(be))
            continue;
        simd::ScopedBackend forced(be);
        ASSERT_TRUE(forced.active());
        ++exercised;
        for (unsigned w : {1u, 4u}) {
            ThreadPool pool(w);
            ThreadPool::ScopedGlobalOverride ov(pool);
            std::string fp = scanFingerprint(dump);
            EXPECT_FALSE(fp.empty());
            if (reference.empty())
                reference = fp;
            else
                EXPECT_EQ(fp, reference)
                    << simd::backendName(be) << " width " << w;
        }
    }
    EXPECT_GE(exercised, 1u); // scalar is always usable

    // Identical AND correct: the planted master key is in there.
    EXPECT_NE(reference.find(std::string(
                  reinterpret_cast<const char *>(master.data()),
                  master.size())),
              std::string::npos);
}

TEST(ExecDeterminism, EnvThreadCountMatchesExplicitPools)
{
    std::vector<uint8_t> master;
    auto dump = buildAttackDump(master);

    ThreadPool serial(1);
    std::string reference;
    {
        ThreadPool::ScopedGlobalOverride ov(serial);
        reference = scanFingerprint(dump);
    }

    // The COLDBOOT_THREADS env var is the ctest-facing knob; a pool
    // sized through it must reproduce the serial fingerprint.
    setenv("COLDBOOT_THREADS", "7", 1);
    ThreadPool env_pool(0);
    unsetenv("COLDBOOT_THREADS");
    EXPECT_EQ(env_pool.workerCount(), 7u);
    ThreadPool::ScopedGlobalOverride ov(env_pool);
    EXPECT_EQ(scanFingerprint(dump), reference);
}

//
// Cooperative cancellation (exec/cancel.hh)
//

TEST(CancelToken, CheckpointThrowsOnlyOnceRaised)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_NO_THROW(token.checkpoint());
    checkpointIfCancellable(&token); // still lowered
    checkpointIfCancellable(nullptr); // opt-out path

    token.requestCancel();
    token.requestCancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
    EXPECT_THROW(token.checkpoint(), CancelledError);
    EXPECT_THROW(checkpointIfCancellable(&token), CancelledError);
    checkpointIfCancellable(nullptr); // null stays a no-op
}

TEST(CancelToken, MidScanCancelUnwindsParallelFanout)
{
    // Raise the token from inside one chunk of a parallel map: every
    // later checkpoint (including the raising chunk's own) must
    // unwind the whole fan-out as CancelledError, exactly like a
    // workload exception.
    for (unsigned w : {1u, 4u}) {
        CancelToken token;
        EXPECT_THROW(
            parallelMapReduceChunks<int>(
                0, 100000, 1000,
                [&](const ChunkRange &c) {
                    if (c.index == 3)
                        token.requestCancel();
                    checkpointIfCancellable(&token);
                    return 1;
                },
                [](int &&, const ChunkRange &) {}, w),
            CancelledError)
            << "width " << w;
    }
}

TEST(CancelToken, PreRaisedTokenAbortsAttackScans)
{
    std::vector<uint8_t> master;
    auto dump = buildAttackDump(master);

    attack::MinerParams miner_params;
    miner_params.scan_limit_bytes = 0;
    CancelToken mine_cancel;
    mine_cancel.requestCancel();
    miner_params.cancel = &mine_cancel;
    EXPECT_THROW(attack::mineScramblerKeys(dump, miner_params),
                 CancelledError);

    miner_params.cancel = nullptr;
    auto mined = attack::mineScramblerKeys(dump, miner_params);
    ASSERT_FALSE(mined.empty());

    attack::SearchParams search_params;
    CancelToken search_cancel;
    search_cancel.requestCancel();
    search_params.cancel = &search_cancel;
    EXPECT_THROW(
        attack::searchAesKeyTables(dump, mined, search_params),
        CancelledError);
}

TEST(CancelToken, UncancelledRunMatchesNoTokenRun)
{
    // A token that is never raised must not perturb results - the
    // determinism contract treats cancellation as pure observation.
    std::vector<uint8_t> master;
    auto dump = buildAttackDump(master);

    attack::MinerParams plain;
    plain.scan_limit_bytes = 0;
    auto expected = attack::mineScramblerKeys(dump, plain);

    CancelToken token;
    attack::MinerParams watched = plain;
    watched.cancel = &token;
    auto got = attack::mineScramblerKeys(dump, watched);

    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].key, expected[i].key);
        EXPECT_EQ(got[i].occurrences, expected[i].occurrences);
        EXPECT_EQ(got[i].first_offset, expected[i].first_offset);
    }
}

//
// Buffered pread shim: short reads and EINTR (exec/dump_io.hh)
//

/** Counters steered by the function-pointer shim (no captures). */
std::atomic<uint64_t> g_shim_calls{0};
std::atomic<uint64_t> g_shim_eintr_left{0};
std::atomic<uint64_t> g_shim_max_bytes{0};

ssize_t
flakyPread(int fd, void *buf, size_t count, off_t offset)
{
    g_shim_calls.fetch_add(1, std::memory_order_relaxed);
    uint64_t left = g_shim_eintr_left.load(std::memory_order_relaxed);
    while (left > 0) {
        if (g_shim_eintr_left.compare_exchange_weak(left, left - 1)) {
            errno = EINTR;
            return -1;
        }
    }
    uint64_t cap = g_shim_max_bytes.load(std::memory_order_relaxed);
    if (cap > 0 && count > cap)
        count = cap;
    return pread(fd, buf, count, offset);
}

/** Installs flakyPread for one test; always restores real pread. */
class PreadShimGuard
{
  public:
    PreadShimGuard(uint64_t eintr_count, uint64_t max_bytes)
    {
        g_shim_calls.store(0);
        g_shim_eintr_left.store(eintr_count);
        g_shim_max_bytes.store(max_bytes);
        detail::setPreadShimForTest(&flakyPread);
    }

    ~PreadShimGuard() { detail::setPreadShimForTest(nullptr); }
};

TEST(DumpSource, BufferedChunkRetriesThroughEintr)
{
    auto bytes = patternBytes(16 * 1024);
    DumpSourceFile file(bytes);
    auto src = openDumpSource(file.path, DumpBackend::Buffered);

    PreadShimGuard shim(/*eintr_count=*/5, /*max_bytes=*/0);
    ChunkBuffer buf;
    auto view = src->chunk(4096, 2048, buf);
    ASSERT_EQ(view.size(), 2048u);
    EXPECT_EQ(std::memcmp(view.data(), bytes.data() + 4096, 2048), 0);
    // 5 interrupted attempts plus at least one real read.
    EXPECT_GE(g_shim_calls.load(), 6u);
}

TEST(DumpSource, BufferedChunkAssemblesShortReads)
{
    auto bytes = patternBytes(16 * 1024);
    DumpSourceFile file(bytes);
    auto src = openDumpSource(file.path, DumpBackend::Buffered);

    // Every pread returns at most 96 bytes - an unaligned trickle, so
    // the accumulation loop must stitch split lines back together.
    PreadShimGuard shim(/*eintr_count=*/0, /*max_bytes=*/96);
    ChunkBuffer buf;
    auto view = src->chunk(128, 4096, buf);
    ASSERT_EQ(view.size(), 4096u);
    EXPECT_EQ(std::memcmp(view.data(), bytes.data() + 128, 4096), 0);
    EXPECT_GE(g_shim_calls.load(), 4096u / 96u); // really trickled
    EXPECT_EQ(reinterpret_cast<uintptr_t>(view.data()) % 64, 0u);
}

TEST(DumpSource, BufferedChunkSurvivesEintrDuringShortReads)
{
    auto bytes = patternBytes(8 * 1024);
    DumpSourceFile file(bytes);
    auto src = openDumpSource(file.path, DumpBackend::Buffered);

    PreadShimGuard shim(/*eintr_count=*/3, /*max_bytes=*/64);
    ChunkBuffer buf;
    auto view = src->chunk(0, 1024, buf);
    ASSERT_EQ(view.size(), 1024u);
    EXPECT_EQ(std::memcmp(view.data(), bytes.data(), 1024), 0);
}

TEST(DumpSource, ShimRestoreReturnsToRealPread)
{
    auto bytes = patternBytes(4096);
    DumpSourceFile file(bytes);
    auto src = openDumpSource(file.path, DumpBackend::Buffered);

    { PreadShimGuard shim(0, 32); }
    g_shim_calls.store(0);
    ChunkBuffer buf;
    auto view = src->chunk(0, 4096, buf);
    ASSERT_EQ(view.size(), 4096u);
    EXPECT_EQ(std::memcmp(view.data(), bytes.data(), 4096), 0);
    EXPECT_EQ(g_shim_calls.load(), 0u); // shim really uninstalled
}

} // anonymous namespace
} // namespace coldboot::exec
