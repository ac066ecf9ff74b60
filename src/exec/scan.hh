/**
 * @file
 * The dump-scan stage: one chunked, cancellable, ordered pass over a
 * byte range of a DumpSource - the shape of every attack scan (key
 * mining, the AES table scan, the Halderman baseline, descramble).
 *
 * scanDump() owns what the scans share, so a scan is only its map
 * and its reduce: the chunk tiling and pool choice, a cancel
 * checkpoint per chunk, the prefetch hint, the chunk read (plus
 * ScanPlan::overlap tail bytes) into one read buffer per thread, the
 * ordered reduce (DESIGN.md §9), and one progress job and trace span
 * named ScanPlan::name. As every scan on a thread reads into that
 * thread's buffer, a map must not wait on the pool while it holds its
 * chunk's bytes: a task the wait helps run could overwrite them.
 */

#ifndef COLDBOOT_EXEC_SCAN_HH
#define COLDBOOT_EXEC_SCAN_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "exec/cancel.hh"
#include "exec/dump_io.hh"
#include "exec/thread_pool.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"

namespace coldboot::exec
{

/** What one scanDump() call scans, and how. */
struct ScanPlan
{
    /** Progress job and trace span name, e.g. "mine.scan". */
    std::string name;
    /** Byte range to tile; end must not pass the dump. */
    uint64_t begin = 0;
    uint64_t end = 0;
    /** Bytes per chunk (one pool task each). */
    uint64_t grain = 1ull << 20;
    /** Bytes past each chunk's end its map also sees, clamped to the
     *  dump: windows that start in a chunk may end past it. */
    uint64_t overlap = 0;
    /** As for parallelForChunks(): 0 = the global pool, 1 = in-line,
     *  N > 1 = a dedicated pool of N workers. */
    unsigned threads = 0;
    /** When set, the scan runs on this pool and threads is ignored:
     *  a call whose later stages share the scan's pool. */
    StagePool *pool = nullptr;
    /** Checked before every chunk; null = never cancelled. */
    const CancelToken *cancel = nullptr;
};

namespace detail
{
/** Checkpoint, prefetch and read [c.begin, min(size, c.end +
 *  overlap)) into the calling thread's read buffer. */
inline std::span<const uint8_t>
readScanChunk(const DumpSource &dump, const ScanPlan &plan,
              const ChunkRange &c)
{
    checkpointIfCancellable(plan.cancel);
    thread_local ChunkBuffer buf;
    uint64_t len = std::min(dump.size(), c.end + plan.overlap) - c.begin;
    dump.prefetch(c.begin, len);
    return dump.chunk(c.begin, len, buf);
}
} // namespace detail

/**
 * Scan @p plan's range of @p dump: T map(std::span<const uint8_t>
 * bytes, const ChunkRange &c) runs on every chunk in parallel (bytes
 * start at dump offset c.begin), then void reduce(T &&, const
 * ChunkRange &) consumes the results in ascending chunk order on the
 * calling thread. T must not point into bytes.
 */
template <typename T, typename MapFn, typename ReduceFn>
void
scanDump(const DumpSource &dump, const ScanPlan &plan, MapFn &&map,
         ReduceFn &&reduce)
{
    auto progress = obs::ProgressTracker::global().startJob(
        plan.name, plan.end > plan.begin ? plan.end - plan.begin : 0);
    obs::ScopedSpan span(plan.name);
    StagePool own(plan.threads);
    try {
        parallelMapReduceChunks<T>(
            plan.pool ? *plan.pool : own, plan.begin, plan.end,
            plan.grain,
            [&](const ChunkRange &c) {
                return map(detail::readScanChunk(dump, plan, c), c);
            },
            [&](T &&result, const ChunkRange &c) {
                reduce(std::move(result), c);
                progress->advance(c.end - c.begin);
            });
    } catch (...) {
        progress->finish();
        throw;
    }
    progress->finish();
}

} // namespace coldboot::exec

#endif // COLDBOOT_EXEC_SCAN_HH
