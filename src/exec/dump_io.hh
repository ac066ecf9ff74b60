/**
 * @file
 * Streaming dump I/O - the DumpSource abstraction the attack layer
 * scans through instead of loading a whole capture into a
 * std::vector.
 *
 * Backends:
 *  - MmapDumpSource: the file is mapped read-only; chunk() returns
 *    zero-copy views, prefetch() issues madvise(WILLNEED) hints
 *    ahead of the scan front;
 *  - BufferedDumpSource: chosen by DumpBackend::Buffered (the CLI's
 *    `--no-mmap`), and the fallback when mmap(2) fails - chunk()
 *    preads into a caller-owned 64-byte-aligned ChunkBuffer;
 *  - MemoryDumpSource: a non-owning view over bytes already resident
 *    (the platform::MemoryImage path used by tests and simulations).
 *
 * Chunk views are 64-byte-line oriented: every dump is validated to a
 * nonzero multiple of 64 bytes on open, matching the cache-line
 * granularity of the scrambler and AES key-schedule litmus scans.
 *
 * Thread-safety: a DumpSource is immutable after open; chunk() is
 * safe from any number of threads as long as each thread passes its
 * own ChunkBuffer (exec::scanDump keeps one per thread, exec/scan.hh).
 */

#ifndef COLDBOOT_EXEC_DUMP_IO_HH
#define COLDBOOT_EXEC_DUMP_IO_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace coldboot::exec
{

/** Backend selection for openDumpSource(). */
enum class DumpBackend
{
    /** Mmap when possible, buffered otherwise. */
    Auto,
    Mmap,
    Buffered,
};

/**
 * Growable 64-byte-aligned scratch buffer backing chunk() reads on
 * buffered sources. One per scanning thread; reusing it across
 * chunk() calls amortizes the allocation to one per thread.
 */
class ChunkBuffer
{
  public:
    ChunkBuffer() = default;
    ChunkBuffer(const ChunkBuffer &) = delete;
    ChunkBuffer &operator=(const ChunkBuffer &) = delete;
    ~ChunkBuffer();

    /** Aligned storage of at least @p bytes; contents undefined. */
    uint8_t *ensure(size_t bytes);

    size_t capacity() const { return cap; }

  private:
    uint8_t *buf = nullptr;
    size_t cap = 0;
};

/**
 * Read-only random-access view of a memory dump. See the file
 * comment for backend semantics.
 */
class DumpSource
{
  public:
    virtual ~DumpSource() = default;

    /** Dump size in bytes (a nonzero multiple of 64). */
    uint64_t size() const { return total; }

    /** Number of 64-byte lines. */
    uint64_t lines() const { return total / 64; }

    /**
     * View of [offset, offset + len). Zero-copy on mmap/memory
     * backends; on buffered sources the bytes are pread into @p buf
     * and the view is valid until the next chunk() call using the
     * same buffer. Out-of-range requests are fatal.
     */
    virtual std::span<const uint8_t>
    chunk(uint64_t offset, uint64_t len, ChunkBuffer &buf) const = 0;

    /** Hint that [offset, offset + len) is about to be scanned. */
    virtual void prefetch(uint64_t offset, uint64_t len) const;

    /** "mmap", "buffered" or "memory" - for logs and stats. */
    virtual const char *backendName() const = 0;

  protected:
    explicit DumpSource(uint64_t size_bytes) : total(size_bytes) {}

    /** cb_fatal unless [offset, offset+len) is inside the dump. */
    void checkRange(uint64_t offset, uint64_t len) const;

  private:
    uint64_t total;
};

/** Non-owning view over bytes already resident in memory. */
class MemoryDumpSource final : public DumpSource
{
  public:
    /** @p bytes must outlive the source; size checked (64-multiple). */
    explicit MemoryDumpSource(std::span<const uint8_t> bytes);

    std::span<const uint8_t> chunk(uint64_t offset, uint64_t len,
                                   ChunkBuffer &buf) const override;

    const char *backendName() const override { return "memory"; }

  private:
    std::span<const uint8_t> view;
};

/**
 * Open @p path as a DumpSource. The file size must be a nonzero
 * multiple of 64 bytes (cb_fatal otherwise, as for any I/O error).
 * DumpBackend::Mmap fails fatally when mmap is impossible; Auto
 * falls back to buffered with a warning.
 */
std::unique_ptr<DumpSource> openDumpSource(
    const std::string &path, DumpBackend backend = DumpBackend::Auto);

namespace detail
{

/** Signature of pread(2) - what the buffered backend reads with. */
using PreadFn = ssize_t (*)(int fd, void *buf, size_t count,
                            off_t offset);

/**
 * Test shim: route every buffered-backend pread through @p fn
 * (nullptr restores the real pread). Lets tests inject short reads
 * and EINTR - the conditions a loaded many-jobs server hits for real
 * - without a syscall interposer. Not for production use.
 */
void setPreadShimForTest(PreadFn fn);

} // namespace detail

} // namespace coldboot::exec

#endif // COLDBOOT_EXEC_DUMP_IO_HH
