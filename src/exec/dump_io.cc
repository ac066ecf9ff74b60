#include "exec/dump_io.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/stats.hh"

namespace coldboot::exec
{

namespace detail
{

namespace
{
/** nullptr = the real pread(2); tests swap in fault injectors. */
std::atomic<PreadFn> g_pread_shim{nullptr};
} // anonymous namespace

void
setPreadShimForTest(PreadFn fn)
{
    g_pread_shim.store(fn, std::memory_order_release);
}

} // namespace detail

namespace
{

/** pread through the test shim when one is installed. */
ssize_t
preadMaybeShimmed(int fd, void *buf, size_t count, off_t offset)
{
    if (detail::PreadFn shim =
            detail::g_pread_shim.load(std::memory_order_acquire))
        return shim(fd, buf, count, offset);
    return pread(fd, buf, count, offset);
}

/** Counts opens per backend so benches can confirm which path ran. */
void
noteOpen(const char *backend)
{
    obs::StatRegistry::global().counter(
        std::string("exec.dump_io.open.") + backend,
        "dump sources opened with this backend").add();
}

uint64_t
checkedFileSize(const std::string &path, int fd)
{
    struct stat st;
    if (fstat(fd, &st) != 0)
        cb_fatal("fstat '%s': %s", path.c_str(),
                 std::strerror(errno));
    if (!S_ISREG(st.st_mode))
        cb_fatal("'%s' is not a regular file", path.c_str());
    uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size == 0 || size % 64 != 0)
        cb_fatal("dump '%s' size %llu is not a nonzero multiple of "
                 "64 bytes", path.c_str(),
                 static_cast<unsigned long long>(size));
    return size;
}

class MmapDumpSource final : public DumpSource
{
  public:
    MmapDumpSource(const uint8_t *base_, uint64_t size)
        : DumpSource(size), base(base_)
    {
    }

    ~MmapDumpSource() override
    {
        munmap(const_cast<uint8_t *>(base), size());
    }

    std::span<const uint8_t> chunk(uint64_t offset, uint64_t len,
                                   ChunkBuffer &) const override
    {
        checkRange(offset, len);
        return {base + offset, len};
    }

    void prefetch(uint64_t offset, uint64_t len) const override
    {
        // A hint, not an access: clamp instead of fataling so
        // read-ahead loops can run past the dump tail.
        if (offset >= size())
            return;
        len = std::min(len, size() - offset);
        if (len == 0)
            return;
        // Round down to the page so madvise accepts the address; a
        // failed hint is harmless.
        uint64_t page = static_cast<uint64_t>(
            sysconf(_SC_PAGESIZE));
        uint64_t lo = offset & ~(page - 1);
        (void)madvise(const_cast<uint8_t *>(base + lo),
                      len + (offset - lo), MADV_WILLNEED);
    }

    const char *backendName() const override { return "mmap"; }

  private:
    const uint8_t *base;
};

class BufferedDumpSource final : public DumpSource
{
  public:
    BufferedDumpSource(std::string path_, int fd_, uint64_t size)
        : DumpSource(size), path(std::move(path_)), fd(fd_)
    {
    }

    ~BufferedDumpSource() override { close(fd); }

    std::span<const uint8_t> chunk(uint64_t offset, uint64_t len,
                                   ChunkBuffer &buf) const override
    {
        checkRange(offset, len);
        uint8_t *dst = buf.ensure(len);
        uint64_t done = 0;
        while (done < len) {
            ssize_t got =
                preadMaybeShimmed(fd, dst + done, len - done,
                                  static_cast<off_t>(offset + done));
            if (got < 0) {
                if (errno == EINTR)
                    continue;
                cb_fatal("pread '%s' at %llu: %s", path.c_str(),
                         static_cast<unsigned long long>(
                             offset + done),
                         std::strerror(errno));
            }
            if (got == 0)
                cb_fatal("pread '%s': unexpected EOF at %llu",
                         path.c_str(),
                         static_cast<unsigned long long>(
                             offset + done));
            done += static_cast<uint64_t>(got);
        }
        return {dst, len};
    }

    void prefetch(uint64_t offset, uint64_t len) const override
    {
        if (offset >= size())
            return;
        len = std::min(len, size() - offset);
        if (len == 0)
            return;
#ifdef POSIX_FADV_WILLNEED
        (void)posix_fadvise(fd, static_cast<off_t>(offset),
                            static_cast<off_t>(len),
                            POSIX_FADV_WILLNEED);
#endif
    }

    const char *backendName() const override { return "buffered"; }

  private:
    std::string path;
    int fd;
};

} // anonymous namespace

ChunkBuffer::~ChunkBuffer()
{
    std::free(buf);
}

uint8_t *
ChunkBuffer::ensure(size_t bytes)
{
    if (bytes <= cap)
        return buf;
    std::free(buf);
    // Aligned-alloc sizes must be a multiple of the alignment.
    size_t rounded = (bytes + 63) & ~static_cast<size_t>(63);
    buf = static_cast<uint8_t *>(std::aligned_alloc(64, rounded));
    if (buf == nullptr)
        cb_fatal("ChunkBuffer: out of memory allocating %zu bytes",
                 rounded);
    cap = rounded;
    return buf;
}

void
DumpSource::prefetch(uint64_t, uint64_t) const
{
}

void
DumpSource::checkRange(uint64_t offset, uint64_t len) const
{
    if (offset > total || len > total - offset)
        cb_fatal("dump access [%llu, +%llu) outside %llu-byte dump",
                 static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(len),
                 static_cast<unsigned long long>(total));
}

MemoryDumpSource::MemoryDumpSource(std::span<const uint8_t> bytes)
    : DumpSource(bytes.size()), view(bytes)
{
    if (bytes.empty() || bytes.size() % 64 != 0)
        cb_fatal("memory dump size %zu is not a nonzero multiple of "
                 "64 bytes", bytes.size());
}

std::span<const uint8_t>
MemoryDumpSource::chunk(uint64_t offset, uint64_t len,
                        ChunkBuffer &) const
{
    checkRange(offset, len);
    return view.subspan(offset, len);
}

std::unique_ptr<DumpSource>
openDumpSource(const std::string &path, DumpBackend backend)
{
    int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        cb_fatal("open '%s': %s", path.c_str(),
                 std::strerror(errno));
    uint64_t size = checkedFileSize(path, fd);

    if (backend != DumpBackend::Buffered) {
        void *base = mmap(nullptr, size, PROT_READ, MAP_PRIVATE,
                          fd, 0);
        if (base != MAP_FAILED) {
            // The mapping survives closing the descriptor.
            close(fd);
            (void)madvise(base, size, MADV_SEQUENTIAL);
            noteOpen("mmap");
            return std::make_unique<MmapDumpSource>(
                static_cast<const uint8_t *>(base), size);
        }
        if (backend == DumpBackend::Mmap)
            cb_fatal("mmap '%s': %s", path.c_str(),
                     std::strerror(errno));
        cb_warn("mmap '%s' failed (%s); falling back to buffered "
                "reads", path.c_str(), std::strerror(errno));
    }

    noteOpen("buffered");
    return std::make_unique<BufferedDumpSource>(path, fd, size);
}

} // namespace coldboot::exec
