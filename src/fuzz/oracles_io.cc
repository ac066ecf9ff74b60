/**
 * @file
 * Dump-I/O oracle: the three DumpSource backends (mmap, buffered
 * pread, in-memory view) must be observationally identical on any
 * valid dump file, including files produced by the file-shape
 * mutators (tail bit rot and the valid control case). Invalid shapes
 * (zero-length, non-64-multiple) are classified here against the
 * mutator's own contract; their fatal-error *behaviour* is covered by
 * the death tests and the CLI smoke test, since cb_fatal exits the
 * process and cannot be observed in-process.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "exec/dump_io.hh"
#include "fuzz/fuzz_rng.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracles.hh"
#include "obs/fsio.hh"

#include <unistd.h>

namespace coldboot::fuzz
{

namespace
{

/** RAII temp file that unlinks on scope exit. */
struct TempFile
{
    std::string path;

    explicit TempFile(uint64_t tag)
    {
        path = (std::filesystem::temp_directory_path() /
                ("coldboot_fuzz_" + std::to_string(getpid()) + "_" +
                 std::to_string(tag) + ".img"))
                   .string();
    }

    ~TempFile() { std::remove(path.c_str()); }
};

class DumpBackendEqualityOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "dump-backend-equality";
    }

    const char *
    description() const override
    {
        return "mmap, buffered and memory DumpSource backends are "
               "byte-identical on mutated dump files";
    }

    unsigned smokeStride() const override { return 2; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        const uint64_t bytes =
            static_cast<uint64_t>(16 * 1024) << params.scale;
        std::vector<uint8_t> image(bytes);
        rng.fill(image);
        mutateBytes(image, rng, params.energy);

        FileShapeMutation kind = pickFileShapeMutation(rng);
        bool still_valid = applyFileShapeMutation(image, kind, rng);
        res.feature(static_cast<uint32_t>(kind));

        // The mutator's validity verdict must match the DumpSource
        // size rule it claims to encode.
        bool rule_valid = !image.empty() && image.size() % 64 == 0;
        if (still_valid != rule_valid) {
            res.fail("file-shape mutator misclassified a " +
                     std::to_string(image.size()) +
                     "-byte file as " +
                     (still_valid ? "valid" : "invalid"));
            return res;
        }
        if (!still_valid) {
            // Fatal-path behaviour is exercised out-of-process (death
            // tests, CLI smoke); nothing more to compare here.
            res.feature(100);
            return res;
        }

        TempFile file(params.seed);
        obs::writeFileCreatingDirs(
            file.path,
            std::string_view(
                reinterpret_cast<const char *>(image.data()),
                image.size()),
            "fuzz dump");

        auto mapped =
            exec::openDumpSource(file.path, exec::DumpBackend::Mmap);
        auto buffered = exec::openDumpSource(
            file.path, exec::DumpBackend::Buffered);
        exec::MemoryDumpSource memory(image);

        const exec::DumpSource *sources[] = {mapped.get(),
                                             buffered.get(), &memory};
        for (const exec::DumpSource *s : sources) {
            if (s->size() != image.size() ||
                s->lines() != image.size() / 64) {
                res.fail(std::string(s->backendName()) +
                         " backend reports a wrong size");
                return res;
            }
        }

        // Every backend reads the whole file back as written.
        exec::ChunkBuffer buf_a, buf_b, buf_c;
        for (const exec::DumpSource *s : sources) {
            auto whole = s->chunk(0, image.size(), buf_a);
            if (!std::equal(whole.begin(), whole.end(), image.begin(),
                            image.end())) {
                res.fail(std::string(s->backendName()) +
                         " whole-file chunk differs from the file "
                         "contents");
                return res;
            }
        }

        // Random in-range chunk reads agree byte for byte.
        const unsigned reads = 8 + params.energy;
        for (unsigned t = 0; t < reads; ++t) {
            uint64_t len = rng.range(1, image.size());
            uint64_t off = rng.below(image.size() - len + 1);
            mapped->prefetch(off, len); // must be a harmless hint
            auto a = mapped->chunk(off, len, buf_a);
            auto b = buffered->chunk(off, len, buf_b);
            auto c = memory.chunk(off, len, buf_c);
            if (a.size() != len || b.size() != len ||
                c.size() != len) {
                res.fail("chunk() returned a wrong length");
                return res;
            }
            if (!std::equal(a.begin(), a.end(), b.begin()) ||
                !std::equal(a.begin(), a.end(), c.begin()) ||
                !std::equal(a.begin(), a.end(),
                            image.begin() +
                                static_cast<ptrdiff_t>(off))) {
                res.fail("backends disagree on chunk [" +
                         std::to_string(off) + ", " +
                         std::to_string(off + len) + ")");
                return res;
            }
            res.feature(8 + static_cast<uint32_t>(
                                len * 4 / image.size()));
        }
        res.feature(101);
        return res;
    }
};

const DumpBackendEqualityOracle io_oracle;

} // anonymous namespace

void
registerIoOracles(std::vector<const Oracle *> &out)
{
    out.push_back(&io_oracle);
}

} // namespace coldboot::fuzz
