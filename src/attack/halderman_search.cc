#include "attack/halderman_search.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "exec/scan.hh"
#include "simd/simd.hh"

namespace coldboot::attack
{

namespace
{

/** Window positions evaluated per pool task. */
constexpr uint64_t kWindowGrain = 4096;

} // anonymous namespace

std::vector<BaselineKey>
haldermanSearch(const exec::DumpSource &image,
                const BaselineParams &params)
{
    using namespace crypto;

    unsigned nk = aesNk(params.key_size);
    size_t key_len = static_cast<size_t>(params.key_size);
    size_t sched_bytes = aesScheduleBytes(params.key_size);
    unsigned total_words = static_cast<unsigned>(sched_bytes) / 4;

    cb_assert(params.step > 0, "haldermanSearch: zero step");

    uint64_t begin = params.scan_start;
    uint64_t end = params.scan_bytes == 0
        ? image.size()
        : std::min<uint64_t>(image.size(),
                             params.scan_start + params.scan_bytes);

    std::vector<BaselineKey> out;
    if (end < begin || end - begin < sched_bytes)
        return out;
    uint64_t last_window =
        begin + (end - begin - sched_bytes) / params.step * params.step;

    // Evaluate one candidate window against the plaintext bytes that
    // follow it. A short incremental screen rejects almost every
    // window on its first generated words; survivors batch-expand
    // the rest of the schedule (a pure function of the window) and
    // compare it with the bounded Hamming kernel. Error accumulation
    // is monotone, so accept/reject and the recorded bit_errors are
    // byte-identical to the fully incremental walk.
    auto try_window = [&](std::span<const uint8_t> bytes,
                          uint64_t local_off, uint64_t abs_off,
                          std::vector<BaselineKey> &found) {
        uint32_t window[8];
        for (unsigned i = 0; i < nk; ++i)
            window[i] =
                aesWordFromBytes(&bytes[local_off + 4 * i]);

        unsigned errors = 0;
        // Rolling window of the last nk words.
        uint32_t last[8];
        std::copy(window, window + nk, last);
        constexpr unsigned kScreenWords = 2;
        unsigned screened =
            std::min(total_words, nk + kScreenWords);
        for (unsigned i = nk; i < screened; ++i) {
            uint32_t next =
                aesScheduleStep(last[nk - 1], last[0], i, nk);
            uint32_t observed =
                aesWordFromBytes(&bytes[local_off + 4 * i]);
            errors += static_cast<unsigned>(
                std::popcount(next ^ observed));
            if (errors > params.max_bit_errors)
                return;
            for (unsigned m = 0; m + 1 < nk; ++m)
                last[m] = last[m + 1];
            last[nk - 1] = next;
        }
        if (screened < total_words) {
            auto tail = aesScheduleContinue(
                std::span<const uint32_t>(last, nk), screened,
                total_words - screened, nk);
            std::vector<uint8_t> pred(4 * tail.size());
            for (size_t i = 0; i < tail.size(); ++i)
                aesBytesFromWord(tail[i], &pred[4 * i]);
            size_t budget = params.max_bit_errors - errors;
            size_t rem = simd::hammingDistanceBounded(
                &bytes[local_off + 4 * screened], pred.data(),
                pred.size(), budget);
            secureWipe(pred);
            secureWipe(tail.data(), tail.size() * sizeof(tail[0]));
            if (rem > budget)
                return;
            errors += static_cast<unsigned>(rem);
        }

        BaselineKey key;
        key.master.assign(
            bytes.begin() + static_cast<size_t>(local_off),
            bytes.begin() + static_cast<size_t>(local_off + key_len));
        key.key_size = params.key_size;
        key.offset = abs_off;
        key.bit_errors = errors;
        found.push_back(std::move(key));
    };

    // The chunks tile the window starts, each a whole number of
    // steps, and the windows overlap (each spans sched_bytes), so
    // every chunk also reads the schedule-length tail past its end.
    // Candidates are deduplicated against the keys already kept
    // during the ordered reduction, giving output byte-identical to
    // the sequential slide; the kept keys wipe themselves.
    exec::scanDump<std::vector<BaselineKey>>(
        image,
        {.name = "search.halderman",
         .begin = begin,
         .end = last_window + 1,
         .grain = kWindowGrain * params.step,
         .overlap = sched_bytes - 1},
        [&](std::span<const uint8_t> bytes, const exec::ChunkRange &c) {
            std::vector<BaselineKey> found;
            for (uint64_t off = c.begin; off < c.end; off += params.step)
                try_window(bytes, off - c.begin, off, found);
            return found;
        },
        [&](std::vector<BaselineKey> &&found, const exec::ChunkRange &) {
            for (auto &key : found)
                if (std::none_of(out.begin(), out.end(),
                                 [&](const BaselineKey &kept) {
                                     return kept.master == key.master;
                                 }))
                    out.push_back(std::move(key));
        });
    return out;
}

std::vector<BaselineKey>
haldermanSearch(const platform::MemoryImage &image,
                const BaselineParams &params)
{
    exec::MemoryDumpSource source(image.bytes());
    return haldermanSearch(source, params);
}

} // namespace coldboot::attack
