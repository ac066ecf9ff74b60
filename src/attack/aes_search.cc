#include "attack/aes_search.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <optional>
#include <set>
#include <span>

#include "common/bits.hh"
#include "common/logging.hh"
#include "attack/key_map.hh"
#include "attack/litmus.hh"
#include "simd/simd.hh"
#include "exec/scan.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::attack
{

namespace
{

using crypto::aesNk;
using crypto::aesScheduleBytes;
using crypto::aesScheduleStep;
using crypto::aesWordFromBytes;

/**
 * Internal-consistency error (bits) of a 16-word block interpreted
 * as schedule words starting at absolute word index @p p (which may
 * be negative for blocks straddling the table head). Only recurrence
 * checks fully inside both the block and the schedule are counted;
 * @p checks reports how many were possible.
 */
unsigned
blockConsistencyErrors(const uint32_t words[16], int64_t p,
                       unsigned nk, unsigned total_words,
                       unsigned &checks)
{
    unsigned errors = 0;
    checks = 0;
    for (unsigned i = nk; i < 16; ++i) {
        int64_t a = p + i;
        if (a < static_cast<int64_t>(nk) ||
            a >= static_cast<int64_t>(total_words))
            continue;
        uint32_t pred = aesScheduleStep(
            words[i - 1], words[i - nk], static_cast<unsigned>(a), nk);
        errors += static_cast<unsigned>(
            std::popcount(pred ^ words[i]));
        ++checks;
    }
    return errors;
}

/** Descramble a 64-byte raw block with a candidate key. */
void
descramble(std::span<const uint8_t> raw,
           const std::array<uint8_t, 64> &key, uint8_t out[64])
{
    simd::xorInto(out, raw.data(), key.data(), 64);
}

/** Words of the longest (AES-256) key schedule. */
constexpr unsigned kScheduleWords = static_cast<unsigned>(
    aesScheduleBytes(crypto::AesKeySize::Aes256) / 4);

/**
 * Pick the key among @p tried making a full in-table block most
 * self-consistent. Returns the error count of the winner and writes
 * its descrambled words; SIZE_MAX key index if no candidate checks.
 */
size_t
bestKeyForFullBlock(std::span<const uint8_t> raw,
                    const std::vector<MinedKey> &keys,
                    std::span<const uint32_t> tried, unsigned p,
                    unsigned nk, unsigned total_words,
                    uint32_t out_words[16], unsigned &best_errors)
{
    size_t best = SIZE_MAX;
    best_errors = ~0u;
    uint8_t plain[64];
    uint32_t words[16];
    for (uint32_t k : tried) {
        descramble(raw, keys[k].key, plain);
        for (unsigned i = 0; i < 16; ++i)
            words[i] = aesWordFromBytes(&plain[4 * i]);
        unsigned checks = 0;
        unsigned errors = blockConsistencyErrors(
            words, static_cast<int64_t>(p), nk, total_words, checks);
        if (checks == 0)
            continue;
        if (errors < best_errors) {
            best_errors = errors;
            best = k;
            std::memcpy(out_words, words, sizeof(words));
            if (errors == 0)
                break;
        }
    }
    secureWipe(plain, sizeof(plain));
    secureWipe(words, sizeof(words));
    return best;
}

/**
 * The table scan's exact prefilter (DESIGN.md §15). A schedule step
 * without SubWord is the pure XOR w[a] = w[a-Nk] ^ w[a-1], so the
 * litmus check of block word i at such a step is popcount(s_i) with
 * syndrome s_i = w[i] ^ w[i-1] ^ w[i-Nk]. Descrambling XORs the key
 * in word by word and the syndrome is linear, so
 * s_i(raw ^ key) = s_i(raw) ^ s_i(key): one syndrome per block and
 * one per key, precomputed, replace the descramble.
 *
 * Which block words sit at linear steps depends on the placement only
 * through its phase modulo Nk: one class for AES-128/256, three for
 * AES-192. A class's linear checks are a subset of the checks of
 * every placement in it, so a pair over the per-check or total
 * budget on them fails all of those placements. A pair survives when
 * any class passes; the survivors are a superset of the litmus hits.
 */
class LinearScreen
{
  public:
    LinearScreen(const std::vector<std::array<uint32_t, 16>> &key_words,
                 const SearchParams &params)
        : nk(aesNk(params.key_size)), nkeys(key_words.size()),
          max_per_check(params.litmus_max_bits_per_check),
          max_total(params.litmus_max_bit_errors)
    {
        for (unsigned pl = 0; pl < aesLitmusPlacements(params.key_size);
             ++pl) {
            Class cls;
            for (unsigned i = nk; i < 16; ++i)
                if (crypto::aesStepIsLinear(4 * pl + i, nk))
                    cls.positions.push_back(i);
            bool seen = false;
            for (const Class &c : classes)
                seen = seen || c.positions == cls.positions;
            if (seen)
                continue;
            cls.key_rows.resize(cls.positions.size() * nkeys);
            for (size_t j = 0; j < cls.positions.size(); ++j)
                for (size_t k = 0; k < nkeys; ++k)
                    cls.key_rows[j * nkeys + k] =
                        syndrome(key_words[k].data(), cls.positions[j]);
            classes.push_back(std::move(cls));
        }
    }

    /**
     * The keys of @p keys (ascending indices) that may pass the litmus
     * on the block whose raw words are @p raw, ascending. @p scratch
     * is the caller's reusable storage; the span points into it.
     */
    std::span<const uint32_t>
    survivors(const uint32_t raw[16], std::span<const uint32_t> keys,
              std::vector<uint32_t> &scratch) const
    {
        if (keys.empty())
            return {};
        uint32_t block_syn[3][16]; // at most three classes (AES-192)
        for (size_t c = 0; c < classes.size(); ++c)
            blockSyndromes(classes[c], raw, block_syn[c]);
        if (keys.size() < nkeys)
            return survivorsAmong(block_syn, keys, scratch);
        // The whole pool (distinct indices below nkeys, so all of
        // them): the first class writes its passes as the union so
        // far; with more classes, each next one's passes are merged
        // into a third segment, swapped with the union after each.
        scratch.resize(classes.size() == 1 ? nkeys : 3 * nkeys);
        uint32_t *acc = scratch.data();
        uint32_t *pass = acc + nkeys;
        uint32_t *merged = pass + nkeys;
        size_t n = 0;
        for (size_t c = 0; c < classes.size(); ++c) {
            size_t got = simd::syndromeScreen(
                block_syn[c], classes[c].key_rows.data(), nkeys, nkeys,
                static_cast<unsigned>(classes[c].positions.size()),
                max_per_check, max_total, c == 0 ? acc : pass);
            if (c == 0) {
                n = got;
                continue;
            }
            n = static_cast<size_t>(
                std::set_union(acc, acc + n, pass, pass + got, merged) -
                merged);
            std::swap(acc, merged);
        }
        return {acc, n};
    }

  private:
    /** The keys of @p keys passing any class, screened one key at a
     *  time by the same kernel (a column of the class's rows). */
    std::span<const uint32_t>
    survivorsAmong(const uint32_t (&block_syn)[3][16],
                   std::span<const uint32_t> keys,
                   std::vector<uint32_t> &scratch) const
    {
        scratch.resize(keys.size());
        size_t n = 0;
        for (uint32_t k : keys) {
            for (size_t c = 0; c < classes.size(); ++c) {
                uint32_t pass;
                if (simd::syndromeScreen(
                        block_syn[c], classes[c].key_rows.data() + k,
                        nkeys, 1,
                        static_cast<unsigned>(classes[c].positions.size()),
                        max_per_check, max_total, &pass) != 0) {
                    scratch[n++] = k;
                    break;
                }
            }
        }
        return {scratch.data(), n};
    }

    /** One placement-phase class: its linear block words and every
     *  key's syndrome on them (row j = positions[j], one word per
     *  key). */
    struct Class
    {
        Class() = default;
        Class(Class &&) = default;

        /** Key syndromes are key material: scrub them on the way out. */
        ~Class() { secureWipe(key_rows.data(), 4 * key_rows.size()); }

        std::vector<unsigned> positions;
        std::vector<uint32_t> key_rows;
    };

    uint32_t
    syndrome(const uint32_t *w, unsigned i) const
    {
        return w[i] ^ w[i - 1] ^ w[i - nk];
    }

    void
    blockSyndromes(const Class &cls, const uint32_t raw[16],
                   uint32_t out[16]) const
    {
        for (size_t j = 0; j < cls.positions.size(); ++j)
            out[j] = syndrome(raw, cls.positions[j]);
    }

    unsigned nk;
    size_t nkeys;
    unsigned max_per_check;
    unsigned max_total;
    std::vector<Class> classes;
};

/**
 * Scan grain: about 16 M (block, key) attempts per pool task, so a
 * large key pool splits a scan finely enough to balance the pool,
 * clamped to [4 KiB, 1 MiB] so a small pool's scan stays one task
 * per MiB.
 */
uint64_t
scanGrain(size_t nkeys)
{
    constexpr uint64_t kAttemptsPerTask = 1ull << 24;
    uint64_t bytes = kAttemptsPerTask / std::max<size_t>(nkeys, 1) * 64;
    return std::clamp<uint64_t>(bytes, 4096, 1ull << 20) & ~4095ull;
}

} // anonymous namespace

unsigned
repairAesScheduleWords(std::span<uint32_t> words, unsigned first_word,
                       unsigned nk, unsigned iterations)
{
    // Phase 1: Gallager-style bit flipping. Every schedule step
    //   w[a] = w[a-nk] ^ f(w[a-1])
    // is a bitwise parity relation between w[a], w[a-nk] and
    // g = f(w[a-1]) (g is recomputed from the current estimate of
    // w[a-1] each sweep). A bit of word i therefore participates in
    // up to three checks: as the step target, as the back operand of
    // the step at a+nk, and - when the following step applies no
    // SubWord - inside f(w[a]) for the step at a+1 (identity f only,
    // since S-box steps do not preserve bit positions). A bit whose
    // checks are violated by majority is flipped. At the few-percent
    // decay rates of a cooled transfer this converges in a handful of
    // sweeps; a final word-level forward/backward agreement pass then
    // cleans up what the bit-level pass cannot see.
    const size_t n = words.size();
    cb_assert(n <= kScheduleWords,
              "repairAesScheduleWords: %zu words, a schedule has at "
              "most %u", n, kScheduleWords);
    // f applied to each word by the step that consumes it as "prev"
    // (the step at index a+1), and each sweep's flips; wiped on exit.
    uint32_t f_of[kScheduleWords];
    uint32_t flips[kScheduleWords];
    unsigned total_fixed = 0;

    for (unsigned sweep = 0; sweep < iterations; ++sweep) {
        for (size_t i = 0; i < n; ++i)
            f_of[i] = aesScheduleStep(
                words[i], 0,
                first_word + static_cast<unsigned>(i) + 1, nk);

        for (size_t i = 0; i < n; ++i) {
            unsigned a = first_word + static_cast<unsigned>(i);
            uint32_t viol[3];
            int nchecks = 0;
            if (i >= nk && a >= nk) {
                // Target of its own step.
                viol[nchecks++] =
                    words[i] ^ words[i - nk] ^ f_of[i - 1];
            }
            if (i + nk < n) {
                // Back operand of the step at a+nk.
                viol[nchecks++] =
                    words[i + nk] ^ words[i] ^ f_of[i + nk - 1];
            }
            if (i + 1 < n && i + 1 >= nk && a + 1 >= nk &&
                crypto::aesStepIsLinear(a + 1, nk)) {
                // Prev operand of an identity-f step.
                viol[nchecks++] =
                    words[i + 1] ^ words[i + 1 - nk] ^ words[i];
            }
            // A bit flips when at least two of its checks are
            // violated: the bitwise majority of three check words,
            // or both of two.
            if (nchecks == 3)
                flips[i] = (viol[0] & viol[1]) | (viol[0] & viol[2]) |
                           (viol[1] & viol[2]);
            else
                flips[i] = nchecks == 2 ? viol[0] & viol[1] : 0;
        }
        unsigned fixed_bits = 0;
        for (size_t i = 0; i < n; ++i) {
            words[i] ^= flips[i];
            fixed_bits += static_cast<unsigned>(std::popcount(flips[i]));
        }
        total_fixed += fixed_bits;
        if (fixed_bits == 0)
            break;
    }
    secureWipe(f_of, sizeof(f_of));
    secureWipe(flips, sizeof(flips));

    // Phase 2: word-level forward/backward agreement for words
    // adjacent to the nonlinear (SubWord) steps.
    for (unsigned sweep = 0; sweep < iterations; ++sweep) {
        unsigned fixed = 0;
        for (size_t i = 0; i < n; ++i) {
            unsigned a = first_word + static_cast<unsigned>(i);
            std::optional<uint32_t> fwd;
            if (i >= nk && a >= nk) {
                fwd = aesScheduleStep(words[i - 1], words[i - nk], a,
                                      nk);
            }
            std::optional<uint32_t> bwd;
            if (i + nk < n) {
                uint32_t f_prev =
                    aesScheduleStep(words[i + nk - 1], 0, a + nk, nk);
                bwd = words[i + nk] ^ f_prev;
            }
            if (fwd && bwd && *fwd == *bwd && words[i] != *fwd) {
                words[i] = *fwd;
                ++fixed;
            }
        }
        total_fixed += fixed;
        if (fixed == 0)
            break;
    }
    return total_fixed;
}

unsigned
bestAesScheduleFromWindows(std::span<const uint32_t> observed,
                           unsigned first_word, unsigned nk,
                           std::span<uint32_t> schedule)
{
    const size_t n = observed.size();
    const auto total = static_cast<unsigned>(schedule.size());
    cb_assert(total <= kScheduleWords && first_word + n <= total,
              "bestAesScheduleFromWindows: words %u..%zu outside a "
              "%u-word schedule", first_word, first_word + n, total);
    // One schedule buffer for every window, wiped on exit.
    uint32_t full[kScheduleWords];
    unsigned best_dist = ~0u;
    for (size_t s = 0; s + nk <= n; ++s) {
        const unsigned abs_s = first_word + static_cast<unsigned>(s);
        // When window s's last word continues window s - 1, both hold
        // words of one schedule, which each seeds: the same distance,
        // never strictly better.
        if (s > 0 && observed[s + nk - 1] ==
                         aesScheduleStep(observed[s + nk - 2],
                                         observed[s - 1],
                                         abs_s + nk - 1, nk))
            continue;
        // The window, then backward to word 0 and forward to the end.
        std::copy_n(&observed[s], nk, full + abs_s);
        for (unsigned j = abs_s; j-- > 0;)
            full[j] = full[j + nk] ^
                      aesScheduleStep(full[j + nk - 1], 0, j + nk, nk);
        for (unsigned i = abs_s + nk; i < total; ++i)
            full[i] = aesScheduleStep(full[i - 1], full[i - nk], i, nk);

        unsigned dist = 0;
        for (size_t i = 0; i < n; ++i) {
            dist += static_cast<unsigned>(
                std::popcount(full[first_word + i] ^ observed[i]));
            if (dist >= best_dist)
                break;
        }
        if (dist < best_dist) {
            best_dist = dist;
            std::copy_n(full, total, schedule.begin());
            if (dist == 0)
                break;
        }
    }
    secureWipe(full, sizeof(full));
    return best_dist;
}

namespace
{

/**
 * Attempt a full reconstruction of the schedule whose word 0 lies at
 * dump byte offset @p table_off, returning the recovered key if it
 * verifies. Each block is descrambled only with the keys @p map
 * gives its line, so a keyless block assembles and verifies nothing.
 */
std::optional<RecoveredAesKey>
reconstructAt(const exec::DumpSource &dump,
              const std::vector<MinedKey> &keys, const KeyMap &map,
              uint64_t table_off, const SearchParams &params,
              SearchStats &stats, exec::ChunkBuffer &buf)
{
    unsigned nk = aesNk(params.key_size);
    unsigned sched_bytes =
        static_cast<unsigned>(aesScheduleBytes(params.key_size));
    unsigned total_words = sched_bytes / 4;

    if (table_off % 4 != 0 ||
        table_off + sched_bytes > dump.size())
        return std::nullopt;

    ++stats.reconstructions_tried;

    // This attempt's key material - the descrambled words, the chosen
    // schedule, its bytes and each verified block - is wiped on every
    // way out.
    struct Scratch
    {
        uint32_t observed[kScheduleWords];
        uint32_t schedule[kScheduleWords];
        uint8_t expanded[4 * kScheduleWords];
        uint8_t plain[64];

        ~Scratch() { secureWipe(this, sizeof(*this)); }
    } w;

    // Gather the fully-in-table 64-byte blocks (at most three).
    uint64_t first_full = (table_off + 63) & ~63ULL;
    size_t n_observed = 0;
    int64_t obs_first_word = -1;
    for (uint64_t b = first_full; b + 64 <= table_off + sched_bytes;
         b += 64) {
        unsigned p = static_cast<unsigned>((b - table_off) / 4);
        unsigned errors = 0;
        auto tried = map.keysFor(b / 64);
        size_t k = bestKeyForFullBlock(dump.chunk(b, 64, buf), keys,
                                       tried, p, nk, total_words,
                                       &w.observed[n_observed], errors);
        stats.descramble_attempts += tried.size();
        if (k == SIZE_MAX || errors > 4 * params.litmus_max_bit_errors)
            return std::nullopt;
        if (obs_first_word < 0)
            obs_first_word = p;
        n_observed += 16;
    }
    if (n_observed < nk + 1)
        return std::nullopt;

    // Any clean Nk-window determines the whole schedule (forward and
    // backward). Decay may have corrupted any given window, so after
    // the repair every window position seeds a reconstruction and the
    // one that agrees best with the observation is kept.
    const auto first_word = static_cast<unsigned>(obs_first_word);
    repairAesScheduleWords({w.observed, n_observed}, first_word, nk,
                           params.repair_iterations);
    bestAesScheduleFromWindows({w.observed, n_observed}, first_word, nk,
                               {w.schedule, total_words});
    for (unsigned i = 0; i < total_words; ++i)
        crypto::aesBytesFromWord(w.schedule[i], &w.expanded[4 * i]);

    // Verify the reconstruction against every overlapping block,
    // including the partial boundary blocks.
    uint64_t span_begin = table_off & ~63ULL;
    size_t verified = 0;
    unsigned total_errors = 0;
    for (uint64_t b = span_begin; b < table_off + sched_bytes;
         b += 64) {
        // Overlap of this block with the table.
        uint64_t lo = std::max(b, table_off);
        uint64_t hi = std::min(b + 64,
                               table_off + sched_bytes);
        auto tried = map.keysFor(b / 64);
        if (tried.empty()) {
            // No key to descramble with: every overlapping bit counts
            // as an error, and the block does not verify.
            total_errors += static_cast<unsigned>(8 * (hi - lo));
            continue;
        }
        unsigned best_dist = ~0u;
        auto raw = dump.chunk(b, 64, buf);
        for (uint32_t k : tried) {
            descramble(raw, keys[k].key, w.plain);
            // Subrange compare of the overlap (at most 64 bytes, so
            // the old "> 8 * 64 bits" early break could never fire).
            unsigned dist = static_cast<unsigned>(
                simd::hammingDistance(w.plain + (lo - b),
                                      w.expanded + (lo - table_off),
                                      hi - lo));
            best_dist = std::min(best_dist, dist);
            if (best_dist == 0)
                break;
        }
        stats.descramble_attempts += tried.size();
        total_errors += best_dist;
        if (best_dist <= params.verify_block_max_bit_errors)
            ++verified;
    }

    if (verified < params.min_verified_blocks ||
        total_errors > params.max_total_bit_errors)
        return std::nullopt;

    ++stats.reconstructions_verified;
    RecoveredAesKey out;
    out.master.resize(4 * nk);
    for (unsigned i = 0; i < nk; ++i)
        crypto::aesBytesFromWord(w.schedule[i], &out.master[4 * i]);
    out.key_size = params.key_size;
    out.table_offset = table_off;
    out.verified_blocks = verified;
    out.total_bit_errors = total_errors;
    return out;
}

/** Fit one search call's address → key map, under its own span. */
KeyMap
fitKeyMap(const std::vector<MinedKey> &keys)
{
    obs::ScopedSpan span("search.map");
    return KeyMap(keys);
}

/** Blocks of a table scan that the address → key map covers, and
 *  those of them whose slot holds no mined key. */
struct RouteCounts
{
    uint64_t routed = 0;
    uint64_t keyless = 0;
};

/**
 * scanAesKeyTables() through @p map: each block is screened against
 * the keys map.keysFor() gives its line, a keyless block against
 * none. Fills @p stats' scan fields and @p routes.
 */
std::vector<AesTableHit>
scanTables(const exec::DumpSource &dump,
           const std::vector<MinedKey> &candidate_keys,
           const KeyMap &map, const SearchParams &params,
           SearchStats &stats, RouteCounts &routes)
{
    uint64_t begin = params.scan_start & ~63ULL;
    uint64_t end = params.scan_bytes == 0
        ? dump.size()
        : std::min<uint64_t>(dump.size(),
                             params.scan_start + params.scan_bytes);

    // Hot path: precompute every candidate key as packed schedule
    // words and linear-check syndromes; per block, look its keys up
    // first (a keyless block is done), load the raw words once,
    // screen the keys with the syndrome kernel and descramble only
    // the survivors with word XORs (the byte order cancels under
    // XOR).
    std::vector<std::array<uint32_t, 16>> key_words(
        candidate_keys.size());
    for (size_t k = 0; k < candidate_keys.size(); ++k)
        for (unsigned i = 0; i < 16; ++i)
            key_words[k][i] =
                aesWordFromBytes(&candidate_keys[k].key[4 * i]);
    const LinearScreen screen(key_words, params);

    // The scan is embarrassingly parallel (the paper notes the search
    // "is fully parallelizable"); it runs chunked on the work-stealing
    // pool and the per-chunk hit lists are concatenated in ascending
    // dump order, so the hit sequence - and everything derived from
    // it - is byte-identical to a serial scan for any worker count.
    struct ChunkScan
    {
        std::vector<AesTableHit> hits;
        uint64_t attempts = 0;
        uint64_t prefilter_passes = 0;
        RouteCounts routes;
    };
    std::vector<AesTableHit> all_hits;

    exec::scanDump<ChunkScan>(
        dump,
        {.name = "search.scan",
         .begin = begin,
         .end = end,
         .grain = scanGrain(candidate_keys.size()),
         .threads = params.threads,
         .cancel = params.cancel},
        [&](std::span<const uint8_t> bytes, const exec::ChunkRange &c) {
            thread_local std::vector<uint32_t> scratch;
            ChunkScan out;
            for (uint64_t off = 0; off + 64 <= bytes.size();
                 off += 64) {
                const uint64_t line = (c.begin + off) / 64;
                auto keys = map.keysFor(line);
                if (map.covers(line)) {
                    ++out.routes.routed;
                    if (keys.empty()) {
                        ++out.routes.keyless;
                        continue;
                    }
                }
                auto raw = bytes.subspan(off, 64);
                if (isConstantBlock(raw))
                    continue;
                uint32_t raw_words[16];
                for (unsigned i = 0; i < 16; ++i)
                    raw_words[i] = aesWordFromBytes(&raw[4 * i]);
                out.attempts += keys.size();
                auto passed = screen.survivors(raw_words, keys, scratch);
                out.prefilter_passes += passed.size();
                for (uint32_t ki : passed) {
                    // Entropy guard (plausibleScheduleEntropy):
                    // rejects zero blocks, padding and text. The
                    // descrambled weight is popcount(raw ^ key) -
                    // byte order cancels under XOR - so the fused
                    // kernel screens candidates before any plain
                    // words are materialized.
                    unsigned weight = static_cast<unsigned>(
                        simd::hammingDistance(
                            raw.data(), candidate_keys[ki].key.data(),
                            64));
                    if (weight < 180 || weight > 332)
                        continue;
                    uint32_t plain_words[16];
                    for (unsigned i = 0; i < 16; ++i)
                        plain_words[i] = raw_words[i] ^ key_words[ki][i];
                    auto hit = aesKeyLitmusWords(
                        plain_words, params.key_size,
                        params.litmus_max_bit_errors,
                        params.litmus_max_bits_per_check);
                    if (hit)
                        out.hits.push_back(
                            {c.begin + off, ki, hit->start_word});
                }
            }
            return out;
        },
        [&](ChunkScan &&s, const exec::ChunkRange &c) {
            stats.blocks_scanned += (c.end - c.begin) / 64;
            stats.descramble_attempts += s.attempts;
            stats.prefilter_passes += s.prefilter_passes;
            stats.litmus_hits += s.hits.size();
            routes.routed += s.routes.routed;
            routes.keyless += s.routes.keyless;
            all_hits.insert(all_hits.end(), s.hits.begin(),
                            s.hits.end());
        });
    // The packed keys are key material too.
    secureWipe(key_words.data(), sizeof(key_words[0]) * key_words.size());
    return all_hits;
}

} // anonymous namespace

std::vector<AesTableHit>
scanAesKeyTables(const exec::DumpSource &dump,
                 const std::vector<MinedKey> &candidate_keys,
                 const SearchParams &params, SearchStats *stats)
{
    SearchStats local;
    RouteCounts routes;
    auto hits = scanTables(dump, candidate_keys,
                           fitKeyMap(candidate_keys), params, local,
                           routes);
    if (stats)
        *stats = local;
    return hits;
}

std::vector<RecoveredAesKey>
searchAesKeyTables(const exec::DumpSource &dump,
                   const std::vector<MinedKey> &candidate_keys,
                   const SearchParams &params, SearchStats *stats)
{
    auto t0 = std::chrono::steady_clock::now();
    SearchStats local;

    std::vector<RecoveredAesKey> results;
    std::set<uint64_t> tried_offsets;

    // Phase 1 - scan, through the address → key map fitted once for
    // the scan and the reconstructions.
    const KeyMap map = fitKeyMap(candidate_keys);
    RouteCounts routes;
    auto all_hits = scanTables(dump, candidate_keys, map, params, local,
                               routes);

    // Phase 2 - reconstruct (serial; candidate offsets are few).
    // Round constants differ by only a bit or two, so the litmus
    // pins a placement only up to congruence modulo lcm(4, Nk) words
    // (all SubWord positions match within a class); every congruent
    // placement of every hit is tried.
    obs::ScopedSpan reconstruct_span("search.reconstruct");
    unsigned nk = crypto::aesNk(params.key_size);
    unsigned modulus = std::lcm(4u, nk);
    unsigned max_p = (aesLitmusPlacements(params.key_size) - 1) * 4;
    exec::ChunkBuffer reconstruct_buf;
    for (const auto &hit : all_hits) {
        exec::checkpointIfCancellable(params.cancel);
        for (unsigned s = hit.start_word % modulus; s <= max_p;
             s += modulus) {
            if (params.max_reconstructions != 0 &&
                local.reconstructions_tried >=
                    params.max_reconstructions)
                break;
            int64_t table_off =
                static_cast<int64_t>(hit.offset) -
                4 * static_cast<int64_t>(s);
            if (table_off < 0)
                continue;
            if (!tried_offsets
                     .insert(static_cast<uint64_t>(table_off))
                     .second)
                continue;
            auto rec = reconstructAt(
                dump, candidate_keys, map,
                static_cast<uint64_t>(table_off), params, local,
                reconstruct_buf);
            // Keep one copy of each master; a duplicate wipes itself.
            if (rec && std::none_of(results.begin(), results.end(),
                                    [&](const RecoveredAesKey &r) {
                                        return r.master == rec->master;
                                    }))
                results.push_back(std::move(*rec));
        }
    }

    std::sort(results.begin(), results.end(),
              [](const RecoveredAesKey &a, const RecoveredAesKey &b) {
                  if (a.verified_blocks != b.verified_blocks)
                      return a.verified_blocks > b.verified_blocks;
                  return a.total_bit_errors < b.total_bit_errors;
              });

    // Two genuine schedules can never overlap in memory, but a
    // congruent-placement misreconstruction of a real table can
    // scrape past verification (it disagrees with the truth only by
    // accumulated round-constant deltas). Greedily keep the
    // best-verified reconstruction of any overlapping group.
    uint64_t sbytes = aesScheduleBytes(params.key_size);
    std::vector<RecoveredAesKey> kept;
    for (auto &r : results) {
        bool overlaps = false;
        for (const auto &k : kept) {
            uint64_t lo = std::max(r.table_offset, k.table_offset);
            uint64_t hi = std::min(r.table_offset + sbytes,
                                   k.table_offset + sbytes);
            overlaps = overlaps || lo < hi;
        }
        if (!overlaps)
            kept.push_back(std::move(r));
    }
    results = std::move(kept);

    local.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();

    // Mirror this call into the registry (the system of record for
    // cross-run trajectories); the SearchStats out-parameter stays a
    // per-call view.
    auto &registry = obs::StatRegistry::global();
    registry.counter("attack.search.blocks_scanned",
                     "64-byte blocks examined by the key-table scan")
        .add(local.blocks_scanned);
    registry.counter("attack.search.descramble_attempts",
                     "(block, candidate-key) descramble attempts")
        .add(local.descramble_attempts);
    registry.counter("attack.search.prefilter_passes",
                     "attempts passing the linear-syndrome prefilter")
        .add(local.prefilter_passes);
    registry.counter("attack.search.routed_blocks",
                     "table-scan blocks the address → key map covers, "
                     "each tried against its slot's keys only (0 when "
                     "the map declined)")
        .add(routes.routed);
    registry.counter("attack.search.keyless_blocks",
                     "routed blocks whose slot holds no mined key, so "
                     "nothing was tried on them")
        .add(routes.keyless);
    registry.counter("attack.search.litmus_hits",
                     "blocks passing the AES key-schedule litmus")
        .add(local.litmus_hits);
    registry.counter("attack.search.reconstructions_tried",
                     "schedule reconstructions attempted")
        .add(local.reconstructions_tried);
    registry.counter("attack.search.reconstructions_verified",
                     "schedule reconstructions that verified")
        .add(local.reconstructions_verified);
    registry.distribution("attack.search.seconds",
                          "wall-clock seconds per search run")
        .sample(local.seconds);

    if (stats)
        *stats = local;
    return results;
}

std::vector<RecoveredAesKey>
searchAesKeyTables(const platform::MemoryImage &dump,
                   const std::vector<MinedKey> &candidate_keys,
                   const SearchParams &params, SearchStats *stats)
{
    exec::MemoryDumpSource source(dump.bytes());
    return searchAesKeyTables(source, candidate_keys, params, stats);
}

} // namespace coldboot::attack
