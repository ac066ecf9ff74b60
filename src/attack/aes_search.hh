/**
 * @file
 * AES key-table search over a scrambled dump (attack steps 2-4).
 *
 * For every 64-byte block of the dump and each candidate scrambler
 * key it may be scrambled with - the keys the address → key map
 * (key_map.hh) gives its line: its slot's keys, possibly none, where
 * the map covers the line, every mined key elsewhere - the pair is
 * screened by an exact linear-syndrome
 * prefilter, and the survivors are descrambled and fed to the AES key
 * litmus test. A hit pins the block to an absolute position inside an
 * expanded key schedule; the recurrence is then run forward and
 * backward to reconstruct the whole schedule - including words
 * w[0..Nk), the raw master key - and the reconstruction is verified
 * against the neighbouring dump blocks. Decay is tolerated throughout
 * via Hamming-distance comparison, and an iterative repair pass uses
 * the redundancy of the schedule recurrence (every word is predicted
 * by both its forward and backward neighbours) to correct flipped
 * bits before extraction.
 */

#ifndef COLDBOOT_ATTACK_AES_SEARCH_HH
#define COLDBOOT_ATTACK_AES_SEARCH_HH

#include <cstdint>
#include <vector>

#include "attack/key_miner.hh"
#include "common/secure.hh"
#include "crypto/aes.hh"
#include "exec/cancel.hh"
#include "exec/dump_io.hh"
#include "platform/memory_image.hh"

namespace coldboot::attack
{

/** One recovered AES key. */
struct RecoveredAesKey
{
    RecoveredAesKey() = default;
    RecoveredAesKey(const RecoveredAesKey &) = default;
    RecoveredAesKey(RecoveredAesKey &&) = default;
    RecoveredAesKey &operator=(const RecoveredAesKey &) = default;
    RecoveredAesKey &operator=(RecoveredAesKey &&) = default;

    /** Scrub the recovered master key when this copy dies. */
    ~RecoveredAesKey() { secureWipe(master); }

    /** The raw master key (16/24/32 bytes). */
    std::vector<uint8_t> master;
    /** AES variant. */
    crypto::AesKeySize key_size;
    /** Dump byte offset of schedule word 0. */
    uint64_t table_offset;
    /** 64-byte blocks of the table that verified within tolerance. */
    size_t verified_blocks;
    /** Total Hamming distance between reconstruction and dump. */
    unsigned total_bit_errors;
};

/** Key-table search tuning. */
struct SearchParams
{
    /** AES variant to search for. */
    crypto::AesKeySize key_size = crypto::AesKeySize::Aes256;
    /** AES litmus total tolerance per block (bits). */
    unsigned litmus_max_bit_errors = 64;
    /** AES litmus per-predicted-word tolerance (bits). */
    unsigned litmus_max_bits_per_check = 12;
    /** Per-block tolerance when verifying a reconstruction (bits). */
    unsigned verify_block_max_bit_errors = 48;
    /** Minimum verified blocks for acceptance. */
    size_t min_verified_blocks = 3;
    /**
     * Maximum total Hamming distance between the reconstruction and
     * the dump over the whole table; sized for a few percent decay
     * with margin, it rejects phase-shifted misreconstructions that
     * agree only locally.
     */
    unsigned max_total_bit_errors = 192;
    /** Iterations of the forward/backward repair pass. */
    unsigned repair_iterations = 8;
    /** Abort after this many reconstruction attempts (0 = no cap). */
    uint64_t max_reconstructions = 4096;
    /** The scan's pool, as exec::ScanPlan::threads; the found keys
     *  are byte-identical for every value (DESIGN.md §9). */
    unsigned threads = 0;
    /** First dump byte to scan (line aligned). */
    uint64_t scan_start = 0;
    /** Bytes to scan (0 = to end of dump). */
    uint64_t scan_bytes = 0;
    /** Checked once per scan chunk and per reconstructed hit; a
     *  raised token makes the call throw exec::CancelledError. */
    const exec::CancelToken *cancel = nullptr;
};

/** Search statistics. */
struct SearchStats
{
    uint64_t blocks_scanned = 0;
    /** (block, candidate key) pairs tried: by the table scan, each
     *  non-constant block with the keys the address → key map gives
     *  its line (KeyMap::keysFor), plus each block a reconstruction
     *  assembles or verifies with those keys. */
    uint64_t descramble_attempts = 0;
    /** Attempts passing the linear-syndrome prefilter, the only ones
     *  that reach the entropy guard and the litmus. */
    uint64_t prefilter_passes = 0;
    uint64_t litmus_hits = 0;
    uint64_t reconstructions_tried = 0;
    uint64_t reconstructions_verified = 0;
    /** Wall-clock seconds spent scanning. */
    double seconds = 0.0;

    /** Fold in another call's stats (one search per key size). */
    SearchStats &
    operator+=(const SearchStats &o)
    {
        blocks_scanned += o.blocks_scanned;
        descramble_attempts += o.descramble_attempts;
        prefilter_passes += o.prefilter_passes;
        litmus_hits += o.litmus_hits;
        reconstructions_tried += o.reconstructions_tried;
        reconstructions_verified += o.reconstructions_verified;
        seconds += o.seconds;
        return *this;
    }
};
// A new field must be folded by operator+= above, then counted here.
static_assert(sizeof(SearchStats) == 7 * 8,
              "SearchStats::operator+= must fold every field");

/** One AES key litmus hit of the table scan. */
struct AesTableHit
{
    /** Dump byte offset of the 64-byte block. */
    uint64_t offset;
    /** Index of the candidate key that descrambled it. */
    uint32_t key_index;
    /** Absolute schedule word of the block's first word (the best
     *  placement, AesLitmusResult::start_word). */
    unsigned start_word;

    bool operator==(const AesTableHit &) const = default;
};

/**
 * The table scan, phase 1 of searchAesKeyTables(): every (block,
 * candidate key) pair of the scan range that passes the entropy guard
 * and the AES key litmus, where a block is tried only with the keys
 * the keys' address → key map gives its line (KeyMap::keysFor: none
 * for a covered line whose slot mined no key). An exact
 * linear-syndrome prefilter (DESIGN.md §15) rejects almost every pair
 * before either runs, so the hits equal those of testing every such
 * pair.
 *
 * @param stats  Optional; receives the scan's blocks_scanned,
 *               descramble_attempts, prefilter_passes and litmus_hits.
 * @return Hits in ascending dump offset, then key index.
 */
std::vector<AesTableHit> scanAesKeyTables(
    const exec::DumpSource &dump,
    const std::vector<MinedKey> &candidate_keys,
    const SearchParams &params = {}, SearchStats *stats = nullptr);

/**
 * Search a scrambled dump for expanded AES key tables. The address
 * → key map of @p candidate_keys is fitted once, and the scan and
 * every reconstruction try each block with KeyMap::keysFor() of its
 * line only.
 *
 * @param dump           The scrambled dump (any DumpSource backend).
 * @param candidate_keys Mined scrambler keys (attack step 1 output).
 * @param params         Tuning.
 * @param stats          Optional statistics out-parameter.
 * @return Distinct recovered keys, best-verified first.
 */
std::vector<RecoveredAesKey> searchAesKeyTables(
    const exec::DumpSource &dump,
    const std::vector<MinedKey> &candidate_keys,
    const SearchParams &params = {}, SearchStats *stats = nullptr);

/** Convenience overload over an in-memory image (zero-copy). */
std::vector<RecoveredAesKey> searchAesKeyTables(
    const platform::MemoryImage &dump,
    const std::vector<MinedKey> &candidate_keys,
    const SearchParams &params = {}, SearchStats *stats = nullptr);

/**
 * Iteratively repair a decayed schedule-word sequence in place using
 * the forward and backward recurrence predictions (exposed for tests
 * and ablation benches).
 *
 * @param words       Observed schedule words w[first_word ..
 *                    first_word + words.size()), at most one
 *                    AES-256 schedule's 60.
 * @param first_word  Absolute index of words[0].
 * @param nk          Key length in words.
 * @param iterations  Maximum repair sweeps.
 * @return Bits flipped by the bit-level pass plus words replaced by
 *         the word-level pass.
 */
unsigned repairAesScheduleWords(std::span<uint32_t> words,
                                unsigned first_word, unsigned nk,
                                unsigned iterations);

/**
 * The whole schedule that best explains an observed run of schedule
 * words: every Nk-word window of @p observed seeds a schedule
 * (backward to word 0, forward to the end), and the first one at the
 * least Hamming distance from the observation wins. A window whose
 * last word continues the previous window's schedule seeds that same
 * schedule and is skipped (DESIGN.md §15). Exposed for tests.
 *
 * @param observed    Schedule words w[first_word .. first_word +
 *                    observed.size()), inside @p schedule's range.
 * @param first_word  Absolute index of observed[0].
 * @param nk          Key length in words.
 * @param schedule    Receives the winning schedule, all 4 (Nk + 7)
 *                    words; words 0 .. Nk - 1 are the master key.
 * @return The winner's distance in bits, ~0u when @p observed holds
 *         fewer than Nk words (and @p schedule is untouched).
 */
unsigned bestAesScheduleFromWindows(std::span<const uint32_t> observed,
                                    unsigned first_word, unsigned nk,
                                    std::span<uint32_t> schedule);

} // namespace coldboot::attack

#endif // COLDBOOT_ATTACK_AES_SEARCH_HH
