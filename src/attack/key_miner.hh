/**
 * @file
 * Scrambler-key mining from a scrambled memory dump (attack step 1).
 *
 * Zero-filled 64-byte blocks are common in real memory, and a zero
 * block stores the raw scrambler key in DRAM. The miner scans a dump
 * for blocks passing the scrambler-key litmus test, clusters them
 * with Hamming tolerance (bit decay means few copies are pristine),
 * majority-votes each cluster into a clean key, and ranks clusters by
 * occurrence count. Per the paper, mining less than 16 MB of dump is
 * enough to recover every key of a channel even on a loaded system.
 */

#ifndef COLDBOOT_ATTACK_KEY_MINER_HH
#define COLDBOOT_ATTACK_KEY_MINER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/secure.hh"
#include "exec/cancel.hh"
#include "exec/dump_io.hh"
#include "platform/memory_image.hh"

namespace coldboot::attack
{

/** One mined candidate scrambler key. */
struct MinedKey
{
    MinedKey() = default;
    MinedKey(const std::array<uint8_t, 64> &key_, size_t occurrences_,
             uint64_t first_offset_)
        : key(key_), occurrences(occurrences_),
          first_offset(first_offset_)
    {
    }
    MinedKey(const MinedKey &) = default;
    MinedKey(MinedKey &&) = default;
    MinedKey &operator=(const MinedKey &) = default;
    MinedKey &operator=(MinedKey &&) = default;

    /** Every copy of a mined key is scrubbed when it dies. */
    ~MinedKey() { secureWipe(key.data(), key.size()); }

    /** Majority-voted 64-byte key. */
    std::array<uint8_t, 64> key{};
    /** Number of dump blocks that contributed to this cluster. */
    size_t occurrences = 0;
    /** Dump offset of the first contributing block. */
    uint64_t first_offset = 0;
    /**
     * Line index (dump offset / 64) of every contributing block,
     * ascending. Mined keys carry them (from dumps under 256 GiB),
     * with occurrences == lines.size() and first_offset ==
     * 64 * lines.front(); a hand-built key may leave them empty.
     * KeyMap learns the address → key map from them.
     */
    std::vector<uint32_t> lines;
};

/** Key-miner tuning. */
struct MinerParams
{
    /**
     * Litmus tolerance in invariant mismatch bits. Each decayed bit
     * of a zero block perturbs about two invariant equations, so the
     * tolerance is sized for the few-percent decay of a cooled
     * transfer while staying far below the ~128-bit mismatch of
     * random data.
     */
    unsigned litmus_max_bit_errors = 32;
    /** Max Hamming distance to join an existing cluster. */
    unsigned cluster_distance = 80;
    /** Scan at most this many bytes of the dump (0 = all). */
    uint64_t scan_limit_bytes = 16ull << 20;
    /** Drop clusters with fewer occurrences than this. */
    size_t min_occurrences = 2;
    /** Filter trivially constant blocks before clustering. */
    bool drop_constant_blocks = true;
    /** The pool of every mining stage (the scan, the majorities and
     *  the near lists), as exec::StagePool reads it: 0 = the global
     *  pool, 1 = in-line, N > 1 = one pool of N workers for the call.
     *  The mined keys are byte-identical for every value (DESIGN.md
     *  §9). */
    unsigned threads = 0;
    /** Checked once per scan chunk; a raised token makes the call
     *  throw exec::CancelledError. */
    const exec::CancelToken *cancel = nullptr;
};

/** Mining statistics for reporting. */
struct MinerStats
{
    uint64_t blocks_scanned = 0;
    uint64_t litmus_hits = 0;
    uint64_t constant_dropped = 0;
    size_t clusters = 0;
    size_t keys_reported = 0;
};

/** The hit count from which the miner fits the address map before it
 *  clusters, and the cluster count from which its majority and
 *  near-list stages run on the pool; below it they run on the calling
 *  thread. */
inline constexpr size_t kMinerStageClusters = 512;

/** Dump bytes mineScramblerKeys() scans: the scan limit, line
 *  aligned. */
uint64_t minerScanBytes(const exec::DumpSource &dump,
                        const MinerParams &params);

/**
 * Mine candidate scrambler keys from a dump.
 *
 * The block scan is an exec::scanDump stage ("mine.scan") that
 * collects litmus hits in ascending dump order. From
 * kMinerStageClusters hits, the miner first fits a KeyMap to the hits
 * that exact-chunk buckets place together ("mine.fit"). The fold
 * ("mine.cluster") then clusters each hit only with its own address
 * class's clusters, and the merge ("mine.merge") compares majority
 * keys only within a class: O(hits) on a confident map. Fewer hits
 * or a declined map make every hit one class, so the fold and the
 * merge compare all pairs, O(hits × clusters). Classes change the
 * reported keys only when two classes hold clusters within
 * cluster_distance (DESIGN.md §15). The majorities and the near lists
 * run as pool stages whose results the merge walk consumes in order,
 * so the reported keys, their lines and the clustering counters are
 * byte-identical to a sequential run at any pool width (see DESIGN.md
 * §9 and §15).
 *
 * @param dump   Scrambled dump (any DumpSource backend).
 * @param params Tuning parameters.
 * @param stats  Optional statistics out-parameter.
 * @return Candidates sorted by descending occurrence count.
 */
std::vector<MinedKey> mineScramblerKeys(
    const exec::DumpSource &dump, const MinerParams &params = {},
    MinerStats *stats = nullptr);

/** Convenience overload over an in-memory image (zero-copy). */
std::vector<MinedKey> mineScramblerKeys(
    const platform::MemoryImage &dump, const MinerParams &params = {},
    MinerStats *stats = nullptr);

} // namespace coldboot::attack

#endif // COLDBOOT_ATTACK_KEY_MINER_HH
