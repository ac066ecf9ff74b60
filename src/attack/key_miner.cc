#include "attack/key_miner.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/bits.hh"
#include "common/logging.hh"
#include "attack/litmus.hh"
#include "simd/simd.hh"
#include "exec/thread_pool.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::attack
{

namespace
{

/**
 * A cluster of litmus-passing blocks believed to be decayed copies
 * of one scrambler key. Per-bit vote counts let the miner recover
 * the pristine key by majority even when every copy has flips. The
 * first member (the representative the distance scans compare
 * against) is kept apart, in one contiguous array for all clusters.
 */
struct Cluster
{
    std::array<uint16_t, 512> one_votes{};
    size_t members = 0;
    uint64_t first_offset = 0;

    void
    add(std::span<const uint8_t> block, uint64_t offset)
    {
        if (members == 0)
            first_offset = offset;
        for (unsigned bit = 0; bit < 512; ++bit)
            one_votes[bit] += (block[bit / 8] >> (bit % 8)) & 1;
        ++members;
    }

    std::array<uint8_t, 64>
    majority(const std::array<uint8_t, 64> &representative) const
    {
        // Per-bit majority vote; an exact tie (possible with an even
        // member count) falls back to the first-seen copy's bit -
        // an arbitrary tie-break would be wrong half the time and a
        // single wrong key bit systematically corrupts every block
        // descrambled with that key.
        std::array<uint8_t, 64> key{};
        for (unsigned bit = 0; bit < 512; ++bit) {
            unsigned ones = 2 * one_votes[bit];
            bool value;
            if (ones > members)
                value = true;
            else if (ones < members)
                value = false;
            else
                value = (representative[bit / 8] >> (bit % 8)) & 1;
            if (value)
                key[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
        }
        return key;
    }
};

/**
 * Hamming distance with early exit once @p limit is exceeded
 * (returns exactly min(distance, limit + 1) on every backend).
 * The previous hand-rolled loop silently ignored non-multiple-of-8
 * tails; the kernel counts every byte.
 */
unsigned
boundedDistance(std::span<const uint8_t> a, std::span<const uint8_t> b,
                unsigned limit)
{
    return static_cast<unsigned>(
        simd::hammingDistanceBounded(a.data(), b.data(), a.size(),
                                     limit));
}

/** Litmus hits of one scan chunk, in ascending dump order. */
struct ChunkHits
{
    /** (offset, block copy) - copied because buffered chunk views
     *  are scratch memory invalidated by the next read. A deque:
     *  a doubling vector reaches ~0.6 MiB per chunk, and freeing
     *  such a block raises the allocator's mmap threshold, after
     *  which later transient blocks stay resident across runs. */
    std::deque<std::pair<uint64_t, std::array<uint8_t, 64>>> hits;
    uint64_t blocks_scanned = 0;
    uint64_t constant_dropped = 0;
};

/** Scan granularity: 16 Ki blocks per task. */
constexpr uint64_t kScanGrain = 1ull << 20;

} // anonymous namespace

std::vector<MinedKey>
mineScramblerKeys(const exec::DumpSource &dump,
                  const MinerParams &params, MinerStats *stats)
{
    // The registry is the system of record; the MinerStats
    // out-parameter is filled as a view of this call's deltas.
    auto &registry = obs::StatRegistry::global();
    obs::Counter &c_blocks = registry.counter(
        "attack.miner.blocks_scanned",
        "64-byte blocks examined by the scrambler-key miner");
    obs::Counter &c_hits = registry.counter(
        "attack.miner.litmus_hits",
        "blocks passing the scrambler-key litmus test");
    obs::Counter &c_constant = registry.counter(
        "attack.miner.constant_dropped",
        "trivially constant blocks dropped before clustering");
    obs::Counter &c_clusters = registry.counter(
        "attack.miner.clusters", "key clusters formed");
    obs::Counter &c_keys = registry.counter(
        "attack.miner.keys_reported", "candidate keys reported");
    obs::ScopedTimer timer(registry.distribution(
        "attack.miner.seconds", "wall-clock seconds per mining run"));

    MinerStats local;
    uint64_t scan_bytes = dump.size();
    if (params.scan_limit_bytes != 0)
        scan_bytes = std::min<uint64_t>(scan_bytes,
                                        params.scan_limit_bytes);

    // Cluster records live in a deque, which never reallocates: a
    // vector of 1,104-byte records doubles into a ~9 MiB block past
    // 4,096 clusters, and once that block is freed the allocator
    // keeps later transient blocks resident, so peak RSS drifts up
    // across runs. The representatives the distance scans walk stay
    // contiguous.
    std::deque<Cluster> clusters;
    std::vector<std::array<uint8_t, 64>> representatives;
    // Multi-index bucket map: a block joins a cluster quickly when
    // any of its eight 8-byte chunks is flip-free and matches the
    // cluster's first member chunk. Misses fall back to a linear
    // scan, and near-duplicate clusters get merged at the end.
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    auto chunk_key = [](unsigned chunk_idx, uint64_t value) {
        return value * 8 + chunk_idx;
    };

    // Clustering is order-sensitive (a block joins the first cluster
    // within distance), so the parallel scan only collects litmus
    // hits per chunk; the reduction below feeds them to the
    // clustering in ascending dump order - byte-identical to the old
    // sequential scan for any worker count.
    auto cluster_block = [&](std::span<const uint8_t> block,
                             uint64_t off) {
        size_t home = SIZE_MAX;
        for (unsigned c = 0; c < 8 && home == SIZE_MAX; ++c) {
            uint64_t v = loadLE64(&block[8 * c]);
            auto it = buckets.find(chunk_key(c, v));
            if (it == buckets.end())
                continue;
            for (size_t idx : it->second) {
                if (boundedDistance(block, representatives[idx],
                                    params.cluster_distance) <=
                    params.cluster_distance) {
                    home = idx;
                    break;
                }
            }
        }
        if (home == SIZE_MAX) {
            // Fall back to a bounded linear scan.
            for (size_t idx = 0; idx < representatives.size(); ++idx) {
                if (boundedDistance(block, representatives[idx],
                                    params.cluster_distance) <=
                    params.cluster_distance) {
                    home = idx;
                    break;
                }
            }
        }
        if (home == SIZE_MAX) {
            clusters.emplace_back();
            std::copy(block.begin(), block.end(),
                      representatives.emplace_back().begin());
            home = clusters.size() - 1;
            for (unsigned c = 0; c < 8; ++c) {
                uint64_t v = loadLE64(&block[8 * c]);
                buckets[chunk_key(c, v)].push_back(home);
            }
        }
        clusters[home].add(block, off);
    };

    scan_bytes &= ~63ull;
    // params.threads: 0 = the shared global pool, 1 = serial
    // in-line, N > 1 = a dedicated pool of N workers.
    std::unique_ptr<exec::ThreadPool> own_pool;
    if (params.threads > 1)
        own_pool = std::make_unique<exec::ThreadPool>(params.threads);
    bool sequential = params.threads == 1;
    // Progress advances in the ordered reduction (the caller
    // thread), so reporting never touches the parallel map path.
    auto progress = obs::ProgressTracker::global().startJob(
        "attack.miner", scan_bytes);
    exec::parallelMapReduceChunks<ChunkHits>(
        0, scan_bytes, kScanGrain,
        [&](const exec::ChunkRange &c) {
            exec::checkpointIfCancellable(params.cancel);
            thread_local exec::ChunkBuffer buf;
            dump.prefetch(c.begin, c.end - c.begin);
            auto bytes = dump.chunk(c.begin, c.end - c.begin, buf);
            ChunkHits out;
            for (uint64_t off = 0; off + 64 <= bytes.size();
                 off += 64) {
                auto block = bytes.subspan(off, 64);
                ++out.blocks_scanned;
                if (!scramblerKeyLitmus(block,
                                        params.litmus_max_bit_errors))
                    continue;
                if (params.drop_constant_blocks &&
                    isConstantBlock(block)) {
                    ++out.constant_dropped;
                    continue;
                }
                auto &hit = out.hits.emplace_back();
                hit.first = c.begin + off;
                std::copy(block.begin(), block.end(),
                          hit.second.begin());
            }
            return out;
        },
        [&](ChunkHits &&h, const exec::ChunkRange &c) {
            local.blocks_scanned += h.blocks_scanned;
            local.constant_dropped += h.constant_dropped;
            local.litmus_hits += h.hits.size();
            for (auto &[off, block] : h.hits) {
                cluster_block(block, off);
                secureWipe(block.data(), block.size());
            }
            progress->advance(c.end - c.begin);
        },
        own_pool.get(), sequential);
    progress->finish();

    // Merge clusters whose majority keys ended up close (decay can
    // split one key across clusters when early copies were noisy).
    std::vector<std::array<uint8_t, 64>> majorities(clusters.size());
    for (size_t i = 0; i < clusters.size(); ++i)
        majorities[i] = clusters[i].majority(representatives[i]);

    std::vector<MinedKey> out;
    std::vector<bool> merged(clusters.size(), false);
    for (size_t i = 0; i < clusters.size(); ++i) {
        if (merged[i])
            continue;
        auto key_i = majorities[i];
        size_t occurrences = clusters[i].members;
        size_t biggest = clusters[i].members;
        uint64_t first = clusters[i].first_offset;
        for (size_t j = i + 1; j < clusters.size(); ++j) {
            if (merged[j])
                continue;
            const auto &key_j = majorities[j];
            if (boundedDistance(key_i, key_j,
                                params.cluster_distance) <=
                params.cluster_distance) {
                occurrences += clusters[j].members;
                first = std::min(first, clusters[j].first_offset);
                merged[j] = true;
                // Trust the majority vote of the largest constituent.
                if (clusters[j].members > biggest) {
                    biggest = clusters[j].members;
                    key_i = key_j;
                }
            }
        }
        if (occurrences >= params.min_occurrences)
            out.push_back(MinedKey{key_i, occurrences, first});
    }

    std::sort(out.begin(), out.end(),
              [](const MinedKey &a, const MinedKey &b) {
                  return a.occurrences > b.occurrences;
              });

    // Scrub the intermediate key copies (cluster representatives,
    // per-bit vote tallies, majority keys) before they are freed -
    // the reported MinedKeys scrub themselves on destruction.
    for (auto &c : clusters)
        secureWipe(c.one_votes.data(), sizeof(c.one_votes));
    for (auto &r : representatives)
        secureWipe(r.data(), r.size());
    for (auto &m : majorities)
        secureWipe(m.data(), m.size());

    local.clusters = clusters.size();
    local.keys_reported = out.size();

    c_hits.add(local.litmus_hits);
    c_constant.add(local.constant_dropped);
    c_clusters.add(local.clusters);
    c_keys.add(local.keys_reported);
    // Deliberately NOT re-derived from the registry counter: reading
    // value() - before here absorbs concurrent runs' increments, so a
    // run overlapping another would report their blocks as its own
    // (found by the miner-planted-keys fuzz oracle).
    c_blocks.add(local.blocks_scanned);
    if (stats)
        *stats = local;
    return out;
}

std::vector<MinedKey>
mineScramblerKeys(const platform::MemoryImage &dump,
                  const MinerParams &params, MinerStats *stats)
{
    exec::MemoryDumpSource source(dump.bytes());
    return mineScramblerKeys(source, params, stats);
}

} // namespace coldboot::attack
