#include "attack/key_miner.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/bits.hh"
#include "common/logging.hh"
#include "attack/litmus.hh"
#include "simd/simd.hh"
#include "exec/scan.hh"
#include "obs/stats.hh"

namespace coldboot::attack
{

namespace
{

/** Add one copy's bits to per-bit tallies, a byte at a time. */
template <typename Tally>
void
tallyBits(Tally *votes, std::span<const uint8_t> block)
{
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned b = 0; b < 8; ++b)
            votes[8 * i + b] += static_cast<Tally>((block[i] >> b) & 1);
}

/**
 * Per-bit majority of @p members copies whose 1-counts are
 * @p votes. An exact tie (possible with an even member count) falls
 * back to the first-seen copy's bit - an arbitrary tie-break would
 * be wrong half the time and a single wrong key bit systematically
 * corrupts every block descrambled with that key.
 */
template <typename Tally>
std::array<uint8_t, 64>
majorityBits(const Tally *votes, uint64_t members,
             const std::array<uint8_t, 64> &first_copy)
{
    std::array<uint8_t, 64> key{};
    for (unsigned i = 0; i < 64; ++i) {
        unsigned byte = 0;
        for (unsigned b = 0; b < 8; ++b) {
            uint64_t twice = 2 * static_cast<uint64_t>(votes[8 * i + b]);
            unsigned tie = (first_copy[i] >> b) & 1;
            unsigned one = static_cast<unsigned>(twice > members) |
                           (static_cast<unsigned>(twice == members) & tie);
            byte |= one << b;
        }
        key[i] = static_cast<uint8_t>(byte);
    }
    return key;
}

/**
 * A cluster of litmus-passing blocks believed to be decayed copies
 * of one scrambler key. Per-bit vote counts let the miner recover
 * the pristine key by majority even when every copy has flips. The
 * first member (the representative the distance scans compare
 * against) is kept apart, in one contiguous array for all clusters.
 */
struct Cluster
{
    /** Per-bit 1-counts while every count fits 16 bits. */
    std::array<uint16_t, 512> one_votes{};
    /** The counts once a 65,536th copy would wrap them (rare, so
     *  allocated on demand rather than widening every record). */
    std::unique_ptr<std::array<uint64_t, 512>> wide_votes;
    size_t members = 0;
    uint64_t first_offset = 0;

    void
    add(std::span<const uint8_t> block, uint64_t offset)
    {
        if (members == 0)
            first_offset = offset;
        if (members == UINT16_MAX) {
            wide_votes = std::make_unique<std::array<uint64_t, 512>>();
            std::copy(one_votes.begin(), one_votes.end(),
                      wide_votes->begin());
        }
        if (wide_votes)
            tallyBits(wide_votes->data(), block);
        else
            tallyBits(one_votes.data(), block);
        ++members;
    }

    std::array<uint8_t, 64>
    majority(const std::array<uint8_t, 64> &representative) const
    {
        return wide_votes ? majorityBits(wide_votes->data(), members,
                                         representative)
                          : majorityBits(one_votes.data(), members,
                                         representative);
    }

    void
    wipe()
    {
        secureWipe(one_votes.data(), sizeof(one_votes));
        if (wide_votes)
            secureWipe(wide_votes->data(), sizeof(*wide_votes));
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

/**
 * The first 192 bits of a growing list of 64-byte keys, held as six
 * little-endian 32-bit words in the structure-of-arrays tiles that
 * simd::syndromeScreen reads (DESIGN.md §15). A prefix distance never
 * exceeds the full distance, so the screen is an exact lower bound:
 * every key within the budget survives it, and confirming survivors
 * in index order finds the lowest index within the budget. On random
 * keys about 1 % of prefixes survive a budget of 80 bits.
 */
class PrefixScreen
{
  public:
    void
    push(std::span<const uint8_t> key)
    {
        if (count == tiles.size() * kTileKeys)
            tiles.emplace_back();
        uint32_t *lane =
            tiles[count / kTileKeys].data() + count % kTileKeys;
        for (unsigned w = 0; w < kWords; ++w)
            lane[w * kTileKeys] = loadLE32(&key[4 * w]);
        ++count;
    }

    /**
     * The lowest index >= @p from whose prefix is within @p budget
     * bits of @p key's and for which @p confirm (the full-distance
     * test) holds, or SIZE_MAX.
     */
    template <typename Confirm>
    size_t
    firstWithin(std::span<const uint8_t> key, size_t from,
                unsigned budget, Confirm &&confirm)
    {
        uint32_t prefix[kWords] = {};
        for (unsigned w = 0; w < kWords; ++w)
            prefix[w] = loadLE32(&key[4 * w]);
        size_t found = SIZE_MAX;
        while (found == SIZE_MAX && from < count) {
            size_t lane = from % kTileKeys;
            size_t n = std::min(kTileKeys - lane, count - from);
            // A 32-bit word never differs in more than 32 bits, so
            // only the total budget binds.
            size_t passed = simd::syndromeScreen(
                prefix, tiles[from / kTileKeys].data() + lane,
                kTileKeys, n, kWords, 32, budget, survivors.data());
            pairs_screened += n;
            for (size_t s = 0; s < passed && found == SIZE_MAX; ++s)
                if (confirm(from + survivors[s]))
                    found = from + survivors[s];
            from += n;
        }
        secureWipe(prefix, sizeof(prefix));
        return found;
    }

    /** Keys handed to the screen so far, over every call. */
    uint64_t screened() const { return pairs_screened; }

    /** Wipe every key; the tiles stay for the next pushes. */
    void
    clear()
    {
        for (auto &tile : tiles)
            secureWipe(tile.data(), sizeof(tile));
        count = 0;
    }

  private:
    static constexpr unsigned kWords = 6;
    /** 6 KiB per tile: a served 1 MiB capture (~30 clusters) needs
     *  one, and a 4,096-key dump 16 screen calls per proof. */
    static constexpr size_t kTileKeys = 256;

    /** A deque, so tiles are allocated one at a time, never moved. */
    std::deque<std::array<uint32_t, kWords * kTileKeys>> tiles;
    std::array<uint32_t, kTileKeys> survivors{};
    size_t count = 0;
    uint64_t pairs_screened = 0;
};

/** Litmus hits of one scan chunk, in ascending dump order. */
struct ChunkHits
{
    /** (offset, block copy) - copied because buffered chunk views
     *  are scratch memory invalidated by the next read. A deque:
     *  a doubling vector reaches ~0.6 MiB per chunk, and freeing
     *  such a block raises the allocator's mmap threshold, after
     *  which later transient blocks stay resident across runs. */
    std::deque<std::pair<uint64_t, std::array<uint8_t, 64>>> hits;
    uint64_t constant_dropped = 0;
};

/** One litmus hit's cluster and line, recorded in scan order so the
 *  mined keys' lines come out of one flat buffer in ascending order.
 *  A deque, for the same allocator reason as ChunkHits::hits. */
struct HitLine
{
    uint32_t cluster;
    uint32_t line;
};

/** Scan granularity: 16 Ki blocks per task. */
constexpr uint64_t kScanGrain = 1ull << 20;

} // anonymous namespace

uint64_t
minerScanBytes(const exec::DumpSource &dump, const MinerParams &params)
{
    uint64_t bytes = dump.size();
    if (params.scan_limit_bytes != 0)
        bytes = std::min<uint64_t>(bytes, params.scan_limit_bytes);
    return bytes & ~63ull;
}

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
    obs::Counter &c_bucket_joins = registry.counter(
        "attack.miner.bucket_joins",
        "litmus hits placed in a cluster by an exact-chunk bucket");
    obs::Counter &c_screened = registry.counter(
        "attack.miner.screened",
        "(block, representative) and (key, key) pairs handed to the "
        "prefix screen by the novelty proofs and the merge pass");
    obs::Counter &c_merges = registry.counter(
        "attack.miner.merges", "clusters merged into an earlier one");
    obs::ScopedTimer timer(registry.distribution(
        "attack.miner.seconds", "wall-clock seconds per mining run"));

    MinerStats local;

    // Cluster records live in a deque, which never reallocates: a
    // vector of 1,048-byte records doubles into a ~9 MiB block past
    // 4,096 clusters, and once that block is freed the allocator
    // keeps later transient blocks resident, so peak RSS drifts up
    // across runs. The representatives the distance scans walk stay
    // contiguous.
    std::deque<Cluster> clusters;
    std::vector<std::array<uint8_t, 64>> representatives;
    // The representatives' prefixes during the scan, then the
    // majority keys' for the merge pass, in the same tiles.
    PrefixScreen screen;
    // Multi-index bucket map: a block joins a cluster quickly when
    // any of its eight 8-byte chunks is flip-free and matches the
    // cluster's first member chunk. A miss takes the lowest-index
    // representative within distance, found through the prefix
    // screen, and near-duplicate clusters get merged at the end.
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    auto chunk_key = [](unsigned chunk_idx, uint64_t value) {
        return value * 8 + chunk_idx;
    };
    const unsigned distance = params.cluster_distance;
    uint64_t bucket_joins = 0;
    uint64_t merges = 0;
    // Line indices are 32-bit: a dump of 256 GiB or more mines keys
    // without lines, and its address map declines.
    std::deque<HitLine> hit_lines;
    const uint64_t scan_end = minerScanBytes(dump, params);
    const bool record_lines = scan_end / 64 <= uint64_t{UINT32_MAX} + 1;

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
                                    distance) <= distance) {
                    home = idx;
                    break;
                }
            }
        }
        if (home != SIZE_MAX)
            ++bucket_joins;
        else
            home = screen.firstWithin(
                block, 0, distance, [&](size_t idx) {
                    return boundedDistance(block, representatives[idx],
                                           distance) <= distance;
                });
        if (home == SIZE_MAX) {
            clusters.emplace_back();
            std::copy(block.begin(), block.end(),
                      representatives.emplace_back().begin());
            screen.push(block);
            home = clusters.size() - 1;
            for (unsigned c = 0; c < 8; ++c) {
                uint64_t v = loadLE64(&block[8 * c]);
                buckets[chunk_key(c, v)].push_back(home);
            }
        }
        clusters[home].add(block, off);
        if (record_lines)
            hit_lines.push_back({static_cast<uint32_t>(home),
                                 static_cast<uint32_t>(off / 64)});
    };

    exec::scanDump<ChunkHits>(
        dump,
        {.name = "mine.scan",
         .end = scan_end,
         .grain = kScanGrain,
         .threads = params.threads,
         .cancel = params.cancel},
        [&](std::span<const uint8_t> bytes, const exec::ChunkRange &c) {
            ChunkHits out;
            for (uint64_t off = 0; off + 64 <= bytes.size();
                 off += 64) {
                auto block = bytes.subspan(off, 64);
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
            local.blocks_scanned += (c.end - c.begin) / 64;
            local.constant_dropped += h.constant_dropped;
            local.litmus_hits += h.hits.size();
            for (auto &[off, block] : h.hits) {
                cluster_block(block, off);
                secureWipe(block.data(), block.size());
            }
        });

    // Merge clusters whose majority keys ended up close (decay can
    // split one key across clusters when early copies were noisy).
    std::vector<std::array<uint8_t, 64>> majorities(clusters.size());
    screen.clear();
    for (size_t i = 0; i < clusters.size(); ++i) {
        majorities[i] = clusters[i].majority(representatives[i]);
        screen.push(majorities[i]);
    }

    std::vector<MinedKey> out;
    std::vector<bool> merged(clusters.size(), false);
    // The reported key each cluster ended in (SIZE_MAX: dropped).
    std::vector<size_t> owner(clusters.size(), SIZE_MAX);
    std::vector<size_t> group;
    for (size_t i = 0; i < clusters.size(); ++i) {
        if (merged[i])
            continue;
        auto key_i = majorities[i];
        size_t occurrences = clusters[i].members;
        size_t biggest = clusters[i].members;
        uint64_t first = clusters[i].first_offset;
        group.assign(1, i);
        // The next unmerged cluster from @p from on within distance
        // of key_i. A merge may replace key_i, so every search
        // screens afresh with the current key.
        auto next = [&](size_t from) {
            return screen.firstWithin(
                key_i, from, distance, [&](size_t j) {
                    return !merged[j] &&
                           boundedDistance(key_i, majorities[j],
                                           distance) <= distance;
                });
        };
        for (size_t j = next(i + 1); j != SIZE_MAX; j = next(j + 1)) {
            occurrences += clusters[j].members;
            first = std::min(first, clusters[j].first_offset);
            merged[j] = true;
            group.push_back(j);
            ++merges;
            // Trust the majority vote of the largest constituent.
            if (clusters[j].members > biggest) {
                biggest = clusters[j].members;
                key_i = majorities[j];
            }
        }
        if (occurrences >= params.min_occurrences) {
            for (size_t c : group)
                owner[c] = out.size();
            out.push_back(MinedKey{key_i, occurrences, first});
            if (record_lines)
                out.back().lines.reserve(occurrences);
        }
        secureWipe(key_i.data(), key_i.size());
    }
    // Split the scan-order hits once: each key's lines come out
    // ascending, merged clusters' included.
    for (const HitLine &h : hit_lines)
        if (owner[h.cluster] != SIZE_MAX)
            out[owner[h.cluster]].lines.push_back(h.line);

    std::sort(out.begin(), out.end(),
              [](const MinedKey &a, const MinedKey &b) {
                  return a.occurrences > b.occurrences;
              });

    // Scrub the intermediate key copies (cluster representatives,
    // per-bit vote tallies, majority keys and their screen tiles)
    // before they are freed - the reported MinedKeys scrub themselves
    // on destruction.
    for (auto &c : clusters)
        c.wipe();
    for (auto &r : representatives)
        secureWipe(r.data(), r.size());
    for (auto &m : majorities)
        secureWipe(m.data(), m.size());
    screen.clear();

    local.clusters = clusters.size();
    local.keys_reported = out.size();

    c_hits.add(local.litmus_hits);
    c_constant.add(local.constant_dropped);
    c_clusters.add(local.clusters);
    c_keys.add(local.keys_reported);
    c_bucket_joins.add(bucket_joins);
    c_screened.add(screen.screened());
    c_merges.add(merges);
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
