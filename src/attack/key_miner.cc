#include "attack/key_miner.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>

#include "common/bits.hh"
#include "attack/litmus.hh"
#include "simd/simd.hh"
#include "exec/scan.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::attack
{

namespace
{

/**
 * The tally lanes of every byte value: entry v holds bit b of v in
 * 16-bit lane b, laid out as one byte's eight tallies are, so two
 * 64-bit adds count all eight bits. A lane adds 0 or 1 and a 16-bit
 * tally never passes 65,535 (majorityOf), so no carry crosses into
 * the next lane.
 */
constexpr auto kTallyLanes = [] {
    std::array<std::array<uint64_t, 2>, 256> lanes{};
    for (unsigned v = 0; v < 256; ++v) {
        std::array<uint16_t, 8> bits{};
        for (unsigned b = 0; b < 8; ++b)
            bits[b] = static_cast<uint16_t>((v >> b) & 1);
        lanes[v] = std::bit_cast<std::array<uint64_t, 2>>(bits);
    }
    return lanes;
}();

/** Add one copy's bits to 16-bit per-bit tallies, a byte at a time. */
void
tallyBits(uint16_t *votes, std::span<const uint8_t> block)
{
    for (unsigned i = 0; i < 64; ++i) {
        uint64_t words[2];
        std::memcpy(words, votes + 8 * i, sizeof(words));
        words[0] += kTallyLanes[block[i]][0];
        words[1] += kTallyLanes[block[i]][1];
        std::memcpy(votes + 8 * i, words, sizeof(words));
    }
}

/** Add one copy's bits to 64-bit per-bit tallies. */
void
tallyBits(uint64_t *votes, std::span<const uint8_t> block)
{
    for (unsigned i = 0; i < 64; ++i)
        for (unsigned b = 0; b < 8; ++b)
            votes[8 * i + b] += (block[i] >> b) & 1;
}

/**
 * The per-bit majority of one cluster's @p count copies, @p copyAt(k)
 * the k-th in dump order. An exact tie (possible with an even count)
 * falls back to the first copy's bit - an arbitrary tie-break would
 * be wrong half the time and a single wrong key bit systematically
 * corrupts every block descrambled with that key. Tally is 16 bits
 * while @p count fits, so no count wraps; the tallies are wiped after.
 */
template <typename Tally, typename CopyAt>
std::array<uint8_t, 64>
majorityOf(size_t count, CopyAt &&copyAt)
{
    std::array<Tally, 512> votes{};
    for (size_t k = 0; k < count; ++k)
        tallyBits(votes.data(), copyAt(k));
    std::span<const uint8_t> first = copyAt(0);
    std::array<uint8_t, 64> key{};
    for (unsigned i = 0; i < 64; ++i) {
        unsigned byte = 0;
        for (unsigned b = 0; b < 8; ++b) {
            uint64_t twice = 2 * static_cast<uint64_t>(votes[8 * i + b]);
            unsigned tie = (first[i] >> b) & 1;
            unsigned one = static_cast<unsigned>(twice > count) |
                           (static_cast<unsigned>(twice == count) & tie);
            byte |= one << b;
        }
        key[i] = static_cast<uint8_t>(byte);
    }
    secureWipe(votes.data(), sizeof(votes));
    return key;
}

/**
 * A cluster of litmus-passing blocks believed to be decayed copies
 * of one scrambler key. Its first copy is the representative the
 * proofs and buckets compare against; the copies' per-bit majority,
 * taken after the fold, recovers the pristine key even when every
 * copy has flips.
 */
struct Cluster
{
    std::array<uint8_t, 64> representative{};
    uint64_t first_offset = 0;
    size_t members = 0;
};

/**
 * Hamming distance with early exit once @p limit is exceeded
 * (returns exactly min(distance, limit + 1) on every backend).
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
    /** 6 KiB per tile: a served 1 MiB capture (~30 clusters) needs
     *  one, and a 4,096-key dump 16 screen calls per proof. */
    static constexpr size_t kTileKeys = 256;
    /** One walk's survivors of one tile; every walker owns one. */
    using Survivors = std::array<uint32_t, kTileKeys>;

    PrefixScreen() = default;
    PrefixScreen(const PrefixScreen &) = delete;
    PrefixScreen &operator=(const PrefixScreen &) = delete;
    ~PrefixScreen()
    {
        for (auto &tile : tiles)
            secureWipe(tile.data(), sizeof(tile));
    }

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
     * Screen the keys [@p from, @p end) against @p key with a total
     * budget of @p budget bits and hand the survivors' indices, in
     * ascending order, to @p visit until it returns true. Returns
     * that index, or SIZE_MAX. Const: walks run concurrently, each
     * with its own @p survivors.
     */
    template <typename Visit>
    size_t
    walk(std::span<const uint8_t> key, size_t from, size_t end,
         unsigned budget, Survivors &survivors, Visit &&visit) const
    {
        uint32_t prefix[kWords] = {};
        for (unsigned w = 0; w < kWords; ++w)
            prefix[w] = loadLE32(&key[4 * w]);
        size_t found = SIZE_MAX;
        while (found == SIZE_MAX && from < end) {
            size_t lane = from % kTileKeys;
            size_t n = std::min(kTileKeys - lane, end - from);
            // A 32-bit word never differs in more than 32 bits, so
            // only the total budget binds.
            size_t passed = simd::syndromeScreen(
                prefix, tiles[from / kTileKeys].data() + lane,
                kTileKeys, n, kWords, 32, budget, survivors.data());
            for (size_t s = 0; s < passed && found == SIZE_MAX; ++s)
                if (visit(from + survivors[s]))
                    found = from + survivors[s];
            from += n;
        }
        secureWipe(prefix, sizeof(prefix));
        return found;
    }

  private:
    static constexpr unsigned kWords = 6;

    /** A deque, so tiles are allocated one at a time, never moved. */
    std::deque<std::array<uint32_t, kWords * kTileKeys>> tiles;
    size_t count = 0;
};

/**
 * The pairs attack.miner.screened counts for one walk from @p from to
 * @p end that stops at @p found (SIZE_MAX: runs to the end): whole
 * tiles up to the one holding @p found, as a single walk in index
 * order hands them to the kernel. Counting that walk, not the
 * stages' split of it, keeps the counter the same at every width.
 */
uint64_t
walkedPairs(size_t from, size_t found, size_t end)
{
    constexpr size_t tile = PrefixScreen::kTileKeys;
    size_t stop =
        found == SIZE_MAX ? end : std::min(end, (found / tile + 1) * tile);
    return stop - from;
}

/**
 * The exact-chunk buckets: one open-addressed slot per (chunk key,
 * cluster), linearly probed and never deleted, so the clusters that
 * share a chunk key come back in the order they were inserted. A
 * chunk key holds 61 bits of a raw scrambler key's 64-bit slice, so
 * every slot array is wiped before it is freed.
 */
class BucketTable
{
  public:
    BucketTable() { reset(1024); }
    BucketTable(const BucketTable &) = delete;
    BucketTable &operator=(const BucketTable &) = delete;
    ~BucketTable() { wipe(); }

    /** Whether @p more inserts would fill past three quarters. */
    bool
    full(size_t more) const
    {
        return 4 * (used + more) > 3 * slots.size();
    }

    size_t capacity() const { return slots.size(); }

    /** Wipe every slot and start over with @p size slots (a power
     *  of two). */
    void
    reset(size_t size)
    {
        wipe();
        std::vector<Slot>(size).swap(slots);
        used = 0;
        shift = 64 - static_cast<unsigned>(std::countr_zero(size));
    }

    void
    insert(uint64_t key, uint32_t cluster)
    {
        size_t i = home(key);
        while (slots[i].cluster != kEmpty)
            i = (i + 1) & (slots.size() - 1);
        slots[i] = {key, cluster};
        ++used;
    }

    /** The first cluster under @p key, in insertion order, for which
     *  @p accept holds, or SIZE_MAX. */
    template <typename Accept>
    size_t
    first(uint64_t key, Accept &&accept) const
    {
        for (size_t i = home(key); slots[i].cluster != kEmpty;
             i = (i + 1) & (slots.size() - 1))
            if (slots[i].key == key && accept(slots[i].cluster))
                return slots[i].cluster;
        return SIZE_MAX;
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot
    {
        uint64_t key = 0;
        uint32_t cluster = kEmpty;
    };

    size_t
    home(uint64_t key) const
    {
        return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    void
    wipe()
    {
        secureWipe(slots.data(), slots.size() * sizeof(Slot));
    }

    std::vector<Slot> slots;
    size_t used = 0;
    unsigned shift = 0;
};

/**
 * The clusters of one mining call in creation order, with their
 * representatives' prefixes in a screen and their eight 8-byte chunks
 * in the bucket table. The lookups are const, so pool workers may run
 * them while the fold is not writing; everything is wiped when the
 * set dies, whichever way the call ends.
 */
class ClusterSet
{
  public:
    explicit ClusterSet(unsigned distance_) : distance(distance_) {}
    ClusterSet(const ClusterSet &) = delete;
    ClusterSet &operator=(const ClusterSet &) = delete;
    ~ClusterSet()
    {
        for (auto &c : clusters)
            secureWipe(c.representative.data(), c.representative.size());
    }

    size_t size() const { return clusters.size(); }
    const Cluster &operator[](size_t i) const { return clusters[i]; }

    /**
     * The cluster an exact-chunk bucket places @p block in: for
     * chunks 0-7 in order, the clusters whose representative shares
     * the chunk in creation order, the first within distance.
     * SIZE_MAX when none is.
     */
    size_t
    bucketHome(std::span<const uint8_t> block) const
    {
        for (unsigned c = 0; c < 8; ++c) {
            size_t home = buckets.first(
                chunkKey(block, c), [&](size_t idx) {
                    return within(block, clusters[idx].representative);
                });
            if (home != SIZE_MAX)
                return home;
        }
        return SIZE_MAX;
    }

    /** The lowest index in [@p from, @p end) whose representative
     *  is within distance of @p block, or SIZE_MAX. */
    size_t
    screenHome(std::span<const uint8_t> block, size_t from, size_t end,
               PrefixScreen::Survivors &survivors) const
    {
        return screen.walk(block, from, end, distance, survivors,
                           [&](size_t idx) {
                               return within(
                                   block, clusters[idx].representative);
                           });
    }

    /** A new cluster with @p block, at dump offset @p offset, as its
     *  representative. */
    size_t
    create(std::span<const uint8_t> block, uint64_t offset)
    {
        const size_t idx = clusters.size();
        Cluster &c = clusters.emplace_back();
        std::copy(block.begin(), block.end(), c.representative.begin());
        c.first_offset = offset;
        screen.push(block);
        if (buckets.full(8)) {
            // Re-insert in creation order, so each chunk key's
            // clusters keep their order.
            buckets.reset(2 * buckets.capacity());
            for (size_t i = 0; i < idx; ++i)
                insertChunks(i);
        }
        insertChunks(idx);
        return idx;
    }

    void join(size_t idx) { ++clusters[idx].members; }

    bool
    within(std::span<const uint8_t> a, std::span<const uint8_t> b) const
    {
        return boundedDistance(a, b, distance) <= distance;
    }

  private:
    static uint64_t
    chunkKey(std::span<const uint8_t> block, unsigned c)
    {
        return loadLE64(&block[8 * c]) * 8 + c;
    }

    void
    insertChunks(size_t idx)
    {
        for (unsigned c = 0; c < 8; ++c)
            buckets.insert(chunkKey(clusters[idx].representative, c),
                           static_cast<uint32_t>(idx));
    }

    const unsigned distance;
    /** A deque, so a representative never moves: a growing vector
     *  would free its old copies unwiped. */
    std::deque<Cluster> clusters;
    PrefixScreen screen;
    BucketTable buckets;
};

/** One litmus hit: its dump offset and a copy of its block, wiped
 *  when the copy dies. */
struct Hit
{
    Hit() = default;
    Hit(const Hit &) = default;
    Hit &operator=(const Hit &) = default;
    ~Hit() { secureWipe(block.data(), block.size()); }

    uint64_t offset = 0;
    std::array<uint8_t, 64> block{};
};

/** Litmus hits of one scan chunk, in ascending dump order. */
struct ChunkHits
{
    /** Copies, because buffered chunk views are scratch memory
     *  invalidated by the next read. A deque: a doubling vector
     *  reaches ~0.6 MiB per chunk, and freeing such a block raises
     *  the allocator's mmap threshold, after which later transient
     *  blocks stay resident across runs. */
    std::deque<Hit> hits;
    uint64_t constant_dropped = 0;
};

/** Scan granularity: 16 Ki blocks per task. */
constexpr uint64_t kScanGrain = 1ull << 20;
/** Hits per proof-stage task. */
constexpr size_t kProofTask = 16;
/** Clusters per majority or merge-screen task. */
constexpr size_t kMergeRows = 32;

/** Tallies of the clustering work, as the attack.miner counters. */
struct ClusterWork
{
    uint64_t bucket_joins = 0;
    uint64_t screened = 0;
    uint64_t merges = 0;
};

/**
 * Fold @p hits, in dump order, into @p clusters: a hit joins the
 * first cluster an exact-chunk bucket places it in, else the
 * lowest-index cluster whose representative is within distance (the
 * novelty proof), else starts a cluster. Returns each hit's cluster.
 *
 * The hits go in batches of kMinerProofBatch. Before a batch that
 * starts with C0 >= kMinerStageClusters clusters, one stage proves
 * each hit that no bucket places against those C0; the fold then
 * screens only the clusters made since. Exact because buckets and
 * representatives only grow (DESIGN.md §15).
 */
std::vector<uint32_t>
clusterHits(const std::deque<Hit> &hits, ClusterSet &clusters,
            exec::StagePool &pool, ClusterWork &work)
{
    obs::ScopedSpan span("mine.cluster");
    std::vector<uint32_t> home_of(hits.size());
    std::vector<size_t> proofs(kMinerProofBatch);
    PrefixScreen::Survivors survivors;
    for (size_t b0 = 0; b0 < hits.size(); b0 += kMinerProofBatch) {
        const size_t b1 = std::min(hits.size(), b0 + kMinerProofBatch);
        const size_t c0 = clusters.size();
        const bool proven = c0 >= kMinerStageClusters;
        if (proven)
            exec::parallelForChunks(
                pool, b0, b1, kProofTask, [&](const exec::ChunkRange &r) {
                    PrefixScreen::Survivors task_survivors;
                    for (uint64_t h = r.begin; h < r.end; ++h) {
                        std::span<const uint8_t> block = hits[h].block;
                        proofs[h - b0] =
                            clusters.bucketHome(block) != SIZE_MAX
                                ? SIZE_MAX
                                : clusters.screenHome(block, 0, c0,
                                                      task_survivors);
                    }
                });
        for (size_t h = b0; h < b1; ++h) {
            const Hit &hit = hits[h];
            size_t home = clusters.bucketHome(hit.block);
            if (home != SIZE_MAX) {
                ++work.bucket_joins;
            } else {
                // A bucket miss now was a miss at batch start, so its
                // proof was made; an index below c0 beats every
                // later one.
                if (proven)
                    home = proofs[h - b0];
                if (home == SIZE_MAX)
                    home = clusters.screenHome(hit.block,
                                               proven ? c0 : 0,
                                               clusters.size(), survivors);
                work.screened += walkedPairs(0, home, clusters.size());
            }
            if (home == SIZE_MAX)
                home = clusters.create(hit.block, hit.offset);
            clusters.join(home);
            home_of[h] = static_cast<uint32_t>(home);
        }
    }
    return home_of;
}

/**
 * Each cluster's majority key, from its copies in dump order: the
 * hits sorted by cluster (a counting sort), then one stage.
 */
std::vector<std::array<uint8_t, 64>>
majorityKeys(const std::deque<Hit> &hits,
             const std::vector<uint32_t> &home_of,
             const ClusterSet &clusters, exec::StagePool &pool)
{
    const size_t n = clusters.size();
    std::vector<size_t> copies_from(n + 1, 0);
    for (uint32_t c : home_of)
        ++copies_from[c + 1];
    for (size_t c = 0; c < n; ++c)
        copies_from[c + 1] += copies_from[c];
    std::vector<size_t> copies(hits.size());
    {
        std::vector<size_t> cursor(copies_from.begin(),
                                   copies_from.end() - 1);
        for (size_t h = 0; h < hits.size(); ++h)
            copies[cursor[home_of[h]]++] = h;
    }
    std::vector<std::array<uint8_t, 64>> majorities(n);
    exec::parallelForChunks(
        pool, 0, n, kMergeRows, [&](const exec::ChunkRange &r) {
            for (uint64_t c = r.begin; c < r.end; ++c) {
                const size_t *mine = copies.data() + copies_from[c];
                auto copyAt = [&](size_t k) -> std::span<const uint8_t> {
                    return hits[mine[k]].block;
                };
                const size_t count = clusters[c].members;
                majorities[c] = count <= UINT16_MAX
                                    ? majorityOf<uint16_t>(count, copyAt)
                                    : majorityOf<uint64_t>(count, copyAt);
            }
        });
    return majorities;
}

/**
 * For each cluster i, the clusters j > i whose majority key is within
 * @p distance of i's, ascending: one stage, the prefix screen from
 * i + 1, then the full distance.
 */
std::vector<std::vector<uint32_t>>
nearLaterClusters(const std::vector<std::array<uint8_t, 64>> &majorities,
                  const ClusterSet &clusters, unsigned distance,
                  exec::StagePool &pool)
{
    const size_t n = majorities.size();
    PrefixScreen screen;
    for (const auto &m : majorities)
        screen.push(m);
    std::vector<std::vector<uint32_t>> near(n);
    exec::parallelForChunks(
        pool, 0, n, kMergeRows, [&](const exec::ChunkRange &r) {
            PrefixScreen::Survivors task_survivors;
            for (uint64_t i = r.begin; i < r.end; ++i)
                screen.walk(majorities[i], i + 1, n, distance,
                            task_survivors, [&](size_t j) {
                                if (clusters.within(majorities[i],
                                                    majorities[j]))
                                    near[i].push_back(
                                        static_cast<uint32_t>(j));
                                return false;
                            });
        });
    return near;
}

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
    ClusterWork work;
    // The scan and every stage run on this one pool.
    exec::StagePool pool(params.threads);
    const uint64_t scan_end = minerScanBytes(dump, params);
    const bool record_lines = scan_end / 64 <= uint64_t{UINT32_MAX} + 1;

    // Clustering is order-sensitive (a block joins the first cluster
    // within distance), so the parallel scan only collects litmus
    // hits, and its reduce keeps them in ascending dump order. A
    // deque, for the same allocator reason as ChunkHits::hits.
    std::deque<Hit> hits;
    exec::scanDump<ChunkHits>(
        dump,
        {.name = "mine.scan",
         .end = scan_end,
         .grain = kScanGrain,
         .pool = &pool,
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
                Hit &hit = out.hits.emplace_back();
                hit.offset = c.begin + off;
                std::copy(block.begin(), block.end(), hit.block.begin());
            }
            return out;
        },
        [&](ChunkHits &&h, const exec::ChunkRange &c) {
            local.blocks_scanned += (c.end - c.begin) / 64;
            local.constant_dropped += h.constant_dropped;
            local.litmus_hits += h.hits.size();
            hits.insert(hits.end(), h.hits.begin(), h.hits.end());
        });

    ClusterSet clusters(params.cluster_distance);
    const std::vector<uint32_t> home_of =
        clusterHits(hits, clusters, pool, work);

    // Merge clusters whose majority keys ended up close (decay can
    // split one key across clusters when early copies were noisy):
    // the walk replays the all-pairs merge loop on the near lists.
    obs::ScopedSpan merge_span("mine.merge");
    const size_t n = clusters.size();
    exec::StagePool serial(1);
    exec::StagePool &merge_pool = n >= kMinerStageClusters ? pool : serial;
    auto majorities = majorityKeys(hits, home_of, clusters, merge_pool);
    const auto near = nearLaterClusters(majorities, clusters,
                                        params.cluster_distance,
                                        merge_pool);

    std::vector<MinedKey> out;
    std::vector<bool> merged(n, false);
    // The reported key each cluster ended in (SIZE_MAX: dropped).
    std::vector<size_t> owner(n, SIZE_MAX);
    std::vector<size_t> group;
    for (size_t i = 0; i < n; ++i) {
        if (merged[i])
            continue;
        // The cluster whose majority is the running key: i, until a
        // larger constituent's majority replaces it.
        size_t leader = i;
        size_t occurrences = clusters[i].members;
        uint64_t first = clusters[i].first_offset;
        group.assign(1, i);
        // The next unmerged cluster from @p from on within distance
        // of the running key. Every candidate is in the leader's
        // list, since the leader lies below @p from.
        auto next = [&](size_t from) {
            const auto &list = near[leader];
            auto it = std::lower_bound(list.begin(), list.end(), from);
            while (it != list.end() && merged[*it])
                ++it;
            size_t j = it == list.end() ? SIZE_MAX : *it;
            work.screened += walkedPairs(from, j, n);
            return j;
        };
        for (size_t j = next(i + 1); j != SIZE_MAX; j = next(j + 1)) {
            occurrences += clusters[j].members;
            first = std::min(first, clusters[j].first_offset);
            merged[j] = true;
            group.push_back(j);
            ++work.merges;
            // Trust the majority vote of the largest constituent.
            if (clusters[j].members > clusters[leader].members)
                leader = j;
        }
        if (occurrences >= params.min_occurrences) {
            for (size_t c : group)
                owner[c] = out.size();
            out.push_back(MinedKey{majorities[leader], occurrences, first});
            if (record_lines)
                out.back().lines.reserve(occurrences);
        }
    }
    // Split the scan-order hits once: each key's lines come out
    // ascending, merged clusters' included. Line indices are 32-bit:
    // a dump of 256 GiB or more mines keys without lines, and its
    // address map declines.
    if (record_lines)
        for (size_t h = 0; h < hits.size(); ++h)
            if (owner[home_of[h]] != SIZE_MAX)
                out[owner[home_of[h]]].lines.push_back(
                    static_cast<uint32_t>(hits[h].offset / 64));

    std::sort(out.begin(), out.end(),
              [](const MinedKey &a, const MinedKey &b) {
                  return a.occurrences > b.occurrences;
              });

    // Scrub the majority keys before they are freed; the hits,
    // clusters, screens and bucket table scrub themselves, and the
    // reported MinedKeys on destruction.
    for (auto &m : majorities)
        secureWipe(m.data(), m.size());

    local.clusters = n;
    local.keys_reported = out.size();

    c_hits.add(local.litmus_hits);
    c_constant.add(local.constant_dropped);
    c_clusters.add(local.clusters);
    c_keys.add(local.keys_reported);
    c_bucket_joins.add(work.bucket_joins);
    c_screened.add(work.screened);
    c_merges.add(work.merges);
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
