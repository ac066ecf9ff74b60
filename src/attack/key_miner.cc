#include "attack/key_miner.hh"

#include <algorithm>
#include <bit>
#include <deque>

#include "common/bits.hh"
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

/**
 * The per-bit majority of one cluster's @p count copies, @p copyAt(k)
 * the k-th in dump order. An exact tie (possible with an even count)
 * falls back to the first copy's bit - an arbitrary tie-break would
 * be wrong half the time and a single wrong key bit systematically
 * corrupts every block descrambled with that key.
 *
 * The 512 counts are bit-sliced: plane p holds bit p of every count
 * as eight 64-bit words, and a copy's word ripples through the planes
 * as a carry. bit_width(count) planes hold every count, so none
 * wraps. Comparing the sliced counts from the top plane down finds
 * 2c > count, and c == count / 2 for the tie. The planes are wiped
 * after.
 */
template <typename CopyAt>
std::array<uint8_t, 64>
majorityOf(size_t count, CopyAt &&copyAt)
{
    const auto used = static_cast<unsigned>(std::bit_width(count));
    std::array<std::array<uint64_t, 8>, 64> planes;
    std::fill_n(planes.begin(), used, std::array<uint64_t, 8>{});
    for (size_t k = 0; k < count; ++k) {
        std::span<const uint8_t> copy = copyAt(k);
        for (unsigned w = 0; w < 8; ++w)
            for (uint64_t carry = loadLE64(&copy[8 * w]), p = 0;
                 carry != 0; ++p) {
                const uint64_t next = planes[p][w] & carry;
                planes[p][w] ^= carry;
                carry = next;
            }
    }
    const size_t above = count / 2 + 1, half = count / 2;
    std::span<const uint8_t> first = copyAt(0);
    std::array<uint8_t, 64> key{};
    for (unsigned w = 0; w < 8; ++w) {
        uint64_t greater = 0, equal = ~0ull, tie = ~0ull;
        for (unsigned p = used; p-- > 0;) {
            const uint64_t c = planes[p][w];
            if ((above >> p) & 1) {
                equal &= c;
            } else {
                greater |= equal & c;
                equal &= ~c;
            }
            tie &= (half >> p) & 1 ? c : ~c;
        }
        uint64_t word = greater | equal;
        if (count % 2 == 0)
            word |= tie & loadLE64(&first[8 * w]);
        storeLE64(&key[8 * w], word);
    }
    secureWipe(planes.data(), used * sizeof(planes[0]));
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

/** Whether @p a and @p b are at most @p distance bits apart (the
 *  bounded kernel exits early past the distance). */
bool
within(std::span<const uint8_t> a, std::span<const uint8_t> b,
       unsigned distance)
{
    return simd::hammingDistanceBounded(a.data(), b.data(), a.size(),
                                        distance) <= distance;
}

/** The bucket key of 8-byte chunk @p c of @p block: its value times 8
 *  plus c, so chunk values match modulo 2^61. */
uint64_t
chunkKey(std::span<const uint8_t> block, unsigned c)
{
    return loadLE64(&block[8 * c]) * 8 + c;
}

/**
 * The exact-chunk buckets of the map fit's evidence pass: one
 * open-addressed slot per (chunk, id), linearly probed and never
 * deleted, so the ids that share a chunk come back in the order they
 * were inserted, whatever the table's size. A slot keeps the low 32
 * bits of the chunk key and the id; a match is confirmed against the
 * id's block, which holds the whole chunk. The 32 bits are key
 * material, so every slot array is wiped before it is freed.
 */
class BucketTable
{
  public:
    /** Room for @p keys chunk keys at a load of at most 3/4. */
    explicit BucketTable(size_t keys) : slots(std::bit_ceil(4 * keys / 3 + 2))
    {
    }
    BucketTable(const BucketTable &) = delete;
    BucketTable &operator=(const BucketTable &) = delete;
    ~BucketTable() { secureWipe(slots.data(), slots.size() * sizeof(Slot)); }

    /** Add @p id under each of @p block's eight chunk keys, doubling
     *  the table first whenever it would fill past three quarters. */
    void
    insertChunks(std::span<const uint8_t> block, uint32_t id)
    {
        for (unsigned c = 0; c < 8; ++c) {
            if (4 * (used + 1) > 3 * slots.size())
                grow();
            put(static_cast<uint32_t>(chunkKey(block, c)), id);
        }
    }

    /**
     * Where an exact-chunk bucket places @p block: for chunks 0-7 in
     * order, the ids whose block @p blockOf(id) has the same chunk
     * key, in insertion order, the first within @p distance. SIZE_MAX
     * when none is.
     */
    template <typename BlockOf>
    size_t
    place(std::span<const uint8_t> block, BlockOf &&blockOf,
          unsigned distance) const
    {
        for (unsigned c = 0; c < 8; ++c) {
            const uint64_t key = chunkKey(block, c);
            const auto low = static_cast<uint32_t>(key);
            for (size_t i = home(low); slots[i].id != kEmpty;
                 i = (i + 1) & (slots.size() - 1)) {
                if (slots[i].low != low)
                    continue;
                std::span<const uint8_t> rep = blockOf(slots[i].id);
                if (chunkKey(rep, c) == key && within(block, rep, distance))
                    return slots[i].id;
            }
        }
        return SIZE_MAX;
    }

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;

    struct Slot
    {
        uint32_t low = 0;
        uint32_t id = kEmpty;
    };

    size_t
    home(uint32_t low) const
    {
        return static_cast<size_t>((low * 0x9E3779B97F4A7C15ull) >>
                                   (64 - std::countr_zero(slots.size())));
    }

    void
    put(uint32_t low, uint32_t id)
    {
        size_t i = home(low);
        while (slots[i].id != kEmpty)
            i = (i + 1) & (slots.size() - 1);
        slots[i] = {low, id};
        ++used;
    }

    /**
     * Double the slots. The old slots are re-placed cyclically from an
     * empty one, so each probe run is walked from its start and the
     * ids under each key arrive, and land, in insertion order.
     */
    void
    grow()
    {
        std::vector<Slot> old(2 * slots.size());
        old.swap(slots);
        used = 0;
        size_t start = 0;
        while (old[start].id != kEmpty)
            ++start;
        for (size_t k = 0; k < old.size(); ++k) {
            const Slot &s = old[(start + k) & (old.size() - 1)];
            if (s.id != kEmpty)
                put(s.low, s.id);
        }
        secureWipe(old.data(), old.size() * sizeof(Slot));
    }

    std::vector<Slot> slots;
    size_t used = 0;
};

/**
 * The clusters of one mining call in creation order. Reads are const,
 * so pool workers may run them while the fold is not writing; the
 * representatives are wiped when the set dies, whichever way the call
 * ends.
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

    /** A new cluster with @p block, at dump offset @p offset, as its
     *  representative. */
    uint32_t
    create(std::span<const uint8_t> block, uint64_t offset)
    {
        const auto idx = static_cast<uint32_t>(clusters.size());
        Cluster &c = clusters.emplace_back();
        std::copy(block.begin(), block.end(), c.representative.begin());
        c.first_offset = offset;
        return idx;
    }

    void join(size_t idx) { ++clusters[idx].members; }

    bool
    within(std::span<const uint8_t> a, std::span<const uint8_t> b) const
    {
        return attack::within(a, b, distance);
    }

    /** Whether @p block is within distance of cluster @p idx's
     *  representative. */
    bool
    near(std::span<const uint8_t> block, size_t idx) const
    {
        return within(block, clusters[idx].representative);
    }

  private:
    const unsigned distance;
    /** A deque, so a representative never moves: a growing vector
     *  would free its old copies unwiped. */
    std::deque<Cluster> clusters;
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
/** Clusters per majority or near-list task. */
constexpr size_t kMergeRows = 32;

/** Tallies of the clustering work, as the attack.miner counters. */
struct ClusterWork
{
    uint64_t bucket_joins = 0;
    uint64_t screened = 0;
    uint64_t merges = 0;
};

/**
 * The address class of every hit, from a KeyMap fitted to the hits'
 * own exact-chunk evidence before any clustering (DESIGN.md §15). One
 * pass in dump order groups the hits as the buckets alone would: a hit
 * joins the first group whose first hit an 8-byte bucket places it
 * with (a shared chunk, within @p distance), else starts a group. The
 * groups of two or more hits, in first-hit order, are the map's line
 * groups, and its lines reach the last hit's. Returns each hit's slot
 * and sets @p slots to the slot count; when the map declines, every
 * hit is in slot 0 of one.
 */
std::vector<uint32_t>
hitClasses(const std::deque<Hit> &hits, unsigned distance, size_t &slots)
{
    obs::ScopedSpan span("mine.fit");
    std::vector<uint32_t> group_of(hits.size());
    std::vector<const Hit *> firsts;
    std::vector<uint32_t> group_size;
    {
        // Sized once: a group inserts its eight chunk keys, and E3's
        // and E4's ~5 hits per group need ~1.6 keys per hit. Dumps of
        // fewer copies per key (random-line fuzz dumps) still grow.
        BucketTable buckets(2 * hits.size());
        size_t h = 0;
        for (const Hit &hit : hits) {
            size_t g = buckets.place(
                hit.block,
                [&](size_t i) -> std::span<const uint8_t> {
                    return firsts[i]->block;
                },
                distance);
            if (g == SIZE_MAX) {
                g = firsts.size();
                firsts.push_back(&hit);
                group_size.push_back(0);
                buckets.insertChunks(hit.block, static_cast<uint32_t>(g));
            }
            ++group_size[g];
            group_of[h++] = static_cast<uint32_t>(g);
        }
    }

    // The lines of every group of two or more, in one array: a
    // counting sort keeps each group's lines ascending.
    std::vector<uint32_t> begin(firsts.size() + 1, 0);
    for (size_t g = 0; g < firsts.size(); ++g)
        begin[g + 1] = begin[g] + (group_size[g] > 1 ? group_size[g] : 0);
    std::vector<uint32_t> lines(begin.back());
    std::vector<std::span<const uint32_t>> groups;
    for (size_t g = 0; g < firsts.size(); ++g)
        if (group_size[g] > 1)
            groups.emplace_back(lines.data() + begin[g], group_size[g]);
    size_t h = 0;
    for (const Hit &hit : hits) {
        const uint32_t g = group_of[h++];
        if (group_size[g] > 1)
            lines[begin[g]++] = static_cast<uint32_t>(hit.offset / 64);
    }

    const KeyMap map(groups,
                     static_cast<uint32_t>(hits.back().offset / 64));
    slots = std::max<size_t>(map.slots(), 1);
    h = 0;
    for (const Hit &hit : hits)
        group_of[h++] = map.confident() ? map.slotOf(hit.offset / 64) : 0;
    return group_of;
}

/** The clusters of each address class, as chains in creation order. */
struct ClassChains
{
    static constexpr uint32_t kNone = UINT32_MAX;

    explicit ClassChains(size_t slots) : head(slots, kNone), tail(slots, kNone)
    {
    }

    void
    append(uint32_t cluster, uint32_t cls)
    {
        next.push_back(kNone);
        (head[cls] == kNone ? head[cls] : next[tail[cls]]) = cluster;
        tail[cls] = cluster;
    }

    /** Each class's first and last cluster (kNone: none yet). */
    std::vector<uint32_t> head, tail;
    /** Each cluster's next cluster of its class. */
    std::vector<uint32_t> next;
    /** Pairs of clusters that share a class. */
    uint64_t pairs = 0;
};

/**
 * Fold @p hits, in dump order, into @p clusters within each hit's
 * address class @p class_of: a hit joins the class's first cluster an
 * exact-chunk bucket places it in (chunks 0-7 in order, the class's
 * clusters in creation order), else the lowest-index cluster of its
 * class within distance (the novelty proof), else starts a cluster,
 * so clusters keep their global creation order. Returns each hit's
 * cluster. O(hits) while each class holds O(1) clusters; in one class
 * it is the all-pairs rule, O(hits × clusters).
 */
std::vector<uint32_t>
clusterHitsByClass(const std::deque<Hit> &hits,
                   const std::vector<uint32_t> &class_of,
                   ClusterSet &clusters, ClassChains &chains,
                   ClusterWork &work)
{
    obs::ScopedSpan span("mine.cluster");
    constexpr uint32_t kNone = ClassChains::kNone;
    std::vector<uint32_t> home_of(hits.size());
    size_t h = 0;
    for (const Hit &hit : hits) {
        const uint32_t cls = class_of[h];
        // One walk keeps the lowest (chunk, cluster) bucket match: a
        // later cluster replaces it only through a lower chunk, and a
        // cluster is within distance or not whichever chunk it shares.
        uint64_t keys[8];
        for (unsigned c = 0; c < 8; ++c)
            keys[c] = chunkKey(hit.block, c);
        size_t home = SIZE_MAX;
        unsigned home_chunk = 8;
        for (uint32_t k = chains.head[cls]; k != kNone && home_chunk > 0;
             k = chains.next[k]) {
            std::span<const uint8_t> rep = clusters[k].representative;
            unsigned c = 0;
            while (c < home_chunk && chunkKey(rep, c) != keys[c])
                ++c;
            if (c < home_chunk && clusters.near(hit.block, k)) {
                home = k;
                home_chunk = c;
            }
        }
        if (home != SIZE_MAX) {
            ++work.bucket_joins;
        } else {
            uint64_t compared = 0;
            for (uint32_t k = chains.head[cls];
                 k != kNone && home == SIZE_MAX; k = chains.next[k]) {
                ++compared;
                if (clusters.near(hit.block, k))
                    home = k;
            }
            work.screened += compared;
            if (home == SIZE_MAX) {
                // Compared with every cluster of its class, each of
                // which the merge compares it with once more.
                chains.pairs += compared;
                home = clusters.create(hit.block, hit.offset);
                chains.append(static_cast<uint32_t>(home), cls);
            }
        }
        clusters.join(home);
        home_of[h++] = static_cast<uint32_t>(home);
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
                majorities[c] = majorityOf(clusters[c].members, copyAt);
            }
        });
    return majorities;
}

/**
 * For each cluster i, the later clusters j of i's class whose majority
 * key is within distance of i's, ascending: one stage.
 */
std::vector<std::vector<uint32_t>>
nearLaterClusters(const std::vector<std::array<uint8_t, 64>> &majorities,
                  const ClusterSet &clusters, const ClassChains &chains,
                  exec::StagePool &pool)
{
    std::vector<std::vector<uint32_t>> near(majorities.size());
    exec::parallelForChunks(
        pool, 0, near.size(), kMergeRows, [&](const exec::ChunkRange &r) {
            for (uint64_t i = r.begin; i < r.end; ++i)
                for (uint32_t j = chains.next[i]; j != ClassChains::kNone;
                     j = chains.next[j])
                    if (clusters.within(majorities[i], majorities[j]))
                        near[i].push_back(j);
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
        "(block, representative) and (key, key) pairs the novelty "
        "proofs and the merge pass compare, within each address class "
        "(one class when the map declines)");
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

    // From kMinerStageClusters hits, cluster within address classes
    // when the hits' own evidence fits a confident map. Fewer hits,
    // lines past 32 bits or a declined map put every hit in one class,
    // where the fold compares all pairs (DESIGN.md §15).
    size_t slots = 1;
    const auto class_of =
        record_lines && hits.size() >= kMinerStageClusters
            ? hitClasses(hits, params.cluster_distance, slots)
            : std::vector<uint32_t>(hits.size(), 0);
    ClusterSet clusters(params.cluster_distance);
    ClassChains chains(slots);
    const auto home_of =
        clusterHitsByClass(hits, class_of, clusters, chains, work);

    // Merge clusters whose majority keys ended up close (decay can
    // split one key across clusters when early copies were noisy):
    // the walk replays the all-pairs merge loop on the near lists,
    // which hold the same class only.
    obs::ScopedSpan merge_span("mine.merge");
    const size_t n = clusters.size();
    exec::StagePool serial(1);
    exec::StagePool &merge_pool = n >= kMinerStageClusters ? pool : serial;
    auto majorities = majorityKeys(hits, home_of, clusters, merge_pool);
    const auto near =
        nearLaterClusters(majorities, clusters, chains, merge_pool);
    work.screened += chains.pairs;

    // Each reported key's majority, count and first offset, in walk
    // order, and the reported key each cluster ended in (SIZE_MAX:
    // dropped).
    struct Reported
    {
        size_t leader, occurrences;
        uint64_t first;
    };
    std::vector<Reported> reported;
    std::vector<bool> merged(n, false);
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
            return it == list.end() ? SIZE_MAX : size_t{*it};
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
                owner[c] = reported.size();
            reported.push_back({leader, occurrences, first});
        }
    }

    // Rank by descending count. Sorting (count, walk index) pairs
    // makes the comparisons sorting the keys would, so ties keep that
    // order, and each key is built once, in place.
    std::vector<std::pair<size_t, size_t>> order;
    order.reserve(reported.size());
    for (size_t w = 0; w < reported.size(); ++w)
        order.emplace_back(reported[w].occurrences, w);
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    std::vector<size_t> rank(reported.size());
    std::vector<MinedKey> out;
    out.reserve(reported.size());
    for (const auto &[occurrences, w] : order) {
        rank[w] = out.size();
        out.emplace_back(majorities[reported[w].leader], occurrences,
                         reported[w].first);
        if (record_lines)
            out.back().lines.reserve(occurrences);
    }
    // Split the scan-order hits once: each key's lines come out
    // ascending, merged clusters' included. Line indices are 32-bit:
    // a dump of 256 GiB or more mines keys without lines, and its
    // address map declines.
    if (record_lines) {
        size_t h = 0;
        for (const Hit &hit : hits) {
            const size_t w = owner[home_of[h++]];
            if (w != SIZE_MAX)
                out[rank[w]].lines.push_back(
                    static_cast<uint32_t>(hit.offset / 64));
        }
    }

    // Scrub the majority keys before they are freed; the hits,
    // clusters and bucket table scrub themselves, and the reported
    // MinedKeys on destruction.
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
