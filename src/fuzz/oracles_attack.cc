/**
 * @file
 * Attack-pipeline oracles: the miner and the AES search checked
 * against dumps with *known* planted ground truth, the miner's
 * clustering and the search's prefiltered scan against plain
 * every-pair loops, plus the worker-count-independence
 * fingerprint over the whole pipeline.
 *
 * Statistical care: at nonzero decay the attack is allowed to miss
 * (the paper's own success curves drop below 100% past ~2% decay),
 * so completeness is asserted unconditionally only at zero decay and
 * recorded as a coverage feature otherwise; soundness (anything
 * reported must match the planted truth) is asserted always.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <unordered_map>

#include "attack/aes_search.hh"
#include "attack/key_map.hh"
#include "attack/key_miner.hh"
#include "attack/litmus.hh"
#include "common/bits.hh"
#include "crypto/sha256.hh"
#include "exec/dump_io.hh"
#include "fuzz/dump_builder.hh"
#include "fuzz/fuzz_rng.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracles.hh"
#include "memctrl/scrambler.hh"

namespace coldboot::fuzz
{

namespace
{

using attack::MinedKey;
using attack::MinerParams;
using attack::SearchParams;

/**
 * miner-planted-keys: KeyMiner recovers keys planted into a
 * synthesized dump across a decay sweep. Soundness: every reported
 * key is (Hamming-)close to a real pool key of the dump's scrambler.
 * Completeness: at zero decay every planted key is recovered exactly;
 * at low decay within the clustering distance.
 */
class MinerPlantedKeysOracle final : public Oracle
{
  public:
    const char *name() const override { return "miner-planted-keys"; }

    const char *
    description() const override
    {
        return "KeyMiner recovers planted scrambler keys through a "
               "decay sweep; everything it reports is a real key";
    }

    unsigned smokeStride() const override { return 2; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = static_cast<uint64_t>(64 * 1024)
                     << params.scale;
        spec.planted_keys =
            2 + static_cast<unsigned>(rng.below(4));
        spec.copies_per_key =
            2 + static_cast<unsigned>(rng.below(3));
        spec.decay_fraction =
            rng.pick({0.0, 0.0, 0.005, 0.01, 0.02});
        FuzzDump dump = buildFuzzDump(rng, spec);
        res.feature(static_cast<uint32_t>(
            spec.decay_fraction * 1000));

        // Adversarial background noise, steered off the plants.
        mutateBytes(dump.bytes, rng, params.energy * 8,
                    dump.planted_regions);

        MinerParams mp;
        mp.threads = 1; // cases already run in parallel
        attack::MinerStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto mined = attack::mineScramblerKeys(source, mp, &stats);

        res.feature(100 + static_cast<uint32_t>(
                              std::min<size_t>(mined.size(), 32)));
        if (stats.blocks_scanned != spec.bytes / 64) {
            res.fail("miner scanned " +
                     std::to_string(stats.blocks_scanned) +
                     " blocks of " +
                     std::to_string(spec.bytes / 64));
            return res;
        }

        // Soundness: every mined key must match some pool key of the
        // dump's scrambler within the clustering distance - decay
        // and line-duplicating mutations can only replicate real
        // keys, never mint a new litmus-passing cluster.
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        for (const auto &m : mined) {
            unsigned best = 513;
            std::array<uint8_t, 64> pool_key;
            for (unsigned idx = 0; idx < 4096 && best > 0; ++idx) {
                scrambler.poolKey(idx, pool_key.data());
                unsigned d = static_cast<unsigned>(hammingDistance(
                    std::span<const uint8_t>(m.key),
                    std::span<const uint8_t>(pool_key)));
                best = std::min(best, d);
            }
            if (best > mp.cluster_distance) {
                res.fail("mined key at offset " +
                         std::to_string(m.first_offset) +
                         " matches no real pool key (distance " +
                         std::to_string(best) + ")");
                return res;
            }
        }

        // Completeness over the planted keys.
        for (const auto &planted : dump.keys) {
            if (planted.offsets.size() < mp.min_occurrences)
                continue;
            unsigned best = 513;
            for (const auto &m : mined)
                best = std::min(
                    best, static_cast<unsigned>(hammingDistance(
                              std::span<const uint8_t>(m.key),
                              std::span<const uint8_t>(
                                  planted.key))));
            if (spec.decay_fraction == 0.0 && best != 0) {
                res.fail("planted key (pool index " +
                         std::to_string(planted.pool_index) +
                         ") not mined exactly at zero decay");
                return res;
            }
            if (best <= mp.cluster_distance)
                res.feature(200);
            else if (spec.decay_fraction <= 0.01) {
                res.fail("planted key (pool index " +
                         std::to_string(planted.pool_index) +
                         ") lost at " +
                         std::to_string(spec.decay_fraction) +
                         " decay (best distance " +
                         std::to_string(best) + ")");
                return res;
            } else {
                res.feature(201); // allowed statistical miss
            }
        }
        return res;
    }
};

/** Bit distance of two 64-byte blocks, the obvious way. */
unsigned
plainDistance(std::span<const uint8_t> a, std::span<const uint8_t> b)
{
    unsigned d = 0;
    for (size_t i = 0; i < 64; i += 8)
        d += static_cast<unsigned>(
            std::popcount(loadLE64(&a[i]) ^ loadLE64(&b[i])));
    return d;
}

/**
 * The miner's clustering written as plain all-pairs loops. Returns the
 * reported keys, sorted as the miner sorts them, with every member's
 * line, counts clusters and merges, and sets @p fitted when the dump
 * holds at least kMinerStageClusters hits (enough for the miner to fit
 * the address map before it clusters).
 */
std::vector<MinedKey>
referenceMine(const std::vector<uint8_t> &bytes, const MinerParams &mp,
              size_t &clusters, size_t &merges, bool &fitted)
{
    using Block = std::array<uint8_t, 64>;
    const unsigned dist = mp.cluster_distance;
    std::vector<Block> reps;
    std::vector<std::array<size_t, 512>> ones;
    std::vector<size_t> members;
    std::vector<uint64_t> first_offset;
    std::vector<std::vector<uint32_t>> lines;
    size_t hits = 0;
    for (uint64_t off = 0; off + 64 <= bytes.size(); off += 64) {
        std::span<const uint8_t> block(&bytes[off], 64);
        if (!attack::scramblerKeyLitmus(block,
                                        mp.litmus_max_bit_errors) ||
            (mp.drop_constant_blocks &&
             attack::isConstantBlock(block)))
            continue;
        ++hits;
        // Exact-chunk buckets: chunk 0-7, each in creation order. The
        // miner keys a bucket by value * 8 + chunk index in 64 bits,
        // so chunk values match modulo 2^61.
        size_t home = SIZE_MAX;
        for (unsigned c = 0; c < 8 && home == SIZE_MAX; ++c)
            for (size_t idx = 0; idx < reps.size(); ++idx)
                if (((loadLE64(&block[8 * c]) ^
                      loadLE64(&reps[idx][8 * c])) << 3) == 0 &&
                    plainDistance(block, reps[idx]) <= dist) {
                    home = idx;
                    break;
                }
        // Then the lowest-index representative within distance.
        for (size_t idx = 0; idx < reps.size() && home == SIZE_MAX;
             ++idx)
            if (plainDistance(block, reps[idx]) <= dist)
                home = idx;
        if (home == SIZE_MAX) {
            home = reps.size();
            std::copy(block.begin(), block.end(),
                      reps.emplace_back().begin());
            ones.emplace_back();
            members.push_back(0);
            first_offset.push_back(off);
            lines.emplace_back();
        }
        for (unsigned bit = 0; bit < 512; ++bit)
            ones[home][bit] += (block[bit / 8] >> (bit % 8)) & 1;
        ++members[home];
        lines[home].push_back(static_cast<uint32_t>(off / 64));
    }

    // Per-bit majority; a tie takes the first copy's bit.
    std::vector<Block> majority(reps.size());
    for (size_t i = 0; i < reps.size(); ++i) {
        for (unsigned bit = 0; bit < 512; ++bit) {
            bool rep_bit = (reps[i][bit / 8] >> (bit % 8)) & 1;
            bool one = 2 * ones[i][bit] > members[i] ||
                       (2 * ones[i][bit] == members[i] && rep_bit);
            if (one)
                majority[i][bit / 8] |=
                    static_cast<uint8_t>(1u << (bit % 8));
        }
    }

    // All-pairs merge pass; the largest constituent's key wins.
    std::vector<MinedKey> out;
    std::vector<bool> merged(reps.size(), false);
    merges = 0;
    for (size_t i = 0; i < reps.size(); ++i) {
        if (merged[i])
            continue;
        Block key = majority[i];
        size_t occurrences = members[i], biggest = members[i];
        uint64_t first = first_offset[i];
        std::vector<uint32_t> key_lines = lines[i];
        for (size_t j = i + 1; j < reps.size(); ++j) {
            if (merged[j] || plainDistance(key, majority[j]) > dist)
                continue;
            merged[j] = true;
            ++merges;
            occurrences += members[j];
            first = std::min(first, first_offset[j]);
            key_lines.insert(key_lines.end(), lines[j].begin(),
                             lines[j].end());
            if (members[j] > biggest) {
                biggest = members[j];
                key = majority[j];
            }
        }
        if (occurrences >= mp.min_occurrences) {
            out.emplace_back(key, occurrences, first);
            std::sort(key_lines.begin(), key_lines.end());
            out.back().lines = std::move(key_lines);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const MinedKey &a, const MinedKey &b) {
                  return a.occurrences > b.occurrences;
              });
    clusters = reps.size();
    fitted = hits >= attack::kMinerStageClusters;
    return out;
}

/**
 * Flip the same bit in both 8-byte halves of one 16-byte row (pair
 * @p p of 256). Every scrambler-litmus invariant XORs a 16-bit word
 * with its partner eight bytes on, so such flips keep all of them.
 */
void
flipPair(std::array<uint8_t, 64> &block, unsigned p)
{
    unsigned byte = 16 * (p >> 6) + ((p >> 3) & 7);
    auto bit = static_cast<uint8_t>(1u << (p & 7));
    block[byte] ^= bit;
    block[byte + 8] ^= bit;
}

/**
 * miner-cluster-exact: on keys at random lines, where the miner's
 * address map declines and every hit is in one class, its clustering
 * equals plain all-pairs loops (referenceMine above): the same keys,
 * occurrence counts, first offsets and lines. The dumps hold more than
 * 256 clusters, copies 78-82 bits from their representative, copies
 * within distance of two clusters, and keys split across three
 * clusters whose majorities the merge pass joins again. From scale 1
 * they hold 600-1,500 keys, enough hits for the miner to fit the map
 * before the one-class fold, and also copies in no bucket right after
 * their key, and copies that a bucket joins to a later cluster while
 * an earlier one is also within distance.
 */
class MinerClusterExactOracle final : public Oracle
{
  public:
    const char *name() const override { return "miner-cluster-exact"; }

    const char *
    description() const override
    {
        return "on keys at random lines (one address class) the miner's "
               "clustering and merge pass report the keys, counts, "
               "offsets and lines of plain all-pairs loops";
    }

    unsigned smokeStride() const override { return 4; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);
        using Block = std::array<uint8_t, 64>;

        // A random order of 0 to @p n - 1. Masks take disjoint runs
        // of flip pairs in such an order; pairs 0-63 lie in row 0,
        // the block's first 128 bits.
        auto shuffled = [&](unsigned n) {
            std::vector<unsigned> order(n);
            for (unsigned i = 0; i < n; ++i)
                order[i] = i;
            for (size_t i = n - 1; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
            return order;
        };
        memctrl::Ddr4Scrambler scrambler(rng.next(), 0);
        const auto pool = shuffled(4096);
        size_t next_key = 0;
        auto poolKey = [&] {
            Block key;
            scrambler.poolKey(pool[next_key++], key.data());
            return key;
        };
        const unsigned decay = rng.pick({0u, 3u, 8u});
        auto decayed = [&](Block key) {
            for (uint64_t f = decay ? rng.below(decay + 1) : 0; f > 0;
                 --f) {
                unsigned bit = static_cast<unsigned>(rng.below(512));
                key[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            }
            return key;
        };

        // A group's runs keep their order in the dump, and a run's
        // blocks are consecutive litmus hits.
        using Run = std::vector<Block>;
        std::vector<std::vector<Run>> groups;
        // Plain keys: hundreds of distinct keys; from scale 1, enough
        // hits for the miner to fit the address map, which declines
        // on random lines.
        const bool large = params.scale >= 1;
        for (uint64_t n = large ? 600 + rng.below(900)
                                  : 260 + rng.below(120);
             n > 0; --n) {
            Block key = poolKey();
            auto &g = groups.emplace_back();
            for (uint64_t c = 1 + rng.below(3); c > 0; --c)
                g.push_back({decayed(key)});
        }
        // A pristine representative, then copies 78-82 bits off it:
        // spread over the block, or all inside its first 192 bits.
        for (uint64_t n = 4 + rng.below(8); n > 0; --n) {
            Block key = poolKey();
            auto &g = groups.emplace_back();
            g.push_back({key});
            for (uint64_t c = 1 + rng.below(2); c > 0; --c) {
                const bool in_prefix = rng.chance(0.5);
                auto order = shuffled(in_prefix ? 64 : 256);
                Block copy = key;
                for (unsigned p = 0; p < 39; ++p)
                    flipPair(copy, order[p]);
                for (uint64_t s = rng.below(5); s > 0;) {
                    unsigned bit = static_cast<unsigned>(
                        rng.below(in_prefix ? 192 : 512));
                    auto m = static_cast<uint8_t>(1u << (bit % 8));
                    if ((copy[bit / 8] ^ key[bit / 8]) & m)
                        continue;
                    copy[bit / 8] ^= m;
                    --s;
                }
                g.push_back({copy});
            }
        }
        // key ^ m1 and key ^ m2, 84 bits apart, then key, 42 bits
        // from both and, with each mask in all eight chunks, in no
        // bucket: it must join the lower-index cluster.
        for (uint64_t n = 2 + rng.below(4); n > 0; --n) {
            Block key = poolKey();
            auto order = shuffled(256);
            Block near1 = key, near2 = key;
            for (unsigned p = 0; p < 21; ++p) {
                flipPair(near1, order[p]);
                flipPair(near2, order[21 + p]);
            }
            groups.push_back({{near1}, {near2}, {key}});
        }
        // Split keys: three clusters of one key that the merge pass
        // joins again. m1 and m4 are flip pairs in rows 1-3; m2 and
        // m3 are pairs in row 0, and m2 or m3 is often 80 bits, the
        // default cluster distance.
        //  - key ^ m1 starts cluster A; the pristine copies after it
        //    join it and pull its majority back to key.
        //  - key ^ m2 ^ m4 starts cluster B, too far from A's
        //    representative; the copies of key ^ m2 after it pull
        //    B's majority to within the distance of key.
        //  - key ^ m2 ^ m3, right after B's first block, starts
        //    cluster C, within the distance of B's majority but not
        //    of key. When B has more copies than A, B's majority
        //    replaces key, and only a merge pass that compares with
        //    the replaced key also joins C.
        for (uint64_t n = 2 + rng.below(6); n > 0; --n) {
            Block key = poolKey();
            auto inner = shuffled(64);
            auto outer = shuffled(192);
            auto below = [&](unsigned bound) {
                return static_cast<unsigned>(rng.below(bound));
            };
            unsigned b = rng.chance(0.5) ? 40 : 21 + below(20);
            unsigned c_max = std::min(40u, 64 - b);
            unsigned c = rng.chance(0.5) ? c_max
                                         : 21 + below(c_max - 20);
            unsigned a = 21 + below(20);
            unsigned d = 41 - c + below(c);
            Block near1 = key, near2 = key;
            for (unsigned p = 0; p < a; ++p)
                flipPair(near1, 64 + outer[p]);
            for (unsigned p = 0; p < b; ++p)
                flipPair(near2, inner[p]);
            Block first2 = near2, near3 = near2;
            for (unsigned p = a; p < a + d; ++p)
                flipPair(first2, 64 + outer[p]);
            for (unsigned p = b; p < b + c; ++p)
                flipPair(near3, inner[p]);
            auto &g = groups.emplace_back();
            g.push_back({near1});
            for (uint64_t n_key = 2 + rng.below(2); n_key > 0; --n_key)
                g.push_back({key});
            g.push_back({first2, near3});
            for (uint64_t n2 = 2 + rng.below(5); n2 > 0; --n2)
                g.push_back({near2});
            for (uint64_t n3 = rng.below(3); n3 > 0; --n3)
                g.push_back({near3});
        }

        if (large) {
            // A key and, right after it, a copy 40-78 bits off with a
            // flip pair in every row, so in no bucket: only the
            // novelty proof against the key's cluster, the newest,
            // places the copy.
            for (uint64_t n = 60 + rng.below(60); n > 0; --n) {
                Block key = poolKey();
                auto order = shuffled(64);
                Block copy = key;
                for (uint64_t k = 0, pairs = 20 + rng.below(20);
                     k < pairs; ++k)
                    flipPair(copy, 64 * static_cast<unsigned>(k % 4) +
                                       order[k / 4]);
                groups.push_back({{key, copy}});
            }
            // key, then later key ^ m1 and right after it key ^ m2.
            // m1 is a row-0 pairs and b pairs in rows 1-3 (82-86
            // bits, every chunk): key ^ m1 starts a cluster. m2 is
            // the same row-0 pairs and e other pairs in rows 1-3
            // (42-56 bits, every chunk, 62 bits at most from key ^
            // m1): no bucket of key's places key ^ m2, and a novelty
            // proof would find key, but the bucket of key ^ m1's
            // row-0 chunks joins it there first.
            for (uint64_t n = 20 + rng.below(40); n > 0; --n) {
                Block key = poolKey();
                auto inner = shuffled(64), outer = shuffled(64);
                auto outerPair = [&](unsigned k) {
                    return 64 * (1 + k % 3) + outer[k / 3];
                };
                unsigned a = 18 + static_cast<unsigned>(rng.below(5));
                unsigned b = 41 - a + static_cast<unsigned>(rng.below(3));
                unsigned e = 3 + static_cast<unsigned>(rng.below(4));
                Block far = key, near = key;
                for (unsigned p = 0; p < a; ++p) {
                    flipPair(far, inner[p]);
                    flipPair(near, inner[p]);
                }
                for (unsigned k = 0; k < b; ++k)
                    flipPair(far, outerPair(k));
                for (unsigned k = b; k < b + e; ++k)
                    flipPair(near, outerPair(k));
                groups.push_back({{key}, {far, near}});
            }
        }

        // Random lines in ascending order, then a random interleaving
        // of the groups' runs.
        size_t planted = 0, runs = 0;
        for (const auto &g : groups) {
            runs += g.size();
            for (const auto &run : g)
                planted += run.size();
        }
        const uint64_t lines =
            large ? std::max<uint64_t>(uint64_t{2048} << params.scale,
                                         std::bit_ceil(2 * planted))
                    : uint64_t{2048} << params.scale;
        std::vector<uint8_t> bytes(lines * 64);
        rng.fill(bytes);
        std::vector<uint64_t> slots;
        for (uint64_t line = 0; line < lines; ++line)
            if (rng.below(lines - line) < planted - slots.size())
                slots.push_back(line);
        std::vector<size_t> cursor(groups.size(), 0);
        std::vector<ProtectedRegion> regions;
        auto slot = slots.begin();
        for (; runs > 0; --runs) {
            uint64_t pick = rng.below(runs);
            size_t g = 0;
            for (; pick >= groups[g].size() - cursor[g]; ++g)
                pick -= groups[g].size() - cursor[g];
            for (const Block &block : groups[g][cursor[g]++]) {
                uint64_t off = *slot++ * 64;
                std::copy(block.begin(), block.end(), &bytes[off]);
                regions.push_back({off, off + 64});
            }
        }
        mutateBytes(bytes, rng, params.energy * 8, regions);

        MinerParams mp;
        mp.threads = 1; // cases already run in parallel
        mp.cluster_distance = rng.pick(
            {80u, 80u, 80u, 40u + static_cast<unsigned>(rng.below(120))});
        mp.min_occurrences = rng.pick({size_t{1}, size_t{2}, size_t{3}});
        attack::MinerStats stats;
        exec::MemoryDumpSource source(bytes);
        auto mined = attack::mineScramblerKeys(source, mp, &stats);
        size_t clusters = 0, merges = 0;
        bool fitted = false;
        auto want = referenceMine(bytes, mp, clusters, merges, fitted);

        size_t i = 0;
        while (i < mined.size() && i < want.size() &&
               mined[i].key == want[i].key &&
               mined[i].occurrences == want[i].occurrences &&
               mined[i].first_offset == want[i].first_offset &&
               mined[i].lines == want[i].lines)
            ++i;
        if (i != mined.size() || i != want.size() ||
            stats.clusters != clusters) {
            res.fail("miner reports " + std::to_string(mined.size()) +
                     " keys from " + std::to_string(stats.clusters) +
                     " clusters, the plain loops " +
                     std::to_string(want.size()) + " from " +
                     std::to_string(clusters) +
                     "; first difference at key " + std::to_string(i) +
                     " (distance " +
                     std::to_string(mp.cluster_distance) + ")");
            return res;
        }
        if (clusters > 256)
            res.feature(1); // more than 256 clusters
        if (merges > 0)
            res.feature(2); // the merge pass fired
        if (fitted)
            res.feature(5); // the map was fitted, declined, and the
                            // one-class fold ran
        res.feature(mp.cluster_distance == 80 ? 3 : 4);
        return res;
    }
};

/**
 * Whether the miner clusters @p bytes by address class, its
 * map-first gate written plainly: from kMinerStageClusters hits, the
 * hits go into groups as the exact-chunk buckets alone place them
 * (with the first earlier group whose first hit shares a chunk,
 * modulo 2^61, and lies within distance), and KeyMap fits the groups
 * of two or more over every hit's line.
 */
bool
referenceClassPath(const std::vector<uint8_t> &bytes, const MinerParams &mp)
{
    std::vector<uint64_t> hits;
    for (uint64_t off = 0; off + 64 <= bytes.size(); off += 64) {
        std::span<const uint8_t> block(&bytes[off], 64);
        if (attack::scramblerKeyLitmus(block, mp.litmus_max_bit_errors) &&
            !(mp.drop_constant_blocks && attack::isConstantBlock(block)))
            hits.push_back(off);
    }
    if (hits.size() < attack::kMinerStageClusters)
        return false;
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    std::vector<uint64_t> firsts;
    std::vector<std::vector<uint32_t>> lines;
    for (uint64_t off : hits) {
        std::span<const uint8_t> block(&bytes[off], 64);
        auto key = [&](unsigned c) {
            return (loadLE64(&block[8 * c]) << 3) | c;
        };
        size_t home = SIZE_MAX;
        for (unsigned c = 0; c < 8 && home == SIZE_MAX; ++c) {
            auto bucket = buckets.find(key(c));
            if (bucket == buckets.end())
                continue;
            for (size_t g : bucket->second)
                if (plainDistance(block, {&bytes[firsts[g]], 64}) <=
                    mp.cluster_distance) {
                    home = g;
                    break;
                }
        }
        if (home == SIZE_MAX) {
            home = firsts.size();
            firsts.push_back(off);
            lines.emplace_back();
            for (unsigned c = 0; c < 8; ++c)
                buckets[key(c)].push_back(home);
        }
        lines[home].push_back(static_cast<uint32_t>(off / 64));
    }
    std::vector<std::span<const uint32_t>> groups;
    for (const auto &l : lines)
        if (l.size() > 1)
            groups.emplace_back(l);
    return attack::KeyMap(groups, static_cast<uint32_t>(hits.back() / 64))
        .confident();
}

/**
 * miner-map-first: on address-keyed dumps (FuzzDumpSpec::address_keyed,
 * 1-4 MiB, 3-20 % zero lines, 0-5 % decay) the miner, which clusters
 * each hit only with its own address class's clusters once the hits'
 * own evidence fits a confident map, reports the keys, occurrence
 * counts, first offsets and lines of the plain all-pairs loops
 * (referenceMine) at cluster distances 40-160. Some classes hold a
 * key split in two clusters that only the merge pass joins. Mutations
 * may copy a hit to any line, across classes, but never move or
 * overwrite one: a hit moved to another class with no chunk in common
 * with its key's other copies is outside the map-first contract
 * (DESIGN.md §15).
 */
class MinerMapFirstOracle final : public Oracle
{
  public:
    const char *name() const override { return "miner-map-first"; }

    const char *
    description() const override
    {
        return "on address-keyed dumps the map-first miner reports the "
               "keys, counts, offsets and lines of plain all-pairs "
               "loops";
    }

    unsigned smokeStride() const override { return 8; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = uint64_t{1024 * 1024}
                     << (params.scale + rng.below(3));
        spec.address_keyed = true;
        // At least 1,024 zero lines, so dumps with little decay hold
        // kMinerStageClusters hits.
        spec.zero_line_fraction =
            std::max((30.0 + static_cast<double>(rng.below(171))) / 1000,
                     1024.0 * 64 / static_cast<double>(spec.bytes));
        spec.planted_keys = static_cast<unsigned>(rng.below(17));
        spec.copies_per_key = 2 + static_cast<unsigned>(rng.below(3));
        spec.decay_fraction =
            rng.pick({0.0, 0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05});
        FuzzDump dump = buildFuzzDump(rng, spec);

        MinerParams mp;
        mp.threads = 1; // cases already run in parallel
        mp.cluster_distance = 40 + static_cast<unsigned>(rng.below(121));
        mp.min_occurrences = rng.pick({size_t{1}, size_t{2}, size_t{3}});

        // Split keys, each on four lines of one class. m1 and m2 are
        // disjoint runs of d / 2 flip pairs, so key ^ m1 and key ^ m2
        // lie within distance d of key and twice as far apart: key ^
        // m1 starts a cluster, two pristine copies join it and pull
        // its majority to key, and key ^ m2 starts a second cluster
        // that the merge pass joins again.
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        const uint64_t periods = spec.bytes / (4096 * 64);
        for (uint64_t n = rng.below(4); n > 0; --n) {
            const uint64_t index = rng.below(4096);
            std::vector<uint64_t> lines;
            for (uint64_t p = 0; p < periods; ++p)
                if (rng.below(periods - p) < 4 - lines.size())
                    lines.push_back(index + 4096 * p);
            std::array<uint8_t, 64> key;
            scrambler.lineKey(lines[0] * 64, key.data());
            std::vector<unsigned> order(256);
            for (unsigned i = 0; i < 256; ++i)
                order[i] = i;
            for (size_t i = 255; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
            const unsigned pairs = mp.cluster_distance / 2;
            auto split = key, far = key;
            for (unsigned p = 0; p < pairs; ++p) {
                flipPair(split, order[p]);
                flipPair(far, order[pairs + p]);
            }
            const std::array<uint8_t, 64> *blocks[] = {&split, &key, &key,
                                                        &far};
            for (size_t k = 0; k < 4; ++k)
                std::copy(blocks[k]->begin(), blocks[k]->end(),
                          &dump.bytes[lines[k] * 64]);
        }

        std::vector<ProtectedRegion> hits;
        for (uint64_t off = 0; off < dump.bytes.size(); off += 64)
            if (attack::scramblerKeyLitmus({&dump.bytes[off], 64},
                                           mp.litmus_max_bit_errors))
                hits.push_back({off, off + 64});
        mutateBytes(dump.bytes, rng, params.energy * 4, hits);

        attack::MinerStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto mined = attack::mineScramblerKeys(source, mp, &stats);
        size_t clusters = 0, merges = 0;
        bool fitted = false;
        auto want = referenceMine(dump.bytes, mp, clusters, merges, fitted);

        size_t i = 0;
        while (i < mined.size() && i < want.size() &&
               mined[i].key == want[i].key &&
               mined[i].occurrences == want[i].occurrences &&
               mined[i].first_offset == want[i].first_offset &&
               mined[i].lines == want[i].lines)
            ++i;
        const bool by_class = referenceClassPath(dump.bytes, mp);
        if (i != mined.size() || i != want.size() ||
            stats.clusters != clusters) {
            res.fail(std::string("miner (") +
                     (by_class ? "class path" : "one class") +
                     ") reports " + std::to_string(mined.size()) +
                     " keys from " + std::to_string(stats.clusters) +
                     " clusters, the plain loops " +
                     std::to_string(want.size()) + " from " +
                     std::to_string(clusters) +
                     "; first difference at key " + std::to_string(i) +
                     " (distance " +
                     std::to_string(mp.cluster_distance) + ")");
            return res;
        }
        if (by_class)
            res.feature(1); // clustered by address class
        else if (stats.litmus_hits >= attack::kMinerStageClusters)
            res.feature(2); // enough hits, but the map declined
        else
            res.feature(3); // too few hits for the class path
        if (merges > 0)
            res.feature(4); // the merge pass fired
        res.feature(10 + static_cast<uint32_t>(spec.decay_fraction * 100));
        res.feature(mp.cluster_distance <= 80 ? 20 : 21);
        return res;
    }
};

/**
 * search-planted-schedule: the AES search, fed the true scrambler
 * key among decoys, recovers a planted expanded schedule. Soundness:
 * any recovered key of the planted size equals the planted master
 * and locates its table. Completeness is required at zero decay.
 */
class SearchPlantedScheduleOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "search-planted-schedule";
    }

    const char *
    description() const override
    {
        return "AES search recovers a planted key schedule; any "
               "reported master equals the planted one";
    }

    unsigned smokeStride() const override { return 4; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = static_cast<uint64_t>(64 * 1024)
                     << params.scale;
        spec.planted_keys = 1 + static_cast<unsigned>(rng.below(3));
        spec.plant_schedule = true;
        spec.schedule_size = rng.pick(
            {crypto::AesKeySize::Aes128, crypto::AesKeySize::Aes192,
             crypto::AesKeySize::Aes256});
        spec.decay_fraction = rng.pick({0.0, 0.0, 0.01, 0.02});
        FuzzDump dump = buildFuzzDump(rng, spec);
        res.feature(crypto::aesNk(spec.schedule_size));
        res.feature(10 + static_cast<uint32_t>(
                             spec.decay_fraction * 1000));

        mutateBytes(dump.bytes, rng, params.energy * 4,
                    dump.planted_regions);

        // Candidates: the true scramble key plus decoy pool keys -
        // the search must not be confused by wrong keys.
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        std::vector<MinedKey> candidates;
        candidates.emplace_back(dump.schedule->scramble_key, 3, 0);
        unsigned decoys = static_cast<unsigned>(rng.below(3));
        for (unsigned d = 0; d < decoys; ++d) {
            std::array<uint8_t, 64> key;
            scrambler.poolKey(static_cast<unsigned>(rng.below(4096)),
                              key.data());
            candidates.emplace_back(key, 2, 64);
        }
        res.feature(20 + decoys);

        SearchParams sp;
        sp.key_size = spec.schedule_size;
        sp.threads = 1; // cases already run in parallel
        attack::SearchStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto found =
            attack::searchAesKeyTables(source, candidates, sp,
                                       &stats);

        bool recovered = false;
        for (const auto &k : found) {
            if (k.key_size != spec.schedule_size)
                continue;
            if (!std::equal(k.master.begin(), k.master.end(),
                            dump.schedule->master.begin(),
                            dump.schedule->master.end())) {
                res.fail("recovered master differs from the planted "
                         "key");
                return res;
            }
            if (k.table_offset != dump.schedule->offset) {
                res.fail("recovered table offset " +
                         std::to_string(k.table_offset) +
                         " != planted " +
                         std::to_string(dump.schedule->offset));
                return res;
            }
            recovered = true;
        }
        if (!recovered) {
            if (spec.decay_fraction == 0.0) {
                res.fail("planted schedule not recovered at zero "
                         "decay");
                return res;
            }
            res.feature(31); // allowed statistical miss under decay
        } else {
            res.feature(30);
        }
        return res;
    }
};

/**
 * search-prefilter-exact: the table scan's linear-syndrome prefilter
 * is exact. scanAesKeyTables() must return exactly the hits of the
 * unscreened loop it replaced - the entropy guard and the byte-level
 * AES litmus on every (block, key) pair - for all three key sizes and
 * random litmus budgets. Near-threshold pairs come from decayed
 * planted schedules and from candidates that are the true scramble
 * key with a few flipped bits.
 */
class SearchPrefilterExactOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "search-prefilter-exact";
    }

    const char *
    description() const override
    {
        return "the prefiltered AES table scan finds exactly the hits "
               "of testing every (block, key) pair";
    }

    unsigned smokeStride() const override { return 2; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        spec.bytes = static_cast<uint64_t>(32 * 1024)
                     << params.scale;
        spec.planted_keys = 1 + static_cast<unsigned>(rng.below(3));
        spec.plant_schedule = true;
        spec.schedule_size = rng.pick(
            {crypto::AesKeySize::Aes128, crypto::AesKeySize::Aes192,
             crypto::AesKeySize::Aes256});
        spec.decay_fraction = rng.pick({0.0, 0.01, 0.02, 0.04});
        FuzzDump dump = buildFuzzDump(rng, spec);
        mutateBytes(dump.bytes, rng, params.energy * 4,
                    dump.planted_regions);
        res.feature(crypto::aesNk(spec.schedule_size));

        // The true key, near copies of it and pool decoys.
        std::vector<MinedKey> candidates;
        const auto &truth = dump.schedule->scramble_key;
        candidates.emplace_back(truth, 3, 0);
        unsigned near = 1 + static_cast<unsigned>(rng.below(6));
        for (unsigned n = 0; n < near; ++n) {
            std::array<uint8_t, 64> key = truth;
            for (uint64_t f = rng.below(25); f > 0; --f)
                key[rng.below(64)] ^=
                    static_cast<uint8_t>(1u << rng.below(8));
            candidates.emplace_back(key, 2, 0);
        }
        memctrl::Ddr4Scrambler scrambler(dump.scrambler_seed, 0);
        for (uint64_t d = rng.below(3); d > 0; --d) {
            std::array<uint8_t, 64> key;
            scrambler.poolKey(static_cast<unsigned>(rng.below(4096)),
                              key.data());
            candidates.emplace_back(key, 2, 64);
        }

        SearchParams sp;
        sp.key_size = spec.schedule_size;
        sp.threads = 1; // cases already run in parallel
        sp.litmus_max_bit_errors = static_cast<unsigned>(rng.below(129));
        sp.litmus_max_bits_per_check =
            static_cast<unsigned>(rng.below(34));
        attack::SearchStats stats;
        exec::MemoryDumpSource source(dump.bytes);
        auto hits =
            attack::scanAesKeyTables(source, candidates, sp, &stats);

        std::vector<attack::AesTableHit> want;
        uint64_t attempts = 0;
        for (uint64_t off = 0; off + 64 <= dump.bytes.size();
             off += 64) {
            std::span<const uint8_t> raw(&dump.bytes[off], 64);
            if (attack::isConstantBlock(raw))
                continue;
            for (uint32_t k = 0; k < candidates.size(); ++k) {
                ++attempts;
                std::array<uint8_t, 64> plain;
                for (unsigned i = 0; i < 64; ++i)
                    plain[i] = raw[i] ^ candidates[k].key[i];
                if (!attack::plausibleScheduleEntropy(plain))
                    continue;
                auto hit = attack::aesKeyLitmus(
                    plain, sp.key_size, sp.litmus_max_bit_errors,
                    sp.litmus_max_bits_per_check);
                if (hit)
                    want.push_back({off, k, hit->start_word});
            }
        }

        if (hits != want) {
            size_t i = 0;
            while (i < hits.size() && i < want.size() &&
                   hits[i] == want[i])
                ++i;
            res.fail("prefiltered scan has " +
                     std::to_string(hits.size()) + " hits, every-pair "
                     "scan " + std::to_string(want.size()) +
                     "; first difference at hit " + std::to_string(i) +
                     " (budgets " +
                     std::to_string(sp.litmus_max_bit_errors) + "/" +
                     std::to_string(sp.litmus_max_bits_per_check) +
                     ")");
            return res;
        }
        if (stats.descramble_attempts != attempts ||
            stats.litmus_hits != want.size() ||
            stats.prefilter_passes < want.size() ||
            stats.prefilter_passes > attempts) {
            res.fail("scan funnel counts inconsistent: attempts " +
                     std::to_string(stats.descramble_attempts) + "/" +
                     std::to_string(attempts) + ", prefilter passes " +
                     std::to_string(stats.prefilter_passes) +
                     ", hits " + std::to_string(stats.litmus_hits));
            return res;
        }
        res.feature(10 + static_cast<uint32_t>(
                             std::min<size_t>(want.size(), 8)));
        // Pairs the screen let through and the litmus (or the
        // entropy guard) rejected: the near-threshold cases.
        if (stats.prefilter_passes > want.size())
            res.feature(20);
        return res;
    }
};

/**
 * search-routed-exact: routing the AES search through the address →
 * key map (KeyMap) drops only the pairs the map rules out. On an
 * address-keyed dump, with the keys the miner found, the routed table
 * scan must return exactly the hits of the every-key scan (the same
 * keys with their lines cleared, so the map declines) on the pairs
 * the map allows: on a covered line its slot's keys only, none when
 * the slot mined no key; on any other line every key. It must count
 * exactly the attempts that implies. At zero decay both searches
 * recover the planted master.
 */
class SearchRoutedExactOracle final : public Oracle
{
  public:
    const char *name() const override { return "search-routed-exact"; }

    const char *
    description() const override
    {
        return "the AES search routed through the address -> key map "
               "finds the every-key hits on exactly the keys the map "
               "allows, none on a keyless covered line";
    }

    unsigned smokeStride() const override { return 8; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        // 1 MiB or more, so every key repeats in four key periods.
        // Without stray zero lines, few planted keys leave the map
        // too little evidence, and it declines.
        FuzzDumpSpec spec;
        spec.bytes = uint64_t{1024 * 1024} << params.scale;
        spec.address_keyed = true;
        spec.zero_line_fraction = rng.pick({0.0, 0.01, 0.05});
        spec.planted_keys = static_cast<unsigned>(rng.below(17));
        spec.copies_per_key = 2 + static_cast<unsigned>(rng.below(3));
        spec.plant_schedule = true;
        spec.schedule_size = rng.pick(
            {crypto::AesKeySize::Aes128, crypto::AesKeySize::Aes192,
             crypto::AesKeySize::Aes256});
        spec.decay_fraction = rng.pick({0.0, 0.0, 0.01, 0.02});
        FuzzDump dump = buildFuzzDump(rng, spec);
        mutateBytes(dump.bytes, rng, params.energy * 4,
                    dump.planted_regions);
        res.feature(crypto::aesNk(spec.schedule_size));

        MinerParams mp;
        mp.threads = 1; // cases already run in parallel
        exec::MemoryDumpSource source(dump.bytes);
        const auto mined = attack::mineScramblerKeys(source, mp);
        auto every_key = mined;
        for (auto &k : every_key)
            k.lines.clear();
        const attack::KeyMap map(mined);
        res.feature(map.confident() ? 10 : 11);

        SearchParams sp;
        sp.key_size = spec.schedule_size;
        sp.threads = 1;
        attack::SearchStats routed_stats, every_stats;
        auto routed =
            attack::scanAesKeyTables(source, mined, sp, &routed_stats);
        auto every = attack::scanAesKeyTables(source, every_key, sp,
                                              &every_stats);

        std::vector<attack::AesTableHit> want;
        for (const auto &hit : every) {
            auto keys = map.keysFor(hit.offset / 64);
            if (std::binary_search(keys.begin(), keys.end(),
                                   hit.key_index))
                want.push_back(hit);
        }
        uint64_t attempts = 0, every_attempts = 0;
        bool keyless = false;
        for (uint64_t off = 0; off + 64 <= dump.bytes.size();
             off += 64) {
            auto keys = map.keysFor(off / 64);
            keyless = keyless || (map.covers(off / 64) && keys.empty());
            if (attack::isConstantBlock({&dump.bytes[off], 64}))
                continue;
            attempts += keys.size();
            every_attempts += mined.size();
        }
        if (keyless)
            res.feature(14); // a covered line with no key tried none
        if (routed != want ||
            routed_stats.descramble_attempts != attempts ||
            every_stats.descramble_attempts != every_attempts) {
            res.fail("routed scan has " + std::to_string(routed.size()) +
                     " hits in " +
                     std::to_string(routed_stats.descramble_attempts) +
                     " attempts, the every-key scan on predicted keys " +
                     std::to_string(want.size()) + " in " +
                     std::to_string(attempts) + " (map " +
                     (map.confident() ? "confident" : "declined") + ")");
            return res;
        }
        if (want.size() < every.size())
            res.feature(12); // routing dropped an unpredicted hit

        auto recovers = [&](const std::vector<MinedKey> &keys) {
            bool found = false;
            for (const auto &k :
                 attack::searchAesKeyTables(source, keys, sp))
                found = found || (k.master == dump.schedule->master &&
                                  k.table_offset == dump.schedule->offset);
            return found;
        };
        if (spec.decay_fraction == 0.0) {
            if (!recovers(mined) || !recovers(every_key)) {
                res.fail("planted schedule not recovered at zero decay "
                         "by the routed or the every-key search");
                return res;
            }
            res.feature(13);
        }
        return res;
    }
};

/**
 * parallel-fingerprint: the miner and the search produce
 * byte-identical output at any worker count - serial in-line vs a
 * dedicated pool of k workers - on the same adversarial dump. This
 * is the fuzzing half of the DESIGN.md §9 determinism contract.
 */
class ParallelFingerprintOracle final : public Oracle
{
  public:
    const char *name() const override
    {
        return "parallel-fingerprint";
    }

    const char *
    description() const override
    {
        return "mine+search results are byte-identical between a "
               "serial run and a dedicated k-worker pool";
    }

    unsigned smokeStride() const override { return 8; }

    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        CaseRng rng(params.seed);

        FuzzDumpSpec spec;
        // Several scan chunks (the miner's grain is 1 MiB; the
        // search's is at most that) so the pool has real work to
        // hand out in racy order.
        spec.bytes = static_cast<uint64_t>(2 * 1024 * 1024)
                     << params.scale;
        spec.planted_keys = 3;
        spec.plant_schedule = true;
        spec.decay_fraction = rng.pick({0.0, 0.01});
        FuzzDump dump = buildFuzzDump(rng, spec);
        mutateBytes(dump.bytes, rng, params.energy * 8,
                    dump.planted_regions);

        const unsigned workers =
            2 + static_cast<unsigned>(rng.below(3));
        res.feature(workers);

        auto fingerprint = [&](unsigned threads) {
            crypto::Sha256 hash;
            auto absorb = [&](const void *p, size_t n) {
                hash.update({static_cast<const uint8_t *>(p), n});
            };

            exec::MemoryDumpSource source(dump.bytes);
            MinerParams mp;
            mp.threads = threads;
            auto mined = attack::mineScramblerKeys(source, mp);
            for (const auto &m : mined) {
                absorb(m.key.data(), m.key.size());
                uint64_t occ = m.occurrences;
                absorb(&occ, sizeof(occ));
                absorb(&m.first_offset, sizeof(m.first_offset));
            }

            SearchParams sp;
            sp.threads = threads;
            auto found =
                attack::searchAesKeyTables(source, mined, sp);
            for (const auto &k : found) {
                absorb(k.master.data(), k.master.size());
                absorb(&k.table_offset, sizeof(k.table_offset));
                uint64_t blocks = k.verified_blocks;
                absorb(&blocks, sizeof(blocks));
                unsigned errs = k.total_bit_errors;
                absorb(&errs, sizeof(errs));
            }
            return hash.finish();
        };

        auto serial = fingerprint(1);
        auto pooled = fingerprint(workers);
        if (serial != pooled) {
            res.fail("mine+search fingerprint differs between "
                     "serial and " +
                     std::to_string(workers) + "-worker runs");
            return res;
        }
        res.feature(16);
        return res;
    }
};

const MinerPlantedKeysOracle miner_oracle;
const MinerClusterExactOracle cluster_oracle;
const MinerMapFirstOracle map_first_oracle;
const SearchPlantedScheduleOracle search_oracle;
const SearchPrefilterExactOracle prefilter_oracle;
const SearchRoutedExactOracle routed_oracle;
const ParallelFingerprintOracle fingerprint_oracle;

} // anonymous namespace

void
registerAttackOracles(std::vector<const Oracle *> &out)
{
    out.push_back(&miner_oracle);
    out.push_back(&cluster_oracle);
    out.push_back(&map_first_oracle);
    out.push_back(&search_oracle);
    out.push_back(&prefilter_oracle);
    out.push_back(&routed_oracle);
    out.push_back(&fingerprint_oracle);
}

} // namespace coldboot::fuzz
