/**
 * @file
 * Attack tests: key mining, schedule repair, key-table search, the
 * address → key map that routes it, the DDR3 baseline attack, and the
 * full end-to-end DDR4 cold boot attack against a mounted
 * VeraCrypt-style volume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/aes_search.hh"
#include "attack/attack_pipeline.hh"
#include "attack/ddr3_attack.hh"
#include "attack/key_map.hh"
#include "attack/key_miner.hh"
#include "attack/litmus.hh"
#include "common/bits.hh"
#include "common/hex.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "crypto/xts.hh"
#include "dram/dram_module.hh"
#include "fuzz/dump_builder.hh"
#include "memctrl/scrambler.hh"
#include "obs/stats.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "simd/simd.hh"
#include "volume/veracrypt_volume.hh"

namespace coldboot::attack
{
namespace
{

using crypto::AesKeySize;
using dram::DramModule;
using platform::BiosConfig;
using platform::cpuModelByName;
using platform::Machine;
using platform::MemoryImage;

//
// Key miner
//

TEST(KeyMiner, RecoversPlantedKeysFromCleanDump)
{
    memctrl::Ddr4Scrambler scr(0xFEED, 0);
    Xoshiro256StarStar rng(1);

    MemoryImage dump(MiB(1));
    auto bytes = dump.bytesMutable();
    rng.fillBytes(bytes); // scrambled-looking noise

    // Plant 6 copies each of 10 keys (zero blocks in DRAM).
    for (unsigned k = 0; k < 10; ++k) {
        uint8_t key[64];
        scr.poolKey(k * 100, key);
        for (unsigned copy = 0; copy < 6; ++copy) {
            size_t line = k * 600 + copy * 37;
            memcpy(&bytes[line * 64], key, 64);
        }
    }

    MinerStats stats;
    auto mined = mineScramblerKeys(dump, {}, &stats);
    ASSERT_GE(mined.size(), 10u);
    EXPECT_GT(stats.litmus_hits, 0u);

    // Every planted key must be among the top hits, pristine.
    for (unsigned k = 0; k < 10; ++k) {
        uint8_t key[64];
        scr.poolKey(k * 100, key);
        bool found = false;
        for (const auto &mk : mined)
            found = found ||
                    (memcmp(mk.key.data(), key, 64) == 0 &&
                     mk.occurrences >= 6);
        EXPECT_TRUE(found) << "key " << k * 100;
    }
}

TEST(KeyMiner, MajorityVoteRepairsDecayedCopies)
{
    memctrl::Ddr4Scrambler scr(0xBEEF, 0);
    Xoshiro256StarStar rng(2);
    MemoryImage dump(KiB(64));
    auto bytes = dump.bytesMutable();
    rng.fillBytes(bytes);

    uint8_t key[64];
    scr.poolKey(7, key);
    // 9 copies, each with 6 random bit flips; no copy pristine.
    for (unsigned copy = 0; copy < 9; ++copy) {
        uint8_t noisy[64];
        memcpy(noisy, key, 64);
        for (int f = 0; f < 6; ++f) {
            unsigned bit = static_cast<unsigned>(rng.nextBelow(512));
            noisy[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        }
        memcpy(&bytes[(copy * 41 + 3) * 64], noisy, 64);
    }

    auto mined = mineScramblerKeys(dump);
    ASSERT_GE(mined.size(), 1u);
    EXPECT_EQ(memcmp(mined[0].key.data(), key, 64), 0);
    EXPECT_EQ(mined[0].occurrences, 9u);
}

TEST(KeyMiner, ConstantBlocksDropped)
{
    MemoryImage dump(KiB(64));
    // All-zero dump: everything is constant.
    MinerStats stats;
    auto mined = mineScramblerKeys(dump, {}, &stats);
    EXPECT_TRUE(mined.empty());
    EXPECT_GT(stats.constant_dropped, 0u);
}

TEST(KeyMiner, ScanLimitHonored)
{
    MemoryImage dump(MiB(2));
    MinerParams params;
    params.scan_limit_bytes = KiB(256);
    MinerStats stats;
    mineScramblerKeys(dump, params, &stats);
    EXPECT_EQ(stats.blocks_scanned, KiB(256) / 64);
}

TEST(KeyMiner, VoteTalliesDoNotWrapAt65536Copies)
{
    // 16-bit per-bit tallies wrap every 1-bit's count to 0 at the
    // 65,536th copy, which mines a wrong key.
    std::array<uint8_t, 64> key;
    memctrl::Ddr4Scrambler(7, 0).poolKey(5, key.data());
    MemoryImage dump(MiB(4));
    auto bytes = dump.bytesMutable();
    for (size_t off = 0; off < bytes.size(); off += 64)
        std::copy(key.begin(), key.end(), &bytes[off]);

    MinerParams params;
    params.scan_limit_bytes = 0; // the whole dump
    auto mined = mineScramblerKeys(dump, params);
    ASSERT_EQ(mined.size(), 1u);
    EXPECT_EQ(mined[0].key, key);
    EXPECT_EQ(mined[0].occurrences, 65536u);
}

/**
 * @p key with flip pairs @p first to @p first + @p pairs - 1 applied.
 * Pair p flips bit p / 32 of byte (p / 4) % 8 of row p % 4 and the
 * same bit eight bytes on, which keeps every litmus invariant; any
 * four consecutive pairs touch all eight 8-byte chunks.
 */
std::array<uint8_t, 64>
withRowPairFlips(std::array<uint8_t, 64> key, unsigned first,
                 unsigned pairs)
{
    for (unsigned p = first; p < first + pairs; ++p) {
        unsigned byte = 16 * (p % 4) + (p / 4) % 8;
        auto bit = static_cast<uint8_t>(1u << (p / 32));
        key[byte] ^= bit;
        key[byte + 8] ^= bit;
    }
    return key;
}

/** The clustering work one mining call counts: bucket joins, screened
 *  pairs and merges, as registry deltas. */
struct ClusteringWork
{
    uint64_t joins = 0, screened = 0, merges = 0;
};

std::vector<MinedKey>
mineCountingWork(const MemoryImage &dump, MinerStats &stats,
                 ClusteringWork &work)
{
    auto &registry = obs::StatRegistry::global();
    auto &joins = registry.counter("attack.miner.bucket_joins");
    auto &screened = registry.counter("attack.miner.screened");
    auto &merges = registry.counter("attack.miner.merges");
    const uint64_t joins0 = joins.value(), screened0 = screened.value(),
                   merges0 = merges.value();
    auto mined = mineScramblerKeys(dump, {}, &stats);
    work = {joins.value() - joins0, screened.value() - screened0,
            merges.value() - merges0};
    return mined;
}

TEST(KeyMiner, CountsClusteringWork)
{
    memctrl::Ddr4Scrambler scr(0xC0DE, 0);
    std::array<uint8_t, 64> a, k;
    scr.poolKey(5, a.data());
    scr.poolKey(9, k.data());
    // k split in two: k ^ m1 and k ^ m2, 60 bits from k each and 120
    // bits apart.
    auto split1 = withRowPairFlips(k, 0, 30);
    auto split2 = withRowPairFlips(k, 32, 30);

    // All pairs: seven hits, under the map-first gate.
    MemoryImage dump(KiB(64));
    auto bytes = dump.bytesMutable();
    Xoshiro256StarStar rng(3);
    rng.fillBytes(bytes);
    // In dump order: three copies of a; k ^ m1, which starts a
    // cluster; two copies of k, which join it and pull its majority
    // to k; k ^ m2, which is too far from k ^ m1 and starts a third
    // cluster that the merge pass joins to the second.
    const std::array<uint8_t, 64> *order[] = {&a, &a, &a, &split1,
                                              &k, &k, &split2};
    for (size_t n = 0; n < 7; ++n)
        std::copy(order[n]->begin(), order[n]->end(),
                  &bytes[(50 * n + 1) * 64]);

    MinerStats stats;
    ClusteringWork work;
    auto mined = mineCountingWork(dump, stats, work);
    EXPECT_EQ(stats.litmus_hits, 7u);
    EXPECT_EQ(stats.clusters, 3u);
    // The later copies of a share its chunks; nothing else does.
    EXPECT_EQ(work.joins, 2u);
    // Novelty proofs of the other five hits against 0, 1, 2, 2 and 2
    // representatives, then the merge pass: a against both later
    // majorities, k against the last.
    EXPECT_EQ(work.screened, 10u);
    EXPECT_EQ(work.merges, 1u);

    ASSERT_EQ(mined.size(), 2u);
    EXPECT_EQ(mined[0].key, k);
    EXPECT_EQ(mined[0].occurrences, 4u);
    EXPECT_EQ(mined[0].first_offset, 151u * 64);
    EXPECT_EQ(mined[1].key, a);
    EXPECT_EQ(mined[1].occurrences, 3u);
    EXPECT_EQ(mined[1].first_offset, 64u);

    // By address class: a 1 MiB capture whose lines 4,096 apart share
    // a key. 150 keys have a pristine copy in each of the four key
    // periods, 600 hits, enough for the miner to fit the address map
    // first; the four lines of one class hold the split key above.
    MemoryImage capture(MiB(1));
    auto lines = capture.bytesMutable();
    rng.fillBytes(lines);
    auto keyAt = [&](uint64_t line) {
        std::array<uint8_t, 64> key;
        scr.lineKey(64 * line, key.data());
        return key;
    };
    auto put = [&](uint64_t line, const std::array<uint8_t, 64> &block) {
        std::copy(block.begin(), block.end(), &lines[64 * line]);
    };
    for (uint64_t i = 0; i < 150; ++i)
        for (uint64_t p = 0; p < 4; ++p)
            put(i + 4096 * p, keyAt(i));
    const uint64_t c = 1000;
    const auto kc = keyAt(c);
    put(c, withRowPairFlips(kc, 0, 30));
    put(c + 4096, kc);
    put(c + 8192, kc);
    put(c + 12288, withRowPairFlips(kc, 32, 30));

    mined = mineCountingWork(capture, stats, work);
    EXPECT_EQ(stats.litmus_hits, 604u);
    EXPECT_EQ(stats.clusters, 152u);
    // Three later copies of each of the 150 keys.
    EXPECT_EQ(work.joins, 450u);
    // Only the split class compares: both copies of kc and kc ^ m2
    // with kc ^ m1's cluster in the fold, then that cluster with
    // kc ^ m2's in the merge. In one class every new cluster would be
    // compared with all earlier ones.
    EXPECT_EQ(work.screened, 4u);
    EXPECT_EQ(work.merges, 1u);

    ASSERT_EQ(mined.size(), 151u);
    auto split = std::find_if(mined.begin(), mined.end(),
                              [&](const MinedKey &m) { return m.key == kc; });
    ASSERT_NE(split, mined.end());
    EXPECT_EQ(split->lines,
              (std::vector<uint32_t>{1000, 5096, 9192, 13288}));
    for (const auto &m : mined)
        EXPECT_EQ(m.occurrences, 4u);
}

//
// Schedule repair
//

TEST(ScheduleRepair, FixesScatteredFlips)
{
    Xoshiro256StarStar rng(3);
    std::vector<uint8_t> key(32);
    rng.fillBytes(key);
    auto sched = crypto::aesExpandKey(key);
    std::vector<uint32_t> words(60);
    for (unsigned i = 0; i < 60; ++i)
        words[i] = crypto::aesWordFromBytes(&sched[4 * i]);

    auto corrupted = words;
    // Flip one bit in each of 6 well-separated interior words (head
    // and tail words have only one prediction source and are handled
    // by the search's multi-window reconstruction instead).
    for (unsigned i : {9u, 18u, 27u, 36u, 45u, 51u})
        corrupted[i] ^= 1u << (i % 32);

    unsigned fixed = repairAesScheduleWords(corrupted, 0, 8, 8);
    EXPECT_GE(fixed, 6u);
    EXPECT_EQ(corrupted, words);
}

TEST(ScheduleRepair, NoOpOnCleanSchedule)
{
    Xoshiro256StarStar rng(4);
    std::vector<uint8_t> key(32);
    rng.fillBytes(key);
    auto sched = crypto::aesExpandKey(key);
    std::vector<uint32_t> words(60);
    for (unsigned i = 0; i < 60; ++i)
        words[i] = crypto::aesWordFromBytes(&sched[4 * i]);
    auto copy = words;
    EXPECT_EQ(repairAesScheduleWords(copy, 0, 8, 4), 0u);
    EXPECT_EQ(copy, words);
}

TEST(ScheduleRepair, WorksOnPartialWindows)
{
    // Repair a mid-schedule slice (words 12..59), as assembled from
    // the fully-in-table blocks of an unaligned keytable.
    Xoshiro256StarStar rng(5);
    std::vector<uint8_t> key(32);
    rng.fillBytes(key);
    auto sched = crypto::aesExpandKey(key);
    std::vector<uint32_t> words(48);
    for (unsigned i = 0; i < 48; ++i)
        words[i] = crypto::aesWordFromBytes(&sched[4 * (i + 12)]);
    auto corrupted = words;
    corrupted[20] ^= 0x40;
    corrupted[33] ^= 0x1000;
    repairAesScheduleWords(corrupted, 12, 8, 8);
    EXPECT_EQ(corrupted, words);
}

/**
 * The bit-flipping repair with a 32-step vote per word and fresh
 * vectors each sweep: the slow reference for the bitwise majority of
 * repairAesScheduleWords().
 */
unsigned
referenceRepair(std::vector<uint32_t> &words, unsigned first_word,
                unsigned nk, unsigned iterations)
{
    size_t n = words.size();
    unsigned total_fixed = 0;
    for (unsigned sweep = 0; sweep < iterations; ++sweep) {
        std::vector<uint32_t> f_of(n);
        for (size_t i = 0; i < n; ++i)
            f_of[i] = crypto::aesScheduleStep(
                words[i], 0, first_word + static_cast<unsigned>(i) + 1,
                nk);
        unsigned fixed_bits = 0;
        std::vector<uint32_t> flips(n, 0);
        for (size_t i = 0; i < n; ++i) {
            unsigned a = first_word + static_cast<unsigned>(i);
            uint32_t viol[3];
            int nchecks = 0;
            if (i >= nk && a >= nk)
                viol[nchecks++] = words[i] ^ words[i - nk] ^ f_of[i - 1];
            if (i + nk < n)
                viol[nchecks++] =
                    words[i + nk] ^ words[i] ^ f_of[i + nk - 1];
            if (i + 1 < n && i + 1 >= nk && a + 1 >= nk &&
                crypto::aesStepIsLinear(a + 1, nk))
                viol[nchecks++] =
                    words[i + 1] ^ words[i + 1 - nk] ^ words[i];
            if (nchecks < 2)
                continue;
            for (unsigned j = 0; j < 32; ++j) {
                int violated = 0;
                for (int c = 0; c < nchecks; ++c)
                    violated += (viol[c] >> j) & 1;
                if (violated >= 2)
                    flips[i] |= 1u << j;
            }
        }
        for (size_t i = 0; i < n; ++i) {
            words[i] ^= flips[i];
            fixed_bits += static_cast<unsigned>(std::popcount(flips[i]));
        }
        total_fixed += fixed_bits;
        if (fixed_bits == 0)
            break;
    }
    for (unsigned sweep = 0; sweep < iterations; ++sweep) {
        unsigned fixed = 0;
        for (size_t i = 0; i < n; ++i) {
            unsigned a = first_word + static_cast<unsigned>(i);
            std::optional<uint32_t> fwd, bwd;
            if (i >= nk && a >= nk)
                fwd = crypto::aesScheduleStep(words[i - 1], words[i - nk],
                                              a, nk);
            if (i + nk < n)
                bwd = words[i + nk] ^ crypto::aesScheduleStep(
                                          words[i + nk - 1], 0, a + nk, nk);
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

/**
 * Every window re-expanded through aesScheduleBackward /
 * aesScheduleContinue, none skipped: the slow reference for
 * bestAesScheduleFromWindows(). Returns the winner's distance and
 * writes its master words.
 */
unsigned
referenceBestWindow(const std::vector<uint32_t> &observed,
                    unsigned first_word, unsigned nk, unsigned total,
                    std::vector<uint32_t> &master)
{
    unsigned best_dist = ~0u;
    for (size_t s = 0; s + nk <= observed.size(); ++s) {
        unsigned abs_s = first_word + static_cast<unsigned>(s);
        std::span<const uint32_t> window(&observed[s], nk);
        std::vector<uint32_t> full(total);
        auto head = crypto::aesScheduleBackward(window, abs_s, abs_s, nk);
        std::copy(head.begin(), head.end(), full.begin());
        std::copy(window.begin(), window.end(), full.begin() + abs_s);
        auto tail = crypto::aesScheduleContinue(window, abs_s + nk,
                                                total - abs_s - nk, nk);
        std::copy(tail.begin(), tail.end(), full.begin() + abs_s + nk);
        unsigned dist = 0;
        for (size_t i = 0; i < observed.size(); ++i) {
            dist += static_cast<unsigned>(
                std::popcount(full[first_word + i] ^ observed[i]));
            if (dist >= best_dist)
                break;
        }
        if (dist < best_dist) {
            best_dist = dist;
            master.assign(full.begin(), full.begin() + nk);
            if (dist == 0)
                break;
        }
    }
    return best_dist;
}

TEST(ScheduleRepair, FastPathsMatchTheirReferences)
{
    // The full blocks of a table at a random 4-byte alignment in its
    // line, as the search assembles them, decayed at 0-6 %; every
    // other case labelled at a congruent wrong placement.
    Xoshiro256StarStar rng(23);
    unsigned congruent = 0, recovered = 0, missed = 0, skipped = 0;
    for (auto ks : {AesKeySize::Aes128, AesKeySize::Aes192,
                    AesKeySize::Aes256}) {
        const unsigned nk = crypto::aesNk(ks);
        const auto total =
            static_cast<unsigned>(crypto::aesScheduleBytes(ks) / 4);
        const unsigned modulus = std::lcm(4u, nk);
        for (unsigned pct = 0; pct <= 6; ++pct) {
            for (unsigned trial = 0; trial < 40; ++trial) {
                std::vector<uint8_t> key(4 * nk);
                rng.fillBytes(key);
                auto sched = crypto::aesExpandKey(key);
                const auto p = static_cast<unsigned>(
                    (64 - 4 * rng.nextBelow(16)) % 64 / 4);
                const unsigned n = 16 * ((total - p) / 16);
                std::vector<uint32_t> observed(n);
                for (unsigned i = 0; i < n; ++i) {
                    observed[i] =
                        crypto::aesWordFromBytes(&sched[4 * (p + i)]);
                    for (unsigned b = 0; b < 32; ++b)
                        if (rng.nextBelow(100) < pct)
                            observed[i] ^= 1u << b;
                }
                unsigned first = p;
                if (trial % 2 == 1) {
                    std::vector<unsigned> shifts;
                    for (unsigned q = p % modulus; q + n <= total;
                         q += modulus)
                        if (q != p)
                            shifts.push_back(q);
                    if (shifts.empty()) {
                        ++skipped;
                        continue;
                    }
                    first = shifts[rng.nextBelow(shifts.size())];
                    ++congruent;
                }

                auto ref = observed, fast = observed;
                const unsigned ref_fixed = referenceRepair(ref, first, nk, 8);
                ASSERT_EQ(repairAesScheduleWords(fast, first, nk, 8),
                          ref_fixed);
                ASSERT_EQ(fast, ref);

                std::vector<uint32_t> ref_master;
                const unsigned ref_dist =
                    referenceBestWindow(ref, first, nk, total, ref_master);
                std::vector<uint32_t> schedule(total);
                ASSERT_EQ(bestAesScheduleFromWindows(fast, first, nk,
                                                     schedule),
                          ref_dist);
                ASSERT_EQ(std::vector<uint32_t>(schedule.begin(),
                                                schedule.begin() + nk),
                          ref_master);
                // The winner is one whole schedule: its master's
                // expansion.
                std::vector<uint8_t> master(4 * nk);
                for (unsigned i = 0; i < nk; ++i)
                    crypto::aesBytesFromWord(schedule[i], &master[4 * i]);
                auto expanded = crypto::aesExpandKey(master);
                for (unsigned i = 0; i < total; ++i)
                    ASSERT_EQ(schedule[i],
                              crypto::aesWordFromBytes(&expanded[4 * i]));
                // Both verdicts: the planted master or not.
                (master == key ? recovered : missed) += 1;
            }
        }
    }
    // Both outcomes and the wrong placements are exercised.
    EXPECT_GT(congruent, 100u);
    EXPECT_GT(recovered, 100u);
    EXPECT_GT(missed, 100u);
    EXPECT_LT(skipped, congruent);
}

//
// Key-table search on synthetic dumps
//

// coldboot-lint: allow(wipe-coverage) -- synthetic test dump, planted keys are fixture data
struct SyntheticDump
{
    MemoryImage dump{KiB(256)};
    std::vector<MinedKey> keys;
    std::vector<uint8_t> master; // 64 bytes (XTS pair)
    uint64_t table_addr;
};

/**
 * Build a 256 KiB scrambled dump containing one XTS keytable at a
 * chosen (possibly unaligned) offset, with ground-truth mined keys.
 */
SyntheticDump
makeSyntheticDump(uint64_t seed, uint64_t table_addr)
{
    SyntheticDump s;
    s.table_addr = table_addr;
    memctrl::Ddr4Scrambler scr(seed, 0);
    Xoshiro256StarStar rng(seed + 1);

    // Plaintext: mixed zero pages and noise pages.
    std::vector<uint8_t> plain(s.dump.size());
    for (size_t page = 0; page < plain.size() / 4096; ++page) {
        if (rng.chance(0.4))
            continue; // zero page
        rng.fillBytes(
            std::span<uint8_t>(&plain[page * 4096], 4096));
    }

    // Keytable: two expanded AES-256 schedules back to back.
    s.master.resize(64);
    rng.fillBytes(s.master);
    auto d = crypto::aesExpandKey({s.master.data(), 32});
    auto t = crypto::aesExpandKey({s.master.data() + 32, 32});
    memcpy(&plain[table_addr], d.data(), d.size());
    memcpy(&plain[table_addr + 240], t.data(), t.size());

    // Scramble every line by its address.
    auto bytes = s.dump.bytesMutable();
    for (uint64_t off = 0; off < plain.size(); off += 64)
        scr.apply(off, {&plain[off], 64}, bytes.subspan(off, 64));

    // Ground-truth candidate keys (as the miner would produce).
    for (unsigned idx = 0; idx < 4096; ++idx) {
        MinedKey mk;
        scr.poolKey(idx, mk.key.data());
        mk.occurrences = 2;
        mk.first_offset = 0;
        s.keys.push_back(mk);
    }
    return s;
}

TEST(AesSearch, RecoversXtsPairFromCleanDump)
{
    auto s = makeSyntheticDump(11, KiB(128) + 16);
    SearchStats stats;
    auto found = searchAesKeyTables(s.dump, s.keys, {}, &stats);
    ASSERT_GE(found.size(), 2u);

    auto pairs = pairXtsKeys(found);
    ASSERT_GE(pairs.size(), 1u);
    EXPECT_EQ(memcmp(pairs[0].data_key.data(), s.master.data(), 32),
              0);
    EXPECT_EQ(memcmp(pairs[0].tweak_key.data(), s.master.data() + 32,
                     32),
              0);
    EXPECT_GT(stats.litmus_hits, 0u);
}

/** Parameterized over keytable alignment within a line. */
class AesSearchAlignment : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AesSearchAlignment, RecoversAtEveryLineOffset)
{
    unsigned r = GetParam();
    auto s = makeSyntheticDump(100 + r, KiB(64) + r);
    auto found = searchAesKeyTables(s.dump, s.keys, {});
    auto pairs = pairXtsKeys(found);
    ASSERT_GE(pairs.size(), 1u) << "alignment " << r;
    EXPECT_EQ(memcmp(pairs[0].data_key.data(), s.master.data(), 32),
              0);
}

INSTANTIATE_TEST_SUITE_P(LineOffsets, AesSearchAlignment,
                         ::testing::Values(0u, 16u, 32u, 48u));

TEST(AesSearch, ToleratesDecay)
{
    auto s = makeSyntheticDump(13, KiB(96) + 32);
    // Flip ~0.5% of all bits (a good cooled transfer).
    Xoshiro256StarStar rng(14);
    auto bytes = s.dump.bytesMutable();
    uint64_t flips = s.dump.size() * 8 / 200;
    for (uint64_t f = 0; f < flips; ++f) {
        uint64_t bit = rng.nextBelow(s.dump.size() * 8);
        bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    auto found = searchAesKeyTables(s.dump, s.keys, {});
    auto pairs = pairXtsKeys(found);
    ASSERT_GE(pairs.size(), 1u);
    EXPECT_EQ(memcmp(pairs[0].data_key.data(), s.master.data(), 32),
              0);
    EXPECT_EQ(memcmp(pairs[0].tweak_key.data(), s.master.data() + 32,
                     32),
              0);
}

TEST(AesSearch, NoFalsePositivesWithoutTable)
{
    // Same dump construction but with no keytable planted.
    SyntheticDump s;
    memctrl::Ddr4Scrambler scr(15, 0);
    Xoshiro256StarStar rng(16);
    std::vector<uint8_t> plain(s.dump.size());
    for (size_t page = 0; page < plain.size() / 4096; ++page)
        if (!rng.chance(0.4))
            rng.fillBytes(
                std::span<uint8_t>(&plain[page * 4096], 4096));
    auto bytes = s.dump.bytesMutable();
    for (uint64_t off = 0; off < plain.size(); off += 64)
        scr.apply(off, {&plain[off], 64}, bytes.subspan(off, 64));
    for (unsigned idx = 0; idx < 4096; ++idx) {
        MinedKey mk;
        scr.poolKey(idx, mk.key.data());
        mk.occurrences = 2;
        mk.first_offset = 0;
        s.keys.push_back(mk);
    }

    auto found = searchAesKeyTables(s.dump, s.keys, {});
    EXPECT_TRUE(found.empty());
}

TEST(AesSearch, ScanWindowHonored)
{
    auto s = makeSyntheticDump(17, KiB(128));
    SearchParams params;
    params.scan_start = 0;
    params.scan_bytes = KiB(64); // window excludes the table
    SearchStats stats;
    auto found = searchAesKeyTables(s.dump, s.keys, params, &stats);
    EXPECT_TRUE(found.empty());
    EXPECT_EQ(stats.blocks_scanned, KiB(64) / 64);
}

//
// Address → key map
//

/** A cooled 4 MiB Skylake capture of a mounted volume (bench E4's
 *  scenario), with the keys mined from it. */
// coldboot-lint: allow(wipe-coverage) -- test fixture, the planted master is ground truth
struct SkylakeCapture
{
    MemoryImage dump{size_t{64}};
    std::vector<uint8_t> master; // 64 bytes (XTS pair)
    uint64_t keytable_addr = 0;
    std::vector<MinedKey> mined;
};

/** Built once per process: the suite's tests only read it. */
const SkylakeCapture &
skylakeCapture()
{
    static const SkylakeCapture capture = [] {
        SkylakeCapture c;
        Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1,
                       9000);
        victim.installDimm(0, std::make_shared<DramModule>(
                                  dram::Generation::DDR4, MiB(4),
                                  dram::DecayParams{}, 9001));
        victim.boot();
        platform::fillWorkload(victim, {}, 9002);
        auto vf = volume::VolumeFile::create("hunter2", 16, 9003);
        c.keytable_addr = MiB(3) + 16;
        auto mounted = volume::MountedVolume::mount(
            victim, vf, "hunter2", c.keytable_addr);
        if (mounted)
            c.master.assign(mounted->masterKeys().begin(),
                            mounted->masterKeys().end());
        BiosConfig attacker_bios;
        attacker_bios.boot_pollution_bytes = KiB(64);
        Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                         9004);
        c.dump = platform::coldBootTransfer(victim, attacker, 0).dump;
        c.mined = mineScramblerKeys(c.dump);
        return c;
    }();
    return capture;
}

/** The search's results and stats as one comparable string. */
std::string
searchFingerprint(const std::vector<RecoveredAesKey> &found,
                  const SearchStats &stats)
{
    std::string fp;
    for (const auto &k : found)
        fp += toHex(k.master) + "@" + std::to_string(k.table_offset) +
              "/" + std::to_string(k.verified_blocks) + "/" +
              std::to_string(k.total_bit_errors) + ";";
    for (uint64_t v : {stats.blocks_scanned, stats.descramble_attempts,
                       stats.prefilter_passes, stats.litmus_hits,
                       stats.reconstructions_tried,
                       stats.reconstructions_verified})
        fp += std::to_string(v) + ",";
    return fp;
}

/** Mined keys with their counts, offsets and lines, and the
 *  clustering counters' deltas, as one comparable string. */
std::string
minerFingerprint(const MemoryImage &dump, const MinerParams &params)
{
    auto &registry = obs::StatRegistry::global();
    const char *counters[] = {"attack.miner.screened",
                              "attack.miner.bucket_joins",
                              "attack.miner.merges"};
    uint64_t before[3];
    for (int i = 0; i < 3; ++i)
        before[i] = registry.counter(counters[i]).value();
    std::string fp;
    for (const auto &k : mineScramblerKeys(dump, params)) {
        fp += toHex(k.key) + "*" + std::to_string(k.occurrences) + "@" +
              std::to_string(k.first_offset) + ":";
        for (uint32_t line : k.lines)
            fp += std::to_string(line) + ",";
        fp += ";";
    }
    for (int i = 0; i < 3; ++i)
        fp += std::to_string(registry.counter(counters[i]).value() -
                             before[i]) +
              "/";
    return fp;
}

TEST(KeyMiner, ClusteringIdenticalAcrossWidthsAndSimdBackends)
{
    // The Skylake capture's 4,097 clusters fold by address class; a
    // dump of keys planted at random lines, whose map declines, folds
    // in one class. Either way the majority and near-list stages run
    // on the pool at widths 4 and 0, in-line at width 1.
    const auto &c = skylakeCapture();
    ASSERT_GT(c.mined.size(), kMinerStageClusters);
    fuzz::CaseRng rng(6);
    fuzz::FuzzDumpSpec spec;
    spec.bytes = MiB(1);
    spec.planted_keys = 700;
    spec.copies_per_key = 3;
    spec.zero_line_fraction = 0;
    const MemoryImage scattered(fuzz::buildFuzzDump(rng, spec).bytes);
    auto &screened =
        obs::StatRegistry::global().counter("attack.miner.screened");
    const uint64_t screened0 = screened.value();
    MinerStats stats;
    const auto scattered_keys = mineScramblerKeys(scattered, {}, &stats);
    ASSERT_GT(scattered_keys.size(), kMinerStageClusters);
    ASSERT_FALSE(KeyMap(scattered_keys).confident());
    // In one class each new cluster is compared with every earlier one
    // in the fold, and each such pair once more in the merge.
    const uint64_t clusters = stats.clusters;
    EXPECT_GE(screened.value() - screened0, clusters * (clusters - 1));

    auto &tasks =
        obs::StatRegistry::global().counter("exec.pool.tasks_executed");
    for (const MemoryImage *dump : {&c.dump, &scattered}) {
        std::string reference;
        for (unsigned i = 0; i < simd::kBackendCount; ++i) {
            auto be = static_cast<simd::Backend>(i);
            if (!simd::backendUsable(be))
                continue;
            simd::ScopedBackend forced(be);
            ASSERT_TRUE(forced.active());
            for (unsigned w : {1u, 4u, 0u}) {
                MinerParams params;
                params.threads = w;
                const uint64_t tasks0 = tasks.value();
                std::string fp = minerFingerprint(*dump, params);
                if (w == 4) { // more tasks than the scan's 1 MiB chunks
                    EXPECT_GT(tasks.value() - tasks0,
                              dump->size() / MiB(1))
                        << simd::backendName(be);
                }
                if (reference.empty())
                    reference = fp;
                else
                    EXPECT_EQ(fp, reference)
                        << simd::backendName(be) << " width " << w;
            }
        }
    }
}

uint64_t
routedBlocks()
{
    return obs::StatRegistry::global()
        .counter("attack.search.routed_blocks")
        .value();
}

/**
 * @p keys' map declines, so searching them routes no block and finds
 * and counts exactly what the same keys find with their lines
 * cleared.
 */
void
expectSearchIgnoresLines(const MemoryImage &dump,
                         std::vector<MinedKey> keys,
                         const SearchParams &params)
{
    EXPECT_FALSE(KeyMap(keys).confident());
    const uint64_t before = routedBlocks();
    SearchStats with_lines, without_lines;
    auto with = searchAesKeyTables(dump, keys, params, &with_lines);
    EXPECT_EQ(routedBlocks(), before);
    for (auto &k : keys)
        k.lines.clear();
    auto without =
        searchAesKeyTables(dump, keys, params, &without_lines);
    EXPECT_EQ(searchFingerprint(with, with_lines),
              searchFingerprint(without, without_lines));
}

TEST(KeyMap, FitsTheSkylakeAddressMap)
{
    const auto &c = skylakeCapture();
    KeyMap map(c.mined);
    ASSERT_TRUE(map.confident());
    // 4 MiB holds 2^16 lines and the key is line bits 0-11, so the
    // lines sharing a key differ in line bits 12-15 only.
    EXPECT_EQ(map.kernelDim(), 4u);
    for (unsigned b = 0; b < 16; ++b)
        EXPECT_EQ(map.inKernel(uint64_t{1} << b), b >= 12) << "bit " << b;
    // One key per coset: every line of every key routes to it alone.
    for (uint32_t k = 0; k < c.mined.size(); ++k)
        for (uint32_t line : c.mined[k].lines) {
            auto keys = map.keysFor(line);
            ASSERT_EQ(keys.size(), 1u) << "line " << line;
            ASSERT_EQ(keys[0], k) << "line " << line;
        }
    // Lines wider than the fitted 16 bits are not covered: they try
    // every key.
    EXPECT_FALSE(map.covers(uint64_t{1} << 16));
    EXPECT_EQ(map.keysFor(uint64_t{1} << 16).size(), c.mined.size());
}

TEST(KeyMap, LineGroupsFitAsMinedKeysDo)
{
    // The miner fits plain line groups before it clusters: the same
    // fit, so the same slots.
    const auto &c = skylakeCapture();
    std::vector<std::span<const uint32_t>> groups;
    for (const auto &k : c.mined)
        groups.emplace_back(k.lines);
    const KeyMap by_keys(c.mined), by_groups(groups, 0);
    ASSERT_TRUE(by_groups.confident());
    EXPECT_EQ(by_groups.kernelDim(), by_keys.kernelDim());
    EXPECT_EQ(by_groups.slots(), 4096u);
    for (uint32_t line = 0; line < c.dump.size() / 64; ++line)
        ASSERT_TRUE(std::ranges::equal(by_groups.keysFor(line),
                                       by_keys.keysFor(line)))
            << "line " << line;
    // A top line past every group widens the fitted lines to it, so
    // every hit's line has a slot.
    const uint32_t top = (1u << 18) - 1;
    EXPECT_FALSE(by_groups.covers(top));
    const KeyMap wide(groups, top);
    ASSERT_TRUE(wide.confident());
    EXPECT_TRUE(wide.covers(top));
    EXPECT_EQ(wide.slots(), 4 * by_groups.slots());
    EXPECT_EQ(wide.slotOf(5), wide.slotOf(5 + (1u << 12)));
    EXPECT_NE(wide.slotOf(5), wide.slotOf(5 + (1u << 16)));
}

/**
 * The map fit as a per-bit loop: K as one echelon row per pivot bit,
 * every line reduced bit by bit from the top, a slot read off the
 * non-pivot bits one at a time. KeyMap reduces a byte at a time
 * through tables; this is its reference.
 */
struct BitLoopMap
{
    bool confident = false;
    unsigned n = 0, dim = 0;
    uint32_t rows[32] = {};
    std::vector<std::vector<uint32_t>> slot_members;
    std::vector<uint32_t> pool;

    uint64_t
    reduce(uint64_t v) const
    {
        for (unsigned b = n; b-- > 0;)
            v ^= rows[b] & (0 - ((v >> b) & 1));
        return v;
    }

    uint32_t
    slotOf(uint64_t line) const
    {
        const uint64_t v = reduce(line);
        uint32_t slot = 0;
        unsigned pos = 0;
        for (unsigned b = 0; b < n; ++b)
            if (rows[b] == 0)
                slot |= static_cast<uint32_t>((v >> b) & 1) << pos++;
        return slot;
    }

    bool covers(uint64_t line) const { return confident && line >> n == 0; }

    BitLoopMap(std::span<const std::span<const uint32_t>> groups,
               uint32_t top)
    {
        pool.resize(groups.size());
        std::iota(pool.begin(), pool.end(), 0u);
        for (auto lines : groups) {
            if (lines.empty())
                return;
            top = std::max(top, lines.back());
        }
        n = static_cast<unsigned>(std::bit_width(top));
        for (size_t r = 0; r < groups.size() && dim < n; r += 2)
            for (uint32_t line : groups[r]) {
                const uint64_t v = reduce(line ^ groups[r].front());
                if (v != 0) {
                    rows[std::bit_width(v) - 1] = static_cast<uint32_t>(v);
                    ++dim;
                }
            }
        uint64_t held_out = 0;
        for (size_t r = 1; r < groups.size(); r += 2) {
            for (uint32_t line : groups[r])
                if (reduce(line ^ groups[r].front()) != 0)
                    return;
            held_out += groups[r].size() - 1;
        }
        const unsigned slot_bits = n - dim;
        if (slot_bits == 0 || slot_bits > 20 || held_out * slot_bits < 64)
            return;
        confident = true;
        slot_members.resize(size_t{1} << slot_bits);
        for (uint32_t k = 0; k < groups.size(); ++k)
            slot_members[slotOf(groups[k].front())].push_back(k);
    }
};

TEST(KeyMap, ByteTableFitMatchesBitLoopReference)
{
    Xoshiro256StarStar rng(0xB17E);
    unsigned confident = 0, declined = 0;
    for (unsigned round = 0; round < 600; ++round) {
        const auto n = static_cast<unsigned>(1 + rng.nextBelow(32));
        const uint64_t mask = (uint64_t{1} << n) - 1;
        auto random_line = [&] {
            return static_cast<uint32_t>(rng.next() & mask);
        };
        // A random kernel of dimension 0 to n, then groups of lines
        // that each share one coset of it.
        const auto want_dim = static_cast<unsigned>(rng.nextBelow(n + 1));
        BitLoopMap echelon({}, 0);
        echelon.n = n;
        std::vector<uint32_t> basis;
        while (basis.size() < want_dim) {
            const uint32_t v = random_line();
            const uint64_t r = echelon.reduce(v);
            if (r != 0) {
                echelon.rows[std::bit_width(r) - 1] = static_cast<uint32_t>(r);
                basis.push_back(v);
            }
        }
        std::vector<std::vector<uint32_t>> lines(1 + rng.nextBelow(40));
        for (auto &group : lines) {
            const uint32_t base = random_line();
            group.resize(1 + rng.nextBelow(8));
            for (uint32_t &line : group) {
                line = base;
                for (uint32_t v : basis)
                    if (rng.chance(0.5))
                        line ^= v;
            }
        }
        // Inject a stray line (a hold-out failure when its group is
        // odd-ranked, a wider kernel when even) or an empty group.
        if (rng.chance(0.25))
            lines[rng.nextBelow(lines.size())].push_back(random_line());
        if (rng.chance(0.05))
            lines[rng.nextBelow(lines.size())].clear();
        std::vector<std::span<const uint32_t>> groups;
        for (auto &group : lines) {
            std::sort(group.begin(), group.end());
            groups.emplace_back(group);
        }
        const uint32_t top = rng.chance(0.5) ? 0 : random_line();

        const BitLoopMap ref(groups, top);
        const KeyMap map(groups, top);
        const std::string at = "round " + std::to_string(round);
        ASSERT_EQ(map.confident(), ref.confident) << at;
        ASSERT_EQ(map.slots(), ref.confident ? ref.slot_members.size() : 0)
            << at;
        ASSERT_EQ(map.kernelDim(), ref.confident ? ref.dim : 0) << at;
        (ref.confident ? confident : declined) += 1;
        for (unsigned probe = 0; probe < 64; ++probe) {
            // Covered lines, lines past the fitted width, and kernel
            // members as well as random differences.
            const uint64_t line = rng.chance(0.8)
                                      ? random_line()
                                      : rng.next() & 0xFFFFFFFFFull;
            ASSERT_EQ(map.covers(line), ref.covers(line)) << at;
            if (ref.covers(line)) {
                ASSERT_EQ(map.slotOf(line), ref.slotOf(line)) << at;
                ASSERT_TRUE(std::ranges::equal(
                    map.keysFor(line), ref.slot_members[ref.slotOf(line)]))
                    << at << " line " << line;
            } else {
                ASSERT_TRUE(std::ranges::equal(map.keysFor(line), ref.pool))
                    << at << " line " << line;
            }
            uint64_t d = line;
            if (rng.chance(0.5)) {
                d = 0;
                for (uint32_t v : basis)
                    if (rng.chance(0.5))
                        d ^= v;
            }
            ASSERT_EQ(map.inKernel(d),
                      ref.confident && ref.reduce(d) == 0)
                << at << " difference " << d;
        }
    }
    // Both outcomes are exercised.
    EXPECT_GT(confident, 100u);
    EXPECT_GT(declined, 100u);
}

TEST(KeyMap, MinedKeysCarryTheirLines)
{
    const auto &c = skylakeCapture();
    ASSERT_GT(c.mined.size(), 3000u);
    std::vector<bool> owned(c.dump.size() / 64, false);
    for (const auto &k : c.mined) {
        ASSERT_FALSE(k.lines.empty());
        EXPECT_EQ(k.occurrences, k.lines.size());
        EXPECT_EQ(k.first_offset, 64 * uint64_t{k.lines.front()});
        EXPECT_EQ(std::adjacent_find(k.lines.begin(), k.lines.end(),
                                     std::greater_equal<>()),
                  k.lines.end())
            << "lines not strictly ascending";
        for (uint32_t line : k.lines) {
            ASSERT_LT(line, owned.size());
            EXPECT_FALSE(owned[line]) << "line " << line << " twice";
            owned[line] = true;
        }
    }
}

TEST(KeyMap, RoutedSearchRecoversThePairInFarFewerAttempts)
{
    const auto &c = skylakeCapture();
    ASSERT_EQ(c.master.size(), 64u);
    const uint64_t before = routedBlocks();
    SearchStats stats;
    auto pairs = pairXtsKeys(searchAesKeyTables(c.dump, c.mined, {},
                                                &stats));
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(memcmp(pairs[0].data_key.data(), c.master.data(), 32), 0);
    EXPECT_EQ(memcmp(pairs[0].tweak_key.data(), c.master.data() + 32,
                     32),
              0);
    // Almost every block tries its one predicted key, not ~4,000.
    EXPECT_LT(stats.descramble_attempts,
              stats.blocks_scanned * c.mined.size() / 20);
    EXPECT_GT(routedBlocks() - before, stats.blocks_scanned / 2);
}

TEST(KeyMap, EveryCoveredBlockTriesExactlyItsSlot)
{
    const auto &c = skylakeCapture();
    const KeyMap map(c.mined);
    ASSERT_TRUE(map.confident());
    uint64_t non_constant = 0, slot_members = 0, empty_slots = 0;
    for (uint64_t line = 0; line < c.dump.size() / 64; ++line) {
        ASSERT_TRUE(map.covers(line)) << "line " << line;
        empty_slots += map.keysFor(line).empty() ? 1 : 0;
        if (isConstantBlock(c.dump.bytes().subspan(64 * line, 64)))
            continue;
        ++non_constant;
        slot_members += map.keysFor(line).size();
    }
    SearchStats scan;
    scanAesKeyTables(exec::MemoryDumpSource(c.dump.bytes()), c.mined, {},
                     &scan);
    EXPECT_EQ(scan.descramble_attempts, slot_members);

    auto &registry = obs::StatRegistry::global();
    auto &keyless = registry.counter("attack.search.keyless_blocks");
    const uint64_t routed0 = routedBlocks(), keyless0 = keyless.value();
    auto pairs = pairXtsKeys(searchAesKeyTables(c.dump, c.mined));
    EXPECT_EQ(routedBlocks() - routed0, non_constant);
    // 7 of the 4,096 keys were never mined: 16 lines each.
    EXPECT_EQ(c.mined.size(), 4089u);
    EXPECT_EQ(empty_slots, 16 * (4096 - c.mined.size()));
    EXPECT_EQ(keyless.value() - keyless0, empty_slots);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(memcmp(pairs[0].data_key.data(), c.master.data(), 32), 0);
    EXPECT_EQ(memcmp(pairs[0].tweak_key.data(), c.master.data() + 32,
                     32),
              0);
}

TEST(KeyMap, AKeylessLineOfATableLosesThatTable)
{
    const auto &c = skylakeCapture();
    // One flipped bit in each of the data table's three full blocks,
    // so its reconstruction verifies with 3 bit errors: a keyless
    // block that wrapped the error sum would pass it.
    const uint64_t table = c.keytable_addr; // 16 bytes into a line
    MemoryImage dump(c.dump.size());
    std::copy(c.dump.bytes().begin(), c.dump.bytes().end(),
              dump.bytesMutable().begin());
    for (uint64_t b : {table + 48, table + 112, table + 176})
        dump.bytesMutable()[b] ^= 0x10;
    auto tables = [&](const std::vector<MinedKey> &keys) {
        std::vector<uint64_t> offsets;
        for (const auto &k : searchAesKeyTables(dump, keys))
            offsets.push_back(k.table_offset);
        return offsets;
    };
    auto found = tables(c.mined);
    ASSERT_EQ(std::count(found.begin(), found.end(), table), 1);

    // The head line (48 bytes of the table, verification only), then
    // each full block's line (assembly).
    const KeyMap full_map(c.mined);
    for (uint64_t line = table / 64; line < (table + 240 + 63) / 64;
         ++line) {
        auto slot = full_map.keysFor(line);
        ASSERT_EQ(slot.size(), 1u) << "line " << line;
        auto keys = c.mined;
        keys.erase(keys.begin() + slot[0]);
        const KeyMap map(keys);
        ASSERT_TRUE(map.confident()) << "line " << line;
        ASSERT_TRUE(map.keysFor(line).empty()) << "line " << line;
        found = tables(keys);
        EXPECT_EQ(std::count(found.begin(), found.end(), table), 0)
            << "line " << line;
        // The tweak table's lines keep their keys.
        EXPECT_EQ(std::count(found.begin(), found.end(), table + 240), 1)
            << "line " << line;
    }
}

TEST(KeyMap, DeclinesOnRandomPlacements)
{
    // The fuzz builder plants key copies at random lines.
    fuzz::CaseRng rng(5);
    fuzz::FuzzDumpSpec spec;
    spec.bytes = KiB(256);
    spec.planted_keys = 8;
    spec.plant_schedule = true;
    MemoryImage dump(fuzz::buildFuzzDump(rng, spec).bytes);
    auto mined = mineScramblerKeys(dump);
    ASSERT_GE(mined.size(), 9u);
    expectSearchIgnoresLines(dump, mined, {});
}

TEST(KeyMap, DeclinesOnADdr3UniversalKeyDump)
{
    // Rebooted DDR3: the dump is the plaintext XOR one universal key,
    // whose copies sit at every address. The DDR4 litmus does not
    // pass DDR3 keys, so the key's lines are collected directly.
    Machine victim(cpuModelByName("i5-2540M"), BiosConfig{}, 1, 18);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR3, MiB(1),
                              dram::DecayParams{}, 19));
    victim.boot();
    platform::fillWorkload(victim, {}, 20);
    Machine attacker(cpuModelByName("i5-2540M"), BiosConfig{}, 1, 21);
    auto dump = platform::coldBootTransfer(victim, attacker, 0).dump;

    MinedKey universal(recoverDdr3UniversalKey(dump), 0, 0);
    for (uint32_t line = 0; line < dump.size() / 64; ++line)
        if (hammingDistance(dump.bytes().subspan(64 * line, 64),
                            universal.key) <= 80)
            universal.lines.push_back(line);
    ASSERT_GT(universal.lines.size(), 1000u);
    universal.occurrences = universal.lines.size();
    universal.first_offset = 64 * uint64_t{universal.lines.front()};
    expectSearchIgnoresLines(dump, {universal}, {});
}

TEST(KeyMap, DeclinesWhenAKeyHasNoLines)
{
    const auto &c = skylakeCapture();
    auto keys = c.mined;
    keys[keys.size() / 2].lines.clear();
    SearchParams params;
    params.scan_start = c.keytable_addr - KiB(64);
    params.scan_bytes = KiB(192);
    expectSearchIgnoresLines(c.dump, keys, params);
}

TEST(KeyMap, RoutedSearchIdenticalAcrossWidthsAndSimdBackends)
{
    const auto &c = skylakeCapture();
    std::string reference;
    for (unsigned i = 0; i < simd::kBackendCount; ++i) {
        auto be = static_cast<simd::Backend>(i);
        if (!simd::backendUsable(be))
            continue;
        simd::ScopedBackend forced(be);
        ASSERT_TRUE(forced.active());
        for (unsigned w : {1u, 4u}) {
            MinerParams miner;
            miner.threads = w;
            SearchParams params;
            params.threads = w;
            SearchStats stats;
            auto mined = mineScramblerKeys(c.dump, miner);
            ASSERT_TRUE(KeyMap(mined).confident());
            auto found = searchAesKeyTables(c.dump, mined, params, &stats);
            std::string fp = searchFingerprint(found, stats);
            if (reference.empty())
                reference = fp;
            else
                EXPECT_EQ(fp, reference)
                    << simd::backendName(be) << " width " << w;
        }
    }
    EXPECT_NE(reference.find(toHex({c.master.data(), 32})),
              std::string::npos);
}

//
// DDR3 baseline attack
//

TEST(Ddr3Attack, UniversalKeyRecoveryAfterReboot)
{
    // Victim DDR3 machine; dump re-read through a second scrambler.
    Machine victim(cpuModelByName("i5-2540M"), BiosConfig{}, 1, 18);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR3, MiB(1),
                              dram::DecayParams{}, 19));
    victim.boot();
    platform::fillWorkload(victim, {}, 20);
    std::vector<uint8_t> secret(64);
    const char *msg = "0123456789abcdef0123456789abcdef"
                      "0123456789abcdefDDR3SECRETKEY!!!";
    memcpy(secret.data(), msg, 64);
    victim.writePhys(KiB(700), secret);
    MemoryImage truth = victim.dumpMemory();

    Machine attacker(cpuModelByName("i5-2540M"), BiosConfig{}, 1, 21);
    platform::ColdBootParams cold;
    auto result = platform::coldBootTransfer(victim, attacker, 0,
                                             cold);

    // The double-scrambled dump equals truth XOR one universal key.
    auto universal = recoverDdr3UniversalKey(result.dump);
    MemoryImage recovered = result.dump;
    descrambleWithUniversalKey(recovered, universal);

    // Outside the attacker's boot-polluted low region, nearly all
    // bits must match the victim's software view.
    size_t skip = 256 * 1024;
    size_t diff = hammingDistance(
        recovered.bytes().subspan(skip),
        truth.bytes().subspan(skip));
    double frac = static_cast<double>(diff) /
                  ((recovered.size() - skip) * 8.0);
    EXPECT_LT(frac, 0.03); // only decay noise remains

    EXPECT_LE(hammingDistance(
                  recovered.bytes().subspan(KiB(700), 64),
                  std::span<const uint8_t>(secret.data(), 64)),
              10u);
}

TEST(Ddr3Attack, SixteenKeyRecoveryFromRawDump)
{
    // Raw (scrambler-off) capture of a DDR3-scrambled DIMM.
    Machine victim(cpuModelByName("i7-3540M"), BiosConfig{}, 1, 22);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR3, MiB(1),
                              dram::DecayParams{}, 23));
    victim.boot();
    platform::fillWorkload(victim, {}, 24);
    MemoryImage truth = victim.dumpMemory();

    // Capture raw DRAM contents (no decay: analysis-bench setting).
    victim.shutdown();
    auto dimm = victim.removeDimm(0);
    MemoryImage raw(dimm->size());
    dimm->read(0, raw.bytesMutable());

    auto keys = recoverDdr3Keys(raw);
    ASSERT_EQ(keys.size(), 16u);
    MemoryImage recovered = raw;
    descrambleDdr3(recovered, keys);

    size_t skip = 256 * 1024; // victim boot pollution is workload-
                              // overwritten; compare everything after
    size_t diff = hammingDistance(recovered.bytes().subspan(skip),
                                  truth.bytes().subspan(skip));
    EXPECT_EQ(diff, 0u);
}

TEST(Ddr3Attack, UniversalKeyFailsOnDdr4)
{
    // The motivating negative result: DDR4 dumps have no universal
    // key, so the DDR3 attack recovers garbage.
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 25);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR4, MiB(1),
                              dram::DecayParams{}, 26));
    victim.boot();
    platform::fillWorkload(victim, {}, 27);
    MemoryImage truth = victim.dumpMemory();

    Machine attacker(cpuModelByName("i5-6600K"), BiosConfig{}, 1, 28);
    auto result = platform::coldBootTransfer(victim, attacker, 0);

    auto universal = recoverDdr3UniversalKey(result.dump);
    MemoryImage recovered = result.dump;
    descrambleWithUniversalKey(recovered, universal);

    size_t skip = 256 * 1024;
    size_t diff = hammingDistance(recovered.bytes().subspan(skip),
                                  truth.bytes().subspan(skip));
    double frac = static_cast<double>(diff) /
                  ((recovered.size() - skip) * 8.0);
    EXPECT_GT(frac, 0.20); // mostly wrong
}

//
// End-to-end DDR4 cold boot attack
//

TEST(EndToEnd, VeraCryptKeyRecoveryFromFrozenDdr4)
{
    // 1. Victim: Skylake DDR4 machine, loaded, volume mounted.
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 31);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR4, MiB(8),
                              dram::DecayParams{}, 32));
    victim.boot();
    platform::fillWorkload(victim, {}, 33);

    auto vf = volume::VolumeFile::create("correct horse", 16, 34);
    uint64_t keytable_addr = MiB(6) + 16; // not line aligned
    auto mounted = volume::MountedVolume::mount(victim, vf,
                                                "correct horse",
                                                keytable_addr);
    ASSERT_TRUE(mounted);
    std::vector<uint8_t> secret(volume::sectorBytes, 0);
    const char *msg = "attack at dawn";
    memcpy(secret.data(), msg, strlen(msg));
    mounted->writeSector(7, secret);
    std::vector<uint8_t> expected_master(
        mounted->masterKeys().begin(), mounted->masterKeys().end());

    // 2. Freeze, pull, transfer, dump on the attacker's machine
    //    (same generation; its own scrambler stays ENABLED).
    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64); // minimal dumper
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     35);
    auto cold = platform::coldBootTransfer(victim, attacker, 0);
    EXPECT_GT(cold.bits_flipped, 0u); // decay really happened

    // 3. Run the attack. Mining covers the whole dump; the key table
    //    search is windowed around the upper memory region to keep
    //    the test fast (the full-dump scan is exercised by bench E4).
    PipelineParams params;
    params.search.scan_start = MiB(6) - KiB(64);
    params.search.scan_bytes = KiB(192);
    auto report = runColdBootAttack(cold.dump, params);

    ASSERT_GE(report.xts_pairs.size(), 1u);
    EXPECT_EQ(memcmp(report.xts_pairs[0].data_key.data(),
                     expected_master.data(), 32),
              0);
    EXPECT_EQ(memcmp(report.xts_pairs[0].tweak_key.data(),
                     expected_master.data() + 32, 32),
              0);

    // 4. Decrypt the captured volume with the recovered keys.
    crypto::XtsAes xts(
        {report.xts_pairs[0].data_key.data(), 32},
        {report.xts_pairs[0].tweak_key.data(), 32});
    std::vector<uint8_t> plain(volume::sectorBytes);
    xts.decryptSector(7, vf.sectorCiphertext(7), plain);
    EXPECT_EQ(0, memcmp(plain.data(), msg, strlen(msg)));
}

/**
 * A mounted volume's key table at 5 MiB + 32, dumped through an
 * attacker machine whose scrambler is off, so the dump shows
 * K_victim directly rather than K_victim ^ K_attacker.
 *
 * @param master Receives the volume's master keys.
 */
MemoryImage
captureWithAttackerScramblerOff(std::vector<uint8_t> &master)
{
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 41);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR4, MiB(8),
                              dram::DecayParams{}, 42));
    victim.boot();
    platform::fillWorkload(victim, {}, 43);
    auto vf = volume::VolumeFile::create("pw", 8, 44);
    uint64_t keytable_addr = MiB(5) + 32;
    auto mounted =
        volume::MountedVolume::mount(victim, vf, "pw", keytable_addr);
    EXPECT_TRUE(mounted);
    if (mounted)
        master.assign(mounted->masterKeys().begin(),
                      mounted->masterKeys().end());

    BiosConfig attacker_bios;
    attacker_bios.scrambler_enabled = false;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6400"), attacker_bios, 1, 45);
    return platform::coldBootTransfer(victim, attacker, 0).dump;
}

/** Scan window around the capture's key table. */
PipelineParams
keyTableWindow()
{
    PipelineParams params;
    params.search.scan_start = MiB(5) - KiB(64);
    params.search.scan_bytes = KiB(192);
    return params;
}

TEST(EndToEnd, AttackAlsoWorksWithScramblerDisabledDump)
{
    std::vector<uint8_t> expected_master;
    auto dump = captureWithAttackerScramblerOff(expected_master);
    ASSERT_EQ(expected_master.size(), 64u);
    auto report = runColdBootAttack(dump, keyTableWindow());

    ASSERT_GE(report.xts_pairs.size(), 1u);
    EXPECT_EQ(memcmp(report.xts_pairs[0].data_key.data(),
                     expected_master.data(), 32),
              0);
}

TEST(EndToEnd, ReportPrefilterPassesMatchTheRegistry)
{
    std::vector<uint8_t> master;
    auto dump = captureWithAttackerScramblerOff(master);
    const auto &passes = obs::StatRegistry::global().counter(
        "attack.search.prefilter_passes");
    const uint64_t before = passes.value();
    auto report = runColdBootAttack(dump, keyTableWindow());

    ASSERT_GE(report.xts_pairs.size(), 1u);
    EXPECT_GT(report.search_stats.prefilter_passes, 0u);
    EXPECT_EQ(report.search_stats.prefilter_passes,
              passes.value() - before);
}

TEST(EndToEnd, DegenerateDumpThroughputStaysFinite)
{
    // Degenerate input (a single all-zero line - MemoryImage itself
    // rejects size 0): the throughput figure must stay finite and
    // non-negative, never inf/nan, so the stats JSON stays
    // comparable across runs.
    MemoryImage tiny{size_t{64}};
    auto report = runColdBootAttack(tiny, {});
    EXPECT_TRUE(std::isfinite(report.mib_per_second));
    EXPECT_GE(report.mib_per_second, 0.0);
    EXPECT_TRUE(report.xts_pairs.empty());
}

} // anonymous namespace
} // namespace coldboot::attack
