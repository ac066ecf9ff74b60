/**
 * @file
 * Cross-module integration tests beyond the headline end-to-end
 * scenario: dual-channel attacks (8192 keys), other AES variants,
 * attack-model violations (cross-generation dumps), parallel scan
 * determinism, seed-reusing BIOS behaviour, and failure injection.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "attack/aes_search.hh"
#include "attack/attack_pipeline.hh"
#include "attack/key_miner.hh"
#include "common/bits.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "crypto/aes.hh"
#include "dram/dram_module.hh"
#include "memctrl/scrambler.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
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

std::shared_ptr<DramModule>
ddr4(uint64_t bytes, uint64_t seed)
{
    return std::make_shared<DramModule>(dram::Generation::DDR4, bytes,
                                        dram::DecayParams{}, seed);
}

TEST(DualChannel, AttackRecoversKeysAcrossInterleave)
{
    // Dual-channel Skylake victim: the keytable's lines interleave
    // across two DIMMs and two independent 4096-key scramblers. The
    // attacker moves both DIMMs (coldBootTransferAll), dumps the
    // reassembled physical space, and mines up to 8192 keys.
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 2, 201);
    victim.installDimm(0, ddr4(MiB(4), 202));
    victim.installDimm(1, ddr4(MiB(4), 203));
    victim.boot();
    EXPECT_EQ(victim.capacity(), MiB(8));
    platform::fillWorkload(victim, {}, 204);

    auto vf = volume::VolumeFile::create("pw", 8, 205);
    uint64_t keytable_addr = MiB(6) + 16;
    auto mounted =
        volume::MountedVolume::mount(victim, vf, "pw", keytable_addr);
    ASSERT_TRUE(mounted);
    std::vector<uint8_t> expected(mounted->masterKeys().begin(),
                                  mounted->masterKeys().end());

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 2,
                     206);
    auto cold = platform::coldBootTransferAll(victim, attacker);
    EXPECT_EQ(cold.dump.size(), MiB(8));

    // The whole dump is searched: the channel hash XORs address bits,
    // so the address → key map stays GF(2)-linear across both
    // channels and routes almost every block to its one key.
    auto report = runColdBootAttack(cold.dump, {});

    // Two channels' pools: mining approaches 8192 distinct keys.
    EXPECT_GT(report.mined_keys.size(), 6000u);
    EXPECT_LT(report.search_stats.descramble_attempts,
              report.search_stats.blocks_scanned *
                  report.mined_keys.size() / 10);
    ASSERT_GE(report.xts_pairs.size(), 1u);
    EXPECT_EQ(memcmp(report.xts_pairs[0].data_key.data(),
                     expected.data(), 32),
              0);
    EXPECT_EQ(memcmp(report.xts_pairs[0].tweak_key.data(),
                     expected.data() + 32, 32),
              0);
}

/** Synthetic scrambled dump holding one schedule of a given size. */
// coldboot-lint: allow(wipe-coverage) -- synthetic test dump, planted keys are fixture data
struct VariantDump
{
    MemoryImage dump{KiB(128)};
    std::vector<MinedKey> keys;
    std::vector<uint8_t> master;
};

VariantDump
makeVariantDump(AesKeySize ks, uint64_t seed, uint64_t table_addr)
{
    VariantDump v;
    memctrl::Ddr4Scrambler scr(seed, 0);
    Xoshiro256StarStar rng(seed + 1);

    std::vector<uint8_t> plain(v.dump.size());
    for (size_t page = 0; page < plain.size() / 4096; ++page)
        if (!rng.chance(0.4))
            rng.fillBytes(
                std::span<uint8_t>(&plain[page * 4096], 4096));

    v.master.resize(static_cast<size_t>(ks));
    rng.fillBytes(v.master);
    auto sched = crypto::aesExpandKey(v.master);
    memcpy(&plain[table_addr], sched.data(), sched.size());

    auto bytes = v.dump.bytesMutable();
    for (uint64_t off = 0; off < plain.size(); off += 64)
        scr.apply(off, {&plain[off], 64}, bytes.subspan(off, 64));

    for (unsigned idx = 0; idx < 4096; ++idx) {
        MinedKey mk;
        scr.poolKey(idx, mk.key.data());
        mk.occurrences = 2;
        mk.first_offset = 0;
        v.keys.push_back(mk);
    }
    return v;
}

/** Parameterized search across all AES variants. */
class VariantSearch : public ::testing::TestWithParam<AesKeySize>
{
};

TEST_P(VariantSearch, RecoversPlantedSchedule)
{
    AesKeySize ks = GetParam();
    auto v = makeVariantDump(ks, 300 + static_cast<uint64_t>(ks),
                             KiB(64) + 16);
    SearchParams params;
    params.key_size = ks;
    auto found = searchAesKeyTables(v.dump, v.keys, params);
    ASSERT_GE(found.size(), 1u) << "key size "
                                << static_cast<size_t>(ks);
    EXPECT_EQ(found[0].master, v.master);
    EXPECT_EQ(found[0].key_size, ks);
}

INSTANTIATE_TEST_SUITE_P(AllKeySizes, VariantSearch,
                         ::testing::Values(AesKeySize::Aes128,
                                           AesKeySize::Aes192,
                                           AesKeySize::Aes256));

TEST(AttackModel, CrossGenerationDumpDefeatsMining)
{
    // Attack-model requirement: the dumping machine must be the same
    // generation. A SandyBridge (DDR3-scrambler) attacker machine
    // XORs its own keystream into the dump; DDR3 keys violate the
    // DDR4 invariants, so mining collapses.
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 401);
    victim.installDimm(0, ddr4(MiB(2), 402));
    victim.boot();
    platform::fillWorkload(victim, {}, 403);
    auto vf = volume::VolumeFile::create("pw", 8, 404);
    auto mounted =
        volume::MountedVolume::mount(victim, vf, "pw", MiB(1) + 16);
    ASSERT_TRUE(mounted);

    Machine attacker(cpuModelByName("i5-2540M"), BiosConfig{}, 1,
                     405);
    auto cold = platform::coldBootTransfer(victim, attacker, 0);

    auto report = runColdBootAttack(cold.dump, {});
    EXPECT_TRUE(report.xts_pairs.empty());
}

TEST(ParallelScan, ThreadedSearchMatchesSerial)
{
    auto v = makeVariantDump(AesKeySize::Aes256, 500, KiB(96));
    SearchParams serial;
    SearchParams threaded;
    threaded.threads = 4;
    auto a = searchAesKeyTables(v.dump, v.keys, serial);
    auto b = searchAesKeyTables(v.dump, v.keys, threaded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].master, b[i].master);
        EXPECT_EQ(a[i].table_offset, b[i].table_offset);
    }
}

TEST(LazyBios, ScramblerKeysSurviveReboot)
{
    // Paper observation: some vendor BIOSes do not reset the seed,
    // so the same scrambler keys come back after reboot.
    BiosConfig bios;
    bios.reset_seed_each_boot = false;
    bios.boot_pollution_bytes = 0;
    Machine m(cpuModelByName("i5-6400"), bios, 1, 601);
    m.installDimm(0, ddr4(MiB(1), 602));
    m.boot();
    uint8_t k1[64], k2[64];
    m.controller().scrambler(0).lineKey(0x4000, k1);
    m.reboot();
    m.controller().scrambler(0).lineKey(0x4000, k2);
    EXPECT_EQ(0, memcmp(k1, k2, 64));
}

TEST(FailureInjection, MissingKeysMeanNoRecovery)
{
    // Remove the scrambler keys covering the table's own blocks from
    // the candidate set: reconstruction must fail cleanly rather
    // than fabricate a key.
    auto v = makeVariantDump(AesKeySize::Aes256, 700, KiB(64));
    memctrl::Ddr4Scrambler scr(700, 0);
    std::vector<std::array<uint8_t, 64>> table_keys;
    for (uint64_t b = KiB(64) & ~63ULL; b < KiB(64) + 240; b += 64) {
        std::array<uint8_t, 64> key;
        scr.poolKey(memctrl::Ddr4Scrambler::keyIndex(b), key.data());
        table_keys.push_back(key);
    }
    std::vector<MinedKey> pruned;
    for (const auto &mk : v.keys) {
        bool is_table_key = false;
        for (const auto &key : table_keys)
            is_table_key = is_table_key ||
                           !memcmp(mk.key.data(), key.data(), 64);
        if (!is_table_key)
            pruned.push_back(mk);
    }
    ASSERT_LT(pruned.size(), v.keys.size());
    auto found = searchAesKeyTables(v.dump, pruned, {});
    EXPECT_TRUE(found.empty());
}

TEST(FailureInjection, EmptyCandidateListIsHarmless)
{
    auto v = makeVariantDump(AesKeySize::Aes256, 800, KiB(64));
    auto found = searchAesKeyTables(v.dump, {}, {});
    EXPECT_TRUE(found.empty());
}

TEST(FailureInjection, ReconstructionCapRespected)
{
    auto v = makeVariantDump(AesKeySize::Aes256, 900, KiB(64));
    SearchParams params;
    params.max_reconstructions = 1;
    SearchStats stats;
    searchAesKeyTables(v.dump, v.keys, params, &stats);
    EXPECT_LE(stats.reconstructions_tried, 1u);
}

TEST(Scrambler, ApplyTwiceIsIdentity)
{
    // Property: scramble == descramble (XOR keystream).
    memctrl::Ddr4Scrambler scr(1001, 0);
    Xoshiro256StarStar rng(1002);
    for (int trial = 0; trial < 50; ++trial) {
        uint8_t data[64], once[64], twice[64];
        std::span<uint8_t> span(data, 64);
        rng.fillBytes(span);
        uint64_t addr = (rng.nextBelow(1 << 20)) << 6;
        scr.apply(addr, {data, 64}, {once, 64});
        scr.apply(addr, {once, 64}, {twice, 64});
        ASSERT_EQ(0, memcmp(data, twice, 64));
    }
}

TEST(Pipeline, ReportsThroughput)
{
    MemoryImage dump(MiB(1));
    Xoshiro256StarStar rng(1100);
    rng.fillBytes(dump.bytesMutable());
    auto report = runColdBootAttack(dump, {});
    EXPECT_GT(report.mib_per_second, 0.0);
    EXPECT_EQ(report.miner_stats.blocks_scanned, MiB(1) / 64);
}

} // anonymous namespace
} // namespace coldboot::attack
