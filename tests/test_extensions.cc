/**
 * @file
 * Tests for the extension features: non-volatile DIMMs (the paper's
 * motivation that NVDIMMs make cold boot worse), register-only key
 * storage (the TRESOR-class mitigation the paper surveys), the
 * Halderman baseline key search, and dump file round-trips.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include <unistd.h>

#include "attack/attack_pipeline.hh"
#include "attack/ddr3_attack.hh"
#include "attack/halderman_search.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "crypto/aes.hh"
#include "dram/dram_module.hh"
#include "exec/dump_io.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "volume/veracrypt_volume.hh"

namespace coldboot
{
namespace
{

using attack::BaselineParams;
using attack::haldermanSearch;
using dram::DramModule;
using dram::Media;
using platform::BiosConfig;
using platform::cpuModelByName;
using platform::Machine;
using platform::MemoryImage;

//
// Non-volatile DIMMs
//

TEST(Nvdimm, NeverDecays)
{
    DramModule nv(dram::Generation::DDR4, MiB(1), {}, 1, "nvdimm",
                  Media::NonVolatileDimm);
    std::vector<uint8_t> data(MiB(1), 0xa7);
    nv.write(0, data);
    nv.powerOff();
    nv.coolTo(60.0); // hot, even
    EXPECT_EQ(nv.elapse(3600.0), 0u);
    EXPECT_DOUBLE_EQ(nv.retentionVersus(data), 1.0);
}

TEST(Nvdimm, AttackNeedsNoCooling)
{
    // The paper's motivation: with NVDIMMs the attacker skips the
    // freezer spray entirely and loses nothing in transit.
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 11);
    victim.installDimm(
        0, std::make_shared<DramModule>(dram::Generation::DDR4,
                                        MiB(4), dram::DecayParams{},
                                        12, "nvdimm",
                                        Media::NonVolatileDimm));
    victim.boot();
    platform::fillWorkload(victim, {}, 13);
    auto vf = volume::VolumeFile::create("pw", 8, 14);
    auto mounted =
        volume::MountedVolume::mount(victim, vf, "pw", MiB(3) + 16);
    ASSERT_TRUE(mounted);
    std::vector<uint8_t> expected(mounted->masterKeys().begin(),
                                  mounted->masterKeys().end());

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     15);
    platform::ColdBootParams params;
    params.cool_first = false;       // no spray
    params.transfer_seconds = 600.0; // ten leisurely minutes
    auto cold = platform::coldBootTransfer(victim, attacker, 0,
                                           params);
    EXPECT_EQ(cold.bits_flipped, 0u);

    attack::PipelineParams pp;
    pp.search.scan_start = MiB(3) - KiB(64);
    pp.search.scan_bytes = KiB(128);
    auto report = attack::runColdBootAttack(cold.dump, pp);
    ASSERT_GE(report.xts_pairs.size(), 1u);
    EXPECT_EQ(memcmp(report.xts_pairs[0].data_key.data(),
                     expected.data(), 32),
              0);
}

//
// Register-only key storage
//

TEST(RegisterKeys, VolumeWorksWithoutRamFootprint)
{
    Machine m(cpuModelByName("i5-6400"), BiosConfig{}, 1, 21);
    m.installDimm(0, std::make_shared<DramModule>(
                         dram::Generation::DDR4, MiB(1),
                         dram::DecayParams{}, 22));
    m.boot();
    MemoryImage before = m.dumpMemory();

    auto vf = volume::VolumeFile::create("pw", 8, 23);
    auto mounted = volume::MountedVolume::mount(
        m, vf, "pw", KiB(512), volume::KeyStorage::Registers);
    ASSERT_TRUE(mounted);
    EXPECT_EQ(mounted->keyStorage(), volume::KeyStorage::Registers);

    // Sector I/O still works...
    std::vector<uint8_t> data(volume::sectorBytes, 0x3f), back(
        volume::sectorBytes);
    mounted->writeSector(2, data);
    mounted->readSector(2, back);
    EXPECT_EQ(back, data);

    // ...and machine memory is untouched by the mount.
    MemoryImage after = m.dumpMemory();
    EXPECT_EQ(before.identicalLines(after), before.lines());
}

TEST(RegisterKeys, ColdBootAttackFindsNothing)
{
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 31);
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR4, MiB(2),
                              dram::DecayParams{}, 32));
    victim.boot();
    platform::fillWorkload(victim, {}, 33);
    auto vf = volume::VolumeFile::create("pw", 8, 34);
    auto mounted = volume::MountedVolume::mount(
        victim, vf, "pw", MiB(1) + 16, volume::KeyStorage::Registers);
    ASSERT_TRUE(mounted);

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     35);
    auto cold = platform::coldBootTransfer(victim, attacker, 0);
    auto report = attack::runColdBootAttack(cold.dump, {});
    EXPECT_TRUE(report.recovered.empty());
}

//
// Halderman baseline search
//

TEST(Halderman, FindsKeyInPlaintextImage)
{
    Xoshiro256StarStar rng(41);
    MemoryImage image(KiB(256));
    rng.fillBytes(image.bytesMutable());

    std::vector<uint8_t> key(32);
    rng.fillBytes(key);
    auto sched = crypto::aesExpandKey(key);
    uint64_t off = KiB(100) + 24; // arbitrary byte alignment
    memcpy(image.bytesMutable().data() + off, sched.data(),
           sched.size());

    auto found = haldermanSearch(image);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].master, key);
    EXPECT_EQ(found[0].offset, off);
    EXPECT_EQ(found[0].bit_errors, 0u);
}

TEST(Halderman, ToleratesDecayInTheTail)
{
    Xoshiro256StarStar rng(42);
    MemoryImage image(KiB(64));
    rng.fillBytes(image.bytesMutable());
    std::vector<uint8_t> key(32);
    rng.fillBytes(key);
    auto sched = crypto::aesExpandKey(key);
    uint64_t off = KiB(32);
    auto bytes = image.bytesMutable();
    memcpy(bytes.data() + off, sched.data(), sched.size());
    // Flip bits in the expanded tail (not the raw key itself - the
    // baseline cannot survive window corruption, one of its known
    // weaknesses versus schedule-repairing reconstruction).
    for (int i = 0; i < 6; ++i)
        bytes[off + 40 + 30 * i] ^= 1;

    auto found = haldermanSearch(image);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].master, key);
    EXPECT_GT(found[0].bit_errors, 0u);
}

TEST(Halderman, MissesWhenWindowIsCorrupted)
{
    // The baseline's weakness the paper's method fixes: a single
    // flipped bit in the raw key region kills detection.
    Xoshiro256StarStar rng(43);
    MemoryImage image(KiB(64));
    rng.fillBytes(image.bytesMutable());
    std::vector<uint8_t> key(32);
    rng.fillBytes(key);
    auto sched = crypto::aesExpandKey(key);
    uint64_t off = KiB(32);
    auto bytes = image.bytesMutable();
    memcpy(bytes.data() + off, sched.data(), sched.size());
    bytes[off + 5] ^= 0x10; // inside the raw key

    auto found = haldermanSearch(image);
    EXPECT_TRUE(found.empty());
}

TEST(Halderman, FindsTablesStraddlingChunkEnds)
{
    // The scan tiles window starts into chunks of 4,096 windows (4 KiB
    // at step 1, 16 KiB at step 4) and reads each chunk's 239-byte
    // schedule tail past its end. Every table below starts in the last
    // 239 bytes of a chunk at both steps, on a 4-byte boundary.
    Xoshiro256StarStar rng(44);
    MemoryImage image(KiB(64));
    rng.fillBytes(image.bytesMutable());
    const uint64_t offsets[] = {KiB(16) - 4, KiB(32) - 236,
                                KiB(48) - 120};
    std::vector<std::vector<uint8_t>> keys;
    for (uint64_t off : offsets) {
        auto &key = keys.emplace_back(32);
        rng.fillBytes(key);
        auto sched = crypto::aesExpandKey(key);
        memcpy(image.bytesMutable().data() + off, sched.data(),
               sched.size());
    }

    std::string path = (std::filesystem::temp_directory_path() /
                        "test_halderman_straddle.XXXXXX")
                           .string();
    int fd = mkstemp(path.data());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(write(fd, image.bytes().data(), image.size()),
              static_cast<ssize_t>(image.size()));
    close(fd);
    auto buffered =
        exec::openDumpSource(path, exec::DumpBackend::Buffered);
    std::remove(path.c_str()); // the open descriptor keeps it readable

    for (unsigned step : {1u, 4u}) {
        BaselineParams params;
        params.step = step;
        for (const auto &found : {haldermanSearch(image, params),
                                  haldermanSearch(*buffered, params)}) {
            ASSERT_EQ(found.size(), keys.size()) << "step " << step;
            for (size_t i = 0; i < keys.size(); ++i) {
                EXPECT_EQ(found[i].master, keys[i]);
                EXPECT_EQ(found[i].offset, offsets[i]);
                EXPECT_EQ(found[i].bit_errors, 0u);
            }
        }
    }
}

TEST(Halderman, FailsDirectlyOnScrambledDdr4)
{
    // The gap the paper's attack closes: the baseline needs the
    // image descrambled first.
    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 51);
    auto dimm = std::make_shared<DramModule>(dram::Generation::DDR4,
                                             MiB(1),
                                             dram::DecayParams{}, 52);
    victim.installDimm(0, dimm);
    victim.boot();
    std::vector<uint8_t> key(32, 0x5a);
    auto sched = crypto::aesExpandKey(key);
    victim.writePhysBytes(KiB(512), sched);

    MemoryImage raw(dimm->size());
    dimm->read(0, raw.bytesMutable());
    EXPECT_TRUE(haldermanSearch(raw).empty());
}

TEST(Halderman, WorksOnDdr3AfterUniversalKeyDescramble)
{
    // The DDR3 pipeline: universal-key descramble, then the classic
    // byte-sliding search - reproducing the Bauer et al. flow.
    Machine victim(cpuModelByName("i5-2540M"), BiosConfig{}, 1, 61);
    // Module seed chosen so no transit flip lands inside the 32-byte
    // search window - the happy case this baseline needs (its window
    // fragility is asserted by MissesWhenWindowIsCorrupted).
    victim.installDimm(0, std::make_shared<DramModule>(
                              dram::Generation::DDR3, MiB(1),
                              dram::DecayParams{}, 65));
    victim.boot();
    platform::fillWorkload(victim, {}, 63);
    std::vector<uint8_t> key(32, 0xc3);
    auto sched = crypto::aesExpandKey(key);
    victim.writePhysBytes(KiB(700) + 8, sched);

    Machine attacker(cpuModelByName("i5-2430M"), BiosConfig{}, 1, 64);
    // The baseline cannot survive flips inside its 32-byte window
    // (see MissesWhenWindowIsCorrupted), so give it the best case it
    // was designed for: a fast, well-cooled transfer.
    platform::ColdBootParams quick;
    quick.transfer_seconds = 0.3;
    auto cold = platform::coldBootTransfer(victim, attacker, 0,
                                           quick);

    auto universal = attack::recoverDdr3UniversalKey(cold.dump);
    attack::descrambleWithUniversalKey(cold.dump, universal);

    BaselineParams params;
    params.max_bit_errors = 160; // decay tolerance
    auto found = haldermanSearch(cold.dump, params);
    bool hit = false;
    for (const auto &k : found)
        hit = hit || k.master == key;
    EXPECT_TRUE(hit);
}

//
// Dump file round trip
//

TEST(MemoryImageIo, SaveLoadRoundTrip)
{
    Xoshiro256StarStar rng(71);
    MemoryImage img(KiB(16));
    rng.fillBytes(img.bytesMutable());
    img.saveRaw("/tmp/cb_io_test.img");
    MemoryImage back = MemoryImage::loadRaw("/tmp/cb_io_test.img");
    ASSERT_EQ(back.size(), img.size());
    EXPECT_EQ(0, memcmp(back.bytes().data(), img.bytes().data(),
                        img.size()));
    std::remove("/tmp/cb_io_test.img");
}

TEST(MemoryImageIo, LoadRejectsBadSize)
{
    FILE *f = fopen("/tmp/cb_io_bad.img", "wb");
    ASSERT_NE(f, nullptr);
    fputs("short", f);
    fclose(f);
    EXPECT_DEATH(MemoryImage::loadRaw("/tmp/cb_io_bad.img"),
                 "multiple of 64");
    std::remove("/tmp/cb_io_bad.img");
}

} // anonymous namespace
} // namespace coldboot
