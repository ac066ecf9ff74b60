/**
 * @file
 * E9 - defence validation: the identical cold boot attack scenario
 * is run against three victim configurations - the stock DDR4
 * scrambler, ChaCha8 memory encryption and AES-128-CTR memory
 * encryption. The scrambled machine must fall; the encrypted
 * machines must yield nothing.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "attack/attack_pipeline.hh"
#include "common/units.hh"
#include "dram/dram_module.hh"
#include "engine/encrypted_controller.hh"
#include "obs/bench.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;
using namespace coldboot::attack;

namespace
{

struct Config
{
    const char *label;
    memctrl::ScramblerFactory factory; // empty = stock scrambler
};

void
runConfig(obs::bench::BenchContext &ctx, const Config &config,
          uint64_t seed)
{
    const uint64_t capacity = ctx.pick(MiB(4), MiB(2));
    const uint64_t keytable_addr = capacity * 3 / 4 + 16;
    Machine victim =
        config.factory
            ? Machine(cpuModelByName("i5-6400"), BiosConfig{}, 1,
                      seed, config.factory)
            : Machine(cpuModelByName("i5-6400"), BiosConfig{}, 1,
                      seed);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, capacity,
                              dram::DecayParams{}, seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);
    auto vf = volume::VolumeFile::create("pw", 8, seed + 3);
    auto mounted = volume::MountedVolume::mount(victim, vf, "pw",
                                                keytable_addr);
    std::vector<uint8_t> expected(mounted->masterKeys().begin(),
                                  mounted->masterKeys().end());

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     seed + 4);
    auto cold = coldBootTransfer(victim, attacker, 0);

    PipelineParams params;
    params.search.scan_start = keytable_addr - KiB(64);
    params.search.scan_bytes = KiB(192);
    auto report = runColdBootAttack(cold.dump, params);

    bool recovered = false;
    for (const auto &pair : report.xts_pairs)
        recovered =
            recovered ||
            (std::memcmp(pair.data_key.data(), expected.data(), 32) ==
                 0 &&
             std::memcmp(pair.tweak_key.data(), expected.data() + 32,
                         32) == 0);

    size_t top_occurrence =
        report.mined_keys.empty() ? 0
                                  : report.mined_keys[0].occurrences;
    // coldboot-lint: allow(secret-taint) -- top_occurrence is a cluster count, not key bytes
    std::printf("%-22s mined=%6zu top-cluster=%5zu tables=%zu "
                "master-keys=%s\n",
                config.label, report.mined_keys.size(),
                top_occurrence, report.recovered.size(),
                recovered ? "RECOVERED" : "safe");
    ctx.report(std::string("defence.") + config.label +
                   ".master_keys_recovered",
               recovered ? 1.0 : 0.0,
               "1 when the attack recovered the XTS master keys");

    const std::string label = config.label;
    if (!config.factory) {
        ctx.check(recovered, label + ": the planted XTS pair was not "
                                     "recovered");
    } else {
        ctx.check(report.mined_keys.empty() && report.recovered.empty(),
                  label + ": mined " +
                      std::to_string(report.mined_keys.size()) +
                      " keys and found " +
                      std::to_string(report.recovered.size()) +
                      " tables, want 0 and 0");
    }
}

} // anonymous namespace

COLDBOOT_BENCH(defence)
{
    std::printf("E9: same attack, three memory protections "
                "(%llu MiB victim, cooled transfer)\n\n",
                static_cast<unsigned long long>(
                    ctx.pick(MiB(4), MiB(2)) >> 20));
    runConfig(ctx, {"ddr4-scrambler", {}}, 7000);
    runConfig(ctx, {"chacha8-encryption",
                    engine::chachaEncryptionFactory(8)},
              7100);
    runConfig(ctx, {"aes128-ctr-encryption",
                    engine::aesCtrEncryptionFactory(16)},
              7200);
    ctx.setBytesProcessed(3 * ctx.pick(MiB(4), MiB(2)));

    std::printf("\nExpected shape: the scrambler falls (master keys "
                "recovered); both strong\ncipher configurations "
                "yield no key tables and no usable key clusters.\n");
}
