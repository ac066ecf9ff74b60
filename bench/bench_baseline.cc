/**
 * @file
 * Baseline comparison: the classic Halderman (2008) sliding-window
 * key search versus the paper's block-wise litmus attack, across
 * memory-protection eras:
 *
 *   DDR2-era plaintext dump      -> baseline works
 *   DDR3 dump + universal key    -> baseline works after descramble
 *   scrambled DDR4 dump          -> baseline fails; the paper's
 *                                   attack succeeds
 *
 * This is the motivating gap of Section III in one table.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "attack/attack_pipeline.hh"
#include "attack/ddr3_attack.hh"
#include "attack/halderman_search.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "crypto/aes.hh"
#include "dram/dram_module.hh"
#include "obs/bench.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

struct Scenario
{
    const char *label;
    const char *key;
    const char *cpu;
    bool descramble_ddr3;
    /** XTS halves the baseline must find (of 2). */
    int want_baseline;
    /** Pairs the paper attack must recover (of 1); -1 = ungated. */
    int want_paper;
};

void
run(obs::bench::BenchContext &ctx, const Scenario &sc, uint64_t seed)
{
    const uint64_t capacity = ctx.pick(MiB(4), MiB(2));
    const uint64_t keytable_addr = capacity * 3 / 4 + 16;
    Machine victim(cpuModelByName(sc.cpu), BiosConfig{}, 1, seed);
    bool ddr4 = memctrl::cpuUsesDdr4(victim.model().generation);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              ddr4 ? dram::Generation::DDR4
                                   : dram::Generation::DDR3,
                              capacity, dram::DecayParams{},
                              seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);
    auto vf = volume::VolumeFile::create("pw", 8, seed + 3);
    auto mounted = volume::MountedVolume::mount(victim, vf, "pw",
                                                keytable_addr);
    std::vector<uint8_t> expected(mounted->masterKeys().begin(),
                                  mounted->masterKeys().end());

    Machine attacker(cpuModelByName(sc.cpu), BiosConfig{}, 1,
                     seed + 4);
    ColdBootParams quick;
    quick.transfer_seconds = 0.05; // kindest case for the baseline
    auto cold = coldBootTransfer(victim, attacker, 0, quick);

    if (sc.descramble_ddr3) {
        auto universal = attack::recoverDdr3UniversalKey(cold.dump);
        attack::descrambleWithUniversalKey(cold.dump, universal);
    }

    // Baseline.
    attack::BaselineParams bp;
    bp.max_bit_errors = 160;
    if (ctx.smoke()) {
        bp.scan_start =
            keytable_addr > KiB(64) ? keytable_addr - KiB(64) : 0;
        bp.scan_bytes = KiB(192);
    }
    auto baseline = attack::haldermanSearch(cold.dump, bp);
    int baseline_hits = 0;
    for (const auto &k : baseline)
        baseline_hits +=
            !memcmp(k.master.data(), expected.data(), 32) ||
            !memcmp(k.master.data(), expected.data() + 32, 32);

    // Paper attack (only meaningful on the scrambled DDR4 dump, but
    // run everywhere for completeness).
    attack::PipelineParams pp;
    pp.search.scan_start = keytable_addr - KiB(64);
    pp.search.scan_bytes = KiB(128);
    auto report = attack::runColdBootAttack(cold.dump, pp);
    int paper_hits = 0;
    for (const auto &pair : report.xts_pairs)
        paper_hits +=
            !memcmp(pair.data_key.data(), expected.data(), 32) &&
            !memcmp(pair.tweak_key.data(), expected.data() + 32, 32);

    std::printf("%-34s baseline keys: %d/2   paper attack pairs: "
                "%d/1\n",
                sc.label, baseline_hits, paper_hits);
    ctx.report(std::string("baseline.") + sc.key + ".baseline_keys",
               static_cast<double>(baseline_hits),
               "XTS halves found by the Halderman baseline (of 2)");
    ctx.report(std::string("baseline.") + sc.key + ".paper_pairs",
               static_cast<double>(paper_hits),
               "XTS pairs recovered by the paper attack (of 1)");

    ctx.check(baseline_hits == sc.want_baseline,
              std::string(sc.key) + ": baseline found " +
                  std::to_string(baseline_hits) + "/2 keys, want " +
                  std::to_string(sc.want_baseline) + "/2");
    if (sc.want_paper >= 0)
        ctx.check(paper_hits == sc.want_paper,
                  std::string(sc.key) + ": paper attack recovered " +
                      std::to_string(paper_hits) + "/1 pairs, want " +
                      std::to_string(sc.want_paper) + "/1");
}

} // anonymous namespace

COLDBOOT_BENCH(baseline)
{
    setLogLevel(LogLevel::Warn);
    std::printf("Baseline (Halderman 2008) vs the paper's litmus "
                "attack\n\n");
    // Gated shape (E12): the baseline finds both XTS halves only on
    // the descrambled DDR3 image. The paper attack pairs the keys on
    // raw DDR4 in the full profile; the smoke profile's 2 MiB
    // capture leaves it nothing to pair, so that cell is ungated
    // there.
    run(ctx, {"DDR3 dump, raw (scrambled)", "ddr3_raw", "i5-2540M",
              false, 0, 0},
        8000);
    run(ctx, {"DDR3 dump + universal-key descramble",
              "ddr3_descrambled", "i5-2540M", true, 2, -1},
        8000);
    run(ctx, {"DDR4 dump, raw (scrambled)", "ddr4_raw", "i5-6400",
              false, 0, ctx.smoke() ? -1 : 1},
        8200);
    ctx.setBytesProcessed(3 * ctx.pick(MiB(4), MiB(2)));

    std::printf(
        "\nExpected shape: the baseline finds both XTS keys only on"
        " the descrambled\nDDR3 image; on scrambled dumps it finds"
        " nothing. The paper's attack recovers\nthe pair from the"
        " scrambled DDR4 dump directly - the capability gap the\n"
        "paper introduces. (On DDR3 the paper attack reports no pair:"
        " its litmus\ntargets the DDR4 scrambler structure; DDR3 falls"
        " to the simpler universal-key\npath above.)\n");
}
