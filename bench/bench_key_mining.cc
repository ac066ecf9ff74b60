/**
 * @file
 * E3 - Section III-B scrambler-key mining.
 *
 * A loaded Skylake DDR4 system is cold-boot dumped; the miner then
 * scans growing prefixes of the dump. The paper reports that less
 * than 16 MB of dump suffices to mine all scrambler keys even on a
 * heavily loaded system; this harness reproduces that curve and
 * scores mined keys against ground truth (which the attack itself
 * never sees).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "attack/key_miner.hh"
#include "common/units.hh"
#include "dram/dram_module.hh"
#include "memctrl/scrambler.hh"
#include "obs/bench.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"

using namespace coldboot;
using namespace coldboot::platform;
using namespace coldboot::attack;

COLDBOOT_BENCH(key_mining)
{
    // Victim: a Skylake DDR4 machine under a mixed workload. The
    // smoke profile shrinks the dump and the prefix sweep; the
    // mined-key curve shape survives because keys repeat every
    // 4096 lines (256 KiB).
    const uint64_t victim_bytes = ctx.pick(MiB(16), MiB(2));
    std::vector<uint64_t> prefixes =
        ctx.smoke()
            ? std::vector<uint64_t>{MiB(1), MiB(2)}
            : std::vector<uint64_t>{MiB(1), MiB(2), MiB(4), MiB(8),
                                    MiB(16)};

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 501);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, victim_bytes,
                              dram::DecayParams{}, 502));
    victim.boot();
    fillWorkload(victim, {}, 503);

    // Oracle for scoring only: victim keys XOR attacker keys.
    auto &vscr = victim.controller().scrambler(0);
    std::vector<std::array<uint8_t, 64>> vkeys(4096);
    for (unsigned i = 0; i < 4096; ++i)
        vscr.lineKey(static_cast<uint64_t>(i) << 6, vkeys[i].data());

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     504);
    auto cold = coldBootTransfer(victim, attacker, 0);
    auto &ascr = attacker.controller().scrambler(0);
    std::vector<std::array<uint8_t, 64>> truth(4096);
    for (unsigned i = 0; i < 4096; ++i) {
        uint8_t ak[64];
        ascr.lineKey(static_cast<uint64_t>(i) << 6, ak);
        for (int b = 0; b < 64; ++b)
            truth[i][b] = static_cast<uint8_t>(vkeys[i][b] ^ ak[b]);
    }

    std::printf("E3: scrambler-key mining from a cold boot dump "
                "(%zu MiB, %.2f%% bits decayed)\n\n",
                cold.dump.size() >> 20,
                100.0 * static_cast<double>(cold.bits_flipped) /
                    (static_cast<double>(cold.dump.size()) * 8));
    std::printf("%10s %12s %12s %10s %10s %9s\n", "prefix", "litmus",
                "candidates", "true-keys", "exact", "MiB/s");

    uint64_t scanned_bytes = 0;
    size_t prev_exact = 0;
    for (uint64_t prefix : prefixes) {
        MinerParams params;
        params.scan_limit_bytes = prefix;
        MinerStats stats;
        auto t0 = std::chrono::steady_clock::now();
        auto mined = mineScramblerKeys(cold.dump, params, &stats);
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        scanned_bytes += prefix;

        // Score: how many of the 4096 true keys were mined exactly?
        size_t exact = 0;
        std::set<std::string> mined_set;
        for (const auto &mk : mined)
            mined_set.insert(std::string(
                reinterpret_cast<const char *>(mk.key.data()), 64));
        for (const auto &t : truth)
            exact += mined_set.count(std::string(
                reinterpret_cast<const char *>(t.data()), 64));

        double mib_s =
            static_cast<double>(prefix) / (1 << 20) / secs;
        std::printf("%8zuMB %12llu %12zu %10u %10zu %9.1f\n",
                    static_cast<size_t>(prefix >> 20),
                    static_cast<unsigned long long>(
                        stats.litmus_hits),
                    mined.size(), 4096u, exact,
                    mib_s);

        std::string prefix_name = "key_mining.prefix_mib_" +
                                  std::to_string(prefix >> 20);
        ctx.report(prefix_name + ".exact_keys",
                   static_cast<double>(exact),
                   "ground-truth keys mined exactly");
        ctx.report(prefix_name + ".mib_per_second", mib_s,
                   "mining scan throughput");

        // Shape: a longer prefix only adds copies, so it never mines
        // fewer keys exactly.
        ctx.check(exact >= prev_exact,
                  "exact keys fell from " + std::to_string(prev_exact) +
                      " to " + std::to_string(exact) + " at " +
                      std::to_string(prefix >> 20) + " MiB");
        prev_exact = exact;
    }
    ctx.setBytesProcessed(scanned_bytes);

    // Shape: nearly every key by 16 MiB, as in the paper; the smoke
    // profile's 2 MiB prefix holds a sixth of them.
    const size_t want = ctx.pick<size_t>(4088, 600);
    ctx.check(prev_exact >= want,
              std::to_string(prev_exact) + " of 4096 keys mined exactly "
                  "at " + std::to_string(prefixes.back() >> 20) +
                  " MiB, want at least " + std::to_string(want));

    std::printf("\nExpected shape: the exact-key count approaches "
                "4096 well before the\n16 MB prefix (the paper mined "
                "all keys from <16 MB of a loaded system).\n");
}
