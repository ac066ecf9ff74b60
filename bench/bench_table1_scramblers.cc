/**
 * @file
 * E1 - Table I platforms + Section III-B scrambler properties.
 *
 * For every CPU model in the paper's Table I, this harness runs the
 * reverse-cold-boot analysis procedure to extract the scrambler
 * keystream, then measures the properties the paper reports:
 *  - distinct 64-byte keys per channel (16 for DDR3, 4096 for DDR4);
 *  - whether re-reading after reboot factors to a single universal
 *    key (yes for DDR3, no for DDR4);
 *  - whether key sharing between blocks is stable across reboots;
 *  - whether the scrambler-key litmus test accepts the keys.
 */

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "attack/litmus.hh"
#include "common/hex.hh"
#include "common/units.hh"
#include "dram/dram_module.hh"
#include "memctrl/address_map.hh"
#include "obs/bench.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

struct Analysis
{
    size_t distinct_keys;
    size_t reboot_xor_patterns;
    bool litmus_all_pass;
    bool sharing_stable;
};

Analysis
analyzeModel(const CpuModel &model, uint64_t seed)
{
    BiosConfig bios;
    bios.boot_pollution_bytes = 0;
    Machine machine(model, bios, 1, seed);
    machine.installDimm(
        0, std::make_shared<dram::DramModule>(
               memctrl::cpuUsesDdr4(model.generation)
                   ? dram::Generation::DDR4
                   : dram::Generation::DDR3,
               MiB(1), dram::DecayParams{}, seed + 1));

    MemoryImage ks1 = reverseColdBootExtractKeystream(machine, 0);
    machine.shutdown();
    MemoryImage ks2 = reverseColdBootExtractKeystream(machine, 0);
    machine.shutdown();

    Analysis out{};

    std::set<std::string> keys;
    std::set<std::string> xors;
    std::set<std::pair<std::string, std::string>> sharing;
    out.litmus_all_pass = true;
    out.sharing_stable = true;
    for (size_t l = 0; l < ks1.lines(); ++l) {
        auto k1 = ks1.line(l);
        auto k2 = ks2.line(l);
        keys.insert(toHex(k1));
        std::string x;
        for (int i = 0; i < 64; ++i)
            x.push_back(static_cast<char>(k1[i] ^ k2[i]));
        xors.insert(x);
        out.litmus_all_pass =
            out.litmus_all_pass && attack::scramblerKeyLitmus(k1, 0);
        // Sharing stability: the boot-1 key value must determine the
        // boot-2 key value (blocks sharing a key keep sharing one).
        auto pair = std::make_pair(toHex(k1), toHex(k2));
        sharing.insert(pair);
    }
    out.distinct_keys = keys.size();
    out.reboot_xor_patterns = xors.size();
    out.sharing_stable = sharing.size() == keys.size();
    return out;
}

} // anonymous namespace

COLDBOOT_BENCH(table1_scramblers)
{
    std::printf("E1: Table I platforms and scrambler properties\n");
    std::printf("%-10s %-12s %-5s %8s %10s %8s %8s %7s\n", "model",
                "uarch", "DRAM", "keys/ch", "rebootXOR", "litmus",
                "sharing", "paper");
    std::printf("%.96s\n",
                "-----------------------------------------------------"
                "-------------------------------------------");
    // The smoke profile keeps one model per DRAM generation; the
    // shape (16-key DDR3 vs 4096-key DDR4) is per-generation.
    std::vector<CpuModel> models;
    bool have_ddr3 = false, have_ddr4 = false;
    for (const auto &model : cpuModelTable()) {
        bool ddr4 = memctrl::cpuUsesDdr4(model.generation);
        if (ctx.smoke() && (ddr4 ? have_ddr4 : have_ddr3))
            continue;
        (ddr4 ? have_ddr4 : have_ddr3) = true;
        models.push_back(model);
    }
    uint64_t total_bytes = 0;
    for (const auto &model : models) {
        bool ddr4 = memctrl::cpuUsesDdr4(model.generation);
        Analysis a = analyzeModel(model, 0xC0FFEE);
        total_bytes += 2 * MiB(1);
        std::printf("%-10s %-12s %-5s %8zu %10s %8s %8s %7s\n",
                    model.name.c_str(),
                    memctrl::cpuGenerationName(model.generation),
                    ddr4 ? "DDR4" : "DDR3", a.distinct_keys,
                    a.reboot_xor_patterns == 1 ? "1 (univ)" : "many",
                    a.litmus_all_pass ? "pass" : "n/a",
                    a.sharing_stable ? "stable" : "broken",
                    ddr4 ? "4096" : "16");
        ctx.report("table1." + model.name + ".distinct_keys",
                   static_cast<double>(a.distinct_keys),
                   "distinct 64-byte scrambler keys per channel");
        const std::string shape =
            model.name + ": " + std::to_string(a.distinct_keys) +
            " keys, " + std::to_string(a.reboot_xor_patterns) +
            " reboot-XOR patterns, sharing " +
            (a.sharing_stable ? "stable" : "broken");
        if (ddr4)
            ctx.check(a.distinct_keys == 4096 &&
                          a.reboot_xor_patterns > 1 &&
                          a.litmus_all_pass && a.sharing_stable,
                      shape + ", litmus " +
                          (a.litmus_all_pass ? "passes" : "fails") +
                          "; want 4096 keys, more than one pattern, "
                          "sharing stable, litmus passes");
        else
            ctx.check(a.distinct_keys == 16 &&
                          a.reboot_xor_patterns == 1 && a.sharing_stable,
                      shape + "; want 16 keys, one pattern, sharing "
                              "stable");
    }
    ctx.setBytesProcessed(total_bytes);
    std::printf("\nExpected shape: DDR3 parts expose 16 keys and one"
                " universal reboot-XOR key;\nSkylake DDR4 parts expose"
                " 4096 keys, no universal key, litmus invariants hold,"
                "\nand key sharing stays stable across reboots.\n");
}
