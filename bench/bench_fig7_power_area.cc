/**
 * @file
 * E8 - Figure 7: power and area overhead of replacing scramblers
 * with strong cipher engines, one engine per channel, against four
 * 45 nm reference CPUs at 100% and a realistic 20% bandwidth
 * utilization. Gated: area at most 1% on every row, and power under
 * 3% at full load except on the Atom N280, which must get under 6%
 * at 20%.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "dram/traffic.hh"
#include "engine/power_model.hh"
#include "obs/bench.hh"

using namespace coldboot::engine;

COLDBOOT_BENCH(fig7_power_area)
{
    std::printf("E8: Figure 7 power and area overheads (one engine "
                "per channel)\n\n");
    std::printf("%-16s %-9s %3s %9s %12s %12s\n", "CPU", "engine",
                "ch", "area %", "power@100%", "power@20%");
    std::printf("%.70s\n",
                "-----------------------------------------------------"
                "-----------------");

    auto rows = figure7Overheads();
    for (const auto &row : rows) {
        int channels = 0;
        for (const auto &cpu : referenceCpus())
            if (cpu.name == row.cpu)
                channels = cpu.channels;
        std::printf("%-16s %-9s %3d %8.2f%% %11.2f%% %11.2f%%\n",
                    row.cpu.c_str(), cipherKindName(row.engine),
                    channels, 100.0 * row.area_fraction,
                    100.0 * row.power_fraction_full,
                    100.0 * row.power_fraction_20);
        const std::string what =
            row.cpu + " " + cipherKindName(row.engine);
        ctx.check(row.area_fraction <= 0.01, what + ": area <= 1%");
        if (row.cpu == "Atom N280")
            ctx.check(row.power_fraction_20 < 0.06,
                      what + ": power at 20% load < 6%");
        else
            ctx.check(row.power_fraction_full < 0.03,
                      what + ": power at full load < 3%");
        ctx.report(std::string("fig7.") + row.cpu + "." +
                       cipherKindName(row.engine) + ".power_pct_full",
                   100.0 * row.power_fraction_full,
                   "power overhead at 100% bandwidth utilization");
    }

    // Ground the 20% operating point: achieved DRAM utilization of
    // workload-shaped traffic through the bank-level simulator.
    std::printf("\nWorkload-shaped DRAM utilization (bank-level "
                "simulator, DDR4-2400):\n");
    auto params = coldboot::dram::BankTimingParams::forGrade(
        coldboot::dram::ddr4_2400());
    std::vector<coldboot::dram::TrafficPattern> patterns = {
        coldboot::dram::TrafficPattern::Streaming};
    if (!ctx.smoke()) {
        patterns.push_back(coldboot::dram::TrafficPattern::Random);
        patterns.push_back(
            coldboot::dram::TrafficPattern::PointerChase);
    }
    for (auto pattern : patterns) {
        coldboot::dram::TrafficParams tp;
        tp.pattern = pattern;
        if (ctx.smoke())
            tp.requests = 512;
        auto stream = coldboot::dram::generateTraffic(tp);
        auto r = coldboot::dram::measureBandwidth(params, stream);
        std::printf("  %-14s %6.2f GB/s of %5.2f  (%4.1f%% "
                    "utilization, row-hit %.2f)\n",
                    coldboot::dram::trafficPatternName(pattern),
                    r.achieved_gbs, r.peak_gbs,
                    100.0 * r.utilization, r.row_hit_rate);
        ctx.report(std::string("fig7.utilization.") +
                       coldboot::dram::trafficPatternName(pattern),
                   100.0 * r.utilization,
                   "achieved DRAM bandwidth utilization, percent");
    }

    std::printf(
        "\nExpected shape: area overheads uniformly about 1%% or"
        " below; power overheads\nbelow 3%% everywhere except the"
        " Atom N280, which peaks near 17%% at full\nbandwidth but"
        " drops under 6%% at a realistic 20%% utilization. The"
        " traffic table\nshows why 20%% is the right realistic"
        " point: even a streaming scan achieves\nonly ~20%% of peak"
        " DRAM bandwidth, and miss-bound workloads far less\n"
        "(the paper cites the CloudSuite ~15%% ceiling).\n");
}
