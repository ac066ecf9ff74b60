/**
 * @file
 * E5 - Section III-D DRAM retention measurements.
 *
 * The seven-module fleet (five DDR3, two DDR4, one deliberately leaky
 * DDR3 part) is filled with data, unpowered, and sampled for charge
 * retention over time at room temperature and super-cooled to -25 C.
 * Paper datapoints: at normal temperature a significant fraction of
 * data is lost within 3 s; cooled modules retain 90-99% over the ~5 s
 * transfer; one DDR3 module leaks faster than the DDR4 parts. All
 * three are gated (BenchContext::check) in both profiles.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/bench.hh"

using namespace coldboot;
using namespace coldboot::dram;

namespace
{

double
retentionAfter(const CatalogEntry &entry, double celsius,
               double seconds, uint64_t seed)
{
    auto module = makeCatalogModule(entry, seed);
    std::vector<uint8_t> data(module->size());
    Xoshiro256StarStar rng(seed + 7);
    rng.fillBytes(data);
    module->write(0, data);
    module->powerOff();
    module->coolTo(celsius);
    module->elapse(seconds);
    return module->retentionVersus(data);
}

} // anonymous namespace

COLDBOOT_BENCH(retention)
{
    std::printf("E5: DRAM retention vs time and temperature "
                "(%% bits retained)\n\n");

    // Smoke: 256 KiB copies of one nominal DDR3, the leaky DDR3 part
    // and one DDR4 module at the two headline time points - enough to
    // keep the paper's three claims visible. Retention is per cell,
    // so the smaller copies read as the full modules do.
    std::vector<double> times =
        ctx.smoke() ? std::vector<double>{3.0, 5.0}
                    : std::vector<double>{1.0, 3.0, 5.0, 10.0, 30.0,
                                          60.0};
    std::vector<CatalogEntry> fleet;
    for (const auto &entry : moduleCatalog()) {
        if (ctx.smoke() && entry.model_name != "DDR3-A (nominal)" &&
            entry.model_name != "DDR3-C (leaky)" &&
            entry.model_name != "DDR4-A (nominal)")
            continue;
        fleet.push_back(entry);
        if (ctx.smoke())
            fleet.back().bytes = KiB(256);
    }

    // retained[{celsius, t}][module]
    std::map<std::pair<double, double>, std::map<std::string, double>>
        retained;
    uint64_t total_bytes = 0;
    for (double celsius : {20.0, -25.0}) {
        std::printf("Temperature %+.0f C\n", celsius);
        std::printf("%-18s", "module");
        for (double t : times)
            std::printf("%9.0fs", t);
        std::printf("\n");
        for (const auto &entry : fleet) {
            std::printf("%-18s", entry.model_name.c_str());
            for (double t : times) {
                double r = retentionAfter(entry, celsius, t, 42);
                retained[{celsius, t}][entry.model_name] = r;
                total_bytes += entry.bytes;
                std::printf("%9.2f%%", 100.0 * r);
                if (celsius < 0.0 && t == 5.0)
                    ctx.report("retention." + entry.model_name +
                                   ".cooled_5s_pct",
                               100.0 * r,
                               "bits retained after a cooled 5 s "
                               "transfer");
            }
            std::printf("\n");
        }
        std::printf("\n");
    }
    ctx.setBytesProcessed(total_bytes);

    // The shape: cooled modules keep 90-99 % over a 5 s transfer,
    // warm ones lose more than 10 % within 3 s, and the leaky DDR3
    // part trails every DDR4 module while decay is still under way
    // (cooled, and warm up to 10 s; from 30 s every module sits at
    // the 50 % floor of random data).
    const std::string leaky = "DDR3-C (leaky)";
    for (const auto &[point, modules] : retained) {
        const auto [celsius, t] = point;
        const std::string at = std::to_string(static_cast<int>(celsius)) +
                               " C, " +
                               std::to_string(static_cast<int>(t)) + " s";
        for (const auto &[name, r] : modules) {
            if (celsius < 0.0 && t == 5.0)
                ctx.check(r >= 0.90 && r <= 0.99,
                          name + " retains outside 90-99 % at " + at);
            if (celsius > 0.0 && t == 3.0)
                ctx.check(r < 0.90, name + " retains >= 90 % at " + at);
            bool ddr4 = name.rfind("DDR4", 0) == 0;
            if (ddr4 && modules.count(leaky) != 0 &&
                (celsius < 0.0 || t <= 10.0))
                ctx.check(modules.at(leaky) < r,
                          leaky + " retains no less than " + name +
                              " at " + at);
        }
    }

    std::printf("Expected shape (gated): at +20 C every module "
                "keeps < 90%% at 3 s; at -25 C\nall retain 90-99%% "
                "over a 5 s transfer; the leaky DDR3 part retains "
                "less than\nevery DDR4 module at every -25 C point "
                "and at +20 C up to 10 s (from 30 s\nall sit at the "
                "50%% floor).\n");
}
