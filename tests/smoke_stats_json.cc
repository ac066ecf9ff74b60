/**
 * @file
 * Pure-ctest smoke test for the coldboot-tool observability exports
 * (no Python, no third-party JSON): build a tiny cold-boot dump
 * in-process, run `coldboot-tool attack <dump> --stats-json --trace`
 * as a subprocess, then validate with the in-tree JSON parser that
 *
 *  - the stats file parses and carries the required keys, with
 *    `attack.pipeline.bytes_scanned` nonzero;
 *  - the trace file parses as a bare array of Chrome trace events:
 *    complete slices ({"name","ph":"X","ts","dur","pid","tid"})
 *    containing the mine / search / pair stage spans, plus flow
 *    start/finish pairs wherever pool tasks were submitted (checked
 *    by the trace_check.hh validator smoke_flight shares).
 *
 * Usage: smoke_stats_json <path-to-coldboot-tool>
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/json.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "trace_check.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    } else {
        std::printf("ok: %s\n", what);
    }
}

/** A 2 MiB victim dump, mirroring `coldboot-tool simulate-victim`. */
void
writeTinyDump(const std::string &dump_path)
{
    constexpr uint64_t capacity = MiB(2);
    constexpr uint64_t seed = 42;

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, seed);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, capacity,
                              dram::DecayParams{}, seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);

    auto vf = volume::VolumeFile::create("hunter2", 16, seed + 3);
    auto mounted = volume::MountedVolume::mount(
        victim, vf, "hunter2", capacity * 3 / 4 + 16);
    std::vector<uint8_t> secret(volume::sectorBytes, 0);
    std::memcpy(secret.data(), "smoke", 5);
    mounted->writeSector(3, secret);

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     seed + 4);
    auto cold = coldBootTransfer(victim, attacker, 0);
    cold.dump.saveRaw(dump_path);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: smoke_stats_json <coldboot-tool>\n");
        return 2;
    }
    std::string tool = argv[1];
    std::string dump_path = "smoke_stats_dump.img";
    std::string stats_path = "smoke_stats_out.json";
    std::string trace_path = "smoke_stats_trace.json";
    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());

    writeTinyDump(dump_path);

    std::string cmd = "\"" + tool + "\" attack \"" + dump_path +
                      "\" --stats-json \"" + stats_path +
                      "\" --trace \"" + trace_path + "\"";
    std::printf("+ %s\n", cmd.c_str());
    int rc = std::system(cmd.c_str());
    // rc 0 = keys recovered, 1*256 = none found; both still must
    // produce the observability artifacts.
    check(rc != -1, "coldboot-tool subprocess launched");

    // --- stats JSON ---
    auto stats = obs::json::parseFile(stats_path);
    check(stats.has_value(), "stats JSON parses");
    if (stats) {
        check(stats->isObject(), "stats JSON is an object");
        const auto *meta = stats->find("meta");
        check(meta && meta->find("wall_seconds"),
              "stats meta.wall_seconds present");
        const auto *tree = stats->find("stats");
        check(tree != nullptr, "stats.stats present");
        if (tree) {
            // (memctrl.* counters live in simulate-victim runs; the
            // attack command only ever sees the saved dump.)
            for (const char *key :
                 {"attack.pipeline.bytes_scanned",
                  "attack.pipeline.mib_per_second",
                  "attack.miner.blocks_scanned",
                  "attack.miner.litmus_hits",
                  "attack.search.blocks_scanned"}) {
                check(tree->find(key) != nullptr, key);
            }
            const auto *scanned =
                tree->find("attack.pipeline.bytes_scanned");
            if (scanned) {
                const auto *value = scanned->find("value");
                check(value && value->number > 0.0,
                      "attack.pipeline.bytes_scanned > 0");
            }
        }
    }

    // --- Chrome trace ---
    auto trace = obs::json::parseFile(trace_path);
    check(trace.has_value(), "trace JSON parses");
    if (trace) {
        check(trace->isArray(), "trace JSON is a bare array");
        auto idx = tracecheck::indexTrace(*trace);
        check(idx.fields_ok, "every trace event has name/ph/ts/pid/tid "
                             "(slices: dur and span id)");
        check(idx.flows_paired,
              "every flow id has exactly one s/f pair");
        std::set<std::string> names;
        for (const auto &[span, ev] : idx.slice_by_span)
            names.insert(tracecheck::strField(*ev, "name"));
        for (const char *span : {"mine", "search", "pair",
                                 "attack.pipeline"})
            check(names.count(span) == 1, span);
    }

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_stats_json: all checks passed\n");
    return 0;
}
