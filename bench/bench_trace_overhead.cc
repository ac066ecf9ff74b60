/**
 * @file
 * Observability tax: how much does causal tracing cost a key-mining
 * sweep?
 *
 * The tracing layer is sold as "cheap enough to leave on"; this
 * bench holds it to that. The same cold-boot dump is mined twice per
 * repetition - once with the tracer off, once on - and the overhead
 * lands in BENCH.json where `bench_compare` turns a tracing-cost
 * regression into a CI failure.
 *
 * Determinism cross-check rides along for free: both sweeps must
 * mine byte-identical key sets (DESIGN.md §9/§12), so a divergence
 * here fails loudly before the smoke gate even runs.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "attack/key_miner.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/bench.hh"
#include "obs/trace.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"

using namespace coldboot;
using namespace coldboot::platform;
using namespace coldboot::attack;

namespace
{

double
mineOnce(const MemoryImage &dump)
{
    MinerParams params;
    auto t0 = std::chrono::steady_clock::now();
    auto mined = mineScramblerKeys(dump, params);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    // Fold the result into a cheap fingerprint so the two variants
    // can be compared (and the sweep cannot be optimized away).
    uint64_t fp = mined.size();
    for (const auto &mk : mined)
        for (uint8_t b : mk.key)
            fp = fp * 1099511628211ull + b;
    static uint64_t first_fp = 0;
    if (first_fp == 0)
        first_fp = fp ? fp : 1;
    else if (fp != first_fp && fp != 0)
        cb_fatal("trace_overhead: mined keys diverged between "
                 "traced and untraced sweeps");
    return secs;
}

} // anonymous namespace

COLDBOOT_BENCH(trace_overhead)
{
    const uint64_t victim_bytes = ctx.pick(MiB(8), MiB(2));

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, 701);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, victim_bytes,
                              dram::DecayParams{}, 702));
    victim.boot();
    fillWorkload(victim, {}, 703);
    Machine attacker(cpuModelByName("i5-6600K"), BiosConfig{}, 1,
                     704);
    auto cold = coldBootTransfer(victim, attacker, 0);

    obs::PhaseTracer &tracer = obs::PhaseTracer::global();
    const bool was_tracing = tracer.enabled();

    // Off: no spans recorded.
    tracer.setEnabled(false);
    double off_secs = mineOnce(cold.dump);

    // On: spans + flow events.
    tracer.setEnabled(true);
    double on_secs = mineOnce(cold.dump);

    tracer.setEnabled(was_tracing);

    double overhead_pct =
        off_secs > 0.0 ? (on_secs - off_secs) / off_secs * 100.0
                       : 0.0;
    std::printf("trace_overhead: mine %zu MiB  off %.4fs  on %.4fs  "
                "overhead %+.2f%%\n",
                cold.dump.size() >> 20, off_secs, on_secs,
                overhead_pct);

    ctx.report("trace_overhead.off_seconds", off_secs,
               "mining sweep, tracing disabled");
    ctx.report("trace_overhead.on_seconds", on_secs,
               "mining sweep, tracing enabled");
    ctx.report("trace_overhead.overhead_percent", overhead_pct,
               "relative cost of the observability layer");
    ctx.setBytesProcessed(2 * cold.dump.size());
}
