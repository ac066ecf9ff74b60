/**
 * @file
 * E6 - Table II: cipher engine performance (45 nm).
 *
 * Prints the modeled maximum frequency, cycles per 64-byte keystream
 * and maximum pipeline delay of the five engines side by side with
 * the paper's synthesis numbers, plus the derived viability verdict
 * against the minimum standard DDR4 column access window (12.5 ns).
 * Gated: every modeled delay within 0.05 ns of the paper's, and the
 * paper's verdict for every engine (AES-128, AES-256 and ChaCha8 fit
 * the window; ChaCha12 and ChaCha20 do not).
 */

#include <cmath>
#include <cstdio>
#include <string>

#include "common/units.hh"
#include "dram/timing.hh"
#include "engine/cipher_engine.hh"
#include "obs/bench.hh"

using namespace coldboot;
using namespace coldboot::engine;

COLDBOOT_BENCH(table2_ciphers)
{
    std::printf("E6: Table II cipher engine performance (45 nm "
                "model)\n\n");
    std::printf("%-10s %10s %10s %12s %12s %12s %10s\n", "cipher",
                "freq GHz", "cyc/64B", "delay ns", "paper ns",
                "tput GB/s", "<=12.5ns");
    std::printf("%.82s\n",
                "-----------------------------------------------------"
                "-----------------------------");

    struct PaperRow
    {
        CipherKind kind;
        double delay_ns;
    };
    const PaperRow paper[] = {
        {CipherKind::Aes128, 5.40},  {CipherKind::Aes256, 7.08},
        {CipherKind::ChaCha8, 9.18}, {CipherKind::ChaCha12, 13.27},
        {CipherKind::ChaCha20, 21.42},
    };

    Picoseconds window = dram::ddr4MinCasPs();
    for (const auto &row : paper) {
        const EngineSpec &spec = engineSpec(row.kind);
        const double delay_ns = psToNs(spec.pipelineDelayPs());
        const bool fits = spec.pipelineDelayPs() <= window;
        std::printf("%-10s %10.2f %10d %12.2f %12.2f %12.1f %10s\n",
                    cipherKindName(spec.kind), spec.max_freq_ghz,
                    spec.cycles_per_line, delay_ns, row.delay_ns,
                    spec.throughputGBs(), fits ? "yes" : "no");
        const std::string name = cipherKindName(spec.kind);
        ctx.check(std::fabs(delay_ns - row.delay_ns) <= 0.05,
                  name + " pipeline delay within 0.05 ns of the paper");
        ctx.check(fits == (row.delay_ns <= psToNs(window)),
                  name + " fits the CAS window exactly when the "
                         "paper's does");
        std::string prefix = "table2." + name;
        ctx.report(prefix + ".max_freq_ghz", spec.max_freq_ghz,
                   "modeled maximum clock frequency");
        ctx.report(prefix + ".pipeline_delay_ns",
                   psToNs(spec.pipelineDelayPs()),
                   "modeled maximum pipeline delay");
        ctx.report(prefix + ".throughput_gbs", spec.throughputGBs(),
                   "derived keystream throughput");
    }

    std::printf("\nStandard DDR4 CAS window: %.2f .. %.2f ns over "
                "the nine JESD79-4 grades.\n",
                psToNs(dram::ddr4MinCasPs()),
                psToNs(dram::ddr4MaxCasPs()));
    std::printf("Expected shape: AES-128, AES-256 and ChaCha8 fit "
                "under the 12.5 ns floor;\nChaCha12 and ChaCha20 do "
                "not.\n");
}
