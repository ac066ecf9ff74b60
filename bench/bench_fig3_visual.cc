/**
 * @file
 * E2 - Figure 3: visual comparison of DDR3 and DDR4 scramblers.
 *
 * A structured image (flat regions, gradients, repeated texture - a
 * stand-in for the paper's photo) is written through the scrambler
 * of a DDR3 and a DDR4 machine. Five images are produced, matching
 * Figure 3 (a)-(e):
 *   (a) the original;
 *   (b) raw DDR3 DRAM contents (scrambled);
 *   (c) DDR3 contents re-read after reboot (descrambled with fresh
 *       keys - the universal-key factoring leaves visible structure);
 *   (d) raw DDR4 DRAM contents;
 *   (e) DDR4 contents re-read after reboot.
 *
 * The quantitative proxy for "visible correlations" is the number of
 * duplicate 64-byte line pairs: structure in the source survives
 * scrambling when many lines share a scrambler key. The shape is
 * gated (BenchContext::check) in both profiles.
 * PGM renders are written to /tmp/coldboot_fig3_*.pgm (full profile
 * only; the smoke profile skips the file writes).
 */

#include <cstdio>
#include <memory>

#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/bench.hh"
#include "platform/machine.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

constexpr size_t imageWidth = 512;

/** A synthetic "photo": flat sky, gradient, repeating texture. */
MemoryImage
makeSourceImage(uint64_t image_bytes)
{
    MemoryImage img(image_bytes);
    auto bytes = img.bytesMutable();
    size_t height = image_bytes / imageWidth;
    for (size_t y = 0; y < height; ++y) {
        for (size_t x = 0; x < imageWidth; ++x) {
            uint8_t v;
            if (y < height / 3) {
                v = 220; // flat sky
            } else if (y < 2 * height / 3) {
                v = static_cast<uint8_t>(x / 4); // gradient
            } else {
                v = ((x / 16 + y / 16) % 2) ? 40 : 200; // checkers
            }
            bytes[y * imageWidth + x] = v;
        }
    }
    return img;
}

struct Capture
{
    MemoryImage scrambled{64};
    MemoryImage reread{64};
};

Capture
captureFor(const char *cpu_name, const MemoryImage &src, uint64_t seed)
{
    uint64_t image_bytes = src.size();
    BiosConfig bios;
    bios.boot_pollution_bytes = 0;
    Machine machine(cpuModelByName(cpu_name), bios, 1, seed);
    bool ddr4 =
        memctrl::cpuUsesDdr4(machine.model().generation);
    auto dimm = std::make_shared<dram::DramModule>(
        ddr4 ? dram::Generation::DDR4 : dram::Generation::DDR3,
        image_bytes, dram::DecayParams{}, seed + 1);
    machine.installDimm(0, dimm);
    machine.boot();
    machine.writePhys(0, src.bytes());

    Capture cap;
    // (b)/(d): raw DRAM contents.
    MemoryImage raw(image_bytes);
    dimm->read(0, raw.bytesMutable());
    cap.scrambled = std::move(raw);

    // (c)/(e): re-read after reboot (fresh scrambler seed).
    machine.reboot();
    cap.reread = machine.dumpMemory();
    machine.shutdown();
    return cap;
}

/** Print and report one image's duplicate line pairs; returns them. */
size_t
report(obs::bench::BenchContext &ctx, const char *label,
       const char *key, const MemoryImage &img, const char *path,
       bool save)
{
    if (save)
        img.savePgm(path, imageWidth);
    const size_t dups = img.duplicateLinePairs();
    std::printf("%-28s dup-line-pairs=%-10zu ones=%.3f  -> %s\n",
                label, dups, img.onesFraction(),
                save ? path : "(not saved)");
    ctx.report(std::string("fig3.") + key + ".dup_line_pairs",
               static_cast<double>(dups),
               "duplicate 64-byte line pairs (structure proxy)");
    return dups;
}

} // anonymous namespace

COLDBOOT_BENCH(fig3_visual)
{
    std::printf("E2: Figure 3 visual comparison (structure proxy: "
                "duplicate 64-byte line pairs)\n\n");
    const uint64_t image_bytes = ctx.pick(MiB(1), KiB(256));
    const bool save = !ctx.smoke();
    MemoryImage src = makeSourceImage(image_bytes);
    const size_t a = report(ctx, "(a) original", "a_original", src,
                            "/tmp/coldboot_fig3_a_original.pgm", save);

    Capture ddr3 = captureFor("i5-2540M", src, 1111);
    const size_t b =
        report(ctx, "(b) DDR3 scrambled", "b_ddr3", ddr3.scrambled,
               "/tmp/coldboot_fig3_b_ddr3.pgm", save);
    const size_t c =
        report(ctx, "(c) DDR3 reread after boot", "c_ddr3_reboot",
               ddr3.reread, "/tmp/coldboot_fig3_c_ddr3_reboot.pgm", save);

    Capture ddr4 = captureFor("i5-6400", src, 2222);
    const size_t d =
        report(ctx, "(d) DDR4 scrambled", "d_ddr4", ddr4.scrambled,
               "/tmp/coldboot_fig3_d_ddr4.pgm", save);
    const size_t e =
        report(ctx, "(e) DDR4 reread after boot", "e_ddr4_reboot",
               ddr4.reread, "/tmp/coldboot_fig3_e_ddr4_reboot.pgm", save);

    ctx.setBytesProcessed(5 * image_bytes);
    // The universal key keeps every duplicate of the source, DDR3's
    // 16-key pool keeps some, and DDR4's 4,096 keys keep at most
    // 1/256 of DDR3's.
    ctx.check(c == a, "(c) DDR3 reread does not keep exactly the "
                      "source's duplicate lines");
    ctx.check(b > 0, "(b) DDR3 scrambled keeps no duplicate lines");
    ctx.check(256 * d <= b, "(d) DDR4 scrambled keeps more than 1/256 "
                            "of (b)'s duplicate lines");
    ctx.check(256 * e <= b, "(e) DDR4 reread keeps more than 1/256 of "
                            "(b)'s duplicate lines");
    std::printf(
        "\nExpected shape (gated): (a) huge duplicate count (structured"
        " source);\n(b) > 0 (16-key DDR3 pool preserves repeats);"
        " (c) == (a) (universal key\nfactoring keeps all structure);"
        " (d) <= (b)/256 (4096-key pool);\n(e) <= (b)/256"
        " (no universal key on DDR4).\n");
}
