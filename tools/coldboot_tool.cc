/**
 * @file
 * coldboot-tool - command-line front end to the library, in the
 * spirit of the memory-forensics tooling the paper's attack implies.
 *
 *   simulate-victim  build a victim machine with a mounted encrypted
 *                    volume, perform a cold boot transfer, and write
 *                    the captured dump (plus the volume container)
 *                    to disk;
 *   attack           run the full key-recovery pipeline on a dump
 *                    file and print any recovered XTS master keys;
 *   mine             mine scrambler-key candidates from a dump;
 *   info             basic dump statistics;
 *   decrypt          decrypt one sector of a volume container with
 *                    recovered master keys.
 *
 * Example end-to-end session:
 *   coldboot-tool simulate-victim /tmp/dump.img /tmp/vol.bin
 *   coldboot-tool attack /tmp/dump.img
 *   coldboot-tool decrypt /tmp/vol.bin <data_key_hex> <tweak_key_hex> 3
 */

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "attack/attack_pipeline.hh"
#include "attack/sessions.hh"
#include "exec/dump_io.hh"
#include "exec/thread_pool.hh"
#include "common/hex.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "crypto/xts.hh"
#include "obs/runtime.hh"
#include "obs/stats.hh"
#include "dram/dram_module.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "simd/simd.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  coldboot-tool simulate-victim <dump.img> <volume.bin>"
        " [mib] [seed] [--warm]\n"
        "  coldboot-tool attack <dump.img>\n"
        "  coldboot-tool mine <dump.img> [top_n]\n"
        "  coldboot-tool descramble <dump.img> <out.img>\n"
        "  coldboot-tool info <dump.img>\n"
        "  coldboot-tool decrypt <volume.bin> <data_key_hex>"
        " <tweak_key_hex> <sector>\n"
        "global flags (any command, any position):\n"
        "  --threads <n>         worker threads for parallel scans\n"
        "                        (default: COLDBOOT_THREADS or all"
        " cores)\n"
        "  --no-mmap             stream dumps with buffered reads\n"
        "                        instead of mmap\n"
        "  --simd <backend>      force the kernel backend (avx2,\n"
        "                        sse2 or scalar; default: best the\n"
        "                        CPU supports); also via the\n"
        "                        COLDBOOT_SIMD env var\n");
    std::fputs(obs::Runtime::usage, stderr);
    return 2;
}

/** getrusage(RUSAGE_SELF) peak RSS in KiB (0 if unavailable). */
uint64_t
peakRssKib()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0)
        return static_cast<uint64_t>(usage.ru_maxrss);
    return 0;
}

/** Dump-streaming backend selected by --no-mmap. */
exec::DumpBackend g_dump_backend = exec::DumpBackend::Auto;

/** A command's arguments, once the global flags are stripped. */
using Args = std::vector<std::string>;

/**
 * Whether @p args fit a usage line of @p min to @p max positionals
 * and no `--` option. The first argument that does not fit is named
 * as an unknown option.
 */
bool
fitsUsage(const Args &args, size_t min, size_t max)
{
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i].rfind("--", 0) == 0 || i == max) {
            std::fprintf(stderr, "unknown option '%s'\n",
                         args[i].c_str());
            return false;
        }
    }
    return args.size() >= min;
}

/** Parse all of @p text as an unsigned decimal of at least @p min
 *  into @p out; otherwise name the bad @p what. */
bool
parseDecimal(const char *what, const std::string &text, uint64_t &out,
             uint64_t min = 0)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    if (ec == std::errc() && ptr == end && out >= min)
        return true;
    std::fprintf(stderr, "bad %s '%s'\n", what, text.c_str());
    return false;
}

int
cmdSimulateVictim(Args args)
{
    auto warm_at = std::find(args.begin(), args.end(), "--warm");
    const bool warm = warm_at != args.end();
    if (warm)
        args.erase(warm_at);
    uint64_t mib = 4;
    uint64_t seed = 20260705;
    if (!fitsUsage(args, 2, 4) ||
        (args.size() > 2 && !parseDecimal("mib", args[2], mib, 1)) ||
        (args.size() > 3 && !parseDecimal("seed", args[3], seed)))
        return usage();
    const std::string &dump_path = args[0];
    const std::string &volume_path = args[1];

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, seed);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, MiB(mib),
                              dram::DecayParams{}, seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);

    auto vf = volume::VolumeFile::create("hunter2", 16, seed + 3);
    uint64_t keytable_addr = MiB(mib) * 3 / 4 + 16;
    auto mounted = volume::MountedVolume::mount(victim, vf, "hunter2",
                                                keytable_addr);
    std::vector<uint8_t> secret(volume::sectorBytes, 0);
    const char *msg = "top secret: the cake is a lie";
    std::memcpy(secret.data(), msg, std::strlen(msg));
    mounted->writeSector(3, secret);

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     seed + 4);
    ColdBootParams cold_params;
    cold_params.cool_first = !warm;
    auto cold = coldBootTransfer(victim, attacker, 0, cold_params);

    cold.dump.saveRaw(dump_path);
    std::FILE *f = std::fopen(volume_path.c_str(), "wb");
    if (!f)
        cb_fatal("cannot open '%s'", volume_path.c_str());
    std::fwrite(vf.bytes().data(), 1, vf.size(), f);
    std::fclose(f);

    std::printf("wrote %zu MiB dump to %s (%.2f%% bits decayed)\n",
                cold.dump.size() >> 20, dump_path.c_str(),
                100.0 * static_cast<double>(cold.bits_flipped) /
                    (static_cast<double>(cold.dump.size()) * 8));
    std::printf("wrote volume container to %s (secret in sector 3)\n",
                volume_path.c_str());
    std::printf("ground truth master keys (for validation):\n"
                "  data : %s\n  tweak: %s\n",
                toHex(mounted->masterKeys().subspan(0, 32)).c_str(),
                toHex(mounted->masterKeys().subspan(32, 32)).c_str());
    return 0;
}

int
cmdAttack(Args args)
{
    if (!fitsUsage(args, 1, 1))
        return usage();
    // Stream the dump instead of copying it into memory: mmap when
    // possible, buffered pread otherwise. On a multi-GiB capture the
    // old loadRaw() path doubled the peak RSS.
    auto dump = exec::openDumpSource(args[0], g_dump_backend);
    auto report = attack::runColdBootAttack(*dump);
    std::printf("mined %zu candidate keys; recovered %zu AES table(s);"
                " %zu XTS pair(s); %.2f MiB/s (%s dump, peak RSS "
                "%llu KiB)\n",
                report.mined_keys.size(), report.recovered.size(),
                report.xts_pairs.size(), report.mib_per_second,
                dump->backendName(),
                static_cast<unsigned long long>(peakRssKib()));
    for (const auto &pair : report.xts_pairs) {
        // coldboot-lint: allow(secret-taint) -- printing recovered keys is this attack tool's output
        std::printf("XTS master keys at dump offset 0x%llx:\n"
                    "  data : %s\n  tweak: %s\n",
                    static_cast<unsigned long long>(
                        pair.table_offset),
                    toHex({pair.data_key.data(), 32}).c_str(),
                    toHex({pair.tweak_key.data(), 32}).c_str());
    }
    std::printf("\n--- stats ---\n%s",
                obs::StatRegistry::global().dumpText().c_str());
    return report.xts_pairs.empty() ? 1 : 0;
}

int
cmdMine(Args args)
{
    uint64_t top_n = 10;
    if (!fitsUsage(args, 1, 2) ||
        (args.size() > 1 && !parseDecimal("top_n", args[1], top_n)))
        return usage();
    auto dump = exec::openDumpSource(args[0], g_dump_backend);

    attack::MinerStats stats;
    auto mined = attack::mineScramblerKeys(*dump, {}, &stats);
    std::printf("scanned %llu blocks, %llu litmus hits, %zu "
                "candidate keys\n",
                static_cast<unsigned long long>(stats.blocks_scanned),
                static_cast<unsigned long long>(stats.litmus_hits),
                mined.size());
    for (size_t i = 0; i < std::min(top_n, mined.size()); ++i) {
        std::printf("#%2zu x%-5zu %s...\n", i, mined[i].occurrences,
                    toHex({mined[i].key.data(), 16}).c_str());
    }
    std::printf("\n--- stats ---\n%s",
                obs::StatRegistry::global().dumpText().c_str());
    return 0;
}

int
cmdDescramble(Args args)
{
    if (!fitsUsage(args, 2, 2))
        return usage();
    auto dump = exec::openDumpSource(args[0], g_dump_backend);
    // Same session object the analysis service drives, run to
    // completion in-line - so service descramble results (image
    // bytes, digest, rendering) are byte-identical to this command.
    attack::DescrambleSession session(*dump, args[1]);
    try {
        session.runToCompletion();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "descramble failed: %s\n", e.what());
        return 1;
    }
    std::fputs(
        attack::renderDescrambleResult(session.result()).c_str(),
        stdout);
    return 0;
}

int
cmdInfo(Args args)
{
    if (!fitsUsage(args, 1, 1))
        return usage();
    MemoryImage dump = MemoryImage::loadRaw(args[0]);
    std::printf("size            : %zu bytes (%zu lines)\n",
                dump.size(), dump.lines());
    std::printf("ones fraction   : %.4f\n", dump.onesFraction());
    std::printf("duplicate pairs : %zu\n", dump.duplicateLinePairs());
    return 0;
}

int
cmdDecrypt(Args args)
{
    uint64_t sector = 0;
    if (!fitsUsage(args, 4, 4) ||
        !parseDecimal("sector", args[3], sector))
        return usage();
    std::FILE *f = std::fopen(args[0].c_str(), "rb");
    if (!f)
        cb_fatal("cannot open '%s'", args[0].c_str());
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> blob(static_cast<size_t>(size));
    if (std::fread(blob.data(), 1, blob.size(), f) != blob.size())
        cb_fatal("short read from '%s'", args[0].c_str());
    std::fclose(f);

    auto data_key = fromHex(args[1]);
    auto tweak_key = fromHex(args[2]);
    if (data_key.size() != 32 || tweak_key.size() != 32)
        cb_fatal("keys must be 32 bytes of hex each");

    uint64_t off = volume::headerBytes + sector * volume::sectorBytes;
    if (off + volume::sectorBytes > blob.size())
        cb_fatal("sector %llu out of range",
                 static_cast<unsigned long long>(sector));

    crypto::XtsAes xts(data_key, tweak_key);
    std::vector<uint8_t> plain(volume::sectorBytes);
    xts.decryptSector(sector, {&blob[off], volume::sectorBytes},
                      plain);
    std::printf("sector %llu plaintext (first 64 bytes):\n%s\n",
                static_cast<unsigned long long>(sector),
                hexDump({plain.data(), 64}).c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    obs::Runtime runtime(argc, argv);
    if (!runtime.error().empty()) {
        std::fprintf(stderr, "%s\n", runtime.error().c_str());
        return usage();
    }
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--threads") {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "--threads requires a count argument\n");
                return usage();
            }
            unsigned n = exec::parseThreadCount(argv[++i]);
            if (n == 0) {
                std::fprintf(stderr, "--threads: bad count '%s'\n",
                             argv[i]);
                return usage();
            }
            exec::setThreadOverride(n);
            continue;
        }
        if (arg == "--no-mmap") {
            g_dump_backend = exec::DumpBackend::Buffered;
            continue;
        }
        if (arg == "--simd") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--simd requires a backend "
                                     "argument\n");
                return usage();
            }
            auto backend = simd::parseBackend(argv[++i]);
            if (!backend) {
                std::fprintf(stderr,
                             "--simd: unknown backend '%s' (want "
                             "avx2, sse2 or scalar)\n",
                             argv[i]);
                return usage();
            }
            if (!simd::setBackend(*backend)) {
                std::fprintf(stderr,
                             "--simd: backend '%s' is not usable on "
                             "this host\n",
                             argv[i]);
                return 2;
            }
            continue;
        }
        args.push_back(argv[i]);
    }

    const std::map<std::string, int (*)(Args)> commands = {
        {"simulate-victim", cmdSimulateVictim},
        {"attack", cmdAttack},
        {"mine", cmdMine},
        {"descramble", cmdDescramble},
        {"info", cmdInfo},
        {"decrypt", cmdDecrypt},
    };
    auto cmd = args.empty() ? commands.end() : commands.find(args[0]);
    if (cmd == commands.end())
        return usage();

    runtime.start(obs::Runtime::OnSignal::FlushAndExit);
    int rc = cmd->second(Args(args.begin() + 1, args.end()));
    runtime.finish();
    runtime.linger();
    return rc;
}
