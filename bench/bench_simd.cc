/**
 * @file
 * SIMD kernel-layer benchmarks: per-kernel throughput for every
 * usable backend (scalar reference, SSE2, AVX2), with the AVX2
 * speedup over scalar published as a report figure per kernel.
 *
 * The interesting row is xor_popcount (the hamming_distance kernel -
 * the XOR+popcount inner loop of the key miner and decay sweep): the
 * ISSUE-10 acceptance bar is a >=4x AVX2-vs-scalar speedup on AVX2
 * hosts, checked here as `simd.xor_popcount.avx2_speedup_vs_scalar`.
 *
 * Backends are driven through their direct kernel tables
 * (simd::kernels(backend)), never the global dispatch state, so the
 * bench cannot perturb other benches in the same driver run. Every
 * backend's per-pass result checksum is compared against the scalar
 * oracle - a backend that is fast but wrong fails loudly via
 * `simd.backends_agree`.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "obs/bench.hh"
#include "simd/simd.hh"

using namespace coldboot;

COLDBOOT_BENCH(simd)
{
    // Working set: big enough to stream (out of L2) under the full
    // profile, trimmed to a sanity-check size under smoke. Always a
    // multiple of the 64-byte block so the block kernels cover it.
    const size_t n = ctx.pick(MiB(8), KiB(512));
    const unsigned passes = ctx.pick(24u, 2u);

    std::vector<uint8_t> pristine(n), a(n), b(n), mask(n), ground(n);
    uint8_t key[64];
    {
        Xoshiro256StarStar rng(0x51D);
        rng.fillBytes(pristine);
        rng.fillBytes(b);
        rng.fillBytes(mask);
        rng.fillBytes(ground);
        std::span<uint8_t> key_span(key, 64);
        rng.fillBytes(key_span);
    }

    std::vector<simd::Backend> backends;
    for (unsigned i = 0; i < simd::kBackendCount; ++i) {
        auto backend = static_cast<simd::Backend>(i);
        if (simd::backendUsable(backend))
            backends.push_back(backend);
    }

    std::printf("simd: kernel throughput per backend (%zu KiB "
                "working set, %u passes)\n\n",
                n >> 10, passes);
    std::printf("%-16s", "kernel");
    for (auto backend : backends)
        std::printf(" %10s", simd::backendName(backend));
    std::printf("   (GiB/s)\n");

    // The syndrome screen's inputs: AES-256's six linear-check
    // syndromes (block words 9-11 and 13-15) of the first blocks of
    // the working set, against a pool of random keys in the search's
    // structure-of-arrays layout. Its rate counts 64 bytes per
    // (block, key) attempt, the unit of the xor_popcount guard it
    // replaces in the table scan.
    constexpr unsigned kChecks = 6;
    const size_t screen_keys = ctx.pick(4096, 256);
    const size_t screen_blocks = n / simd::kBlockBytes / 64;
    std::vector<uint32_t> block_syn(screen_blocks * kChecks);
    std::vector<uint32_t> key_syn(kChecks * screen_keys);
    std::vector<uint32_t> survivors(screen_keys);
    {
        Xoshiro256StarStar rng(0x5CEE);
        for (auto &w : key_syn)
            w = static_cast<uint32_t>(rng.next());
        for (size_t blk = 0; blk < screen_blocks; ++blk) {
            uint32_t w[16];
            std::memcpy(w, &pristine[blk * simd::kBlockBytes], 64);
            unsigned j = 0;
            for (unsigned i : {9u, 10u, 11u, 13u, 14u, 15u})
                block_syn[blk * kChecks + j++] =
                    w[i] ^ w[i - 1] ^ w[i - 8];
        }
    }

    // Each row runs one pass of one kernel and returns a checksum;
    // the scalar checksum is the oracle. A row's rate is its bytes
    // per pass (the working set, unless it says otherwise) over time.
    struct Row
    {
        std::string name;
        std::function<uint64_t(const simd::Kernels &)> one_pass;
        uint64_t bytes = 0;
    };
    std::vector<Row> rows;
    rows.emplace_back("xor", [&](const simd::Kernels &k) {
        k.xor_bytes(a.data(), b.data(), n);
        return uint64_t{a[0]} | uint64_t{a[n - 1]} << 8;
    });
    rows.emplace_back("xor_popcount", [&](const simd::Kernels &k) {
        return k.hamming_distance(a.data(), b.data(), n);
    });
    rows.emplace_back("popcount", [&](const simd::Kernels &k) {
        return k.hamming_weight(a.data(), n);
    });
    rows.emplace_back("masked_compare", [&](const simd::Kernels &k) {
        return k.masked_mismatch(a.data(), b.data(), mask.data(), n);
    });
    rows.emplace_back("litmus64", [&](const simd::Kernels &k) {
        uint64_t sum = 0;
        for (size_t off = 0; off < n; off += simd::kBlockBytes)
            sum += k.scrambler_litmus_score64(&a[off]);
        return sum;
    });
    rows.emplace_back("xor_key64", [&](const simd::Kernels &k) {
        k.xor_repeat_key64(a.data(), key, n);
        return uint64_t{a[0]} | uint64_t{a[n - 1]} << 8;
    });
    rows.emplace_back("decay_apply", [&](const simd::Kernels &k) {
        return k.decay_apply_ground(a.data(), ground.data(), n);
    });
    rows.emplace_back(
        "syndrome_screen",
        [&](const simd::Kernels &k) {
            uint64_t sum = 0;
            for (size_t blk = 0; blk < screen_blocks; ++blk) {
                size_t got = k.syndrome_screen(
                    &block_syn[blk * kChecks], key_syn.data(),
                    screen_keys, screen_keys, kChecks, 12, 64,
                    survivors.data());
                for (size_t i = 0; i < got; ++i)
                    sum += survivors[i] + 1;
            }
            return sum;
        },
        screen_blocks * screen_keys * simd::kBlockBytes);

    bool agree = true;
    uint64_t total_bytes = 0;
    for (const auto &[kernel_name, one_pass, row_bytes] : rows) {
        const uint64_t bytes = row_bytes != 0 ? row_bytes : n;
        std::printf("%-16s", kernel_name.c_str());
        double scalar_gib = 0.0;
        uint64_t oracle_sum = 0;
        for (auto backend : backends) {
            // Reset the mutable operand so every backend sees the
            // same pass-by-pass state (and checksums must match).
            std::memcpy(a.data(), pristine.data(), n);
            const simd::Kernels &k = simd::kernels(backend);

            uint64_t sum = 0;
            auto t0 = std::chrono::steady_clock::now();
            for (unsigned p = 0; p < passes; ++p)
                sum += one_pass(k);
            double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

            if (backend == simd::Backend::Scalar)
                oracle_sum = sum;
            else if (sum != oracle_sum) {
                agree = false;
                std::printf("\n!! %s/%s checksum DIFFERS from "
                            "scalar\n",
                            kernel_name.c_str(),
                            simd::backendName(backend));
            }

            double gib_s = secs > 0.0
                ? static_cast<double>(passes) * bytes / (1ull << 30) /
                    secs
                : 0.0;
            std::printf(" %10.2f", gib_s);
            ctx.report("simd." + kernel_name + "." +
                           simd::backendName(backend) +
                           ".gib_per_second",
                       gib_s, "kernel throughput on this backend");
            if (backend == simd::Backend::Scalar)
                scalar_gib = gib_s;
            else if (scalar_gib > 0.0)
                ctx.report("simd." + kernel_name + "." +
                               simd::backendName(backend) +
                               "_speedup_vs_scalar",
                           gib_s / scalar_gib,
                           "vector backend vs. the scalar oracle");
            total_bytes += static_cast<uint64_t>(passes) * bytes;
        }
        std::printf("\n");
    }

    ctx.report("simd.backends_agree", agree ? 1.0 : 0.0,
               "1 when every backend checksum matched the scalar "
               "oracle");
    ctx.report("simd.active_backend",
               static_cast<double>(
                   static_cast<unsigned>(simd::activeBackend())),
               "runtime-dispatched backend (0=scalar 1=sse2 2=avx2)");
    ctx.setBytesProcessed(total_bytes);

    std::printf("\nActive dispatch backend: %s\n",
                simd::backendName(simd::activeBackend()));
    std::printf("Expected shape: AVX2 >=4x scalar on xor_popcount "
                "(the miner's inner loop);\nSSE2 in between; every "
                "backend checksum identical to scalar. syndrome_screen "
                "is in GiB/s\nof 64-byte (block, key) attempts, the "
                "unit of the xor_popcount guard it replaced.\n");
}
