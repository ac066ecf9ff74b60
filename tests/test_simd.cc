/**
 * @file
 * Differential tests for the SIMD kernel layer (DESIGN.md §15).
 *
 * The scalar backend is the oracle: every compiled-and-usable vector
 * backend must return bit-identical results on every input. The
 * sweeps below cover all tail lengths 0–192 (three vector widths
 * past the 64-byte block), every unaligned source/destination offset
 * 1–63, and randomized large buffers. Buffers are heap-allocated at
 * their exact logical size so the ASan CI leg turns any past-the-end
 * read into a hard failure — the tail-handling hazard class this
 * layer was built to retire.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/bits.hh"
#include "common/rng.hh"
#include "simd/simd.hh"

namespace coldboot
{
namespace
{

/** Backends usable on this host (scalar always; others by CPUID). */
std::vector<simd::Backend>
usableBackends()
{
    std::vector<simd::Backend> out;
    for (unsigned i = 0; i < simd::kBackendCount; ++i) {
        auto b = static_cast<simd::Backend>(i);
        if (simd::backendUsable(b))
            out.push_back(b);
    }
    return out;
}

/** Exact-size heap buffer: ASan red-zones begin at data()[n]. */
struct ExactBuf
{
    std::unique_ptr<uint8_t[]> mem;
    size_t len;

    explicit ExactBuf(size_t n)
        : mem(std::make_unique<uint8_t[]>(n)), len(n)
    {
    }

    uint8_t *data() { return mem.get(); }
    const uint8_t *data() const { return mem.get(); }
};

void
fill(Xoshiro256StarStar &rng, uint8_t *p, size_t n)
{
    rng.fillBytes({p, n});
}

//
// Naive references, written independently of src/simd (per-byte /
// per-bit only) so even the scalar oracle is cross-checked.
//

size_t
naiveDistance(const uint8_t *a, const uint8_t *b, size_t n)
{
    size_t d = 0;
    for (size_t i = 0; i < n; ++i)
        d += static_cast<size_t>(
            std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
    return d;
}

unsigned
naiveLitmus(const uint8_t *block)
{
    auto w = [&](unsigned off) {
        return static_cast<unsigned>(block[off] |
                                     (block[off + 1] << 8));
    };
    unsigned errors = 0;
    for (unsigned base = 0; base < 64; base += 16) {
        errors += static_cast<unsigned>(std::popcount(
            (w(base + 2) ^ w(base + 4)) ^ (w(base + 10) ^ w(base + 12))));
        errors += static_cast<unsigned>(std::popcount(
            (w(base + 0) ^ w(base + 6)) ^ (w(base + 8) ^ w(base + 14))));
        errors += static_cast<unsigned>(std::popcount(
            (w(base + 0) ^ w(base + 4)) ^ (w(base + 8) ^ w(base + 12))));
        errors += static_cast<unsigned>(std::popcount(
            (w(base + 0) ^ w(base + 2)) ^ (w(base + 8) ^ w(base + 10))));
    }
    return errors;
}

//
// Exhaustive tail sweep: every length 0..192, every usable backend.
//

TEST(SimdKernels, ExhaustiveLengthSweepMatchesScalar)
{
    const auto &scalar = simd::kernels(simd::Backend::Scalar);
    auto backends = usableBackends();
    Xoshiro256StarStar rng(0x51D0);

    for (size_t n = 0; n <= 192; ++n) {
        ExactBuf a(n), b(n), mask(n);
        fill(rng, a.data(), n);
        fill(rng, b.data(), n);
        fill(rng, mask.data(), n);

        size_t ref_dist = scalar.hamming_distance(a.data(), b.data(), n);
        size_t ref_weight = scalar.hamming_weight(a.data(), n);
        size_t ref_masked =
            scalar.masked_mismatch(a.data(), b.data(), mask.data(), n);
        EXPECT_EQ(ref_dist, naiveDistance(a.data(), b.data(), n));

        ExactBuf ref_xor(n), ref_into(n);
        std::memcpy(ref_xor.data(), a.data(), n);
        scalar.xor_bytes(ref_xor.data(), b.data(), n);
        scalar.xor_into(ref_into.data(), a.data(), b.data(), n);

        for (auto be : backends) {
            const auto &k = simd::kernels(be);
            const char *name = simd::backendName(be);
            EXPECT_EQ(k.hamming_distance(a.data(), b.data(), n),
                      ref_dist)
                << name << " n=" << n;
            EXPECT_EQ(k.hamming_weight(a.data(), n), ref_weight)
                << name << " n=" << n;
            EXPECT_EQ(k.masked_mismatch(a.data(), b.data(),
                                        mask.data(), n),
                      ref_masked)
                << name << " n=" << n;

            ExactBuf x(n);
            std::memcpy(x.data(), a.data(), n);
            k.xor_bytes(x.data(), b.data(), n);
            EXPECT_EQ(std::memcmp(x.data(), ref_xor.data(), n), 0)
                << name << " n=" << n;

            ExactBuf into(n);
            k.xor_into(into.data(), a.data(), b.data(), n);
            EXPECT_EQ(std::memcmp(into.data(), ref_into.data(), n), 0)
                << name << " n=" << n;
        }
    }
}

TEST(SimdKernels, XorRepeatKey64AllTailLengths)
{
    auto backends = usableBackends();
    const auto &scalar = simd::kernels(simd::Backend::Scalar);
    Xoshiro256StarStar rng(0x2EED);
    uint8_t key[64];
    fill(rng, key, 64);

    for (size_t n = 0; n <= 192; ++n) {
        ExactBuf src(n);
        fill(rng, src.data(), n);

        ExactBuf ref(n);
        std::memcpy(ref.data(), src.data(), n);
        scalar.xor_repeat_key64(ref.data(), key, n);
        // Per-byte truth: dst[i] ^= key[i % 64].
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(ref.data()[i],
                      static_cast<uint8_t>(src.data()[i] ^
                                           key[i % 64]));

        for (auto be : backends) {
            ExactBuf x(n);
            std::memcpy(x.data(), src.data(), n);
            simd::kernels(be).xor_repeat_key64(x.data(), key, n);
            EXPECT_EQ(std::memcmp(x.data(), ref.data(), n), 0)
                << simd::backendName(be) << " n=" << n;
        }
    }
}

TEST(SimdKernels, UnalignedOffsets1To63)
{
    auto backends = usableBackends();
    const auto &scalar = simd::kernels(simd::Backend::Scalar);
    Xoshiro256StarStar rng(0xA116);

    // Lengths that leave every kind of tail behind a 64-byte body.
    for (size_t n : {64u, 65u, 96u, 127u, 130u}) {
        for (size_t off = 1; off < 64; ++off) {
            // Exact allocations: the logical range ends flush with
            // the heap block, so any overread trips ASan.
            ExactBuf a(off + n), b(off + n);
            fill(rng, a.data(), off + n);
            fill(rng, b.data(), off + n);
            const uint8_t *ap = a.data() + off;
            uint8_t *bp = b.data() + off;

            size_t ref_dist = scalar.hamming_distance(ap, bp, n);
            ExactBuf ref(off + n);
            std::memcpy(ref.data(), b.data(), off + n);
            scalar.xor_bytes(ref.data() + off, ap, n);

            for (auto be : backends) {
                const auto &k = simd::kernels(be);
                EXPECT_EQ(k.hamming_distance(ap, bp, n), ref_dist)
                    << simd::backendName(be) << " off=" << off
                    << " n=" << n;
                ExactBuf x(off + n);
                std::memcpy(x.data(), b.data(), off + n);
                k.xor_bytes(x.data() + off, ap, n);
                EXPECT_EQ(std::memcmp(x.data() + off,
                                      ref.data() + off, n),
                          0)
                    << simd::backendName(be) << " off=" << off
                    << " n=" << n;
            }
        }
    }
}

TEST(SimdKernels, RandomizedLargeBuffers)
{
    auto backends = usableBackends();
    const auto &scalar = simd::kernels(simd::Backend::Scalar);
    Xoshiro256StarStar rng(0xB16B);

    for (size_t n : {4096u, 65536u + 1u, 100003u}) {
        ExactBuf a(n), b(n), mask(n);
        fill(rng, a.data(), n);
        fill(rng, b.data(), n);
        fill(rng, mask.data(), n);

        size_t ref_dist = scalar.hamming_distance(a.data(), b.data(), n);
        size_t ref_weight = scalar.hamming_weight(a.data(), n);
        size_t ref_masked =
            scalar.masked_mismatch(a.data(), b.data(), mask.data(), n);

        for (auto be : backends) {
            const auto &k = simd::kernels(be);
            EXPECT_EQ(k.hamming_distance(a.data(), b.data(), n),
                      ref_dist)
                << simd::backendName(be);
            EXPECT_EQ(k.hamming_weight(a.data(), n), ref_weight)
                << simd::backendName(be);
            EXPECT_EQ(k.masked_mismatch(a.data(), b.data(),
                                        mask.data(), n),
                      ref_masked)
                << simd::backendName(be);
        }
    }
}

TEST(SimdKernels, BoundedDistanceIsExactMinOnEveryBackend)
{
    auto backends = usableBackends();
    Xoshiro256StarStar rng(0xB07D);

    for (size_t n : {0u, 1u, 7u, 64u, 100u, 4096u, 8200u}) {
        ExactBuf a(n), b(n);
        fill(rng, a.data(), n);
        fill(rng, b.data(), n);
        size_t full = naiveDistance(a.data(), b.data(), n);

        std::vector<size_t> limits{0, 1, full / 2, full, full + 1,
                                   full + 1000};
        if (full > 0)
            limits.push_back(full - 1);
        for (size_t limit : limits) {
            size_t want = full <= limit ? full : limit + 1;
            for (auto be : backends) {
                EXPECT_EQ(simd::kernels(be).hamming_bounded(
                              a.data(), b.data(), n, limit),
                          want)
                    << simd::backendName(be) << " n=" << n
                    << " limit=" << limit;
            }
        }
    }
}

TEST(SimdKernels, IsConstantFlagsEveryMismatchPosition)
{
    auto backends = usableBackends();
    for (auto be : backends) {
        const auto &k = simd::kernels(be);
        EXPECT_TRUE(k.is_constant(nullptr, 0))
            << simd::backendName(be);
        for (size_t n : {1u, 2u, 15u, 16u, 17u, 63u, 64u, 65u, 192u}) {
            ExactBuf buf(n);
            std::memset(buf.data(), 0xA5, n);
            EXPECT_TRUE(k.is_constant(buf.data(), n))
                << simd::backendName(be) << " n=" << n;
            for (size_t pos = 0; pos < n; ++pos) {
                buf.data()[pos] ^= 0x10;
                // A mismatch at position 0 redefines the reference
                // byte, so every later byte disagrees; either way the
                // block is non-constant.
                EXPECT_EQ(k.is_constant(buf.data(), n), n == 1)
                    << simd::backendName(be) << " n=" << n
                    << " pos=" << pos;
                buf.data()[pos] ^= 0x10;
            }
        }
    }
}

TEST(SimdKernels, LitmusScoreMatchesNaiveTranscription)
{
    auto backends = usableBackends();
    Xoshiro256StarStar rng(0x117);

    for (unsigned trial = 0; trial < 200; ++trial) {
        ExactBuf block(64);
        fill(rng, block.data(), 64);
        unsigned want = naiveLitmus(block.data());
        for (auto be : backends)
            EXPECT_EQ(simd::kernels(be).scrambler_litmus_score64(
                          block.data()),
                      want)
                << simd::backendName(be) << " trial=" << trial;
    }

    // Self-consistent block: both 8-byte halves of each 16-byte row
    // identical makes every equation cancel.
    ExactBuf zero_err(64);
    fill(rng, zero_err.data(), 64);
    for (unsigned row = 0; row < 64; row += 16)
        std::memcpy(zero_err.data() + row + 8, zero_err.data() + row,
                    8);
    for (auto be : backends)
        EXPECT_EQ(simd::kernels(be).scrambler_litmus_score64(
                      zero_err.data()),
                  0u)
            << simd::backendName(be);
}

TEST(SimdKernels, DecayApplyGroundCountsAndOverwrites)
{
    auto backends = usableBackends();
    Xoshiro256StarStar rng(0xDECA);

    for (size_t n : {0u, 1u, 63u, 64u, 65u, 192u, 4097u}) {
        ExactBuf data0(n), ground(n);
        fill(rng, data0.data(), n);
        fill(rng, ground.data(), n);
        uint64_t want =
            naiveDistance(data0.data(), ground.data(), n);

        for (auto be : backends) {
            ExactBuf data(n);
            std::memcpy(data.data(), data0.data(), n);
            uint64_t flips = simd::kernels(be).decay_apply_ground(
                data.data(), ground.data(), n);
            EXPECT_EQ(flips, want)
                << simd::backendName(be) << " n=" << n;
            EXPECT_EQ(std::memcmp(data.data(), ground.data(), n), 0)
                << simd::backendName(be) << " n=" << n;
        }
    }
}

/** Independent screen reference: every check, no early exit. */
std::vector<uint32_t>
naiveScreen(const std::vector<uint32_t> &block_syn,
            const std::vector<uint32_t> &key_syn, size_t stride,
            size_t nkeys, unsigned per_check, unsigned total)
{
    std::vector<uint32_t> out;
    for (size_t k = 0; k < nkeys; ++k) {
        uint64_t sum = 0;
        bool ok = true;
        for (size_t j = 0; j < block_syn.size(); ++j) {
            unsigned bits = static_cast<unsigned>(
                std::popcount(block_syn[j] ^ key_syn[j * stride + k]));
            sum += bits;
            ok = ok && bits <= per_check;
        }
        if (ok && sum <= total)
            out.push_back(static_cast<uint32_t>(k));
    }
    return out;
}

TEST(SimdKernels, SyndromeScreenSweepMatchesNaive)
{
    // Key counts 0-67 cover every vector tail (8 and 4 keys per
    // vector); per-check and total budgets sit on and around their
    // edges, and each key's check words differ from the block's by a
    // bit count drawn around the per-check budget.
    auto backends = usableBackends();
    Xoshiro256StarStar rng(0x5CEE);
    const unsigned kNone = ~0u;
    size_t cases = 0, passes = 0;
    for (unsigned nchecks : {0u, 1u, 6u, 9u}) {
        for (unsigned per : {0u, 1u, 12u, 31u, 32u, kNone}) {
            for (size_t nkeys = 0; nkeys <= 67; ++nkeys) {
                size_t stride = nkeys + rng.nextBelow(3);
                std::vector<uint32_t> block_syn(nchecks);
                std::vector<uint32_t> key_syn(nchecks * stride);
                for (unsigned j = 0; j < nchecks; ++j) {
                    block_syn[j] = static_cast<uint32_t>(rng.next());
                    for (size_t k = 0; k < stride; ++k) {
                        unsigned centre = std::min(per, 32u);
                        unsigned want = std::min(
                            (centre >= 2 ? centre - 2 : 0) +
                                static_cast<unsigned>(rng.nextBelow(4)),
                            32u);
                        uint32_t flips = 0;
                        while (static_cast<unsigned>(
                                   std::popcount(flips)) < want)
                            flips |= 1u << rng.nextBelow(32);
                        key_syn[j * stride + k] = block_syn[j] ^ flips;
                    }
                }
                for (unsigned total :
                     {0u, 1u, 12u, 63u, 64u, 65u, 192u, kNone}) {
                    auto want = naiveScreen(block_syn, key_syn, stride,
                                            nkeys, per, total);
                    ++cases;
                    passes += want.size();
                    for (auto be : backends) {
                        std::vector<uint32_t> out(nkeys);
                        size_t n = simd::kernels(be).syndrome_screen(
                            block_syn.data(), key_syn.data(), stride,
                            nkeys, nchecks, per, total, out.data());
                        out.resize(n);
                        EXPECT_EQ(out, want)
                            << simd::backendName(be)
                            << " nkeys=" << nkeys
                            << " nchecks=" << nchecks
                            << " per=" << per << " total=" << total;
                    }
                }
            }
        }
    }
    // The sweep must exercise both outcomes, not just rejections.
    EXPECT_GT(passes, cases);
}

//
// Dispatch plumbing.
//

TEST(SimdDispatch, BackendNamesRoundTrip)
{
    for (unsigned i = 0; i < simd::kBackendCount; ++i) {
        auto b = static_cast<simd::Backend>(i);
        auto parsed = simd::parseBackend(simd::backendName(b));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, b);
    }
    EXPECT_FALSE(simd::parseBackend("neon").has_value());
    EXPECT_FALSE(simd::parseBackend("").has_value());
    EXPECT_FALSE(simd::parseBackend("AVX2").has_value());
}

TEST(SimdDispatch, ScalarAlwaysUsable)
{
    EXPECT_TRUE(simd::backendCompiled(simd::Backend::Scalar));
    EXPECT_TRUE(simd::backendUsable(simd::Backend::Scalar));
}

TEST(SimdDispatch, ScopedBackendRestores)
{
    auto before = simd::activeBackend();
    {
        simd::ScopedBackend forced(simd::Backend::Scalar);
        ASSERT_TRUE(forced.active());
        EXPECT_EQ(simd::activeBackend(), simd::Backend::Scalar);
        // Dispatched wrappers agree with the forced backend's table.
        uint8_t a[13] = {0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
        uint8_t b[13] = {};
        EXPECT_EQ(simd::hammingDistance(a, b, 13),
                  naiveDistance(a, b, 13));
    }
    EXPECT_EQ(simd::activeBackend(), before);
}

TEST(SimdDispatch, EnvOverrideSelectsBackend)
{
    auto saved = simd::activeBackend();
    setenv("COLDBOOT_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Scalar);
    unsetenv("COLDBOOT_SIMD");
    simd::reinitFromEnv(); // back to the CPUID best
    ASSERT_TRUE(simd::setBackend(saved));
}

TEST(SimdDispatchDeathTest, UnknownEnvValueIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("COLDBOOT_SIMD", "mmx", 1);
            simd::reinitFromEnv();
        },
        testing::ExitedWithCode(1), "unknown backend");
}

TEST(SimdDispatchDeathTest, KernelsAbortsOnUnusableBackend)
{
    // Find a backend this host cannot run, if any.
    for (unsigned i = 0; i < simd::kBackendCount; ++i) {
        auto b = static_cast<simd::Backend>(i);
        if (!simd::backendUsable(b)) {
            EXPECT_DEATH(simd::kernels(b), "backendUsable");
            return;
        }
    }
    GTEST_SKIP() << "every backend is usable on this host";
}

//
// Regression: the span-level bits.hh helpers must count tail bytes
// on non-multiple-of-8 sizes (the pre-SIMD bounded-distance helpers
// in the attack layer silently dropped them).
//

TEST(SimdTailRegression, OddSizedSpansCountTailBits)
{
    for (size_t n : {1u, 3u, 7u, 9u, 15u, 63u, 65u, 127u}) {
        std::vector<uint8_t> a(n, 0x00), b(n, 0xff);
        EXPECT_EQ(hammingDistance(a, b), 8 * n) << "n=" << n;
        EXPECT_EQ(hammingWeight(b), 8 * n) << "n=" << n;

        // Flip only the last byte: a tail-dropping implementation
        // reports 0 for any n not a multiple of 8.
        std::vector<uint8_t> c(n, 0x00);
        c[n - 1] = 0x81;
        EXPECT_EQ(hammingDistance(a, c), 2u) << "n=" << n;

        std::vector<uint8_t> d(n, 0x0f);
        xorBytes(d, c);
        for (size_t i = 0; i + 1 < n; ++i)
            EXPECT_EQ(d[i], 0x0f);
        EXPECT_EQ(d[n - 1], 0x0f ^ 0x81);
    }
}

TEST(SimdTailRegression, BoundedDistanceCountsTailOnEveryBackend)
{
    // 67 bytes differing only in the tail: the distance must be seen
    // even though no whole 8-byte word covers it.
    constexpr size_t n = 67;
    ExactBuf a(n), b(n);
    std::memset(a.data(), 0, n);
    std::memset(b.data(), 0, n);
    b.data()[64] = 0xff;
    b.data()[66] = 0x01;
    for (auto be : usableBackends()) {
        EXPECT_EQ(simd::kernels(be).hamming_bounded(a.data(), b.data(),
                                                    n, 100),
                  9u)
            << simd::backendName(be);
        EXPECT_EQ(simd::kernels(be).hamming_bounded(a.data(), b.data(),
                                                    n, 8),
                  9u)
            << simd::backendName(be);
        EXPECT_EQ(simd::kernels(be).hamming_bounded(a.data(), b.data(),
                                                    n, 4),
                  5u)
            << simd::backendName(be);
    }
}

} // anonymous namespace
} // namespace coldboot
