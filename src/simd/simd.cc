/**
 * @file
 * Backend dispatch plus the scalar reference kernels.
 *
 * The scalar kernels are the correctness oracle of the whole layer:
 * they are written for obviousness (word loop + byte tail, no reads
 * past the logical length) and every vector backend must match them
 * bit for bit. Resist the urge to "optimize" them beyond the 8-byte
 * word sweep — their job is to be unarguably right.
 */

#include "simd/kernels.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace coldboot::simd
{

namespace
{

/** Alignment-free 64-bit load (byte order cancels under popcount). */
inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

inline void
store64(uint8_t *p, uint64_t v)
{
    std::memcpy(p, &v, 8);
}

//
// Scalar reference kernels.
//

void
scalarXorBytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store64(dst + i, load64(dst + i) ^ load64(src + i));
    for (; i < n; ++i)
        dst[i] ^= src[i];
}

void
scalarXorInto(uint8_t *out, const uint8_t *a, const uint8_t *b,
              size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store64(out + i, load64(a + i) ^ load64(b + i));
    for (; i < n; ++i)
        out[i] = a[i] ^ b[i];
}

void
scalarXorRepeatKey64(uint8_t *dst, const uint8_t *key, size_t n)
{
    size_t i = 0;
    for (; i + 64 <= n; i += 64)
        scalarXorBytes(dst + i, key, 64);
    for (; i < n; ++i)
        dst[i] ^= key[i % 64];
}

size_t
scalarHammingDistance(const uint8_t *a, const uint8_t *b, size_t n)
{
    size_t dist = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        dist += static_cast<size_t>(
            std::popcount(load64(a + i) ^ load64(b + i)));
    for (; i < n; ++i)
        dist += static_cast<size_t>(
            std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
    return dist;
}

size_t
scalarHammingBounded(const uint8_t *a, const uint8_t *b, size_t n,
                     size_t limit)
{
    size_t dist = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        dist += static_cast<size_t>(
            std::popcount(load64(a + i) ^ load64(b + i)));
        if (dist > limit)
            return limit + 1;
    }
    for (; i < n; ++i)
        dist += static_cast<size_t>(
            std::popcount(static_cast<unsigned>(a[i] ^ b[i])));
    return dist <= limit ? dist : limit + 1;
}

size_t
scalarHammingWeight(const uint8_t *p, size_t n)
{
    size_t weight = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        weight += static_cast<size_t>(std::popcount(load64(p + i)));
    for (; i < n; ++i)
        weight += static_cast<size_t>(
            std::popcount(static_cast<unsigned>(p[i])));
    return weight;
}

size_t
scalarMaskedMismatch(const uint8_t *a, const uint8_t *b,
                     const uint8_t *mask, size_t n)
{
    size_t count = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        count += static_cast<size_t>(std::popcount(
            (load64(a + i) ^ load64(b + i)) & load64(mask + i)));
    for (; i < n; ++i)
        count += static_cast<size_t>(std::popcount(
            static_cast<unsigned>((a[i] ^ b[i]) & mask[i])));
    return count;
}

bool
scalarIsConstant(const uint8_t *p, size_t n)
{
    for (size_t i = 1; i < n; ++i)
        if (p[i] != p[0])
            return false;
    return true;
}

/** 16-bit little-endian lane load (the litmus equation operand). */
inline unsigned
load16(const uint8_t *p)
{
    return static_cast<unsigned>(p[0] | (p[1] << 8));
}

unsigned
scalarScramblerLitmusScore64(const uint8_t *block)
{
    // The paper's four Section III-B byte-pair invariants, evaluated
    // on every 16-byte word of the block — transcribed directly, as
    // the reference the vector reformulations are tested against.
    unsigned errors = 0;
    for (unsigned base = 0; base < 64; base += 16) {
        const uint8_t *p = block + base;
        const unsigned w0 = load16(p + 0);
        const unsigned w2 = load16(p + 2);
        const unsigned w4 = load16(p + 4);
        const unsigned w6 = load16(p + 6);
        const unsigned w8 = load16(p + 8);
        const unsigned w10 = load16(p + 10);
        const unsigned w12 = load16(p + 12);
        const unsigned w14 = load16(p + 14);
        errors += static_cast<unsigned>(
            std::popcount((w2 ^ w4) ^ (w10 ^ w12)));
        errors += static_cast<unsigned>(
            std::popcount((w0 ^ w6) ^ (w8 ^ w14)));
        errors += static_cast<unsigned>(
            std::popcount((w0 ^ w4) ^ (w8 ^ w12)));
        errors += static_cast<unsigned>(
            std::popcount((w0 ^ w2) ^ (w8 ^ w10)));
    }
    return errors;
}

uint64_t
scalarDecayApplyGround(uint8_t *data, const uint8_t *ground, size_t n)
{
    uint64_t flips = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        flips += static_cast<uint64_t>(
            std::popcount(load64(data + i) ^ load64(ground + i)));
        store64(data + i, load64(ground + i));
    }
    for (; i < n; ++i) {
        flips += static_cast<uint64_t>(
            std::popcount(static_cast<unsigned>(data[i] ^ ground[i])));
        data[i] = ground[i];
    }
    return flips;
}

size_t
scalarSyndromeScreen(const uint32_t *block_syn, const uint32_t *key_syn,
                     size_t stride, size_t nkeys, unsigned nchecks,
                     unsigned max_per_check, unsigned max_total,
                     uint32_t *out)
{
    size_t passed = 0;
    for (size_t k = 0; k < nkeys; ++k) {
        unsigned total = 0;
        bool ok = true;
        for (unsigned j = 0; j < nchecks && ok; ++j) {
            unsigned bits = static_cast<unsigned>(
                std::popcount(block_syn[j] ^ key_syn[j * stride + k]));
            total += bits;
            ok = bits <= max_per_check;
        }
        if (ok && total <= max_total)
            out[passed++] = static_cast<uint32_t>(k);
    }
    return passed;
}

constexpr Kernels scalar_table = {
    scalarXorBytes,       scalarXorInto,
    scalarXorRepeatKey64, scalarHammingDistance,
    scalarHammingBounded, scalarHammingWeight,
    scalarMaskedMismatch, scalarIsConstant,
    scalarScramblerLitmusScore64, scalarDecayApplyGround,
    scalarSyndromeScreen,
};

/** The compiled table for a backend, or nullptr. */
const Kernels *
backendTable(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return &scalar_table;
    case Backend::Sse2:
        return detail::sse2Kernels();
    case Backend::Avx2:
        return detail::avx2Kernels();
    }
    return nullptr;
}

/** Mirror of the active table for activeBackend() reporting. */
std::atomic<unsigned> g_active_backend{0};

[[noreturn]] void
badEnvValue(const char *value, const char *why)
{
    std::fprintf(stderr,
                 "coldboot: COLDBOOT_SIMD=%s: %s (want avx2, sse2 "
                 "or scalar)\n",
                 value, why);
    std::exit(1);
}

/** Best usable backend, strongest first. */
Backend
bestBackend()
{
    for (unsigned i = kBackendCount; i-- > 0;) {
        Backend b = static_cast<Backend>(i);
        if (backendUsable(b))
            return b;
    }
    return Backend::Scalar;
}

/** Resolve COLDBOOT_SIMD (or CPUID best) to a backend, loudly. */
Backend
resolveBackend()
{
    const char *env = std::getenv("COLDBOOT_SIMD");
    if (env == nullptr || *env == '\0')
        return bestBackend();
    auto parsed = parseBackend(env);
    if (!parsed)
        badEnvValue(env, "unknown backend");
    if (!backendUsable(*parsed))
        badEnvValue(env, "not supported on this CPU");
    return *parsed;
}

void
install(Backend b)
{
    g_active_backend.store(static_cast<unsigned>(b),
                           std::memory_order_relaxed);
    detail::g_active.store(backendTable(b), std::memory_order_release);
}

} // anonymous namespace

namespace detail
{

std::atomic<const Kernels *> g_active{nullptr};

const Kernels &
scalarKernels()
{
    return scalar_table;
}

const Kernels &
resolveAndInstall()
{
    // Benignly racy: concurrent first calls resolve to the same
    // backend (the env cannot change mid-resolution in a sane
    // process) and install the same pointer.
    Backend b = resolveBackend();
    install(b);
    return *backendTable(b);
}

} // namespace detail

const char *
backendName(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Sse2:
        return "sse2";
    case Backend::Avx2:
        return "avx2";
    }
    return "unknown";
}

std::optional<Backend>
parseBackend(std::string_view name)
{
    if (name == "scalar")
        return Backend::Scalar;
    if (name == "sse2")
        return Backend::Sse2;
    if (name == "avx2")
        return Backend::Avx2;
    return std::nullopt;
}

bool
backendCompiled(Backend b)
{
    return backendTable(b) != nullptr;
}

bool
backendUsable(Backend b)
{
    return backendCompiled(b) && detail::cpuSupports(b);
}

const Kernels &
kernels(Backend b)
{
    if (!backendUsable(b)) {
        std::fprintf(stderr,
                     "coldboot: simd::kernels(%s) on a host without "
                     "that backend; check backendUsable() first\n",
                     backendName(b));
        std::abort();
    }
    return *backendTable(b);
}

Backend
activeBackend()
{
    activeKernels(); // force resolution
    return static_cast<Backend>(
        g_active_backend.load(std::memory_order_relaxed));
}

bool
setBackend(Backend b)
{
    if (!backendUsable(b))
        return false;
    install(b);
    return true;
}

void
reinitFromEnv()
{
    install(resolveBackend());
}

} // namespace coldboot::simd
