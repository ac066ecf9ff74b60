/**
 * @file
 * SSE2 kernels: 16-byte vector XOR sweeps plus an in-register SWAR
 * popcount (pshufb does not exist at this ISA level, so the nibble
 * LUT of the AVX2 backend is replaced by the classic bit-slicing
 * reduction finished with psadbw). Tails shorter than one vector
 * delegate to the scalar reference, so no kernel ever reads past
 * the logical length.
 */

#include "simd/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>

namespace coldboot::simd::detail
{

namespace
{

inline uint64_t
load64(const uint8_t *p)
{
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/** Per-byte popcount of a vector (bit-slicing SWAR). */
inline __m128i
popcountBytes(__m128i v)
{
    const __m128i m1 = _mm_set1_epi8(0x55);
    const __m128i m2 = _mm_set1_epi8(0x33);
    const __m128i m4 = _mm_set1_epi8(0x0f);
    v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi16(v, 1), m1));
    v = _mm_add_epi8(_mm_and_si128(v, m2),
                     _mm_and_si128(_mm_srli_epi16(v, 2), m2));
    v = _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi16(v, 4)), m4);
    return v;
}

/** Horizontal sum of the two 64-bit lanes of a psadbw accumulator. */
inline uint64_t
horizontalSum(__m128i acc)
{
    return static_cast<uint64_t>(_mm_cvtsi128_si64(acc)) +
           static_cast<uint64_t>(_mm_cvtsi128_si64(
               _mm_unpackhi_epi64(acc, acc)));
}

void
sse2XorBytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        for (unsigned v = 0; v < 64; v += 16) {
            __m128i d = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(dst + i + v));
            __m128i s = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + i + v));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i + v),
                             _mm_xor_si128(d, s));
        }
    }
    for (; i + 16 <= n; i += 16) {
        __m128i d = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(dst + i));
        __m128i s = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(src + i));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_xor_si128(d, s));
    }
    scalarKernels().xor_bytes(dst + i, src + i, n - i);
}

void
sse2XorInto(uint8_t *out, const uint8_t *a, const uint8_t *b,
            size_t n)
{
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + i));
        __m128i y = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(b + i));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_xor_si128(x, y));
    }
    scalarKernels().xor_into(out + i, a + i, b + i, n - i);
}

void
sse2XorRepeatKey64(uint8_t *dst, const uint8_t *key, size_t n)
{
    __m128i k[4];
    for (unsigned v = 0; v < 4; ++v)
        k[v] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(key + 16 * v));
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        for (unsigned v = 0; v < 4; ++v) {
            __m128i d = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(dst + i + 16 * v));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(dst + i + 16 * v),
                _mm_xor_si128(d, k[v]));
        }
    }
    // i is a multiple of 64, so the key phase restarts cleanly.
    scalarKernels().xor_repeat_key64(dst + i, key, n - i);
}

size_t
sse2HammingDistance(const uint8_t *a, const uint8_t *b, size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        // Four per-byte counts per iteration sum to at most 32 per
        // byte — well inside uint8, so one psadbw per 64 bytes.
        __m128i counts = zero;
        for (unsigned v = 0; v < 64; v += 16) {
            __m128i x = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + i + v));
            __m128i y = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + i + v));
            counts = _mm_add_epi8(
                counts, popcountBytes(_mm_xor_si128(x, y)));
        }
        acc = _mm_add_epi64(acc, _mm_sad_epu8(counts, zero));
    }
    size_t dist = horizontalSum(acc);
    return dist + scalarKernels().hamming_distance(a + i, b + i,
                                                   n - i);
}

size_t
sse2HammingBounded(const uint8_t *a, const uint8_t *b, size_t n,
                   size_t limit)
{
    // Early exit at page granularity: the exact distance is returned
    // whenever it is <= limit, so the result is backend-independent.
    constexpr size_t kChunk = 4096;
    size_t dist = 0;
    size_t i = 0;
    for (; i < n; i += kChunk) {
        size_t len = n - i < kChunk ? n - i : kChunk;
        dist += sse2HammingDistance(a + i, b + i, len);
        if (dist > limit)
            return limit + 1;
    }
    return dist;
}

size_t
sse2HammingWeight(const uint8_t *p, size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m128i counts = zero;
        for (unsigned v = 0; v < 64; v += 16) {
            __m128i x = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + i + v));
            counts = _mm_add_epi8(counts, popcountBytes(x));
        }
        acc = _mm_add_epi64(acc, _mm_sad_epu8(counts, zero));
    }
    size_t weight = horizontalSum(acc);
    return weight + scalarKernels().hamming_weight(p + i, n - i);
}

size_t
sse2MaskedMismatch(const uint8_t *a, const uint8_t *b,
                   const uint8_t *mask, size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m128i counts = zero;
        for (unsigned v = 0; v < 64; v += 16) {
            __m128i x = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + i + v));
            __m128i y = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(b + i + v));
            __m128i m = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(mask + i + v));
            counts = _mm_add_epi8(
                counts, popcountBytes(_mm_and_si128(
                            _mm_xor_si128(x, y), m)));
        }
        acc = _mm_add_epi64(acc, _mm_sad_epu8(counts, zero));
    }
    size_t count = horizontalSum(acc);
    return count + scalarKernels().masked_mismatch(a + i, b + i,
                                                   mask + i, n - i);
}

bool
sse2IsConstant(const uint8_t *p, size_t n)
{
    if (n == 0)
        return true;
    const __m128i ref = _mm_set1_epi8(static_cast<char>(p[0]));
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i));
        if (_mm_movemask_epi8(_mm_cmpeq_epi8(x, ref)) != 0xffff)
            return false;
    }
    for (; i < n; ++i)
        if (p[i] != p[0])
            return false;
    return true;
}

unsigned
sse2ScramblerLitmusScore64(const uint8_t *block)
{
    // Folded form of the four byte-pair invariants: with the 16-bit
    // lanes of one 16-byte word as l0..l7 and m_i = l_i ^ l_{i+4},
    // the equations collapse to m1^m2, m0^m3, m0^m2 and m0^m1
    // (differential-tested against the scalar transcription). Packing
    // the four 16-bit results into one word turns each row into a
    // single popcount.
    unsigned errors = 0;
    for (unsigned base = 0; base < 64; base += 16) {
        uint64_t m = load64(block + base) ^ load64(block + base + 8);
        uint64_t m0 = m & 0xffff;
        uint64_t m1 = (m >> 16) & 0xffff;
        uint64_t m2 = (m >> 32) & 0xffff;
        uint64_t m3 = m >> 48;
        uint64_t packed = (m1 ^ m2) | ((m0 ^ m3) << 16) |
                          ((m0 ^ m2) << 32) | ((m0 ^ m1) << 48);
        errors += static_cast<unsigned>(std::popcount(packed));
    }
    return errors;
}

uint64_t
sse2DecayApplyGround(uint8_t *data, const uint8_t *ground, size_t n)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        __m128i counts = zero;
        for (unsigned v = 0; v < 64; v += 16) {
            __m128i d = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(data + i + v));
            __m128i g = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ground + i + v));
            counts = _mm_add_epi8(
                counts, popcountBytes(_mm_xor_si128(d, g)));
            _mm_storeu_si128(
                reinterpret_cast<__m128i *>(data + i + v), g);
        }
        acc = _mm_add_epi64(acc, _mm_sad_epu8(counts, zero));
    }
    uint64_t flips = horizontalSum(acc);
    return flips + scalarKernels().decay_apply_ground(
                       data + i, ground + i, n - i);
}

/** Per-lane popcount of four 32-bit words (byte counts folded). */
inline __m128i
popcount32(__m128i v)
{
    v = popcountBytes(v);
    v = _mm_add_epi32(v, _mm_srli_epi32(v, 8));
    v = _mm_add_epi32(v, _mm_srli_epi32(v, 16));
    return _mm_and_si128(v, _mm_set1_epi32(0x3f));
}

size_t
sse2SyndromeScreen(const uint32_t *block_syn, const uint32_t *key_syn,
                   size_t stride, size_t nkeys, unsigned nchecks,
                   unsigned max_per_check, unsigned max_total,
                   uint32_t *out)
{
    // Four keys per vector; budgets clamped for the signed compares
    // and the first two checks unconditional, as in the AVX2 kernel.
    const __m128i per = _mm_set1_epi32(
        static_cast<int>(std::min(max_per_check, 32u)));
    const __m128i total = _mm_set1_epi32(static_cast<int>(
        std::min<uint64_t>(max_total, 32ull * nchecks)));
    size_t passed = 0;
    size_t k = 0;
    const unsigned first = std::min(nchecks, 2u);
    for (; k + 4 <= nkeys; k += 4) {
        __m128i sum = _mm_setzero_si128();
        __m128i fail = _mm_setzero_si128();
        auto check = [&](unsigned j) {
            __m128i bits = popcount32(_mm_xor_si128(
                _mm_set1_epi32(static_cast<int>(block_syn[j])),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    key_syn + j * stride + k))));
            sum = _mm_add_epi32(sum, bits);
            fail = _mm_or_si128(fail, _mm_cmpgt_epi32(bits, per));
        };
        unsigned j = 0;
        for (; j < first; ++j)
            check(j);
        for (; j < nchecks &&
               _mm_movemask_ps(_mm_castsi128_ps(fail)) != 0xf;
             ++j)
            check(j);
        fail = _mm_or_si128(fail, _mm_cmpgt_epi32(sum, total));
        unsigned pass = ~static_cast<unsigned>(
                            _mm_movemask_ps(_mm_castsi128_ps(fail))) &
                        0xfu;
        for (; pass != 0; pass &= pass - 1)
            out[passed++] =
                static_cast<uint32_t>(k + std::countr_zero(pass));
    }
    size_t tail = scalarKernels().syndrome_screen(
        block_syn, key_syn + k, stride, nkeys - k, nchecks,
        max_per_check, max_total, out + passed);
    for (size_t i = passed; i < passed + tail; ++i)
        out[i] += static_cast<uint32_t>(k);
    return passed + tail;
}

constexpr Kernels sse2_table = {
    sse2XorBytes,       sse2XorInto,
    sse2XorRepeatKey64, sse2HammingDistance,
    sse2HammingBounded, sse2HammingWeight,
    sse2MaskedMismatch, sse2IsConstant,
    sse2ScramblerLitmusScore64, sse2DecayApplyGround,
    sse2SyndromeScreen,
};

} // anonymous namespace

const Kernels *
sse2Kernels()
{
    return &sse2_table;
}

} // namespace coldboot::simd::detail

#else // !x86

namespace coldboot::simd::detail
{

const Kernels *
sse2Kernels()
{
    return nullptr;
}

} // namespace coldboot::simd::detail

#endif
