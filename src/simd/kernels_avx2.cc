/**
 * @file
 * AVX2 kernels: 32-byte vector XOR sweeps, the Mula nibble-LUT
 * popcount (vpshufb against a 0..4 table, accumulated with vpsadbw),
 * a fully vectorized scrambler-litmus row score and a syndrome screen
 * of eight keys per vector. Tails shorter than one vector delegate to
 * the scalar reference, so no kernel ever reads past the logical
 * length.
 *
 * The TU is compiled with -mavx2 when the toolchain supports it;
 * without that flag __AVX2__ is undefined and the accessor degrades
 * to nullptr, keeping the dispatcher free of build-system knowledge.
 */

#include "simd/kernels.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace coldboot::simd::detail
{

namespace
{

/** Per-byte popcount via the nibble LUT (Mula). */
inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

/** Horizontal sum of the four 64-bit lanes of a vpsadbw accumulator. */
inline uint64_t
horizontalSum(__m256i acc)
{
    __m128i s = _mm_add_epi64(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<uint64_t>(_mm_cvtsi128_si64(
               _mm_unpackhi_epi64(s, s)));
}

inline __m256i
load(const uint8_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
store(uint8_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

void
avx2XorBytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        store(dst + i, _mm256_xor_si256(load(dst + i), load(src + i)));
        store(dst + i + 32, _mm256_xor_si256(load(dst + i + 32),
                                             load(src + i + 32)));
    }
    for (; i + 32 <= n; i += 32)
        store(dst + i, _mm256_xor_si256(load(dst + i), load(src + i)));
    scalarKernels().xor_bytes(dst + i, src + i, n - i);
}

void
avx2XorInto(uint8_t *out, const uint8_t *a, const uint8_t *b,
            size_t n)
{
    size_t i = 0;
    for (; i + 32 <= n; i += 32)
        store(out + i, _mm256_xor_si256(load(a + i), load(b + i)));
    scalarKernels().xor_into(out + i, a + i, b + i, n - i);
}

void
avx2XorRepeatKey64(uint8_t *dst, const uint8_t *key, size_t n)
{
    const __m256i k0 = load(key);
    const __m256i k1 = load(key + 32);
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        store(dst + i, _mm256_xor_si256(load(dst + i), k0));
        store(dst + i + 32, _mm256_xor_si256(load(dst + i + 32), k1));
    }
    // i is a multiple of 64, so the key phase restarts cleanly.
    scalarKernels().xor_repeat_key64(dst + i, key, n - i);
}

size_t
avx2HammingDistance(const uint8_t *a, const uint8_t *b, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    size_t i = 0;
    // Up to 4 blocks of 64 bytes per vpsadbw: per-byte counts reach
    // at most 8 * 8 = 64, well inside uint8.
    for (; i + 256 <= n; i += 256) {
        __m256i counts = zero;
        for (unsigned v = 0; v < 256; v += 32)
            counts = _mm256_add_epi8(
                counts, popcountBytes(_mm256_xor_si256(
                            load(a + i + v), load(b + i + v))));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, zero));
    }
    for (; i + 32 <= n; i += 32) {
        __m256i counts = popcountBytes(
            _mm256_xor_si256(load(a + i), load(b + i)));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, zero));
    }
    size_t dist = horizontalSum(acc);
    return dist + scalarKernels().hamming_distance(a + i, b + i,
                                                   n - i);
}

size_t
avx2HammingBounded(const uint8_t *a, const uint8_t *b, size_t n,
                   size_t limit)
{
    // Early exit at page granularity: the exact distance is returned
    // whenever it is <= limit, so the result is backend-independent.
    constexpr size_t kChunk = 4096;
    size_t dist = 0;
    size_t i = 0;
    for (; i < n; i += kChunk) {
        size_t len = n - i < kChunk ? n - i : kChunk;
        dist += avx2HammingDistance(a + i, b + i, len);
        if (dist > limit)
            return limit + 1;
    }
    return dist;
}

size_t
avx2HammingWeight(const uint8_t *p, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    size_t i = 0;
    for (; i + 256 <= n; i += 256) {
        __m256i counts = zero;
        for (unsigned v = 0; v < 256; v += 32)
            counts = _mm256_add_epi8(counts,
                                     popcountBytes(load(p + i + v)));
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(counts, zero));
    }
    for (; i + 32 <= n; i += 32) {
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(popcountBytes(load(p + i)), zero));
    }
    size_t weight = horizontalSum(acc);
    return weight + scalarKernels().hamming_weight(p + i, n - i);
}

size_t
avx2MaskedMismatch(const uint8_t *a, const uint8_t *b,
                   const uint8_t *mask, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i mism = _mm256_and_si256(
            _mm256_xor_si256(load(a + i), load(b + i)),
            load(mask + i));
        acc = _mm256_add_epi64(acc,
                               _mm256_sad_epu8(popcountBytes(mism),
                                               zero));
    }
    size_t count = horizontalSum(acc);
    return count + scalarKernels().masked_mismatch(a + i, b + i,
                                                   mask + i, n - i);
}

bool
avx2IsConstant(const uint8_t *p, size_t n)
{
    if (n == 0)
        return true;
    const __m256i ref = _mm256_set1_epi8(static_cast<char>(p[0]));
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i eq = _mm256_cmpeq_epi8(load(p + i), ref);
        if (_mm256_movemask_epi8(eq) != -1)
            return false;
    }
    for (; i < n; ++i)
        if (p[i] != p[0])
            return false;
    return true;
}

unsigned
avx2ScramblerLitmusScore64(const uint8_t *block)
{
    // Vector form of the m-trick (see kernels_sse2.cc for the
    // derivation): fold the two 64-bit halves of each 16-byte row
    // into m, then build the packed four-equation word per row with
    // two vpshufb lane picks. The high 8 bytes of each 128-bit lane
    // are zeroed by the shuffle (index 0x80), so they add nothing to
    // the popcount.
    const __m256i ctrl_a = _mm256_setr_epi8(
        2, 3, 0, 1, 0, 1, 0, 1, -128, -128, -128, -128, -128, -128,
        -128, -128, 2, 3, 0, 1, 0, 1, 0, 1, -128, -128, -128, -128,
        -128, -128, -128, -128);
    const __m256i ctrl_b = _mm256_setr_epi8(
        4, 5, 6, 7, 4, 5, 2, 3, -128, -128, -128, -128, -128, -128,
        -128, -128, 4, 5, 6, 7, 4, 5, 2, 3, -128, -128, -128, -128,
        -128, -128, -128, -128);
    const __m256i zero = _mm256_setzero_si256();

    __m256i counts = zero;
    for (unsigned half = 0; half < 64; half += 32) {
        __m256i v = load(block + half);
        // Each 128-bit lane is one row; xor its 64-bit halves so the
        // low 8 bytes hold m = lo64 ^ hi64 (lanes m0..m3).
        __m256i m = _mm256_xor_si256(
            v, _mm256_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
        // packed = [m1^m2, m0^m3, m0^m2, m0^m1] as 16-bit lanes.
        __m256i packed = _mm256_xor_si256(
            _mm256_shuffle_epi8(m, ctrl_a),
            _mm256_shuffle_epi8(m, ctrl_b));
        counts = _mm256_add_epi8(counts, popcountBytes(packed));
    }
    return static_cast<unsigned>(
        horizontalSum(_mm256_sad_epu8(counts, zero)));
}

uint64_t
avx2DecayApplyGround(uint8_t *data, const uint8_t *ground, size_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i d = load(data + i);
        __m256i g = load(ground + i);
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(
                     popcountBytes(_mm256_xor_si256(d, g)), zero));
        store(data + i, g);
    }
    uint64_t flips = horizontalSum(acc);
    return flips + scalarKernels().decay_apply_ground(
                       data + i, ground + i, n - i);
}

/** Per-lane popcount of eight 32-bit words. */
inline __m256i
popcount32(__m256i v)
{
    // Byte counts -> 16-bit pair sums -> 32-bit lane sums.
    return _mm256_madd_epi16(
        _mm256_maddubs_epi16(popcountBytes(v), _mm256_set1_epi8(1)),
        _mm256_set1_epi16(1));
}

size_t
avx2SyndromeScreen(const uint32_t *block_syn, const uint32_t *key_syn,
                   size_t stride, size_t nkeys, unsigned nchecks,
                   unsigned max_per_check, unsigned max_total,
                   uint32_t *out)
{
    // Eight keys per vector. Lane compares are signed, so clamp the
    // budgets to what a popcount can reach: a larger one never binds.
    const __m256i per = _mm256_set1_epi32(
        static_cast<int>(std::min(max_per_check, 32u)));
    const __m256i total = _mm256_set1_epi32(static_cast<int>(
        std::min<uint64_t>(max_total, 32ull * nchecks)));
    const __m256i all = _mm256_set1_epi32(-1);
    size_t passed = 0;
    size_t k = 0;
    // Two checks run unconditionally: on random data some lane of
    // eight still passes after one check 57 % of the time but after
    // two only 9 %, so the early exit is predictable from there on.
    const unsigned first = std::min(nchecks, 2u);
    for (; k + 8 <= nkeys; k += 8) {
        __m256i sum = _mm256_setzero_si256();
        __m256i fail = _mm256_setzero_si256();
        auto check = [&](unsigned j) {
            __m256i bits = popcount32(_mm256_xor_si256(
                _mm256_set1_epi32(static_cast<int>(block_syn[j])),
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    key_syn + j * stride + k))));
            sum = _mm256_add_epi32(sum, bits);
            fail = _mm256_or_si256(fail, _mm256_cmpgt_epi32(bits, per));
        };
        unsigned j = 0;
        for (; j < first; ++j)
            check(j);
        for (; j < nchecks && !_mm256_testc_si256(fail, all); ++j)
            check(j);
        fail = _mm256_or_si256(fail, _mm256_cmpgt_epi32(sum, total));
        unsigned pass = ~static_cast<unsigned>(_mm256_movemask_ps(
                            _mm256_castsi256_ps(fail))) &
                        0xffu;
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

constexpr Kernels avx2_table = {
    avx2XorBytes,       avx2XorInto,
    avx2XorRepeatKey64, avx2HammingDistance,
    avx2HammingBounded, avx2HammingWeight,
    avx2MaskedMismatch, avx2IsConstant,
    avx2ScramblerLitmusScore64, avx2DecayApplyGround,
    avx2SyndromeScreen,
};

} // anonymous namespace

const Kernels *
avx2Kernels()
{
    return &avx2_table;
}

} // namespace coldboot::simd::detail

#else // !__AVX2__

namespace coldboot::simd::detail
{

const Kernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace coldboot::simd::detail

#endif
