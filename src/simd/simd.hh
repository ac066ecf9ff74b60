/**
 * @file
 * Runtime-dispatched SIMD kernels for the hot byte sweeps of the
 * attack stack (DESIGN.md §15).
 *
 * Every hot loop in the pipeline — the scrambler litmus scan, the
 * reboot-XOR descramble, the AES litmus Hamming comparisons, the
 * AES table scan's syndrome screen, the miner's cluster distances and
 * the decay application — is a XOR-and-popcount sweep over 64-byte
 * blocks or their syndrome words. This layer provides
 * those sweeps as a small kernel table with three interchangeable
 * implementations (scalar, SSE2, AVX2; a NEON seam is stubbed for
 * aarch64 ports) selected once at startup.
 *
 * **The scalar backend is the reference implementation**: it is
 * written for obviousness, never reads past the logical length, and
 * every other backend is required to be *bit-identical* to it on
 * every input — any length 0..N, any source/destination alignment.
 * The contract is enforced by the exhaustive differential tests in
 * tests/test_simd.cc, the `simd-vs-scalar` fuzz oracle, the
 * end-to-end fingerprint tests (mine/search/attack results identical
 * across `COLDBOOT_SIMD` backends and pool widths) and the
 * `COLDBOOT_SIMD=scalar` CI leg.
 *
 * Backend selection, in priority order:
 *   1. an explicit setBackend() call (the tool's `--simd` flag);
 *   2. the `COLDBOOT_SIMD` environment variable
 *      (`avx2 | sse2 | scalar`; unknown or unsupported values are a
 *      fatal startup error);
 *   3. the best backend the CPU supports (CPUID probe, AVX2 > SSE2 >
 *      scalar), resolved once on first kernel use.
 *
 * This library is deliberately dependency-free (cb_common links it,
 * so it cannot link cb_common back); misuse aborts with a plain
 * stderr message instead of cb_panic.
 */

#ifndef COLDBOOT_SIMD_SIMD_HH
#define COLDBOOT_SIMD_SIMD_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace coldboot::simd
{

/**
 * The natural block size of every sweep in the attack stack: one
 * DDR4 cache line / scrambler key. Vector kernels consume whole
 * 64-byte blocks per iteration and fall back to the scalar tail
 * handler for the remainder, so any length is accepted.
 */
inline constexpr size_t kBlockBytes = 64;

/**
 * Kernel backends, weakest first. Sse2 and Avx2 exist on x86 builds
 * only; backendCompiled()/backendUsable() report availability.
 */
enum class Backend : unsigned {
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
    // NEON seam: an aarch64 port adds `Neon` here plus a
    // kernels_neon.cc translation unit; the dispatch below already
    // iterates backends generically.
};

/** Number of Backend enumerators (dispatch tables size to this). */
inline constexpr unsigned kBackendCount = 3;

/**
 * One backend's kernel table. All kernels accept any length and any
 * alignment, never touch bytes outside [p, p + n), and return values
 * bit-identical to the scalar reference.
 */
struct Kernels
{
    /** dst[i] ^= src[i] for i in [0, n). Ranges must not overlap. */
    void (*xor_bytes)(uint8_t *dst, const uint8_t *src, size_t n);

    /** out[i] = a[i] ^ b[i]; out must not overlap a or b. */
    void (*xor_into)(uint8_t *out, const uint8_t *a, const uint8_t *b,
                     size_t n);

    /**
     * dst[i] ^= key[i % 64] — the reboot-XOR descramble sweep. The
     * key phase starts at dst[0], so callers chunking a larger
     * stream must cut chunks on 64-byte boundaries.
     */
    void (*xor_repeat_key64)(uint8_t *dst, const uint8_t *key,
                             size_t n);

    /** Hamming distance: popcount(a ^ b) over [0, n). */
    size_t (*hamming_distance)(const uint8_t *a, const uint8_t *b,
                               size_t n);

    /**
     * Bounded Hamming distance: exactly min(distance, limit + 1).
     * The early exit is an implementation detail; the return value
     * is the same for every backend.
     */
    size_t (*hamming_bounded)(const uint8_t *a, const uint8_t *b,
                              size_t n, size_t limit);

    /** Hamming weight: popcount(p) over [0, n). */
    size_t (*hamming_weight)(const uint8_t *p, size_t n);

    /** Masked compare: popcount((a ^ b) & mask) over [0, n). */
    size_t (*masked_mismatch)(const uint8_t *a, const uint8_t *b,
                              const uint8_t *mask, size_t n);

    /** True when every byte equals p[0] (vacuously true for n = 0). */
    bool (*is_constant)(const uint8_t *p, size_t n);

    /**
     * Total bit mismatch of the paper's four Section III-B byte-pair
     * invariants over one 64-byte block (16 equations of 16 bits; 0
     * for a pristine DDR4 scrambler key). Exactly
     * attack::scramblerKeyLitmusScore.
     */
    unsigned (*scrambler_litmus_score64)(const uint8_t *block);

    /**
     * Decay-pattern apply: returns popcount(data ^ ground) (the
     * visible flip count), then overwrites data with ground. One
     * fused pass instead of distance + copy.
     */
    uint64_t (*decay_apply_ground)(uint8_t *data,
                                   const uint8_t *ground, size_t n);

    /**
     * Linear-syndrome screen: one block's syndrome against a batch of
     * keys' syndromes (the AES table scan's exact prefilter, DESIGN.md
     * §15). @p key_syn holds @p nchecks rows of @p stride words in
     * structure-of-arrays form: key k's word j is
     * key_syn[j * stride + k]. Key k passes when
     * popcount(block_syn[j] ^ key_syn[j * stride + k]) is at most
     * @p max_per_check for every j and the sum over j is at most
     * @p max_total. Writes the passing indices (relative to key_syn,
     * ascending) to @p out, which must hold @p nkeys entries, and
     * returns their count.
     */
    size_t (*syndrome_screen)(const uint32_t *block_syn,
                              const uint32_t *key_syn, size_t stride,
                              size_t nkeys, unsigned nchecks,
                              unsigned max_per_check,
                              unsigned max_total, uint32_t *out);
};

/** Stable lower-case backend name ("scalar", "sse2", "avx2"). */
const char *backendName(Backend b);

/** Parse a backend name (the COLDBOOT_SIMD / --simd grammar). */
std::optional<Backend> parseBackend(std::string_view name);

/** Whether the backend's code is compiled into this binary. */
bool backendCompiled(Backend b);

/** Whether the backend is compiled AND this CPU can execute it. */
bool backendUsable(Backend b);

/**
 * The kernel table of one specific backend, bypassing dispatch.
 * This is the differential-test entry point: tests, the fuzz oracle
 * and the benches compare backends directly through it without
 * touching the process-global active backend (so concurrent fuzz
 * cases stay independent). Aborts if the backend is not usable —
 * check backendUsable() first.
 */
const Kernels &kernels(Backend b);

/** The currently active backend (resolving it on first use). */
Backend activeBackend();

/**
 * Force the active backend. Returns false (and changes nothing) when
 * the backend is not usable on this host. Not synchronized against
 * in-flight kernel calls: flip it only from single-threaded control
 * points (startup flags, test setup) — concurrent *readers* are fine.
 */
bool setBackend(Backend b);

/**
 * Re-read COLDBOOT_SIMD and re-resolve the active backend, exactly
 * as the lazy first-use resolution does: unknown or unsupported
 * values terminate with exit code 1. Exposed so tests can drive the
 * env parsing mid-process.
 */
void reinitFromEnv();

/** RAII backend override for tests and benches. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(Backend b) : saved(activeBackend())
    {
        ok = setBackend(b);
    }

    ~ScopedBackend() { setBackend(saved); }

    ScopedBackend(const ScopedBackend &) = delete;
    ScopedBackend &operator=(const ScopedBackend &) = delete;

    /** Whether the requested backend was actually installed. */
    bool active() const { return ok; }

  private:
    Backend saved;
    bool ok;
};

namespace detail
{
/** Active table; null until first resolution. */
extern std::atomic<const Kernels *> g_active;
/** Resolve from COLDBOOT_SIMD / CPUID, install and return. */
const Kernels &resolveAndInstall();
} // namespace detail

/** The active kernel table (one relaxed atomic load when hot). */
inline const Kernels &
activeKernels()
{
    const Kernels *k = detail::g_active.load(std::memory_order_acquire);
    return k != nullptr ? *k : detail::resolveAndInstall();
}

//
// Dispatched convenience wrappers (the call sites' spelling).
//

inline void
xorBytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    activeKernels().xor_bytes(dst, src, n);
}

inline void
xorInto(uint8_t *out, const uint8_t *a, const uint8_t *b, size_t n)
{
    activeKernels().xor_into(out, a, b, n);
}

inline void
xorRepeatKey64(uint8_t *dst, const uint8_t *key, size_t n)
{
    activeKernels().xor_repeat_key64(dst, key, n);
}

inline size_t
hammingDistance(const uint8_t *a, const uint8_t *b, size_t n)
{
    return activeKernels().hamming_distance(a, b, n);
}

inline size_t
hammingDistanceBounded(const uint8_t *a, const uint8_t *b, size_t n,
                       size_t limit)
{
    return activeKernels().hamming_bounded(a, b, n, limit);
}

inline size_t
hammingWeight(const uint8_t *p, size_t n)
{
    return activeKernels().hamming_weight(p, n);
}

inline size_t
maskedMismatch(const uint8_t *a, const uint8_t *b,
               const uint8_t *mask, size_t n)
{
    return activeKernels().masked_mismatch(a, b, mask, n);
}

inline bool
isConstant(const uint8_t *p, size_t n)
{
    return activeKernels().is_constant(p, n);
}

inline unsigned
scramblerLitmusScore64(const uint8_t *block)
{
    return activeKernels().scrambler_litmus_score64(block);
}

inline uint64_t
decayApplyGround(uint8_t *data, const uint8_t *ground, size_t n)
{
    return activeKernels().decay_apply_ground(data, ground, n);
}

inline size_t
syndromeScreen(const uint32_t *block_syn, const uint32_t *key_syn,
               size_t stride, size_t nkeys, unsigned nchecks,
               unsigned max_per_check, unsigned max_total,
               uint32_t *out)
{
    return activeKernels().syndrome_screen(block_syn, key_syn, stride,
                                           nkeys, nchecks,
                                           max_per_check, max_total,
                                           out);
}

} // namespace coldboot::simd

#endif // COLDBOOT_SIMD_SIMD_HH
