/**
 * @file
 * The classic Halderman et al. (USENIX Security 2008) AES key
 * search - the baseline algorithm the paper's attack modifies.
 *
 * The original "Lest We Remember" keyfinder slides a window across a
 * fully *descrambled* memory image byte by byte, treats each window
 * as a candidate raw key, runs the standard key expansion, and
 * compares the result against the adjacent bytes with a Hamming
 * threshold (to survive bit decay).
 *
 * Its preconditions are exactly what DDR4 scrambling breaks: it needs
 * the whole image in plaintext, because round keys spanning multiple
 * 64-byte blocks would otherwise be scrambled under up to four
 * different unknown scrambler keys (the paper's 2^48 brute-force
 * observation). It is included here as the baseline comparator: it
 * works on DDR/DDR2-era plaintext dumps and on DDR3 dumps after the
 * universal-key descramble, and fails on scrambled DDR4 dumps - which
 * is precisely the gap the paper's block-wise litmus attack closes.
 */

#ifndef COLDBOOT_ATTACK_HALDERMAN_SEARCH_HH
#define COLDBOOT_ATTACK_HALDERMAN_SEARCH_HH

#include <cstdint>
#include <vector>

#include "common/secure.hh"
#include "crypto/aes.hh"
#include "exec/dump_io.hh"
#include "platform/memory_image.hh"

namespace coldboot::attack
{

/** One key found by the baseline search. */
struct BaselineKey
{
    /** Raw master key bytes. */
    std::vector<uint8_t> master;
    /** AES variant. */
    crypto::AesKeySize key_size = crypto::AesKeySize::Aes256;
    /** Byte offset of the key (schedule word 0) in the image. */
    uint64_t offset = 0;
    /** Hamming distance between predicted and observed schedule. */
    unsigned bit_errors = 0;

    BaselineKey() = default;
    BaselineKey(const BaselineKey &) = default;
    BaselineKey(BaselineKey &&) = default;
    BaselineKey &operator=(const BaselineKey &) = default;
    BaselineKey &operator=(BaselineKey &&) = default;
    /** A recovered key is key material: wipe it on release. */
    ~BaselineKey() { secureWipe(master); }
};

/** Baseline search tuning. */
struct BaselineParams
{
    /** AES variant to search for. */
    crypto::AesKeySize key_size = crypto::AesKeySize::Aes256;
    /**
     * Maximum Hamming distance between the expansion of the window
     * and the bytes that follow it (decay tolerance over the whole
     * remaining schedule).
     */
    unsigned max_bit_errors = 96;
    /** Window step in bytes (1 = original byte-by-byte sliding). */
    unsigned step = 1;
    /** First byte to scan. */
    uint64_t scan_start = 0;
    /** Bytes to scan (0 = to end). */
    uint64_t scan_bytes = 0;
};

/**
 * Slide the Halderman keyfinder across a plaintext memory dump.
 *
 * Window positions are scanned by an exec::scanDump stage
 * ("search.halderman") on the global pool; candidates are
 * deduplicated in ascending offset order during the ordered
 * reduction, so the output is byte-identical to a sequential slide
 * for any worker count (DESIGN.md §9).
 *
 * @param image  A *descrambled* (plaintext) dump.
 * @param params Tuning.
 * @return Keys found, deduplicated, in offset order.
 */
std::vector<BaselineKey> haldermanSearch(
    const exec::DumpSource &image,
    const BaselineParams &params = {});

/** Convenience overload over an in-memory image (zero-copy). */
std::vector<BaselineKey> haldermanSearch(
    const platform::MemoryImage &image,
    const BaselineParams &params = {});

} // namespace coldboot::attack

#endif // COLDBOOT_ATTACK_HALDERMAN_SEARCH_HH
