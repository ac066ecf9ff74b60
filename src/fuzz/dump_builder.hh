/**
 * @file
 * Ground-truth dump synthesis for the attack-layer oracles: builds a
 * scrambled memory image with *known* planted artifacts (scrambler
 * keys from a real Ddr4Scrambler pool, an expanded AES key schedule
 * scrambled under a known key) plus decay, so oracles can check the
 * miner and search pipelines against an exact expectation instead of
 * a statistical one.
 */

#ifndef COLDBOOT_FUZZ_DUMP_BUILDER_HH
#define COLDBOOT_FUZZ_DUMP_BUILDER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/aes.hh"
#include "fuzz/fuzz_rng.hh"
#include "fuzz/mutator.hh"

namespace coldboot::fuzz
{

/** One planted scrambler key and where its copies landed. */
// coldboot-lint: allow(wipe-coverage) -- fuzz fixture ground truth, keys are generated test data
struct PlantedKey
{
    /** Ddr4Scrambler pool index the key came from. */
    unsigned pool_index = 0;
    /** The pristine 64-byte key (pre-decay ground truth). */
    std::array<uint8_t, 64> key{};
    /** Dump byte offsets of the planted copies (line aligned). */
    std::vector<uint64_t> offsets;
};

/** A planted expanded AES key schedule. */
// coldboot-lint: allow(wipe-coverage) -- fuzz fixture ground truth, keys are generated test data
struct PlantedSchedule
{
    /** Raw master key (16/24/32 bytes). */
    std::vector<uint8_t> master;
    crypto::AesKeySize key_size = crypto::AesKeySize::Aes256;
    /** Dump byte offset of schedule word 0 (line aligned). */
    uint64_t offset = 0;
    /** The scrambler key the schedule's lines were XOR-ed with (in
     *  an address-keyed dump, its first line's; each line has its
     *  own). */
    std::array<uint8_t, 64> scramble_key{};
};

/** What to synthesize. */
struct FuzzDumpSpec
{
    /** Dump size in bytes (must be a nonzero multiple of 64). */
    uint64_t bytes = 64 * 1024;
    /** Distinct scrambler keys to plant. */
    unsigned planted_keys = 4;
    /** Copies of each planted key. */
    unsigned copies_per_key = 3;
    /** Fraction of background lines left zero before scrambling
     *  (zero lines through the scrambler are how real dumps leak
     *  keys; here they add *unplanted* true keys to the mix). */
    double zero_line_fraction = 0.05;
    /** Plant one expanded AES schedule? */
    bool plant_schedule = false;
    crypto::AesKeySize schedule_size = crypto::AesKeySize::Aes256;
    /** Visible bit-flip fraction of the decay pass (0 = no decay). */
    double decay_fraction = 0.0;
    /**
     * XOR every line, the schedule included, with its own address's
     * DDR4 key, as a real capture is: planted keys are zero lines at
     * lines congruent to their pool index modulo 4,096, and every key
     * the schedule's lines use is planted too. Keys repeat only in
     * dumps of 512 KiB or more.
     */
    bool address_keyed = false;
};

/** The synthesized dump plus its ground truth. */
// coldboot-lint: allow(wipe-coverage) -- fuzz fixture ground truth, keys are generated test data
struct FuzzDump
{
    std::vector<uint8_t> bytes;
    /** Seed the key-source Ddr4Scrambler was built with. */
    uint64_t scrambler_seed = 0;
    std::vector<PlantedKey> keys;
    std::optional<PlantedSchedule> schedule;
    /** Regions holding planted artifacts (for steered mutation). */
    std::vector<ProtectedRegion> planted_regions;
    /** Bits visibly flipped by the decay pass. */
    uint64_t bits_decayed = 0;
};

/**
 * Build a scrambled dump per @p spec, drawing every placement from
 * @p rng. Planted key copies are raw key bytes (what a zero-filled
 * line stores in DRAM); the schedule, when requested, is XOR-ed with
 * one known pool key (or, address-keyed, each line with its own) and
 * that key is also planted so the mining → search hand-off can
 * succeed end to end. Decay runs last, over the whole image (planted
 * artifacts decay too - that is the point).
 */
FuzzDump buildFuzzDump(CaseRng &rng, const FuzzDumpSpec &spec);

} // namespace coldboot::fuzz

#endif // COLDBOOT_FUZZ_DUMP_BUILDER_HH
