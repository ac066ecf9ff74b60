/**
 * @file
 * Capture generation for the dump-to-keys benchmark.
 *
 * Every workload's input is made here from the seed: simulated cold
 * boot captures (e4_attack, e3_mine) or synthesised ones
 * (served_decay), written to files in a work directory. The program
 * under test only ever sees those files. What the generator knows and
 * the attack must not - planted keys, true scrambler keys, the volume
 * secret - goes into a separate truth file that only the checking
 * side of the benchmark reads.
 */

#ifndef DUMPBENCH_CAPTURE_HH
#define DUMPBENCH_CAPTURE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace dumpbench
{

using Key64 = std::array<uint8_t, 64>;

/** One planted XTS pair and the capture file holding it. */
struct PlantedXts
{
    /** Capture file name, relative to the work directory. */
    std::string capture;
    /** Data key (bytes 0..31) followed by tweak key (32..63). */
    Key64 master{};
    /** Visible bit-flip fraction the capture was decayed by. */
    double decay_frac = 0.0;
    /** Bits the decay visibly flipped in this capture. */
    uint64_t bits_flipped = 0;
};

/** Ground truth plus the set-up timings of one generation. */
struct Truth
{
    std::string workload;
    uint64_t seed = 0;

    /** Median seconds of one full set-up (simulate/synthesise + write). */
    double setup_s = 0.0;
    /** Median seconds building the loaded victim (or synthesising). */
    double victim_s = 0.0;
    /** Median seconds of the cold transfer (or the decay pass). */
    double transfer_s = 0.0;
    /** Bits the transfer visibly flipped, over every capture. */
    uint64_t bits_flipped = 0;
    /** bits_flipped as a percentage of all captured bits. */
    double decay_pct = 0.0;

    /** e4_attack and served_decay: the planted pairs. */
    std::vector<PlantedXts> xts;

    /** e4_attack: volume container file and its known sector. */
    std::string volume;
    uint64_t sector = 0;
    std::vector<uint8_t> secret;

    /** e3_mine: capture file and the 4096 true line keys
     *  (victim key XOR attacker key, what a zero line dumps as). */
    std::string capture;
    std::vector<Key64> line_keys;
};

/** The workloads. BENCHMARK.json gates e4_attack and served_decay;
 *  e3_mine is run by hand (README: why it is not gated). */
inline const char *const kWorkloads[] = {"e4_attack", "e3_mine",
                                         "served_decay"};

/** Whether @p name is one of kWorkloads. */
bool knownWorkload(const std::string &name);

/**
 * Generate @p workload's captures from @p seed into @p dir, repeating
 * the whole set-up a fixed number of times per workload (each repeat
 * rewrites the same bytes) so the reported set-up time is a median.
 * Writes truth.txt (and keys.bin for e3_mine) next to the captures.
 */
Truth generate(const std::string &workload, uint64_t seed,
               const std::string &dir);

/** Read back what generate() wrote to @p dir; throws on bad files. */
Truth readTruth(const std::string &dir);

} // namespace dumpbench

#endif // DUMPBENCH_CAPTURE_HH
