/**
 * @file
 * Differential oracles - the named properties the fuzzing harness
 * drives adversarial inputs through.
 *
 * An oracle is a stateless, thread-safe predicate over a fuzz case:
 * given the case parameters (seed, mutation energy, input scale) it
 * deterministically generates inputs, exercises one of the delicate
 * invariants of the scrambler/miner/decay stack, and reports either
 * "holds" or a violation with a human-readable message. Oracles also
 * emit *coverage features* - small integers describing which
 * behaviours the case reached (litmus placement buckets, mined-key
 * counts, backend fallbacks, ...). The harness uses fresh features to
 * decide which seeds earn extra mutation energy (coverage-guided
 * lite), and the per-oracle feature universe doubles as an assertion
 * that the fuzzer actually explores distinct behaviours rather than
 * re-running one path.
 *
 * The oracle catalogue (DESIGN.md §10 documents each in detail):
 *
 *   scramble-roundtrip        scramble ∘ descramble = identity on
 *                             DDR3/DDR4 across seeds/channels/lines
 *   reboot-xor-factoring      DDR3 two-boot XOR collapses to one
 *                             universal key; DDR4's does not
 *   scrambler-litmus-diff     the optimized byte-pair litmus score
 *                             equals a naive from-the-paper rescore
 *   aes-litmus-brute          AES litmus completeness (planted
 *                             schedule blocks are found at a
 *                             congruent placement) and soundness
 *                             (accepted placements re-verify through
 *                             the schedule recurrence)
 *   aes-schedule-inverse      forward ∘ backward key expansion is the
 *                             identity at every anchor and key size
 *   decay-monotone            decay only moves bits toward ground
 *                             state, never back
 *   miner-planted-keys        KeyMiner recovers planted scrambler
 *                             keys through a decay sweep
 *   miner-cluster-exact       on keys at random lines (one address
 *                             class), the miner's clustering and
 *                             merge pass equal plain all-pairs loops
 *   miner-map-first           on address-keyed dumps, the miner's
 *                             class-by-class clustering equals those
 *                             plain loops
 *   search-planted-schedule   AES search soundness (any recovered key
 *                             equals the planted master) and
 *                             completeness at zero decay
 *   search-prefilter-exact    the prefiltered table scan's hits equal
 *                             those of testing every (block, key) pair
 *   search-routed-exact       the scan routed through the address →
 *                             key map finds the every-key hits on the
 *                             keys the map predicts
 *   dump-backend-equality     mmap vs buffered vs memory DumpSource
 *                             byte equality on mutated dump files
 *   parallel-fingerprint      mine/search/pipeline results are
 *                             byte-identical across worker counts
 *   simd-vs-scalar            every usable SIMD kernel backend is
 *                             bit-identical to the scalar reference
 *                             on hostile lengths and alignments
 */

#ifndef COLDBOOT_FUZZ_ORACLE_HH
#define COLDBOOT_FUZZ_ORACLE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace coldboot::fuzz
{

/**
 * Parameters of one fuzz case. The full case is a pure function of
 * this struct (see fuzz_rng.hh).
 */
struct FuzzCaseParams
{
    /** Derived case seed (deriveCaseSeed output, not the base seed). */
    uint64_t seed = 0;
    /** Mutation budget: how many byte-level mutations to apply. */
    uint32_t energy = 4;
    /** Input-size class: working sets scale as 64 KiB << scale. */
    uint32_t scale = 0;
};

/** Outcome of running one oracle on one case. */
struct OracleResult
{
    /** True when the property was violated. */
    bool violation = false;
    /** Deterministic one-line diagnosis (empty when ok). */
    std::string message;
    /**
     * Coverage features reached by this case (oracle-local ids; the
     * harness namespaces them per oracle).
     */
    std::vector<uint32_t> features;

    /** Record a reached behaviour. */
    void
    feature(uint32_t id)
    {
        features.push_back(id);
    }

    /** Flag a violation (first message wins). */
    void
    fail(std::string why)
    {
        if (!violation)
            message = std::move(why);
        violation = true;
    }
};

/**
 * One registered differential oracle. Implementations are stateless:
 * run() may be called concurrently from any number of threads.
 */
class Oracle
{
  public:
    virtual ~Oracle() = default;

    /** Stable kebab-case name (CLI filter / corpus / report key). */
    virtual const char *name() const = 0;

    /** One-line description for --list and the campaign report. */
    virtual const char *description() const = 0;

    /**
     * Relative cost class: 1 = cheap (run every seed), larger N =
     * run every N-th base seed under the smoke profile (the full
     * profile always runs every seed). Keeps the smoke campaign
     * inside its CI budget without dropping any oracle entirely.
     */
    virtual unsigned smokeStride() const { return 1; }

    /** Evaluate the property on one deterministic case. */
    virtual OracleResult run(const FuzzCaseParams &params) const = 0;
};

/**
 * The fixed-order oracle registry (construction order = report
 * order). The returned pointers live for the process lifetime.
 */
const std::vector<const Oracle *> &allOracles();

/** Look up an oracle by name; nullptr when unknown. */
const Oracle *findOracle(std::string_view name);

} // namespace coldboot::fuzz

#endif // COLDBOOT_FUZZ_ORACLE_HH
