/**
 * @file
 * The fuzz campaign harness: walks a base-seed range through the
 * oracle catalogue, coverage-guided-lite.
 *
 * Phase 1 runs one case per (oracle, base seed); the per-case
 * coverage features are merged *in ascending base-seed order* (the
 * same ordered-reduction trick the dump scans use, DESIGN.md §9), and
 * any seed that discovered a feature no earlier seed reached is
 * "interesting". Phase 2 re-runs the interesting (oracle, seed)
 * pairs as child cases - same base seed, bumped round, doubled
 * mutation energy - to push harder on the inputs that reached new
 * behaviour. Because interestingness is decided after the ordered
 * merge and every case is a pure function of its parameters, the
 * campaign report is byte-identical for any worker count.
 *
 * Violations are reduced (reducer.hh) to a minimal one-line seed
 * reproducer before reporting. No wall clock anywhere: two runs of
 * the same campaign produce identical report JSON.
 */

#ifndef COLDBOOT_FUZZ_HARNESS_HH
#define COLDBOOT_FUZZ_HARNESS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/oracle.hh"

namespace coldboot::fuzz
{

/** Campaign-wide configuration. */
struct CampaignConfig
{
    /** Base-seed range [seed_begin, seed_end). */
    uint64_t seed_begin = 0;
    uint64_t seed_end = 100;

    /**
     * Smoke honours each oracle's smokeStride() (heavy oracles run
     * on every N-th base seed); Full runs every oracle on every
     * seed with doubled phase-1 energy.
     */
    enum class Profile { Smoke, Full };
    Profile profile = Profile::Smoke;

    /** Restrict to these oracle names (empty = the whole catalogue). */
    std::vector<std::string> oracle_filter;

    /** Phase-1 mutation energy (phase 2 doubles it). */
    uint32_t energy = 4;
    /** Input-size class for every case (64 KiB << scale stacks). */
    uint32_t scale = 0;

    /** Pool, as for exec::parallelForChunks(); the report is
     *  byte-identical for every value. */
    unsigned threads = 0;

    /** Reduce each violation to a minimal reproducer (costs extra
     *  oracle runs on failing seeds only). */
    bool reduce_violations = true;
};

/** One reported property violation. */
struct ViolationReport
{
    std::string oracle;
    /** Parameters of the *reduced* case (== original when reduction
     *  is disabled or found nothing smaller). */
    FuzzCaseParams params;
    /** Parameters of the originally failing case. */
    FuzzCaseParams original;
    /** The oracle's diagnosis. */
    std::string message;
    /** One-line reproducer (reducer.hh format). */
    std::string reproducer;
};

/** Per-oracle campaign tally. */
struct OracleCampaignStats
{
    std::string name;
    std::string description;
    uint64_t cases = 0;
    uint64_t phase2_cases = 0;
    uint64_t violations = 0;
    /** Distinct coverage features reached across both phases. */
    uint64_t distinct_features = 0;
    /** Base seeds that discovered at least one new feature. */
    uint64_t interesting_seeds = 0;
};

/** Tally of a checked-in corpus replay (`coldboot-fuzz --corpus`). */
struct CorpusReplay
{
    struct OracleTally
    {
        std::string name;
        uint64_t entries = 0;
        uint64_t violations = 0;
    };

    uint64_t entries = 0;
    /** Unparseable lines and entries naming no oracle. */
    uint64_t errors = 0;
    /** Every oracle the corpus names, in name order. */
    std::vector<OracleTally> oracles;

    /** Errors plus every oracle's violations. */
    uint64_t violations() const;
};

/** The campaign result. */
struct CampaignReport
{
    CampaignConfig config;
    std::vector<OracleCampaignStats> oracles;
    /** At most maxStoredViolations entries, campaign order. */
    std::vector<ViolationReport> violations;
    uint64_t total_cases = 0;
    uint64_t total_violations = 0;
    /** True when more violations occurred than were stored. */
    bool violations_truncated = false;
    /** The corpus replayed with the campaign, if any; rendered as
     *  the report's `corpus` object. */
    std::optional<CorpusReplay> corpus;

    static constexpr size_t maxStoredViolations = 32;

    /**
     * Deterministic JSON rendering (schema
     * `coldboot-fuzz-campaign-v1`): integers and strings only, no
     * timestamps, 64-bit seeds as decimal strings so no precision is
     * lost to double parsing.
     */
    std::string toJson() const;
};

/**
 * Run a campaign. Also mirrors the tallies into
 * obs::StatRegistry::global() under `fuzz.*`.
 */
CampaignReport runCampaign(const CampaignConfig &config);

} // namespace coldboot::fuzz

#endif // COLDBOOT_FUZZ_HARNESS_HH
