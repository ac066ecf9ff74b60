#include "fuzz/harness.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "fuzz/fuzz_rng.hh"
#include "fuzz/reducer.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

namespace coldboot::fuzz
{

namespace
{

/** One executed case, carried through the ordered reduction. */
struct CaseRecord
{
    uint32_t oracle = 0; // index into the selected-oracle list
    uint64_t base_seed = 0;
    FuzzCaseParams params;
    OracleResult result;
};

/** Per-chunk map output (cases in execution order within the chunk). */
struct ChunkResults
{
    std::vector<CaseRecord> cases;
};

} // anonymous namespace

uint64_t
CorpusReplay::violations() const
{
    uint64_t n = errors;
    for (const auto &o : oracles)
        n += o.violations;
    return n;
}

std::string
CampaignReport::toJson() const
{
    using obs::json::escape;
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"coldboot-fuzz-campaign-v1\",\n";
    out += std::string("  \"profile\": \"") +
           (config.profile == CampaignConfig::Profile::Smoke
                ? "smoke"
                : "full") +
           "\",\n";
    // 64-bit values render as decimal strings: the in-tree JSON
    // parser stores numbers as doubles and would silently round
    // seeds above 2^53.
    out += "  \"seed_begin\": \"" +
           std::to_string(config.seed_begin) + "\",\n";
    out += "  \"seed_end\": \"" + std::to_string(config.seed_end) +
           "\",\n";
    out += "  \"energy\": " + std::to_string(config.energy) + ",\n";
    out += "  \"scale\": " + std::to_string(config.scale) + ",\n";
    out += "  \"total_cases\": " + std::to_string(total_cases) +
           ",\n";
    out += "  \"total_violations\": " +
           std::to_string(total_violations) + ",\n";
    out += std::string("  \"violations_truncated\": ") +
           (violations_truncated ? "true" : "false") + ",\n";
    if (corpus) {
        out += "  \"corpus\": {\"entries\": " +
               std::to_string(corpus->entries) + ", \"errors\": " +
               std::to_string(corpus->errors) + ", \"oracles\": [\n";
        for (size_t i = 0; i < corpus->oracles.size(); ++i) {
            const auto &o = corpus->oracles[i];
            out += "    {\"name\": \"" + escape(o.name) + "\", ";
            out += "\"entries\": " + std::to_string(o.entries) + ", ";
            out += "\"violations\": " + std::to_string(o.violations) +
                   "}";
            out += i + 1 < corpus->oracles.size() ? ",\n" : "\n";
        }
        out += "  ]},\n";
    }

    out += "  \"oracles\": [\n";
    for (size_t i = 0; i < oracles.size(); ++i) {
        const auto &o = oracles[i];
        out += "    {\"name\": \"" + escape(o.name) + "\", ";
        out += "\"description\": \"" + escape(o.description) + "\", ";
        out += "\"cases\": " + std::to_string(o.cases) + ", ";
        out += "\"phase2_cases\": " + std::to_string(o.phase2_cases) +
               ", ";
        out += "\"violations\": " + std::to_string(o.violations) +
               ", ";
        out += "\"distinct_features\": " +
               std::to_string(o.distinct_features) + ", ";
        out += "\"interesting_seeds\": " +
               std::to_string(o.interesting_seeds) + "}";
        out += i + 1 < oracles.size() ? ",\n" : "\n";
    }
    out += "  ],\n";

    out += "  \"violations\": [\n";
    for (size_t i = 0; i < violations.size(); ++i) {
        const auto &v = violations[i];
        out += "    {\"oracle\": \"" + escape(v.oracle) + "\", ";
        out += "\"seed\": \"" + std::to_string(v.params.seed) +
               "\", ";
        out += "\"energy\": " + std::to_string(v.params.energy) +
               ", ";
        out += "\"scale\": " + std::to_string(v.params.scale) + ", ";
        out += "\"original_energy\": " +
               std::to_string(v.original.energy) + ", ";
        out += "\"original_scale\": " +
               std::to_string(v.original.scale) + ", ";
        out += "\"message\": \"" + escape(v.message) + "\", ";
        out += "\"reproducer\": \"" + escape(v.reproducer) + "\"}";
        out += i + 1 < violations.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

CampaignReport
runCampaign(const CampaignConfig &config)
{
    cb_assert(config.seed_end >= config.seed_begin,
              "campaign seed range is inverted");

    // Resolve the oracle selection (catalogue order).
    std::vector<const Oracle *> selected;
    if (config.oracle_filter.empty()) {
        selected = allOracles();
    } else {
        for (const auto &name : config.oracle_filter) {
            const Oracle *o = findOracle(name);
            cb_assert(o != nullptr, "unknown oracle '%s'",
                      name.c_str());
            selected.push_back(o);
        }
    }

    const bool smoke =
        config.profile == CampaignConfig::Profile::Smoke;
    const uint32_t phase1_energy =
        smoke ? config.energy : config.energy * 2;

    auto run_case = [&](uint32_t oi, uint64_t base, uint64_t round,
                        uint32_t energy) {
        CaseRecord rec;
        rec.oracle = oi;
        rec.base_seed = base;
        rec.params.seed =
            deriveCaseSeed(base, selected[oi]->name(), round);
        rec.params.energy = energy;
        rec.params.scale = config.scale;
        rec.result = selected[oi]->run(rec.params);
        return rec;
    };

    CampaignReport report;
    report.config = config;
    report.oracles.resize(selected.size());
    for (size_t oi = 0; oi < selected.size(); ++oi) {
        report.oracles[oi].name = selected[oi]->name();
        report.oracles[oi].description = selected[oi]->description();
    }

    std::vector<std::set<uint32_t>> seen(selected.size());
    std::vector<ViolationReport> raw_violations;

    auto tally = [&](const CaseRecord &rec, bool phase2) {
        auto &o = report.oracles[rec.oracle];
        ++o.cases;
        if (phase2)
            ++o.phase2_cases;
        ++report.total_cases;
        if (!rec.result.violation)
            return;
        ++o.violations;
        ++report.total_violations;
        if (raw_violations.size() <
            CampaignReport::maxStoredViolations) {
            ViolationReport v;
            v.oracle = selected[rec.oracle]->name();
            v.params = rec.params;
            v.original = rec.params;
            v.message = rec.result.message;
            raw_violations.push_back(std::move(v));
        } else {
            report.violations_truncated = true;
        }
    };

    /** Merge a record's features; true when any was new. */
    auto merge_features = [&](const CaseRecord &rec) {
        bool fresh = false;
        for (uint32_t f : rec.result.features)
            fresh |= seen[rec.oracle].insert(f).second;
        return fresh;
    };

    // Phase 1 - walk the base-seed range. The map step runs cases in
    // parallel; the reduce step consumes chunks in ascending seed
    // order, so coverage merging (and hence "interesting") is
    // independent of the worker count.
    constexpr uint64_t kSeedGrain = 8;
    std::vector<std::pair<uint32_t, uint64_t>> interesting;
    exec::parallelMapReduceChunks<ChunkResults>(
        config.seed_begin, config.seed_end, kSeedGrain,
        [&](const exec::ChunkRange &c) {
            ChunkResults out;
            for (uint64_t s = c.begin; s < c.end; ++s) {
                for (uint32_t oi = 0; oi < selected.size(); ++oi) {
                    if (smoke &&
                        s % selected[oi]->smokeStride() != 0)
                        continue;
                    out.cases.push_back(
                        run_case(oi, s, 0, phase1_energy));
                }
            }
            return out;
        },
        [&](ChunkResults &&r, const exec::ChunkRange &) {
            for (auto &rec : r.cases) {
                tally(rec, false);
                bool fresh = merge_features(rec);
                if (fresh) {
                    ++report.oracles[rec.oracle].interesting_seeds;
                    interesting.emplace_back(rec.oracle,
                                             rec.base_seed);
                }
            }
        },
        config.threads);

    // Phase 2 - re-mutate the coverage-advancing seeds harder.
    exec::parallelMapReduceChunks<ChunkResults>(
        0, interesting.size(), 4,
        [&](const exec::ChunkRange &c) {
            ChunkResults out;
            for (uint64_t i = c.begin; i < c.end; ++i) {
                auto [oi, s] = interesting[i];
                out.cases.push_back(
                    run_case(oi, s, 1, phase1_energy * 2));
            }
            return out;
        },
        [&](ChunkResults &&r, const exec::ChunkRange &) {
            for (auto &rec : r.cases) {
                tally(rec, true);
                merge_features(rec);
            }
        },
        config.threads);

    for (size_t oi = 0; oi < selected.size(); ++oi)
        report.oracles[oi].distinct_features = seen[oi].size();

    // Reduce the stored violations to minimal reproducers (serial:
    // failures are rare and reduction is itself deterministic).
    for (auto &v : raw_violations) {
        const Oracle *oracle = findOracle(v.oracle);
        if (config.reduce_violations) {
            v.params = reduceViolation(*oracle, v.original);
            if (v.params.energy != v.original.energy ||
                v.params.scale != v.original.scale) {
                auto rerun = oracle->run(v.params);
                if (rerun.violation && !rerun.message.empty())
                    v.message = rerun.message;
            }
        }
        v.reproducer = reproducerLine(v.oracle, v.params);
    }
    report.violations = std::move(raw_violations);

    // Mirror the tallies into the registry.
    auto &registry = obs::StatRegistry::global();
    registry
        .counter("fuzz.cases", "fuzz cases executed (both phases)")
        .add(report.total_cases);
    registry
        .counter("fuzz.violations",
                 "property violations found by fuzz campaigns")
        .add(report.total_violations);
    uint64_t phase2 = 0, features = 0;
    for (const auto &o : report.oracles) {
        phase2 += o.phase2_cases;
        features += o.distinct_features;
    }
    registry
        .counter("fuzz.phase2_cases",
                 "coverage-guided phase-2 fuzz cases")
        .add(phase2);
    registry
        .counter("fuzz.features",
                 "distinct coverage features discovered")
        .add(features);

    return report;
}

} // namespace coldboot::fuzz
