/**
 * @file
 * Fuzzing-subsystem tests: seed-addressed RNG, structured mutators,
 * reducer/reproducer grammar, corpus parsing and replay, the oracle
 * registry, campaign determinism across runs and worker counts, and
 * the regression cases the fuzzer has earned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "attack/key_miner.hh"
#include "fuzz/corpus.hh"
#include "fuzz/dump_builder.hh"
#include "fuzz/fuzz_rng.hh"
#include "fuzz/harness.hh"
#include "fuzz/mutator.hh"
#include "fuzz/oracle.hh"
#include "fuzz/reducer.hh"
#include "obs/json.hh"
#include "platform/memory_image.hh"

namespace coldboot::fuzz
{
namespace
{

// ---------------------------------------------------------------- rng

TEST(FuzzRng, DeriveCaseSeedSeparatesInputs)
{
    uint64_t s = deriveCaseSeed(7, "miner-planted-keys", 0);
    EXPECT_EQ(s, deriveCaseSeed(7, "miner-planted-keys", 0));
    EXPECT_NE(s, deriveCaseSeed(8, "miner-planted-keys", 0));
    EXPECT_NE(s, deriveCaseSeed(7, "scramble-roundtrip", 0));
    EXPECT_NE(s, deriveCaseSeed(7, "miner-planted-keys", 1));
    EXPECT_NE(hashName("a"), hashName("b"));
}

TEST(FuzzRng, CaseRngIsReplayable)
{
    CaseRng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(a.next(), b.next());

    std::vector<uint8_t> fa(64), fb(64);
    a.fill(fa);
    b.fill(fb);
    EXPECT_EQ(fa, fb);

    for (int i = 0; i < 1000; ++i) {
        uint64_t v = a.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
        double u = a.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        int p = a.pick({3, 5, 9});
        EXPECT_TRUE(p == 3 || p == 5 || p == 9);
    }
}

// ----------------------------------------------------------- mutators

TEST(Mutator, DeterministicAndActuallyMutates)
{
    std::vector<uint8_t> base(4096, 0xAA);
    auto x = base, y = base;
    CaseRng ra(99), rb(99);
    MutationStats sa, sb;
    mutateBytes(x, ra, 32, {}, &sa);
    mutateBytes(y, rb, 32, {}, &sb);
    EXPECT_EQ(x, y);
    EXPECT_NE(x, base);
    uint32_t total = 0;
    for (unsigned k = 0; k < byteMutationKinds; ++k) {
        total += sa.applied[k];
        EXPECT_EQ(sa.applied[k], sb.applied[k]);
    }
    EXPECT_EQ(total + sa.skipped, 32u);
    EXPECT_EQ(sa.skipped, 0u); // nothing protected
}

TEST(Mutator, ProtectedRegionsSurvive)
{
    std::vector<uint8_t> data(4096);
    CaseRng fill_rng(5);
    fill_rng.fill(data);
    auto before = data;

    // Protect everything: every mutation must be skipped and the
    // buffer must come back untouched.
    ProtectedRegion all{0, data.size()};
    CaseRng rng(6);
    MutationStats stats;
    mutateBytes(data, rng, 64, {&all, 1}, &stats);
    EXPECT_EQ(data, before);
    EXPECT_EQ(stats.skipped, 64u);

    // Protect one line in the middle: it must survive any budget.
    ProtectedRegion line{1024, 1088};
    CaseRng rng2(7);
    mutateBytes(data, rng2, 512, {&line, 1});
    EXPECT_TRUE(std::equal(data.begin() + 1024, data.begin() + 1088,
                           before.begin() + 1024));
}

TEST(Mutator, EmptyInputIsNoOp)
{
    CaseRng rng(1);
    MutationStats stats;
    mutateBytes({}, rng, 16, {}, &stats);
    uint32_t total = stats.skipped;
    for (unsigned k = 0; k < byteMutationKinds; ++k)
        total += stats.applied[k];
    EXPECT_EQ(total, 0u); // early-out: nothing applied or skipped
}

TEST(Mutator, TargetDecayHitsRequestedFraction)
{
    std::vector<uint8_t> data(1 << 16);
    CaseRng rng(11);
    rng.fill(data);

    auto copy = data;
    EXPECT_EQ(applyTargetDecay(copy, 0.0, 42), 0u);
    EXPECT_EQ(copy, data);

    uint64_t flips = applyTargetDecay(copy, 0.02, 42);
    double frac =
        static_cast<double>(flips) / (8.0 * double(data.size()));
    // Random data sits ~half a ground-state stripe away, so the
    // visible fraction tracks the request loosely; assert the order
    // of magnitude, not the exact curve.
    EXPECT_GT(frac, 0.004);
    EXPECT_LT(frac, 0.08);
    EXPECT_NE(copy, data);

    // Out-of-range fractions clamp instead of misbehaving.
    auto clamp = data;
    EXPECT_EQ(applyTargetDecay(clamp, -1.0, 1), 0u);
}

TEST(Mutator, FileShapeVerdictsMatchValidityRule)
{
    for (uint64_t seed = 0; seed < 64; ++seed) {
        CaseRng rng(seed);
        for (unsigned k = 0; k < fileShapeMutationKinds; ++k) {
            std::vector<uint8_t> bytes(64 * 16, 0x5A);
            bool valid = applyFileShapeMutation(
                bytes, static_cast<FileShapeMutation>(k), rng);
            EXPECT_EQ(valid,
                      !bytes.empty() && bytes.size() % 64 == 0)
                << "kind=" << k << " seed=" << seed
                << " size=" << bytes.size();
        }
    }
    // The two hard-failure kinds must actually produce bad sizes.
    CaseRng rng(3);
    std::vector<uint8_t> a(640, 1), b(640, 1);
    EXPECT_FALSE(applyFileShapeMutation(
        a, FileShapeMutation::TruncateEmpty, rng));
    EXPECT_TRUE(a.empty());
    EXPECT_FALSE(applyFileShapeMutation(
        b, FileShapeMutation::TruncateMisaligned, rng));
    EXPECT_NE(b.size() % 64, 0u);
}

// ------------------------------------------------------- dump builder

TEST(DumpBuilder, PlantsRecoverableGroundTruth)
{
    FuzzDumpSpec spec;
    spec.bytes = 64 * 1024;
    spec.planted_keys = 3;
    spec.copies_per_key = 3;
    spec.plant_schedule = true;
    CaseRng rng(deriveCaseSeed(17, "test", 0));
    FuzzDump dump = buildFuzzDump(rng, spec);

    ASSERT_EQ(dump.bytes.size(), spec.bytes);
    // +1: the schedule's scramble key is planted (and recorded) too,
    // so the mine -> search hand-off can succeed end to end.
    EXPECT_EQ(dump.keys.size(), spec.planted_keys + 1u);
    ASSERT_TRUE(dump.schedule.has_value());
    EXPECT_EQ(dump.bits_decayed, 0u); // decay_fraction defaults to 0

    // Every planted key's copies are really in the image.
    for (const auto &key : dump.keys)
        for (uint64_t off : key.offsets)
            EXPECT_EQ(0, std::memcmp(&dump.bytes[off],
                                     key.key.data(), 64))
                << "offset " << off;

    // The schedule region descrambles back to the expansion of the
    // planted master key.
    const auto &sched = *dump.schedule;
    auto expanded = crypto::aesExpandKey(sched.master);
    for (size_t i = 0; i < expanded.size(); ++i)
        EXPECT_EQ(static_cast<uint8_t>(
                      dump.bytes[sched.offset + i] ^
                      sched.scramble_key[i % 64]),
                  expanded[i])
            << "schedule byte " << i;

    // Same seed, same dump - byte for byte.
    CaseRng rng2(deriveCaseSeed(17, "test", 0));
    FuzzDump again = buildFuzzDump(rng2, spec);
    EXPECT_EQ(dump.bytes, again.bytes);
    EXPECT_EQ(dump.scrambler_seed, again.scrambler_seed);
}

// ----------------------------------------------- reducer / reproducer

TEST(Reproducer, LineRoundTrips)
{
    FuzzCaseParams p;
    p.seed = 18446744073709551615ull; // max u64 survives
    p.energy = 12;
    p.scale = 3;
    std::string line = reproducerLine("aes-litmus-brute", p);
    EXPECT_EQ(line, "oracle=aes-litmus-brute:seed="
                    "18446744073709551615:energy=12:scale=3");
    auto parsed = parseReproducer(line);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->first, "aes-litmus-brute");
    EXPECT_EQ(parsed->second.seed, p.seed);
    EXPECT_EQ(parsed->second.energy, p.energy);
    EXPECT_EQ(parsed->second.scale, p.scale);
}

TEST(Reproducer, RejectsMalformedLines)
{
    EXPECT_FALSE(parseReproducer(""));
    EXPECT_FALSE(parseReproducer("oracle=x"));
    EXPECT_FALSE(parseReproducer("seed=1:oracle=x:energy=1:scale=0"));
    EXPECT_FALSE(parseReproducer("oracle=x:seed=:energy=1:scale=0"));
    EXPECT_FALSE(parseReproducer("oracle=x:seed=a:energy=1:scale=0"));
    EXPECT_FALSE(
        parseReproducer("oracle=x:seed=1:energy=1:scale=0:junk=2"));
    EXPECT_FALSE(parseReproducer("oracle=x:seed=-1:energy=1:scale=0"));
}

TEST(Reproducer, RunReproducerChecksOracleName)
{
    EXPECT_FALSE(runReproducer(
        "oracle=no-such-oracle:seed=1:energy=1:scale=0"));
    auto res = runReproducer(
        "oracle=aes-schedule-inverse:seed=42:energy=2:scale=0");
    ASSERT_TRUE(res.has_value());
    EXPECT_FALSE(res->violation) << res->message;
    EXPECT_FALSE(res->features.empty());
}

TEST(Reproducer, GtestSnippetNamesTheCase)
{
    FuzzCaseParams p;
    p.seed = 77;
    std::string snippet = gtestSnippet("miner-planted-keys", p);
    EXPECT_NE(snippet.find("FuzzRegression"), std::string::npos);
    EXPECT_NE(snippet.find("77"), std::string::npos);
    EXPECT_NE(snippet.find("miner-planted-keys"), std::string::npos);
    EXPECT_NE(snippet.find("runReproducer"), std::string::npos);
}

namespace
{

/** Violates iff energy >= 2 and scale >= 1 - lets the reducer show
 *  its preference for smaller scales first. */
class FakeOracle : public Oracle
{
  public:
    const char *name() const override { return "fake"; }
    const char *description() const override { return "fake"; }
    OracleResult
    run(const FuzzCaseParams &params) const override
    {
        OracleResult res;
        if (params.energy >= 2 && params.scale >= 1)
            res.fail("fake violation");
        return res;
    }
};

} // anonymous namespace

TEST(Reducer, ShrinksToSmallestFailingCase)
{
    FakeOracle oracle;
    FuzzCaseParams original;
    original.seed = 5;
    original.energy = 16;
    original.scale = 3;
    FuzzCaseParams reduced = reduceViolation(oracle, original);
    EXPECT_EQ(reduced.seed, original.seed);
    EXPECT_EQ(reduced.scale, 1u); // smallest scale that still fails
    EXPECT_EQ(reduced.energy, 2u);
    ASSERT_TRUE(oracle.run(reduced).violation);

    // A case that is already minimal comes back unchanged.
    FuzzCaseParams minimal;
    minimal.energy = 2;
    minimal.scale = 1;
    FuzzCaseParams same = reduceViolation(oracle, minimal);
    EXPECT_EQ(same.energy, 2u);
    EXPECT_EQ(same.scale, 1u);
}

// -------------------------------------------------------------- corpus

TEST(Corpus, ParsesCommentsBlanksAndErrors)
{
    std::string text =
        "# header comment\n"
        "\n"
        "  oracle=scramble-roundtrip:seed=1:energy=4:scale=0\n"
        "this is garbage\n"
        "oracle=decay-monotone:seed=2:energy=1:scale=1\r\n"
        "\t# indented comment\n";
    std::vector<std::string> errors;
    auto entries = parseCorpus(text, "mem.corpus", &errors);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].oracle, "scramble-roundtrip");
    EXPECT_EQ(entries[0].line, 3u);
    EXPECT_EQ(entries[1].oracle, "decay-monotone");
    EXPECT_EQ(entries[1].params.scale, 1u);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("mem.corpus:4"), std::string::npos);

    EXPECT_EQ(formatCorpusEntry(entries[0]),
              "oracle=scramble-roundtrip:seed=1:energy=4:scale=0");
}

TEST(Corpus, CheckedInCorpusCoversTheCatalogue)
{
    std::vector<std::string> errors;
    auto entries = loadCorpusDir(
        COLDBOOT_SOURCE_DIR "/tests/fuzz_corpus", &errors);
    EXPECT_TRUE(errors.empty())
        << (errors.empty() ? "" : errors.front());
    ASSERT_FALSE(entries.empty());

    std::set<std::string> seen;
    for (const auto &e : entries) {
        ASSERT_NE(findOracle(e.oracle), nullptr)
            << e.file << ":" << e.line << " names unknown oracle '"
            << e.oracle << "'";
        seen.insert(e.oracle);
    }
    // Every registered oracle has at least one corpus entry.
    for (const Oracle *o : allOracles())
        EXPECT_TRUE(seen.count(o->name()))
            << "no corpus entry for " << o->name();
}

TEST(Corpus, CheckedInCorpusReplaysClean)
{
    auto entries =
        loadCorpusDir(COLDBOOT_SOURCE_DIR "/tests/fuzz_corpus");
    for (const auto &e : entries) {
        const Oracle *oracle = findOracle(e.oracle);
        ASSERT_NE(oracle, nullptr);
        OracleResult res = oracle->run(e.params);
        EXPECT_FALSE(res.violation)
            << e.file << ":" << e.line << ": "
            << formatCorpusEntry(e) << ": " << res.message;
    }
}

TEST(Corpus, MinerClusterSeedsReachASecondTileAndAMerge)
{
    // The one-class fold's paths no other oracle reaches: more than
    // 256 clusters (feature 1) and a merge pass that fires (feature
    // 2), which every corpus seed reaches, and from scale 1 enough
    // hits that the map was fitted, declined, and the one-class fold
    // ran (feature 5).
    size_t seeds = 0;
    for (const auto &e :
         loadCorpusDir(COLDBOOT_SOURCE_DIR "/tests/fuzz_corpus")) {
        if (e.oracle != "miner-cluster-exact")
            continue;
        ++seeds;
        OracleResult res = findOracle(e.oracle)->run(e.params);
        EXPECT_FALSE(res.violation) << res.message;
        std::set<uint32_t> reached(res.features.begin(),
                                   res.features.end());
        EXPECT_TRUE(reached.count(1) && reached.count(2))
            << formatCorpusEntry(e);
        if (e.params.scale >= 1) {
            EXPECT_TRUE(reached.count(5)) << formatCorpusEntry(e);
        }
    }
    EXPECT_GE(seeds, 1u);
}

TEST(Corpus, MinerMapFirstSeedsTakeBothPaths)
{
    // The map-first miner's class path with a merge (features 1 and 4)
    // and a declined map on enough hits (feature 2), so one class,
    // each checked against the all-pairs reference.
    bool class_merge = false, declined = false;
    for (const auto &e :
         loadCorpusDir(COLDBOOT_SOURCE_DIR "/tests/fuzz_corpus")) {
        if (e.oracle != "miner-map-first")
            continue;
        OracleResult res = findOracle(e.oracle)->run(e.params);
        EXPECT_FALSE(res.violation) << res.message;
        std::set<uint32_t> reached(res.features.begin(),
                                   res.features.end());
        class_merge = class_merge || (reached.count(1) && reached.count(4));
        declined = declined || reached.count(2);
    }
    EXPECT_TRUE(class_merge);
    EXPECT_TRUE(declined);
}

// ------------------------------------------------------------ registry

TEST(OracleRegistry, CatalogueIsWellFormed)
{
    const auto &oracles = allOracles();
    ASSERT_EQ(oracles.size(), 15u);
    std::set<std::string> names;
    for (const Oracle *o : oracles) {
        EXPECT_TRUE(names.insert(o->name()).second)
            << "duplicate oracle name " << o->name();
        EXPECT_NE(std::string(o->description()), "");
        EXPECT_GE(o->smokeStride(), 1u);
        EXPECT_EQ(findOracle(o->name()), o);
    }
    EXPECT_EQ(findOracle("not-an-oracle"), nullptr);
}

// ------------------------------------------------------------ campaign

TEST(Campaign, ReportIsIdenticalAcrossRunsAndWorkerCounts)
{
    CampaignConfig config;
    config.seed_begin = 0;
    config.seed_end = 8;
    config.energy = 2;
    config.threads = 1;

    std::string serial = runCampaign(config).toJson();
    EXPECT_EQ(serial, runCampaign(config).toJson());

    config.threads = 4;
    EXPECT_EQ(serial, runCampaign(config).toJson());
}

TEST(Campaign, EveryOracleRunsAndExploresBehaviours)
{
    CampaignConfig config;
    config.seed_begin = 0;
    config.seed_end = 8;
    config.energy = 2;
    config.threads = 0; // the shared global pool

    CampaignReport report = runCampaign(config);
    EXPECT_EQ(report.total_violations, 0u);
    ASSERT_EQ(report.oracles.size(), allOracles().size());

    uint64_t sum = 0;
    for (const auto &o : report.oracles) {
        EXPECT_GE(o.cases, 1u) << o.name << " never ran";
        EXPECT_GE(o.distinct_features, 1u)
            << o.name << " explored nothing";
        sum += o.cases;
    }
    EXPECT_EQ(sum, report.total_cases);

    // The report parses as JSON and carries the pinned schema tag,
    // with 64-bit seeds as strings so no parser rounds them.
    auto doc = obs::json::parse(report.toJson());
    ASSERT_TRUE(doc.has_value());
    const auto *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "coldboot-fuzz-campaign-v1");
    const auto *begin = doc->find("seed_begin");
    ASSERT_NE(begin, nullptr);
    EXPECT_TRUE(begin->isString());
    const auto *oracles = doc->find("oracles");
    ASSERT_NE(oracles, nullptr);
    EXPECT_EQ(oracles->array.size(), allOracles().size());
}

TEST(Campaign, OracleFilterRestrictsTheRun)
{
    CampaignConfig config;
    config.seed_begin = 0;
    config.seed_end = 4;
    config.energy = 1;
    config.threads = 1;
    config.oracle_filter = {"aes-schedule-inverse"};
    CampaignReport report = runCampaign(config);
    ASSERT_EQ(report.oracles.size(), 1u);
    EXPECT_EQ(report.oracles[0].name, "aes-schedule-inverse");
    EXPECT_GE(report.oracles[0].cases, 4u);
}

// --------------------------------------------------------- regressions

TEST(FuzzRegression, MinerPlantedKeysSeed10385570186295769717)
{
    // First bug the fuzzer found (4-worker smoke campaign, seeds
    // 0:40): MinerStats.blocks_scanned was re-derived from the global
    // registry counter, so overlapping mining runs polluted each
    // other's per-run stats. tests/fuzz_corpus/regressions.corpus
    // carries the same entry.
    auto res = runReproducer("oracle=miner-planted-keys:"
                             "seed=10385570186295769717:"
                             "energy=4:scale=0");
    ASSERT_TRUE(res.has_value());
    EXPECT_FALSE(res->violation) << res->message;
}

TEST(FuzzRegression, MinerStatsAreIsolatedBetweenConcurrentRuns)
{
    // Direct form of the same invariant: two overlapping mining runs
    // of different sizes must each report their own block count.
    auto makeDump = [](uint64_t seed, uint64_t bytes) {
        FuzzDumpSpec spec;
        spec.bytes = bytes;
        CaseRng rng(seed);
        return buildFuzzDump(rng, spec);
    };
    FuzzDump small = makeDump(1, 64 * 1024);
    FuzzDump large = makeDump(2, 256 * 1024);

    attack::MinerStats small_stats, large_stats;
    auto mine = [](const FuzzDump &dump, attack::MinerStats *stats) {
        attack::MinerParams mp;
        mp.threads = 1;
        platform::MemoryImage image(dump.bytes);
        attack::mineScramblerKeys(image, mp, stats);
    };
    // The regression needs two truly concurrent miner runs; a pool
    // would serialize them on a 1-core host and mask the race.
    // coldboot-lint: allow(no-raw-thread) -- concurrency is the point
    std::thread a(mine, std::cref(small), &small_stats);
    // coldboot-lint: allow(no-raw-thread) -- concurrency is the point
    std::thread b(mine, std::cref(large), &large_stats);
    a.join();
    b.join();

    EXPECT_EQ(small_stats.blocks_scanned, small.bytes.size() / 64);
    EXPECT_EQ(large_stats.blocks_scanned, large.bytes.size() / 64);
}

} // anonymous namespace
} // namespace coldboot::fuzz
