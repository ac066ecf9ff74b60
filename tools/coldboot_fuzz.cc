/**
 * @file
 * coldboot-fuzz - driver for the deterministic property-fuzzing
 * subsystem (src/fuzz): walks a base-seed range through the
 * differential-oracle catalogue, coverage-guided-lite, replays the
 * checked-in corpus, and emits a campaign report whose JSON is
 * byte-identical across runs and worker counts.
 *
 * Exit codes: 0 = every property held, 1 = at least one violation
 * (reproducers printed and reported), 2 = usage error.
 *
 * Examples:
 *   coldboot-fuzz --seed-range 0:500 --profile smoke \
 *       --corpus tests/fuzz_corpus --report fuzz-report.json
 *   coldboot-fuzz --list
 *   coldboot-fuzz --reproduce \
 *       "oracle=miner-planted-keys:seed=123:energy=4:scale=0"
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "exec/thread_pool.hh"
#include "fuzz/corpus.hh"
#include "fuzz/harness.hh"
#include "fuzz/oracle.hh"
#include "fuzz/reducer.hh"
#include "obs/fsio.hh"
#include "obs/stats.hh"

using namespace coldboot;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: coldboot-fuzz [options]\n"
        "  --seed-range <a>:<b>  base seeds [a, b) to fuzz"
        " (default 0:100)\n"
        "  --profile smoke|full  smoke honours per-oracle strides;\n"
        "                        full runs everything, harder"
        " (default smoke)\n"
        "  --oracle <name>       restrict to one oracle (repeatable)\n"
        "  --energy <n>          phase-1 mutation budget (default 4)\n"
        "  --scale <n>           input-size class: 64 KiB << n"
        " (default 0)\n"
        "  --threads <n>         1 = serial, N = dedicated pool\n"
        "                        (default: the shared global pool)\n"
        "  --corpus <dir>        also replay every *.corpus file\n"
        "  --report <file>       write the campaign report JSON\n"
        "                        (with the corpus replay's tally)\n"
        "  --stats-json <file>   write the stats registry as JSON\n"
        "  --no-reduce           skip violation minimization\n"
        "  --list                list the oracle catalogue and exit\n"
        "  --reproduce <line>    replay one reproducer and exit\n");
    return 2;
}

int
listOracles()
{
    for (const fuzz::Oracle *o : fuzz::allOracles())
        std::printf("%-24s stride %u  %s\n", o->name(),
                    o->smokeStride(), o->description());
    return 0;
}

int
reproduce(const std::string &line)
{
    auto parsed = fuzz::parseReproducer(line);
    if (!parsed) {
        std::fprintf(stderr, "unparseable reproducer: %s\n",
                     line.c_str());
        return 2;
    }
    const fuzz::Oracle *oracle = fuzz::findOracle(parsed->first);
    if (!oracle) {
        std::fprintf(stderr, "unknown oracle '%s'\n",
                     parsed->first.c_str());
        return 2;
    }
    auto res = oracle->run(parsed->second);
    if (res.violation) {
        std::printf("VIOLATION %s\n  %s\n",
                    line.c_str(), res.message.c_str());
        std::printf("regression test:\n%s",
                    fuzz::gtestSnippet(parsed->first, parsed->second)
                        .c_str());
        return 1;
    }
    std::printf("ok %s (%zu features)\n", line.c_str(),
                res.features.size());
    return 0;
}

/** Replay a corpus directory, tallying each named oracle. */
fuzz::CorpusReplay
replayCorpus(const std::string &dir)
{
    std::vector<std::string> errors;
    auto entries = fuzz::loadCorpusDir(dir, &errors);
    for (const auto &e : errors)
        std::fprintf(stderr, "corpus: %s\n", e.c_str());
    fuzz::CorpusReplay replay;
    replay.entries = entries.size();
    replay.errors = errors.size();
    std::map<std::string, fuzz::CorpusReplay::OracleTally> tallies;

    for (const auto &entry : entries) {
        const fuzz::Oracle *oracle = fuzz::findOracle(entry.oracle);
        if (!oracle) {
            std::fprintf(stderr,
                         "corpus: %s:%u: unknown oracle '%s'\n",
                         entry.file.c_str(), entry.line,
                         entry.oracle.c_str());
            ++replay.errors;
            continue;
        }
        auto &tally = tallies[entry.oracle];
        ++tally.entries;
        auto res = oracle->run(entry.params);
        if (res.violation) {
            std::printf("VIOLATION (corpus %s:%u) %s\n  %s\n",
                        entry.file.c_str(), entry.line,
                        fuzz::formatCorpusEntry(entry).c_str(),
                        res.message.c_str());
            ++tally.violations;
        }
    }
    for (auto &[name, tally] : tallies) {
        tally.name = name;
        replay.oracles.push_back(tally);
    }
    std::printf("corpus: %zu entries replayed, %llu violations\n",
                entries.size(),
                static_cast<unsigned long long>(replay.violations()));
    return replay;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    fuzz::CampaignConfig config;
    std::string corpus_dir, report_path, stats_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };

        if (arg == "--list")
            return listOracles();
        if (arg == "--reproduce") {
            const char *line = next();
            return line ? reproduce(line) : usage();
        }
        if (arg == "--seed-range") {
            const char *range = next();
            if (!range)
                return usage();
            const char *colon = std::strchr(range, ':');
            char *end_a = nullptr, *end_b = nullptr;
            if (!colon)
                return usage();
            config.seed_begin =
                std::strtoull(range, &end_a, 10);
            config.seed_end =
                std::strtoull(colon + 1, &end_b, 10);
            if (end_a != colon || *end_b != '\0' ||
                config.seed_end < config.seed_begin) {
                std::fprintf(stderr, "bad --seed-range '%s'\n",
                             range);
                return usage();
            }
            continue;
        }
        if (arg == "--profile") {
            const char *p = next();
            if (!p)
                return usage();
            if (std::string(p) == "smoke")
                config.profile =
                    fuzz::CampaignConfig::Profile::Smoke;
            else if (std::string(p) == "full")
                config.profile =
                    fuzz::CampaignConfig::Profile::Full;
            else {
                std::fprintf(stderr, "bad --profile '%s'\n", p);
                return usage();
            }
            continue;
        }
        if (arg == "--oracle") {
            const char *name = next();
            if (!name)
                return usage();
            if (!fuzz::findOracle(name)) {
                std::fprintf(stderr, "unknown oracle '%s'\n", name);
                return usage();
            }
            config.oracle_filter.emplace_back(name);
            continue;
        }
        if (arg == "--energy" || arg == "--scale") {
            const char *v = next();
            if (!v)
                return usage();
            char *end = nullptr;
            unsigned long n = std::strtoul(v, &end, 10);
            if (*end != '\0' || n > 1u << 20) {
                std::fprintf(stderr, "bad %s '%s'\n", arg.c_str(),
                             v);
                return usage();
            }
            (arg == "--energy" ? config.energy : config.scale) =
                static_cast<uint32_t>(n);
            continue;
        }
        if (arg == "--threads") {
            const char *v = next();
            if (!v)
                return usage();
            unsigned n = exec::parseThreadCount(v);
            if (n == 0) {
                std::fprintf(stderr, "--threads: bad count '%s'\n",
                             v);
                return usage();
            }
            config.threads = n;
            continue;
        }
        if (arg == "--corpus") {
            const char *d = next();
            if (!d)
                return usage();
            corpus_dir = d;
            continue;
        }
        if (arg == "--report") {
            const char *f = next();
            if (!f)
                return usage();
            report_path = f;
            continue;
        }
        if (arg == "--stats-json") {
            const char *f = next();
            if (!f)
                return usage();
            stats_path = f;
            continue;
        }
        if (arg == "--no-reduce") {
            config.reduce_violations = false;
            continue;
        }
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage();
    }

    uint64_t violations = 0;
    std::optional<fuzz::CampaignReport> campaign;

    if (config.seed_end > config.seed_begin) {
        fuzz::CampaignReport &report =
            campaign.emplace(fuzz::runCampaign(config));
        violations += report.total_violations;

        std::printf(
            "campaign: seeds [%llu, %llu) profile %s: %llu cases, "
            "%llu violations\n",
            static_cast<unsigned long long>(config.seed_begin),
            static_cast<unsigned long long>(config.seed_end),
            config.profile == fuzz::CampaignConfig::Profile::Smoke
                ? "smoke"
                : "full",
            static_cast<unsigned long long>(report.total_cases),
            static_cast<unsigned long long>(
                report.total_violations));
        for (const auto &o : report.oracles)
            std::printf(
                "  %-24s %6llu cases  %3llu interesting  "
                "%3llu features  %llu violations\n",
                o.name.c_str(),
                static_cast<unsigned long long>(o.cases),
                static_cast<unsigned long long>(o.interesting_seeds),
                static_cast<unsigned long long>(o.distinct_features),
                static_cast<unsigned long long>(o.violations));

        for (const auto &v : report.violations) {
            std::printf("VIOLATION %s\n  %s\n",
                        v.reproducer.c_str(), v.message.c_str());
            std::printf("corpus line:\n  %s\n", v.reproducer.c_str());
            std::printf(
                "regression test:\n%s",
                fuzz::gtestSnippet(v.oracle, v.params).c_str());
        }
    }

    if (!corpus_dir.empty()) {
        fuzz::CorpusReplay replay = replayCorpus(corpus_dir);
        violations += replay.violations();
        if (campaign)
            campaign->corpus = std::move(replay);
    }

    if (campaign && !report_path.empty())
        obs::writeFileCreatingDirs(report_path, campaign->toJson(),
                                   "fuzz campaign report");

    if (!stats_path.empty())
        obs::StatRegistry::global().writeJsonFile(stats_path);

    return violations == 0 ? 0 : 1;
}
