/**
 * @file
 * coldboot-bench - the single driver for every benchmark in bench/.
 *
 * Each bench_*.cc registers its benches with COLDBOOT_BENCH(name);
 * this driver selects, runs and measures them through the obs bench
 * harness (warmup + repetitions, robust statistics, hardware
 * counters, RSS high-water mark, trace spans) and emits one
 * consolidated schema-versioned BENCH.json plus a human-readable
 * table. `tools/bench_compare` diffs two such files as the perf
 * regression gate. A bench whose shape check fails (a paper claim
 * its figures do not reproduce) makes the driver exit 1 after the
 * report is written.
 *
 *   coldboot-bench --list
 *   coldboot-bench --profile smoke --out BENCH.json
 *   coldboot-bench --filter micro_ --repetitions 10 --out BENCH.json
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "obs/bench.hh"
#include "obs/fsio.hh"
#include "obs/runtime.hh"

using namespace coldboot;
using namespace coldboot::obs::bench;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: coldboot-bench [options]\n"
        "  --list                list registered benches and exit\n"
        "  --filter SUBSTR       run only benches whose name contains"
        " SUBSTR\n"
        "                        (repeatable; a bench runs if any"
        " filter matches)\n"
        "  --profile smoke|full  smoke = tiny sizes, 1 rep, no warmup"
        " (default: full)\n"
        "  --repetitions N       measured repetitions per bench\n"
        "  --warmup N            discarded warmup runs per bench\n"
        "  --out FILE            write consolidated BENCH.json\n"
        "  --quiet               mute bench table/figure output\n");
    std::fputs(obs::Runtime::usage, stderr);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    obs::Runtime runtime(argc, argv);
    if (!runtime.error().empty()) {
        std::fprintf(stderr, "%s\n", runtime.error().c_str());
        return usage();
    }
    RunConfig config;
    bool list_only = false;
    bool reps_set = false, warmup_set = false;
    std::vector<std::string> filters;
    std::string out_path;

    auto needValue = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s requires an argument\n",
                         argv[i]);
            std::exit(usage());
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            list_only = true;
        } else if (arg == "--filter") {
            filters.push_back(needValue(i));
        } else if (arg == "--profile") {
            std::string profile = needValue(i);
            if (profile == "smoke")
                config.smoke = true;
            else if (profile == "full")
                config.smoke = false;
            else
                return usage();
        } else if (arg == "--repetitions") {
            config.repetitions =
                std::atoi(needValue(i));
            reps_set = true;
        } else if (arg == "--warmup") {
            config.warmup = std::atoi(needValue(i));
            warmup_set = true;
        } else if (arg == "--out") {
            out_path = needValue(i);
        } else if (arg == "--quiet") {
            config.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    // The smoke profile is the ctest-able sanity run: tiny working
    // sets, one repetition, no warmup (unless overridden).
    if (config.smoke) {
        if (!reps_set)
            config.repetitions = 1;
        if (!warmup_set)
            config.warmup = 0;
    }
    if (config.repetitions < 1)
        cb_fatal("--repetitions must be >= 1");
    if (config.warmup < 0)
        cb_fatal("--warmup must be >= 0");

    const auto &registry = benchRegistry();
    std::vector<const BenchInfo *> selected;
    for (const auto &info : registry) {
        bool match = filters.empty();
        for (const auto &f : filters)
            match = match || info.name.find(f) != std::string::npos;
        if (match)
            selected.push_back(&info);
    }

    if (list_only) {
        for (const auto *info : selected)
            std::printf("%s\n", info->name.c_str());
        return 0;
    }
    if (selected.empty()) {
        std::fprintf(stderr, "no bench matches the given filters\n");
        return 1;
    }

    runtime.start(obs::Runtime::OnSignal::FlushAndExit);

    std::printf("coldboot-bench: %zu bench(es), profile %s, "
                "%d repetition(s), %d warmup(s)\n\n",
                selected.size(), config.smoke ? "smoke" : "full",
                config.repetitions, config.warmup);

    std::vector<BenchResult> results;
    results.reserve(selected.size());
    for (const auto *info : selected) {
        std::printf("=== %s ===\n", info->name.c_str());
        std::fflush(stdout);
        results.push_back(runBench(*info, config));
        std::printf("\n");
    }

    std::printf("%s\n", resultTableHeader().c_str());
    for (const auto &result : results)
        std::printf("%s\n", resultTableRow(result).c_str());

    EnvironmentInfo env = collectEnvironment();
    if (!out_path.empty()) {
        obs::writeFileCreatingDirs(out_path,
                                   resultsToJson(config, env,
                                                 results),
                                   "bench output");
        std::printf("\nwrote %s (schema v%d, git %s)\n",
                    out_path.c_str(), benchJsonSchemaVersion,
                    env.git_sha.c_str());
    }
    return reportFailedChecks(results, stderr);
}
