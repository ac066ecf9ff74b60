/**
 * @file
 * Pure-ctest smoke test for the unified benchmark harness and the
 * perf-regression gate (no Python, no third-party JSON):
 *
 *  - `coldboot-bench --profile smoke --out` must run every registered
 *    bench and emit schema-valid BENCH.json (validated with the
 *    in-tree parser against `coldboot-bench --list`), creating
 *    missing parent directories for the output;
 *  - `bench_compare --self` on that file must exit 0;
 *  - an injected over-threshold slowdown must make bench_compare exit
 *    nonzero, as must a bench missing from the candidate;
 *  - mismatched schema versions must be refused;
 *  - `coldboot-tool --stats-json` must create missing parent
 *    directories, and report a clear error (nonzero exit) on an
 *    unwritable path.
 *
 * Usage: smoke_bench_json <coldboot-bench> <bench_compare>
 *                         <coldboot-tool>
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "obs/json.hh"

using coldboot::obs::json::Value;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    } else {
        std::printf("ok: %s\n", what.c_str());
    }
}

/** Run a shell command, return its exit status (-1 on launch error). */
int
run(const std::string &cmd)
{
    std::printf("+ %s\n", cmd.c_str());
    std::fflush(stdout);
    int rc = std::system(cmd.c_str());
    if (rc == -1 || !WIFEXITED(rc))
        return -1;
    return WEXITSTATUS(rc);
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(2);
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
}

/** Minimal schema-conforming BENCH.json for bench_compare tests. */
std::string
miniBenchJson(int schema, double fast_median, double slow_median,
              bool include_second)
{
    std::string out = "{\"schema_version\": " +
                      std::to_string(schema) +
                      ", \"benches\": [";
    out += "{\"name\": \"alpha\", \"wall_ns\": {\"median\": " +
           std::to_string(fast_median) + ", \"mad\": 1000.0}}";
    if (include_second)
        out += ", {\"name\": \"beta\", \"wall_ns\": {\"median\": " +
               std::to_string(slow_median) + ", \"mad\": 1000.0}}";
    out += "]}";
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: smoke_bench_json <coldboot-bench> "
                     "<bench_compare> <coldboot-tool>\n");
        return 2;
    }
    std::string bench = argv[1];
    std::string compare = argv[2];
    std::string tool = argv[3];

    // --- the smoke run itself, with a nested output path ---
    std::string out_path = "smoke_bench_out/nested/BENCH.json";
    int rc = run("\"" + bench +
                 "\" --profile smoke --quiet --out \"" + out_path +
                 "\" > smoke_bench_stdout.txt 2>&1");
    check(rc == 0, "coldboot-bench --profile smoke exits 0");

    // Every registered bench must appear in the document.
    std::set<std::string> registered;
    {
        rc = run("\"" + bench + "\" --list > smoke_bench_list.txt");
        check(rc == 0, "coldboot-bench --list exits 0");
        std::FILE *f = std::fopen("smoke_bench_list.txt", "r");
        char line[256];
        while (f && std::fgets(line, sizeof(line), f)) {
            std::string name = line;
            while (!name.empty() &&
                   (name.back() == '\n' || name.back() == '\r'))
                name.pop_back();
            if (!name.empty())
                registered.insert(name);
        }
        if (f)
            std::fclose(f);
    }
    check(registered.size() >= 12,
          "at least 12 benches are registered (have " +
              std::to_string(registered.size()) + ")");

    auto doc = coldboot::obs::json::parseFile(out_path);
    check(doc.has_value(),
          "BENCH.json written through a missing directory and "
          "parses");
    if (doc) {
        const Value *schema = doc->find("schema_version");
        check(schema && schema->isNumber() && schema->number == 1,
              "schema_version is 1");
        const Value *profile = doc->find("profile");
        check(profile && profile->str == "smoke",
              "profile recorded as smoke");
        const Value *env = doc->find("environment");
        check(env != nullptr, "environment fingerprint present");
        for (const char *key : {"compiler", "build_type",
                                "cxx_flags", "cpu", "os", "git_sha"})
            check(env && env->find(key) != nullptr,
                  std::string("environment.") + key);

        const Value *benches = doc->find("benches");
        check(benches && benches->isArray(), "benches array present");
        std::set<std::string> emitted;
        if (benches) {
            for (const auto &b : benches->array) {
                const Value *name = b.find("name");
                if (name)
                    emitted.insert(name->str);
                const Value *wall = b.find("wall_ns");
                check(wall && wall->find("median") &&
                          wall->find("mad") && wall->find("ci95_lo") &&
                          wall->find("ci95_hi"),
                      (name ? name->str : "?") +
                          ": wall_ns statistics complete");
                const Value *rss = b.find("max_rss_kib");
                check(rss && rss->isNumber() && rss->number > 0,
                      (name ? name->str : "?") + ": max_rss_kib > 0");
            }
        }
        for (const auto &name : registered)
            check(emitted.count(name) == 1,
                  "bench '" + name + "' present in BENCH.json");
    }

    // --- the regression gate ---
    rc = run("\"" + compare + "\" --self \"" + out_path + "\"");
    check(rc == 0, "bench_compare --self exits 0");

    writeFile("smoke_cmp_base.json",
              miniBenchJson(1, 1e6, 1e6, true));
    writeFile("smoke_cmp_same.json",
              miniBenchJson(1, 1e6, 1e6, true));
    // beta slows 1e6 -> 2e6 ns: 100% > 30% threshold and 1e6 ns
    // above the max(100us, 3 MAD) noise floor.
    writeFile("smoke_cmp_slow.json",
              miniBenchJson(1, 1e6, 2e6, true));
    writeFile("smoke_cmp_missing.json",
              miniBenchJson(1, 1e6, 0.0, false));
    writeFile("smoke_cmp_schema2.json",
              miniBenchJson(2, 1e6, 1e6, true));

    rc = run("\"" + compare +
             "\" smoke_cmp_base.json smoke_cmp_same.json");
    check(rc == 0, "identical candidate passes the gate");
    rc = run("\"" + compare +
             "\" smoke_cmp_base.json smoke_cmp_slow.json");
    check(rc == 1, "injected 2x slowdown fails the gate (exit 1)");
    rc = run("\"" + compare +
             "\" smoke_cmp_base.json smoke_cmp_missing.json");
    check(rc == 1, "bench missing from candidate fails the gate");
    rc = run("\"" + compare +
             "\" smoke_cmp_base.json smoke_cmp_schema2.json");
    check(rc == 2, "schema version mismatch is refused (exit 2)");
    // A slowdown inside the noise floor must pass: +50% relative but
    // only 40 us absolute, under the 100 us floor.
    writeFile("smoke_cmp_tiny_base.json",
              miniBenchJson(1, 8e4, 8e4, false));
    writeFile("smoke_cmp_tiny_slow.json",
              miniBenchJson(1, 12e4, 12e4, false));
    rc = run("\"" + compare +
             "\" smoke_cmp_tiny_base.json smoke_cmp_tiny_slow.json");
    check(rc == 0, "sub-noise-floor slowdown passes the gate");

    // --- coldboot-tool output path handling ---
    writeFile("smoke_tiny_dump.img", std::string(4096, '\xa5'));
    rc = run("\"" + tool + "\" info smoke_tiny_dump.img "
             "--stats-json smoke_tool_out/deep/stats.json "
             "--trace smoke_tool_out/deep/trace.json "
             "> /dev/null");
    check(rc == 0,
          "coldboot-tool exits 0 with nested output paths");
    check(coldboot::obs::json::parseFile(
              "smoke_tool_out/deep/stats.json")
              .has_value(),
          "stats JSON created through missing directories");
    check(coldboot::obs::json::parseFile(
              "smoke_tool_out/deep/trace.json")
              .has_value(),
          "trace JSON created through missing directories");

    writeFile("smoke_tool_notadir", "plain file");
    rc = run("\"" + tool + "\" info smoke_tiny_dump.img "
             "--stats-json smoke_tool_notadir/stats.json "
             "> /dev/null 2> smoke_tool_err.txt");
    check(rc != 0,
          "unwritable stats path exits nonzero");
    {
        std::FILE *f = std::fopen("smoke_tool_err.txt", "r");
        std::string err;
        char buf[512];
        size_t got;
        while (f && (got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            err.append(buf, got);
        if (f)
            std::fclose(f);
        check(err.find("smoke_tool_notadir") != std::string::npos,
              "error message names the unwritable path");
    }

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_bench_json: all checks passed\n");
    return 0;
}
