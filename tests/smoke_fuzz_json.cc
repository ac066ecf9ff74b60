/**
 * @file
 * Pure-ctest smoke test for the coldboot-fuzz driver: runs a small
 * fixed-seed campaign with the checked-in corpus three times (twice
 * identically, once with a COLDBOOT_THREADS=4 pool) and requires the
 * campaign-report JSON to be byte-identical - the determinism
 * contract the CI fuzz-smoke job relies on - then validates the
 * report schema, the corpus tally included, with the in-tree JSON
 * parser and exercises the --list / --reproduce / usage-error paths.
 *
 * Usage: smoke_fuzz_json <path-to-coldboot-fuzz> <corpus-dir>
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.hh"

using namespace coldboot;

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    } else {
        std::printf("ok: %s\n", what);
    }
}

std::string
slurp(const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return {};
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

int
run(const std::string &cmd)
{
    std::printf("+ %s\n", cmd.c_str());
    int rc = std::system(cmd.c_str());
    return rc;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: smoke_fuzz_json <coldboot-fuzz> <corpus-dir>\n");
        return 2;
    }
    std::string tool = "\"" + std::string(argv[1]) + "\"";
    const std::string campaign =
        " --seed-range 0:12 --profile smoke --energy 2 --corpus \"" +
        std::string(argv[2]) + "\"";

    check(run(tool + " --list > smoke_fuzz_list.txt") == 0,
          "--list exits 0");
    std::string listing = slurp("smoke_fuzz_list.txt");
    check(listing.find("scramble-roundtrip") != std::string::npos &&
              listing.find("dump-backend-equality") != std::string::npos,
          "--list names the catalogue");

    // The determinism contract: same campaign, three runs - one
    // repeat, one under a 4-worker pool - byte-identical reports.
    check(run(tool + campaign + " --report smoke_fuzz_a.json") == 0,
          "campaign run A exits 0 (no violations)");
    check(run(tool + campaign + " --report smoke_fuzz_b.json") == 0,
          "campaign run B exits 0");
    check(run("COLDBOOT_THREADS=4 " + tool + campaign +
              " --report smoke_fuzz_c.json") == 0,
          "campaign run C (4 workers) exits 0");

    std::string a = slurp("smoke_fuzz_a.json");
    check(!a.empty(), "report A written");
    check(a == slurp("smoke_fuzz_b.json"),
          "report B is byte-identical to A");
    check(a == slurp("smoke_fuzz_c.json"),
          "report under COLDBOOT_THREADS=4 is byte-identical to A");

    // Schema: parses, pinned tag, string seeds, every oracle ran.
    auto doc = obs::json::parse(a);
    check(doc.has_value(), "report parses as JSON");
    if (doc) {
        const auto *schema = doc->find("schema");
        check(schema && schema->str == "coldboot-fuzz-campaign-v1",
              "schema tag is coldboot-fuzz-campaign-v1");
        const auto *begin = doc->find("seed_begin");
        check(begin && begin->isString(),
              "64-bit seeds serialized as strings");
        const auto *violations = doc->find("total_violations");
        check(violations && violations->number == 0.0,
              "campaign found no violations");
        const auto *oracles = doc->find("oracles");
        check(oracles && oracles->isArray() &&
                  oracles->array.size() == 15,
              "report covers all 15 oracles");
        if (oracles && oracles->isArray())
            for (const auto &o : oracles->array) {
                const auto *cases = o.find("cases");
                const auto *name = o.find("name");
                check(cases && cases->number >= 1.0 && name,
                      "every oracle ran at least one case");
            }

        // The corpus replay is in the report, so the diffs above
        // cover it: every entry tallied under its oracle, none failed.
        const auto *corpus = doc->find("corpus");
        check(corpus != nullptr, "report records the corpus replay");
        if (corpus) {
            const auto *entries = corpus->find("entries");
            const auto *errors = corpus->find("errors");
            const auto *tallies = corpus->find("oracles");
            check(entries && entries->number >= 1.0,
                  "corpus replayed at least one entry");
            check(errors && errors->number == 0.0,
                  "every corpus line parsed and named an oracle");
            double tallied = 0.0, failed = 0.0;
            if (tallies && tallies->isArray())
                for (const auto &o : tallies->array) {
                    const auto *n = o.find("entries");
                    const auto *v = o.find("violations");
                    check(o.find("name") && n && v,
                          "corpus tally has name, entries, violations");
                    tallied += n ? n->number : 0.0;
                    failed += v ? v->number : 0.0;
                }
            check(tallies && tallies->isArray() && !tallies->array.empty(),
                  "corpus tally lists its oracles");
            check(entries && tallied == entries->number,
                  "per-oracle corpus entries sum to the total");
            check(failed == 0.0, "no corpus entry violated its oracle");
        }
    }

    // One-line reproducer replay.
    check(run(tool + " --reproduce \"oracle=aes-schedule-inverse:"
                     "seed=7:energy=2:scale=0\"") == 0,
          "--reproduce of a holding case exits 0");

    // Usage errors exit 2, not crash.
    check(run(tool + " --no-such-flag > /dev/null 2>&1") == 2 * 256,
          "unknown flag exits 2");
    check(run(tool + " --oracle no-such-oracle > /dev/null 2>&1") ==
              2 * 256,
          "unknown oracle exits 2");
    check(run(tool + " --seed-range banana > /dev/null 2>&1") ==
              2 * 256,
          "malformed seed range exits 2");

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_fuzz_json: all checks passed\n");
    return 0;
}
