/**
 * @file
 * coldboot-lint CLI.
 *
 * Exit codes follow the bench_compare convention:
 *   0  clean tree
 *   1  findings reported
 *   2  internal error (bad flags, unreadable root, broken config)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "lint/engine.hh"

namespace
{

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: coldboot-lint [options] [path...]\n"
        "\n"
        "Static analysis for the coldboot tree: secret hygiene,\n"
        "banned APIs, determinism, include hygiene.\n"
        "\n"
        "options:\n"
        "  --root DIR        scan relative to DIR (default: .)\n"
        "  --format FMT      text | json | sarif (default: text)\n"
        "  --out FILE        write the report to FILE instead of\n"
        "                    stdout\n"
        "  --explain RULE    print a rule's rationale with a\n"
        "                    violating example and its fix, then\n"
        "                    exit\n"
        "  --list-rules      print the rule catalog and exit\n"
        "  --version         print the tool version and exit\n"
        "  -h, --help        this text\n"
        "\n"
        "paths default to: src bench tests tools\n"
        "\n"
        "exit codes: 0 clean, 1 findings, 2 internal error\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace coldboot::lint;

    LintOptions options;
    std::string format = "text";
    std::string out_path;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "coldboot-lint: %s needs a value\n",
                             flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        }
        if (arg == "--version") {
            std::printf("coldboot-lint %s\n", lintVersion());
            return 0;
        }
        if (arg == "--list-rules") {
            for (const auto &r : ruleCatalog())
                std::printf("%-22s %s\n", r.id, r.description);
            return 0;
        }
        if (arg == "--explain") {
            const char *id = value("--explain");
            const RuleInfo *r = findRule(id);
            if (r == nullptr) {
                std::fprintf(stderr,
                             "coldboot-lint: unknown rule '%s' "
                             "(see --list-rules)\n",
                             id);
                return 2;
            }
            std::printf("%s\n  %s\n\nwhy:\n  %s\n\n"
                        "violation:\n%s\n\nfix:\n%s\n",
                        r->id, r->description, r->rationale,
                        r->example_bad, r->example_fix);
            return 0;
        }
        if (arg == "--root") {
            options.root = value("--root");
            continue;
        }
        if (arg == "--format") {
            format = value("--format");
            if (format != "text" && format != "json" &&
                format != "sarif") {
                std::fprintf(stderr,
                             "coldboot-lint: unknown format '%s' "
                             "(want text|json|sarif)\n",
                             format.c_str());
                return 2;
            }
            continue;
        }
        if (arg == "--out") {
            out_path = value("--out");
            continue;
        }
        if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "coldboot-lint: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
        paths.push_back(arg);
    }
    if (!paths.empty())
        options.paths = paths;

    LintResult result = lintTree(options);
    if (result.internal_error) {
        std::fprintf(stderr, "coldboot-lint: %s\n",
                     result.error_message.c_str());
        return 2;
    }

    std::string report;
    if (format == "json")
        report = emitJson(result);
    else if (format == "sarif")
        report = emitSarif(result);
    else
        report = emitText(result);

    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
        if (!report.empty() && report.back() != '\n')
            std::fputc('\n', stdout);
    } else {
        std::ofstream out(out_path, std::ios::binary);
        if (!out || !(out << report) || !out.flush()) {
            std::fprintf(stderr,
                         "coldboot-lint: cannot write '%s'\n",
                         out_path.c_str());
            return 2;
        }
        // Findings still get a terminal echo so CI logs are useful
        // without opening the artifact.
        if (!result.findings.empty())
            std::fputs(emitText(result).c_str(), stderr);
    }

    return result.findings.empty() ? 0 : 1;
}
