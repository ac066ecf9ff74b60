/**
 * @file
 * Negative CLI smoke test: `coldboot-tool attack` / `mine` on broken
 * dump files - zero-length, non-64-multiple, truncated, missing -
 * must fail with exit code 1 and a clear one-line error on stderr,
 * never a crash (no signal termination). This pins the DumpSource
 * size-validation path end to end through the real binary, which the
 * in-process death tests (test_exec) cannot: cb_fatal must remain a
 * clean user-facing error, not an abort.
 *
 * Arguments a command does not take - an unknown `--` option, a
 * number that is not all decimal, one positional too many - must
 * exit 2 naming the argument, before any work starts.
 *
 * Usage: smoke_tool_errors <path-to-coldboot-tool>
 */

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

void
writeBytes(const std::string &path, size_t n)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::perror(path.c_str());
        std::exit(2);
    }
    for (size_t i = 0; i < n; ++i)
        std::fputc(static_cast<int>(i & 0xFF), f);
    std::fclose(f);
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

/**
 * Run `coldboot-tool <args>`; require a normal exit with code
 * @p want_exit (1 = user error, 2 = usage error) and @p needle
 * somewhere on stderr. A user error must be one short message; a
 * usage error goes on to print the usage text.
 */
void
expectCleanFailure(const std::string &tool, const std::string &args,
                   int want_exit, const std::string &needle,
                   const std::string &label)
{
    const std::string err_path = "smoke_tool_errors_stderr.txt";
    std::string shell = "\"" + tool + "\" " + args + " > /dev/null 2> " +
                        err_path;
    std::printf("+ %s\n", shell.c_str());
    int status = std::system(shell.c_str());

    check(status != -1 && WIFEXITED(status),
          label + ": exits normally (no crash/signal)");
    if (status != -1 && WIFEXITED(status))
        check(WEXITSTATUS(status) == want_exit,
              label + ": exit code " + std::to_string(want_exit) +
                  ", got " + std::to_string(WEXITSTATUS(status)));
    std::string err = slurp(err_path);
    check(err.find(needle) != std::string::npos,
          label + ": stderr mentions '" + needle + "'");
    if (want_exit == 1)
        check(err.find('\n') != std::string::npos && err.size() < 512,
              label + ": error is a short clear message");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: smoke_tool_errors <coldboot-tool>\n");
        return 2;
    }
    std::string tool = argv[1];

    const std::string empty = "smoke_tool_errors_empty.img";
    const std::string odd = "smoke_tool_errors_odd.img";
    const std::string truncated = "smoke_tool_errors_trunc.img";
    const std::string missing = "smoke_tool_errors_missing.img";
    writeBytes(empty, 0);
    writeBytes(odd, 100);           // not a multiple of 64
    writeBytes(truncated, 64 * 16 + 17); // torn mid-line
    std::remove(missing.c_str());

    for (const std::string cmd : {"attack", "mine"}) {
        expectCleanFailure(tool, cmd + " " + empty, 1,
                           "nonzero multiple",
                           cmd + " on zero-length dump");
        expectCleanFailure(tool, cmd + " " + odd, 1, "multiple of",
                           cmd + " on non-64-multiple dump");
        expectCleanFailure(tool, cmd + " " + truncated, 1,
                           "multiple of", cmd + " on truncated dump");
        expectCleanFailure(tool, cmd + " " + missing, 1, "open",
                           cmd + " on missing dump");
    }

    // The buffered (--no-mmap) path validates identically.
    expectCleanFailure(tool, "attack --no-mmap " + odd, 1,
                       "multiple of",
                       "attack --no-mmap on non-64-multiple dump");

    // simulate-victim's own switch may follow the two paths directly
    // (its usage line's `[mib] [seed] [--warm]`), not be read as mib.
    const std::string victim = "smoke_tool_errors_victim.img";
    const std::string volume = "smoke_tool_errors_volume.bin";
    std::remove(victim.c_str());
    const std::string warm_cmd = "\"" + tool + "\" simulate-victim " +
                                 victim + " " + volume +
                                 " --warm > /dev/null";
    std::printf("+ %s\n", warm_cmd.c_str());
    check(std::system(warm_cmd.c_str()) == 0,
          "simulate-victim <dump> <volume> --warm exits 0");
    check(slurp(victim).size() == 4u << 20,
          "simulate-victim --warm writes a 4 MiB dump");

    // Arguments a command does not take: exit 2, argument named.
    const std::string paths = victim + " " + volume;
    const struct
    {
        std::string args;
        std::string needle;
    } rejected[] = {
        {"attack " + victim + " --bogus", "unknown option '--bogus'"},
        {"attack " + victim + " extra", "unknown option 'extra'"},
        {"mine " + victim + " notanumber", "bad top_n 'notanumber'"},
        {"mine " + victim + " 10x", "bad top_n '10x'"},
        {"simulate-victim " + paths + " --bogus",
         "unknown option '--bogus'"},
        {"simulate-victim " + paths + " 0", "bad mib '0'"},
        {"simulate-victim " + paths + " 4 -1", "bad seed '-1'"},
        {"simulate-victim " + paths + " 4 1 extra",
         "unknown option 'extra'"},
        {"decrypt " + volume + " 00 00 three", "bad sector 'three'"},
        {"attack " + victim + " --flight-record f.json",
         "unknown option '--flight-record'"},
    };
    for (const auto &r : rejected)
        expectCleanFailure(tool, r.args, 2, r.needle, r.args);

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_tool_errors: all checks passed\n");
    return 0;
}
