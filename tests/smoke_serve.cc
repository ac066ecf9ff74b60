/**
 * @file
 * Pure-ctest smoke test for the analysis-job service (no Python):
 * build a tiny cold-boot dump in-process, start `coldboot-served
 * --port 127.0.0.1:0` as a subprocess, and drive it with
 * coldboot-client subprocesses:
 *
 *  - read the announced ephemeral port from the daemon's stdout;
 *  - a second daemon on the same port must fail fast with the
 *    actionable EADDRINUSE message;
 *  - run three concurrent jobs (attack, mine, descramble) and require
 *    each result byte-identical to the one-shot coldboot-tool output
 *    for the same dump - including a byte compare of the descrambled
 *    images;
 *  - cancel a running job mid-flight and watch it reach `cancelled`
 *    without disturbing anything else;
 *  - SIGTERM the daemon while a job is in flight: it must drain,
 *    flush the --stats-json and --trace artifacts and exit
 *    128+SIGTERM, with the serve.jobs.* counters accounting for
 *    every submission.
 *
 * Usage: smoke_serve <coldboot-served> <coldboot-client>
 *        <coldboot-tool>
 */

#include <csignal>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "crypto/aes.hh"
#include "memctrl/scrambler.hh"
#include "obs/json.hh"
#include "trace_check.hh"

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

/**
 * Dump with @p planted scrambler keys (x @p copies) and one planted
 * XTS keytable (two AES-256 schedules back to back, scrambled with
 * key 1) - the attack recovers a full master key pair from it, so
 * the byte-identity gates below compare real key output, not just a
 * "nothing found" summary.
 */
void
writeAttackDump(const std::string &dump_path, size_t len,
                unsigned planted = 4, unsigned copies = 6)
{
    std::vector<uint8_t> bytes(len);
    Xoshiro256StarStar rng(0x5EED);
    rng.fillBytes(bytes);
    size_t lines = len / 64;

    memctrl::Ddr4Scrambler scr(0xBEEF, 0);
    std::vector<std::array<uint8_t, 64>> keys(planted);
    for (unsigned k = 0; k < planted; ++k) {
        scr.poolKey(k * 61 % 4096, keys[k].data());
        for (unsigned copy = 0; copy < copies; ++copy) {
            size_t line = (k * copies + copy + 11) * 397 % lines;
            std::memcpy(&bytes[line * 64], keys[k].data(), 64);
        }
    }

    std::vector<uint8_t> master(64);
    Xoshiro256StarStar key_rng(0x1234);
    key_rng.fillBytes(master);
    auto data_sched = crypto::aesExpandKey({master.data(), 32});
    auto tweak_sched = crypto::aesExpandKey({master.data() + 32, 32});
    uint64_t table_off = (lines / 3) * 64;
    auto plant = [&](const std::vector<uint8_t> &sched,
                     uint64_t off) {
        for (size_t i = 0; i < sched.size(); ++i)
            bytes[off + i] = sched[i] ^ keys[1][(off + i) & 63];
    };
    plant(data_sched, table_off);
    plant(tweak_sched, table_off + data_sched.size());

    std::FILE *f = std::fopen(dump_path.c_str(), "wb");
    if (f != nullptr) {
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }
}

/** Run @p cmd, capture stdout; rc -1 on launch failure. */
int
runCapture(const std::string &cmd, std::string &output)
{
    output.clear();
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, n);
    return pclose(pipe);
}

/**
 * The deterministic portion of an attack result: the
 * mined/recovered/pair counts (the CLI appends its timing tail to the
 * same line, so the summary is cut at "XTS pair(s);") plus the
 * recovered key material.
 */
std::string
filterAttack(const std::string &output)
{
    std::string result;
    size_t pos = 0;
    while (pos < output.size()) {
        size_t eol = output.find('\n', pos);
        if (eol == std::string::npos)
            eol = output.size();
        std::string line = output.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("mined ", 0) == 0) {
            size_t cut = line.find("XTS pair(s);");
            if (cut != std::string::npos)
                line.resize(cut + std::strlen("XTS pair(s);"));
            result += line + "\n";
        } else if (line.rfind("XTS master keys", 0) == 0 ||
                   line.rfind("  data :", 0) == 0 ||
                   line.rfind("  tweak:", 0) == 0) {
            result += line + "\n";
        }
    }
    return result;
}

/** The deterministic portion of a mine result: scan summary + keys
 *  (the CLI appends a stats table the service result omits). */
std::string
filterMine(const std::string &output)
{
    std::string result;
    size_t pos = 0;
    while (pos < output.size()) {
        size_t eol = output.find('\n', pos);
        if (eol == std::string::npos)
            eol = output.size();
        std::string line = output.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("scanned ", 0) == 0 ||
            line.rfind("#", 0) == 0)
            result += line + "\n";
    }
    return result;
}

std::string
readFileBytes(const std::string &path)
{
    std::string bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

/** First line of @p output starting with @p prefix ("" if none). */
std::string
lineWithPrefix(const std::string &output, const char *prefix)
{
    size_t pos = 0;
    while (pos < output.size()) {
        size_t eol = output.find('\n', pos);
        if (eol == std::string::npos)
            eol = output.size();
        std::string line = output.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind(prefix, 0) == 0)
            return line;
    }
    return "";
}

/** stats-JSON "value" of one stat entry; -1 when absent. */
double
statValue(const obs::json::Value &doc, const char *name)
{
    const auto *tree = doc.find("stats");
    const auto *entry = tree ? tree->find(name) : nullptr;
    const auto *value = entry ? entry->find("value") : nullptr;
    return value ? value->number : -1.0;
}

/** The daemon subprocess: pid + announced port, stdout on a pipe. */
struct Daemon
{
    std::FILE *pipe = nullptr;
    pid_t pid = 0;
    uint16_t port = 0;
};

/**
 * Launch coldboot-served on an ephemeral port under a shell that
 * reports the daemon's pid (for SIGTERM) and, once it exits, its
 * status - so the drain path's exit code is observable through the
 * same pipe as the port announcement.
 */
Daemon
launchDaemon(const std::string &served, const std::string &stats_path,
             const std::string &trace_path)
{
    Daemon d;
    std::string cmd = "\"" + served +
                      "\" --port 127.0.0.1:0 --max-jobs 3"
                      " --stats-json \"" +
                      stats_path + "\" --trace \"" + trace_path +
                      "\" 2>/dev/null & echo \"daemonpid $!\";"
                      " wait $!; echo \"daemonrc $?\"";
    std::printf("+ %s\n", cmd.c_str());
    d.pipe = popen(cmd.c_str(), "r");
    if (d.pipe == nullptr)
        return d;
    char line[512];
    while ((d.pid == 0 || d.port == 0) &&
           std::fgets(line, sizeof(line), d.pipe) != nullptr) {
        if (std::strncmp(line, "daemonpid ", 10) == 0)
            d.pid = static_cast<pid_t>(std::atoi(line + 10));
        const char *marker = "serving analysis jobs on 127.0.0.1:";
        const char *hit = std::strstr(line, marker);
        if (hit != nullptr)
            d.port =
                static_cast<uint16_t>(std::atoi(hit + strlen(marker)));
    }
    return d;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 4) {
        std::fprintf(stderr, "usage: smoke_serve <coldboot-served> "
                             "<coldboot-client> <coldboot-tool>\n");
        return 2;
    }
    const std::string served = argv[1];
    const std::string client = argv[2];
    const std::string tool = argv[3];

    const std::string dump_path = "smoke_serve_dump.img";
    const std::string slow_path = "smoke_serve_slow_dump.img";
    const std::string stats_path = "smoke_serve_stats.json";
    const std::string trace_path = "smoke_serve_trace.json";
    const std::string cli_plain = "smoke_serve_cli_plain.img";
    const std::string srv_plain = "smoke_serve_srv_plain.img";
    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());
    writeAttackDump(dump_path, MiB(4));
    // Many planted keys make mining + search slow enough that the
    // cancel and SIGTERM legs below always land mid-job.
    writeAttackDump(slow_path, MiB(16), 64, 4);

    // One-shot CLI references for the byte-identity gates.
    std::string cli_attack, cli_mine, cli_descramble;
    int rc = runCapture("\"" + tool + "\" attack \"" + dump_path +
                            "\" 2>/dev/null",
                        cli_attack);
    check(rc == 0, "one-shot attack succeeded");
    std::string ref_attack = filterAttack(cli_attack);
    check(ref_attack.find("XTS master keys") != std::string::npos,
          "one-shot attack recovered keys");
    rc = runCapture("\"" + tool + "\" mine \"" + dump_path +
                        "\" 2>/dev/null",
                    cli_mine);
    check(rc == 0, "one-shot mine succeeded");
    std::string ref_mine = filterMine(cli_mine);
    rc = runCapture("\"" + tool + "\" descramble \"" + dump_path +
                        "\" \"" + cli_plain + "\" 2>/dev/null",
                    cli_descramble);
    check(rc == 0, "one-shot descramble succeeded");
    check(lineWithPrefix(cli_descramble, "sha256 ").size() > 7,
          "one-shot descramble reported a digest");

    // The daemon, on an ephemeral port announced via stdout.
    Daemon daemon = launchDaemon(served, stats_path, trace_path);
    check(daemon.pipe != nullptr, "daemon subprocess launched");
    check(daemon.pid > 0, "daemon pid reported");
    check(daemon.port != 0, "ephemeral port announced on stdout");
    if (daemon.pipe == nullptr || daemon.port == 0)
        return 1;
    const std::string endpoint =
        "127.0.0.1:" + std::to_string(daemon.port);

    // Satellite: a second daemon on the same (now busy) port must die
    // fast with the actionable message, not hang or crash.
    {
        std::string out;
        int rc2 = runCapture("\"" + served + "\" --port " + endpoint +
                                 " 2>&1",
                             out);
        check(rc2 != 0 && rc2 != -1, "second daemon exits nonzero");
        check(out.find("address already in use") != std::string::npos,
              "EADDRINUSE names the busy endpoint");
    }

    // Three concurrent jobs, one per kind, through three concurrent
    // client processes - results must be byte-identical to the
    // one-shot CLI runs above.
    {
        struct LiveJob
        {
            const char *label;
            std::FILE *pipe;
            std::string output;
            int rc = -1;
        };
        std::vector<LiveJob> jobs;
        auto spawn = [&](const char *label, const std::string &args) {
            std::string cmd = "\"" + client + "\" " + endpoint + " " +
                              args + " 2>/dev/null";
            std::printf("+ %s\n", cmd.c_str());
            jobs.push_back({label, popen(cmd.c_str(), "r"), "", -1});
        };
        spawn("attack", "attack \"" + dump_path + "\"");
        spawn("mine", "mine \"" + dump_path + "\"");
        spawn("descramble", "descramble \"" + dump_path + "\" \"" +
                                srv_plain + "\"");
        for (auto &j : jobs) {
            check(j.pipe != nullptr, "client subprocess launched");
            if (j.pipe == nullptr)
                continue;
            char buf[4096];
            size_t n;
            while ((n = std::fread(buf, 1, sizeof(buf), j.pipe)) > 0)
                j.output.append(buf, n);
            j.rc = pclose(j.pipe);
            check(j.rc == 0, j.label);
        }

        check(filterAttack(jobs[0].output) == ref_attack,
              "served attack byte-identical to one-shot CLI");
        check(filterMine(jobs[1].output) == ref_mine,
              "served mine byte-identical to one-shot CLI");
        // The descramble renderings match except the `wrote <path>`
        // line (the two runs target different output files).
        check(lineWithPrefix(jobs[2].output, "descrambled ") ==
                      lineWithPrefix(cli_descramble, "descrambled ") &&
                  !lineWithPrefix(jobs[2].output, "descrambled ")
                       .empty(),
              "served descramble summary identical to CLI");
        check(lineWithPrefix(jobs[2].output, "sha256 ") ==
                      lineWithPrefix(cli_descramble, "sha256 ") &&
                  lineWithPrefix(jobs[2].output, "sha256 ").size() >
                      7,
              "served descramble digest identical to CLI");
        std::string a = readFileBytes(cli_plain);
        std::string b = readFileBytes(srv_plain);
        check(!a.empty() && a == b,
              "descrambled images byte-identical");
    }

    // Every job the daemon retains is done.
    {
        std::string out;
        rc = runCapture("\"" + client + "\" " + endpoint +
                            " list 2>/dev/null",
                        out);
        check(rc == 0, "list request served");
        size_t done = 0, pos = 0;
        while ((pos = out.find(" done ", pos)) != std::string::npos) {
            ++done;
            pos += 6;
        }
        check(done == 3, "list shows all three jobs done");
    }

    // Mid-job cancel: submit async, cancel while the attack runs,
    // and watch the job reach `cancelled`.
    {
        std::string out;
        rc = runCapture("\"" + client + "\" " + endpoint +
                            " attack \"" + slow_path +
                            "\" --async 2>/dev/null",
                        out);
        check(rc == 0 && out.rfind("job ", 0) == 0,
              "async submit prints the job id");
        uint64_t id = std::strtoull(out.c_str() + 4, nullptr, 10);
        rc = runCapture("\"" + client + "\" " + endpoint + " cancel " +
                            std::to_string(id) + " 2>/dev/null",
                        out);
        check(rc == 0 &&
                  out.find("cancel requested") != std::string::npos,
              "cancel accepted while the job was live");

        bool cancelled = false;
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(60);
        while (std::chrono::steady_clock::now() < deadline) {
            rc = runCapture("\"" + client + "\" " + endpoint +
                                " status " + std::to_string(id) +
                                " 2>/dev/null",
                            out);
            if (rc == 0 &&
                out.find(" cancelled ") != std::string::npos) {
                cancelled = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        check(cancelled, "cancelled job reached `cancelled` state");
    }

    // Shutdown under load: another job in flight, then SIGTERM. The
    // daemon drains (cancelling the job), flushes the stats artifact
    // and exits 128+SIGTERM.
    {
        std::string out;
        rc = runCapture("\"" + client + "\" " + endpoint +
                            " attack \"" + slow_path +
                            "\" --async 2>/dev/null",
                        out);
        check(rc == 0, "load job submitted before SIGTERM");
        check(kill(daemon.pid, SIGTERM) == 0, "SIGTERM delivered");

        char line[512];
        int daemon_rc = -1;
        while (std::fgets(line, sizeof(line), daemon.pipe) !=
               nullptr) {
            if (std::strncmp(line, "daemonrc ", 9) == 0)
                daemon_rc = std::atoi(line + 9);
        }
        pclose(daemon.pipe);
        check(daemon_rc == 128 + SIGTERM,
              "daemon exited 128+SIGTERM after the drain");
    }

    // The stats artifact survived the signal path and accounts for
    // every submission: 5 accepted jobs, 3 completed, the cancelled
    // one and the drained one.
    {
        auto doc = obs::json::parseFile(stats_path);
        check(doc.has_value(), "--stats-json artifact parses");
        if (doc) {
            double completed = statValue(*doc, "serve.jobs.completed");
            double cancelled = statValue(*doc, "serve.jobs.cancelled");
            check(statValue(*doc, "serve.jobs.submitted") == 5.0,
                  "serve.jobs.submitted == 5");
            check(completed >= 3.0, "serve.jobs.completed >= 3");
            check(cancelled >= 1.0, "serve.jobs.cancelled >= 1");
            check(completed + cancelled == 5.0,
                  "every accepted job completed or cancelled");
            check(statValue(*doc, "serve.requests") > 0.0,
                  "serve.requests counted");
        }
    }

    // The trace was flushed on the same drain path.
    {
        auto doc = obs::json::parseFile(trace_path);
        check(doc.has_value(), "--trace artifact parses");
        if (doc)
            check(tracecheck::indexTrace(*doc).fields_ok,
                  "trace holds well-formed events");
    }

    std::remove(dump_path.c_str());
    std::remove(slow_path.c_str());
    std::remove(cli_plain.c_str());
    std::remove(srv_plain.c_str());

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_serve: all checks passed\n");
    return 0;
}
