/**
 * @file
 * Pure-ctest smoke test for the live observability plane (no Python,
 * no curl): build a tiny cold-boot dump in-process, run
 * `coldboot-tool attack --serve-obs 127.0.0.1:0` as a subprocess and,
 * while it is live,
 *
 *  - read the announced ephemeral port from its stdout;
 *  - scrape /healthz, /metrics (validated against the in-tree
 *    Prometheus exposition validator, and carrying the pool's
 *    per-worker scalars on the first scrape), /stats and /progress
 *    over raw sockets;
 *  - verify per-job /progress percent is monotonically
 *    non-decreasing across scrapes;
 *  - verify the final scraped /stats counters match the --stats-json
 *    artifact byte-for-value;
 *  - shut the run down via GET /quit (the linger test hook).
 *
 * Then the determinism gate: the attack's key-recovery output must be
 * byte-identical with --serve-obs on vs off, at pool widths 1 and 4
 * (DESIGN.md §9 - observation must not perturb results).
 *
 * Usage: smoke_serve_obs <path-to-coldboot-tool>
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hh"
#include "dram/dram_module.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "platform/coldboot.hh"
#include "platform/machine.hh"
#include "platform/workload.hh"
#include "volume/veracrypt_volume.hh"

using namespace coldboot;
using namespace coldboot::platform;

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

/** A 2 MiB victim dump, mirroring `coldboot-tool simulate-victim`. */
void
writeTinyDump(const std::string &dump_path)
{
    constexpr uint64_t capacity = MiB(2);
    constexpr uint64_t seed = 42;

    Machine victim(cpuModelByName("i5-6400"), BiosConfig{}, 1, seed);
    victim.installDimm(0, std::make_shared<dram::DramModule>(
                              dram::Generation::DDR4, capacity,
                              dram::DecayParams{}, seed + 1));
    victim.boot();
    fillWorkload(victim, {}, seed + 2);

    auto vf = volume::VolumeFile::create("hunter2", 16, seed + 3);
    auto mounted = volume::MountedVolume::mount(
        victim, vf, "hunter2", capacity * 3 / 4 + 16);
    std::vector<uint8_t> secret(volume::sectorBytes, 0);
    std::memcpy(secret.data(), "smoke", 5);
    mounted->writeSector(3, secret);

    BiosConfig attacker_bios;
    attacker_bios.boot_pollution_bytes = KiB(64);
    Machine attacker(cpuModelByName("i5-6600K"), attacker_bios, 1,
                     seed + 4);
    auto cold = coldBootTransfer(victim, attacker, 0);
    cold.dump.saveRaw(dump_path);
}

/** One raw-socket HTTP GET against 127.0.0.1:@p port. */
struct HttpResponse
{
    int status = 0;
    std::string body;
    std::string raw;
};

HttpResponse
httpGet(uint16_t port, const std::string &path)
{
    HttpResponse out;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return out;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                  sizeof(sa)) != 0) {
        ::close(fd);
        return out;
    }
    std::string req = "GET " + path + " HTTP/1.1\r\n"
                      "Host: localhost\r\nConnection: close\r\n\r\n";
    size_t off = 0;
    while (off < req.size()) {
        ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.raw.append(buf, static_cast<size_t>(n));
    ::close(fd);
    if (out.raw.size() > 12 && out.raw.rfind("HTTP/1.1 ", 0) == 0)
        out.status = std::atoi(out.raw.c_str() + 9);
    size_t hdr_end = out.raw.find("\r\n\r\n");
    if (hdr_end != std::string::npos)
        out.body = out.raw.substr(hdr_end + 4);
    return out;
}

/**
 * The deterministic portion of an `attack` run's stdout: the
 * mined/recovered/pair counts (timing figures stripped) and the
 * recovered key material. Everything else - MiB/s, RSS, the stats
 * table, the serve-obs announcement with its random port - is
 * timing- or port-dependent and excluded from the byte comparison.
 */
std::string
filterDeterministic(const std::string &output)
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

bool
fileParses(const std::string &path)
{
    return obs::json::parseFile(path).has_value();
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

void
liveScrapeTest(const std::string &tool, const std::string &dump_path)
{
    const std::string stats_path = "smoke_serve_obs_stats.json";
    std::remove(stats_path.c_str());

    // Long linger so the scrapes below never race tool exit; /quit
    // ends it early, so the test doesn't actually wait this long.
    std::string cmd = "COLDBOOT_SERVE_OBS_LINGER_MS=60000 \"" + tool +
                      "\" attack \"" + dump_path +
                      "\" --serve-obs 127.0.0.1:0 --stats-json \"" +
                      stats_path + "\"";
    std::printf("+ %s\n", cmd.c_str());
    std::FILE *pipe = popen(cmd.c_str(), "r");
    check(pipe != nullptr, "serve-obs subprocess launched");
    if (pipe == nullptr)
        return;

    // The tool announces the resolved ephemeral port on its first
    // stdout line (flushed before the attack starts).
    uint16_t port = 0;
    char line[512];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
        const char *marker = "serving observability on http://127.0.0.1:";
        const char *hit = std::strstr(line, marker);
        if (hit != nullptr) {
            port = static_cast<uint16_t>(
                std::atoi(hit + std::strlen(marker)));
            break;
        }
    }
    check(port != 0, "bound port announced on stdout");
    if (port == 0) {
        pclose(pipe);
        return;
    }

    auto health = httpGet(port, "/healthz");
    check(health.status == 200 && health.body == "ok\n",
          "/healthz live during the attack");

    // Scrape /progress until the --stats-json artifact lands
    // (written after the attack, before the linger loop). Per-job
    // percent must never go backwards between scrapes.
    std::map<uint64_t, double> last_percent;
    bool monotonic = true;
    bool progress_parsed = true;
    int scrapes = 0;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(120);
    while (std::chrono::steady_clock::now() < deadline) {
        auto resp = httpGet(port, "/progress");
        auto doc = obs::json::parse(resp.body);
        if (resp.status != 200 || !doc.has_value()) {
            progress_parsed = false;
            break;
        }
        ++scrapes;
        const auto *jobs = doc->find("jobs");
        if (jobs != nullptr) {
            for (const auto &j : jobs->array) {
                const auto *id = j.find("id");
                const auto *pct = j.find("percent");
                if (id == nullptr || pct == nullptr)
                    continue;
                auto key = static_cast<uint64_t>(id->number);
                auto it = last_percent.find(key);
                if (it != last_percent.end() &&
                    pct->number < it->second)
                    monotonic = false;
                last_percent[key] = pct->number;
            }
        }
        if (fileParses(stats_path))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    check(progress_parsed, "/progress parses on every scrape");
    check(scrapes > 0, "scraped /progress at least once");
    check(monotonic, "/progress percent monotonically non-decreasing");
    check(fileParses(stats_path), "--stats-json artifact written");
    check(!last_percent.empty(), "progress jobs reported");
    // The attack is done (stats flushed): its jobs must read 100%.
    bool all_done = !last_percent.empty();
    {
        auto resp = httpGet(port, "/progress");
        auto doc = obs::json::parse(resp.body);
        const auto *jobs = doc ? doc->find("jobs") : nullptr;
        if (jobs == nullptr) {
            all_done = false;
        } else {
            for (const auto &j : jobs->array)
                all_done = all_done &&
                           j.find("percent")->number == 100.0 &&
                           j.find("finished")->boolean;
        }
    }
    check(all_done, "every job finished at 100%");

    // /metrics must be valid Prometheus text exposition while live.
    // Each scrape mirrors the pool's per-worker scalars first, so
    // the first one after the attack already carries them.
    auto metrics = httpGet(port, "/metrics");
    check(metrics.status == 200, "/metrics answers 200");
    check(metrics.raw.find("text/plain; version=0.0.4") !=
              std::string::npos,
          "/metrics content type is exposition 0.0.4");
    std::string why;
    check(obs::validatePrometheusText(metrics.body, &why),
          "/metrics validates as Prometheus exposition");
    if (!why.empty())
        std::fprintf(stderr, "  validator: %s\n", why.c_str());
    check(metrics.body.find("attack_pipeline_bytes_scanned") !=
              std::string::npos,
          "/metrics carries attack counters");
    check(metrics.body.find("exec_pool_worker_0_tasks_executed") !=
              std::string::npos,
          "/metrics carries per-worker pool scalars");

    // Final scraped counters must match the --stats-json artifact:
    // the attack is finished, so the workload counters are static.
    auto scraped = obs::json::parse(httpGet(port, "/stats").body);
    auto artifact = obs::json::parseFile(stats_path);
    check(scraped.has_value() && artifact.has_value(),
          "final /stats and --stats-json both parse");
    if (scraped && artifact) {
        for (const char *key : {"attack.pipeline.bytes_scanned",
                                "attack.miner.blocks_scanned",
                                "attack.miner.litmus_hits",
                                "attack.search.blocks_scanned"}) {
            double live = statValue(*scraped, key);
            double file = statValue(*artifact, key);
            bool same = live >= 0.0 && live == file;
            if (!same)
                std::fprintf(stderr, "  %s: scraped %f vs file %f\n",
                             key, live, file);
            check(same, key);
        }
    }

    // End the linger via the /quit hook and reap the subprocess.
    auto quit = httpGet(port, "/quit");
    check(quit.status == 200, "GET /quit acknowledged");
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    }
    int rc = pclose(pipe);
    // 0 = keys recovered, 1 = none found; both are orderly exits.
    check(rc == 0 || rc == 1 * 256, "tool exited cleanly after /quit");
}

void
determinismTest(const std::string &tool, const std::string &dump_path)
{
    struct Variant
    {
        const char *label;
        std::string cmd;
    };
    const std::string base = "\"" + tool + "\" attack \"" + dump_path +
                             "\"";
    // Serve-obs after and before the command (the flag is accepted
    // at any position); port 0 keeps parallel ctest runs from
    // colliding.
    std::vector<Variant> variants = {
        {"threads=1 serve=off", base + " --threads 1"},
        {"threads=1 serve=on",
         base + " --threads 1 --serve-obs 127.0.0.1:0"},
        {"threads=4 serve=off", base + " --threads 4"},
        {"threads=4 serve=on",
         "\"" + tool + "\" --serve-obs 127.0.0.1:0 attack \"" +
             dump_path + "\" --threads 4"},
    };

    std::string reference;
    for (const auto &v : variants) {
        std::printf("+ %s\n", v.cmd.c_str());
        std::string output;
        int rc = runCapture(v.cmd, output);
        check(rc == 0 || rc == 1 * 256, v.label);
        std::string filtered = filterDeterministic(output);
        check(!filtered.empty(), "attack output non-empty");
        if (reference.empty()) {
            reference = filtered;
            continue;
        }
        bool same = filtered == reference;
        if (!same)
            std::fprintf(stderr,
                         "  [%s] diverged:\n--- reference\n%s--- got\n"
                         "%s",
                         v.label, reference.c_str(), filtered.c_str());
        check(same, "attack results byte-identical to reference");
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: smoke_serve_obs <coldboot-tool>\n");
        return 2;
    }
    std::string tool = argv[1];
    std::string dump_path = "smoke_serve_obs_dump.img";
    writeTinyDump(dump_path);

    liveScrapeTest(tool, dump_path);
    determinismTest(tool, dump_path);

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("smoke_serve_obs: all checks passed\n");
    return 0;
}
