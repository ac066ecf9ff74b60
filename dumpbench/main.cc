/**
 * @file
 * dumpbench: the dump-to-keys benchmark binary (run.py drives it).
 *
 *   dumpbench gen --workload W --seed S --dir D
 *       make W's captures from S into D, several times (median set-up)
 *   dumpbench run --workload W --seed S --dir D --seconds N --trace T
 *       measure W for N seconds; T=0 reports the end-to-end metrics,
 *       T=1 the per-layer ones. The last stdout line is the JSON
 *       result; the exit code is 1 when any check failed.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture.hh"
#include "common/hex.hh"
#include "common/logging.hh"
#include "crypto/sha256.hh"
#include "simd/simd.hh"
#include "workloads.hh"

using namespace dumpbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** BENCHMARK.json's end_to_end list (run.py checks they agree). */
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},      {"ops_per_s", "1/s"},
    {"recovered_frac", "frac"}, {"ok_frac", "frac"},
    {"peak_rss_mib", "MiB"},
};

/** BENCHMARK.json's per_layer list. */
const MetricDef kPerLayer[] = {
    {"attack.search.s", "s"},
    {"attack.search.attempts", "count"},
    {"attack.search.attempts_per_s", "1/s"},
    {"attack.search.litmus_hits", "count"},
    {"attack.search.hits_per_attempt", "ratio"},
    {"attack.search.reconstructions_tried", "count"},
    {"attack.search.reconstructions_verified", "count"},
    {"attack.miner.s", "s"},
    {"attack.miner.mib_s", "MiB/s"},
    {"attack.miner.blocks", "count"},
    {"attack.miner.litmus_hits", "count"},
    {"attack.miner.clusters", "count"},
    {"attack.miner.keys", "count"},
    {"attack.miner.keys_per_hit", "ratio"},
    {"attack.pair.pairs", "count"},
    {"attack.pair.wrong", "count"},
    {"exec.pool.mine.tasks", "count"},
    {"exec.pool.mine.steals", "count"},
    {"exec.pool.mine.busy_frac", "frac"},
    {"exec.pool.search.tasks", "count"},
    {"exec.pool.search.steals", "count"},
    {"exec.pool.search.busy_frac", "frac"},
    {"exec.pool.batch.tasks", "count"},
    {"exec.pool.batch.steals", "count"},
    {"exec.pool.batch.busy_frac", "frac"},
    {"exec.dump_io.open_s", "s"},
    {"exec.dump_io.read_gib_s", "GiB/s"},
    {"simd.litmus64_gib_s", "GiB/s"},
    {"simd.xor_popcount_gib_s", "GiB/s"},
    {"serve.protocol.submit_ms", "ms"},
    {"serve.scheduler.queue_ms", "ms"},
    {"serve.session_ms", "ms"},
    {"platform.victim_s", "s"},
    {"platform.transfer_s", "s"},
    {"platform.decay_pct", "%"},
    {"platform.bits_flipped", "count"},
    {"roofline.mine_gib_s", "GiB/s"},
    {"roofline.mine_vs_litmus", "ratio"},
    {"roofline.mine_vs_read", "ratio"},
    {"roofline.search_attempt_gib_s", "GiB/s"},
    {"roofline.search_vs_xor_popcount", "ratio"},
    {"span.bench.self_s", "s"},
    {"span.exec.dump_io.self_s", "s"},
    {"span.attack.miner.self_s", "s"},
    {"span.attack.search.self_s", "s"},
    {"span.attack.pair.self_s", "s"},
    {"span.serve.submit.self_s", "s"},
    {"span.serve.result.self_s", "s"},
    {"span.serve.status.self_s", "s"},
    {"span.cover_frac", "frac"},
    {"trace.overhead_ms", "ms"},
    {"exact.comparisons", "count"},
    {"exact.mismatches", "count"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: dumpbench gen --workload W --seed S --dir D\n"
                 "       dumpbench run --workload W --seed S --dir D "
                 "--seconds N --trace 0|1\n");
    return 2;
}

/**
 * One worker fewer than the CPUs this process may run on, at most 4.
 * The spare CPU keeps the benchmark's own threads and the rest of the
 * system off the workers. e4_attack's search is four 1 MiB tasks: at
 * 4 workers on 4 CPUs the task whose CPU is shared sets the attack's
 * time (11-15 s on one capture, minutes apart), while at 3 workers
 * the fourth task evens it out (19-21 s).
 */
unsigned
poolWidth()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int n = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                        : 1;
    return static_cast<unsigned>(std::clamp(n - 1, 1, 4));
}

/**
 * SHA-256 prefix of this binary. It links the program under test from
 * source, so any change to the program (or to the benchmark) changes
 * it.
 */
std::string
buildDigest()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read /proc/self/exe");
    coldboot::crypto::Sha256 sha;
    std::vector<char> buf(1 << 20);
    while (in.read(buf.data(), buf.size()) || in.gcount() > 0)
        sha.update({reinterpret_cast<const uint8_t *>(buf.data()),
                    static_cast<size_t>(in.gcount())});
    auto d = sha.finish();
    return coldboot::toHex({d.data(), 8});
}

/**
 * The exact counts of one seed under one build are recorded by its
 * first run in the work directory; every later run of the seed by the
 * same build must repeat them. A rebuilt program starts a fresh
 * record, since a change may rightly move the counts.
 */
void
compareWithRecord(const Truth &t, RunResult &r, const std::string &dir)
{
    if (r.counts.empty())
        return;
    std::ostringstream now;
    now << "build " << buildDigest() << "\n";
    const std::string build = now.str();
    for (const auto &[name, value] : r.counts)
        now << name << " " << value << "\n";
    now << "platform.bits_flipped " << t.bits_flipped << "\n"
        << "key_digest " << r.key_digest << "\n";
    const std::string path = dir + "/counts.txt";
    std::stringstream before;
    if (std::ifstream in(path); in)
        before << in.rdbuf();
    if (before.str().rfind(build, 0) == 0) {
        r.metrics["exact.comparisons"] += 1;
        if (before.str() != now.str()) {
            r.metrics["exact.mismatches"] += 1;
            r.fail("exact counts differ from the first run of this "
                   "seed by this build (" + path + ")");
        }
        return;
    }
    std::ofstream out(path);
    out << now.str();
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
report(const Truth &t, const RunConfig &cfg, RunResult &r)
{
    std::printf("dumpbench %s seed %llu: %.0f s window, pool width %u, "
                "simd %s, %s\n",
                t.workload.c_str(),
                static_cast<unsigned long long>(t.seed), cfg.seconds,
                cfg.width,
                coldboot::simd::backendName(
                    coldboot::simd::activeBackend()),
                cfg.trace ? "traced" : "untraced");
    for (const auto &n : r.notes)
        std::printf("  %s\n", n.c_str());
    for (const auto &[name, value] : r.counts)
        std::printf("  exact %-40s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    if (!r.key_digest.empty())
        std::printf("  exact key_digest %s\n", r.key_digest.c_str());

    std::string json = "{\"correct\": ";
    json += r.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef &m) {
        double v = r.metrics.count(m.name) ? r.metrics[m.name] : 0.0;
        std::printf("  %-40s %14.6g %s\n", m.name, v, m.unit);
        json += first ? "" : ", ";
        first = false;
        json += std::string("\"") + m.name + "\": {\"value\": " +
                jsonNumber(v) + ", \"unit\": \"" + m.unit + "\"}";
    };
    if (cfg.trace)
        for (const auto &m : kPerLayer)
            emit(m);
    else
        for (const auto &m : kEndToEnd)
            emit(m);
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    std::map<std::string, std::string> opt;
    for (int i = 2; i + 1 < argc; i += 2)
        opt[argv[i]] = argv[i + 1];
    auto need = [&](const char *k) -> const std::string & {
        static const std::string empty;
        auto it = opt.find(k);
        return it == opt.end() ? empty : it->second;
    };
    const std::string &workload = need("--workload");
    const std::string &dir = need("--dir");
    if (!knownWorkload(workload) || dir.empty() || need("--seed").empty())
        return usage();
    uint64_t seed = std::strtoull(need("--seed").c_str(), nullptr, 10);
    // Per-stage progress lines would only time the terminal.
    coldboot::setLogLevel(coldboot::LogLevel::Warn);

    try {
        if (cmd == "gen") {
            Truth t = generate(workload, seed, dir);
            std::fprintf(stderr,
                         "dumpbench: %s seed %llu set up in %.3f s "
                         "(median)\n",
                         workload.c_str(),
                         static_cast<unsigned long long>(seed), t.setup_s);
            return 0;
        }
        if (cmd != "run" || need("--seconds").empty())
            return usage();
        Truth t = readTruth(dir);
        if (t.workload != workload || t.seed != seed)
            throw std::runtime_error("work directory holds another "
                                     "workload or seed");
        RunConfig cfg;
        cfg.dir = dir;
        cfg.seconds = std::atof(need("--seconds").c_str());
        cfg.trace = need("--trace") == "1";
        cfg.width = poolWidth();
        RunResult r = runWorkload(t, cfg);
        compareWithRecord(t, r, dir);
        report(t, cfg, r);
        return r.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dumpbench: %s\n", e.what());
        return 1;
    }
}
