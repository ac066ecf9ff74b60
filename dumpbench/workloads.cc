#include "workloads.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "attack/aes_search.hh"
#include "attack/attack_pipeline.hh"
#include "attack/key_miner.hh"
#include "common/hex.hh"
#include "crypto/sha256.hh"
#include "crypto/xts.hh"
#include "exec/dump_io.hh"
#include "exec/thread_pool.hh"
#include "obs/bench.hh"
#include "obs/trace.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "simd/simd.hh"
#include "util.hh"
#include "volume/veracrypt_volume.hh"

namespace dumpbench
{

using namespace coldboot;

void
RunResult::fail(const std::string &why)
{
    correct = false;
    notes.push_back("FAIL: " + why);
}

namespace
{

using obs::bench::median;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Pool counters and process CPU time at one instant. */
struct PoolMark
{
    uint64_t tasks = 0;
    uint64_t steals = 0;
    double cpu_s = 0.0;
    Clock::time_point at;
};

PoolMark
poolMark(const exec::ThreadPool &pool)
{
    auto st = pool.stats();
    return {st.tasksExecuted(), st.steals(), processCpuSeconds(),
            Clock::now()};
}

/** What one stage asked of the pool between two marks. */
struct PoolUse
{
    uint64_t tasks = 0;
    uint64_t steals = 0;
    /**
     * Process CPU seconds over (pool width x stage wall seconds): the
     * share of the pool's cores the stage kept busy. (The pool's own
     * idle time is only booked when a parked worker wakes, so it
     * cannot be cut at stage boundaries.)
     */
    double busy_frac = 0.0;
};

PoolUse
poolUse(const PoolMark &a, const PoolMark &b, unsigned width)
{
    PoolUse u;
    u.tasks = b.tasks - a.tasks;
    u.steals = b.steals - a.steals;
    double wall = std::chrono::duration<double>(b.at - a.at).count();
    if (wall > 0.0)
        u.busy_frac = (b.cpu_s - a.cpu_s) / (width * wall);
    return u;
}

/** The first 16 hex digits of SHA-256 over keys, in result order. */
class KeyDigest
{
  public:
    void
    add(const std::vector<attack::MinedKey> &mined)
    {
        for (const auto &k : mined)
            sha_.update(k.key);
    }

    void
    add(const std::vector<attack::RecoveredXtsKeys> &pairs)
    {
        for (const auto &p : pairs) {
            sha_.update(p.data_key);
            sha_.update(p.tweak_key);
        }
    }

    std::string
    finish()
    {
        auto d = sha_.finish();
        return toHex({d.data(), 8});
    }

  private:
    crypto::Sha256 sha_;
};

bool
isPlanted(const attack::RecoveredXtsKeys &p, const Key64 &master)
{
    return p.data_key.size() == 32 && p.tweak_key.size() == 32 &&
           std::memcmp(p.data_key.data(), master.data(), 32) == 0 &&
           std::memcmp(p.tweak_key.data(), master.data() + 32, 32) == 0;
}

/**
 * The tail latency: p95 when a run has at least 200 operations, so
 * that ten or more lie beyond it (every served_decay run has several
 * hundred jobs), else the slowest operation. The percentile is fixed
 * rather than the highest one with ten beyond, which would move with
 * the job count and make runs incomparable.
 */
double
tailOf(std::vector<double> v, std::string *label)
{
    const std::string n = std::to_string(v.size());
    std::sort(v.begin(), v.end());
    if (v.size() >= 200) {
        *label = "p95 of " + n;
        return obs::bench::percentile(v, 95.0);
    }
    *label = "max of " + n;
    return v.empty() ? 0.0 : v.back();
}

/**
 * Run @p op back to back for about @p seconds: another op starts
 * only while it is projected to end within half an op of the window.
 * Always runs at least once.
 */
template <typename Fn>
double
timedLoop(double seconds, Fn &&op)
{
    auto t0 = Clock::now();
    std::vector<double> took;
    do {
        auto t = Clock::now();
        op();
        took.push_back(secondsSince(t));
    } while (secondsSince(t0) + 0.5 * median(took) < seconds);
    return secondsSince(t0);
}

/** GiB/s of @p kernel over every 64-byte block, for >= 0.2 s. */
template <typename Kernel>
double
kernelGiBs(std::span<const uint8_t> bytes, Kernel &&kernel,
           uint64_t &sink)
{
    auto t0 = Clock::now();
    double swept = 0.0;
    do {
        for (size_t off = 0; off + 64 <= bytes.size(); off += 64)
            sink += kernel(&bytes[off]);
        swept += static_cast<double>(bytes.size());
    } while (secondsSince(t0) < 0.2);
    return swept / kGiB / secondsSince(t0);
}

/** Sequential chunk() sweep over the dump file, for >= 0.2 s. */
double
chunkSweepGiBs(const std::string &path, uint64_t &sink)
{
    auto dump = exec::openDumpSource(path);
    exec::ChunkBuffer buf;
    constexpr uint64_t kChunk = 1ull << 20;
    auto t0 = Clock::now();
    double swept = 0.0;
    do {
        for (uint64_t off = 0; off < dump->size(); off += kChunk) {
            auto v = dump->chunk(
                off, std::min<uint64_t>(kChunk, dump->size() - off),
                buf);
            for (size_t i = 0; i + 8 <= v.size(); i += 8) {
                uint64_t w;
                std::memcpy(&w, &v[i], 8);
                sink ^= w;
            }
        }
        swept += static_cast<double>(dump->size());
    } while (secondsSince(t0) < 0.2);
    return swept / kGiB / secondsSince(t0);
}

/** The dispatched SIMD kernels, timed on one capture's own bytes. */
void
kernelRates(const std::string &path, RunResult &res)
{
    auto bytes = readFile(path);
    if (bytes.size() < 64)
        throw std::runtime_error("capture too small: " + path);
    std::span<const uint8_t> view(bytes);
    const uint8_t *key = bytes.data();
    uint64_t sink = 0;
    res.metrics["simd.litmus64_gib_s"] = kernelGiBs(
        view, [](const uint8_t *b) { return simd::scramblerLitmusScore64(b); },
        sink);
    res.metrics["simd.xor_popcount_gib_s"] = kernelGiBs(
        view,
        [key](const uint8_t *b) { return simd::hammingDistance(b, key, 64); },
        sink);
    res.metrics["exec.dump_io.read_gib_s"] = chunkSweepGiBs(path, sink);
    // Keeps the sweeps observable to the optimiser.
    res.notes.push_back("kernel checksum " + std::to_string(sink & 0xff));
}

/**
 * One pass through the calls AttackSession makes: open, mine, and for
 * a full attack search and pair. Each call is a span under one root
 * span, the operation, on @p tracer.
 */
struct AttackRecord
{
    double total_s = 0.0;
    double open_s = 0.0;
    double mine_s = 0.0;
    double search_s = 0.0;
    uint64_t mine_bytes = 0;
    attack::MinerStats ms;
    attack::SearchStats ss;
    std::vector<attack::MinedKey> mined;
    std::vector<attack::RecoveredXtsKeys> pairs;
    PoolUse mine_pool;
    PoolUse search_pool;
    std::string digest;
};

AttackRecord
attackOnce(const std::string &path, exec::ThreadPool &pool,
           obs::PhaseTracer &tracer, bool search = true)
{
    AttackRecord r;
    obs::ScopedSpan root("bench", tracer);
    auto t0 = Clock::now();
    std::unique_ptr<exec::DumpSource> dump;
    {
        obs::ScopedSpan s("exec.dump_io", tracer);
        dump = exec::openDumpSource(path);
    }
    r.open_s = secondsSince(t0);
    attack::MinerParams miner;
    r.mine_bytes = std::min(dump->size(), miner.scan_limit_bytes) & ~63ull;

    auto m0 = poolMark(pool);
    {
        obs::ScopedSpan s("attack.miner", tracer);
        r.mined = attack::mineScramblerKeys(*dump, miner, &r.ms);
    }
    auto m1 = poolMark(pool);
    auto m2 = m1;
    if (search) {
        std::vector<attack::RecoveredAesKey> found;
        {
            obs::ScopedSpan s("attack.search", tracer);
            found = attack::searchAesKeyTables(*dump, r.mined, {}, &r.ss);
        }
        m2 = poolMark(pool);
        obs::ScopedSpan s("attack.pair", tracer);
        r.pairs = attack::pairXtsKeys(found);
    }
    r.total_s = secondsSince(t0);
    r.mine_s = std::chrono::duration<double>(m1.at - m0.at).count();
    r.search_s = std::chrono::duration<double>(m2.at - m1.at).count();
    r.mine_pool = poolUse(m0, m1, pool.workerCount());
    r.search_pool = poolUse(m1, m2, pool.workerCount());
    KeyDigest digest;
    digest.add(r.mined);
    digest.add(r.pairs);
    r.digest = digest.finish();
    return r;
}

std::map<std::string, uint64_t>
attackCounts(const AttackRecord &r)
{
    return {{"attack.miner.blocks", r.ms.blocks_scanned},
            {"attack.miner.litmus_hits", r.ms.litmus_hits},
            {"attack.miner.clusters", r.ms.clusters},
            {"attack.miner.keys", r.ms.keys_reported},
            {"attack.search.attempts", r.ss.descramble_attempts},
            {"attack.search.litmus_hits", r.ss.litmus_hits},
            {"attack.search.reconstructions_tried",
             r.ss.reconstructions_tried},
            {"attack.search.reconstructions_verified",
             r.ss.reconstructions_verified},
            {"attack.pair.pairs", r.pairs.size()}};
}

/** Compare one operation's counts and digest with the reference. */
void
checkRepeat(RunResult &res, const std::map<std::string, uint64_t> &counts,
            const std::string &digest, const char *what)
{
    res.metrics["exact.comparisons"] += 1;
    if (counts != res.counts || digest != res.key_digest) {
        res.metrics["exact.mismatches"] += 1;
        res.fail(std::string("exact counts or key digest differ ") + what);
    }
}

/** The first operation's counts become the reference; later ones must
 *  match it. */
void
recordCounts(RunResult &res, const std::map<std::string, uint64_t> &counts,
             const std::string &digest, const char *what)
{
    if (res.counts.empty()) {
        res.counts = counts;
        res.key_digest = digest;
    } else {
        checkRepeat(res, counts, digest, what);
    }
}

/** Per-layer figures of the attack stages, from a set of passes. */
void
attackLayerMetrics(const std::vector<AttackRecord> &recs, bool per_pass,
                   RunResult &res)
{
    std::vector<double> open, mine, search, mine_busy, search_busy;
    double mine_bytes = 0, mine_total = 0, search_total = 0;
    uint64_t mine_tasks = 0, mine_steals = 0, search_tasks = 0,
             search_steals = 0;
    attack::MinerStats ms;
    attack::SearchStats ss;
    uint64_t pairs = 0;
    for (const auto &r : recs) {
        open.push_back(r.open_s);
        mine.push_back(r.mine_s);
        search.push_back(r.search_s);
        mine_busy.push_back(r.mine_pool.busy_frac);
        search_busy.push_back(r.search_pool.busy_frac);
        mine_bytes += static_cast<double>(r.mine_bytes);
        mine_total += r.mine_s;
        search_total += r.search_s;
        mine_tasks += r.mine_pool.tasks;
        mine_steals += r.mine_pool.steals;
        search_tasks += r.search_pool.tasks;
        search_steals += r.search_pool.steals;
        ms.blocks_scanned += r.ms.blocks_scanned;
        ms.litmus_hits += r.ms.litmus_hits;
        ms.clusters += r.ms.clusters;
        ms.keys_reported += r.ms.keys_reported;
        ss.descramble_attempts += r.ss.descramble_attempts;
        ss.litmus_hits += r.ss.litmus_hits;
        ss.reconstructions_tried += r.ss.reconstructions_tried;
        ss.reconstructions_verified += r.ss.reconstructions_verified;
        pairs += r.pairs.size();
    }
    // Counts are per pass over one capture (e4_attack), or summed over
    // the capture set (served_decay), where each capture runs once.
    const double scale =
        per_pass ? 1.0 / static_cast<double>(recs.size()) : 1.0;
    auto count = [scale](uint64_t v) {
        return static_cast<double>(v) * scale;
    };
    auto &m = res.metrics;
    m["attack.miner.s"] = median(mine);
    m["attack.miner.mib_s"] = mine_total > 0 ? mine_bytes / kMiB / mine_total : 0;
    m["attack.miner.blocks"] = count(ms.blocks_scanned);
    m["attack.miner.litmus_hits"] = count(ms.litmus_hits);
    m["attack.miner.clusters"] = count(ms.clusters);
    m["attack.miner.keys"] = count(ms.keys_reported);
    m["attack.miner.keys_per_hit"] =
        ms.litmus_hits ? static_cast<double>(ms.keys_reported) /
                             static_cast<double>(ms.litmus_hits)
                       : 0.0;
    m["attack.search.s"] = median(search);
    m["attack.search.attempts"] = count(ss.descramble_attempts);
    m["attack.search.attempts_per_s"] =
        search_total > 0 ? static_cast<double>(ss.descramble_attempts) /
                               search_total
                         : 0.0;
    m["attack.search.litmus_hits"] = count(ss.litmus_hits);
    m["attack.search.hits_per_attempt"] =
        ss.descramble_attempts
            ? static_cast<double>(ss.litmus_hits) /
                  static_cast<double>(ss.descramble_attempts)
            : 0.0;
    m["attack.search.reconstructions_tried"] =
        count(ss.reconstructions_tried);
    m["attack.search.reconstructions_verified"] =
        count(ss.reconstructions_verified);
    m["attack.pair.pairs"] = count(pairs);
    m["exec.pool.mine.tasks"] = count(mine_tasks);
    m["exec.pool.mine.steals"] = count(mine_steals);
    m["exec.pool.mine.busy_frac"] = median(mine_busy);
    m["exec.pool.search.tasks"] = count(search_tasks);
    m["exec.pool.search.steals"] = count(search_steals);
    m["exec.pool.search.busy_frac"] = median(search_busy);
    m["exec.dump_io.open_s"] = median(open);
    m["roofline.mine_gib_s"] =
        mine_total > 0 ? mine_bytes / kGiB / mine_total : 0.0;
    m["roofline.search_attempt_gib_s"] =
        search_total > 0 ? static_cast<double>(ss.descramble_attempts) *
                               64.0 / kGiB / search_total
                         : 0.0;
}

/** Roofline ratios: each stage's rate beside its kernel and I/O rate. */
void
rooflineRatios(RunResult &res)
{
    auto &m = res.metrics;
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m["roofline.mine_vs_litmus"] =
        ratio(m["roofline.mine_gib_s"], m["simd.litmus64_gib_s"]);
    m["roofline.mine_vs_read"] =
        ratio(m["roofline.mine_gib_s"], m["exec.dump_io.read_gib_s"]);
    m["roofline.search_vs_xor_popcount"] =
        ratio(m["roofline.search_attempt_gib_s"],
              m["simd.xor_popcount_gib_s"]);
}

/**
 * Span self times per operation and the share the layers cover. The
 * root spans are the operations; a span's self time is its duration
 * less its children's, which run one after another on its thread.
 */
void
spanMetrics(const obs::PhaseTracer &tracer, RunResult &res)
{
    static const char *const kLayers[] = {
        "bench",         "exec.dump_io",  "attack.miner",
        "attack.search", "attack.pair",   "serve.submit",
        "serve.result",  "serve.status"};
    std::vector<obs::TraceEvent> spans;
    for (auto &e : tracer.events())
        if (e.phase == obs::TraceEvent::Phase::Complete)
            spans.push_back(std::move(e));
    std::map<uint64_t, double> child_us;
    for (const auto &s : spans)
        if (s.parent != 0)
            child_us[s.parent] += s.dur_us;
    std::map<std::string, double> self_us;
    double root_us = 0.0, ops = 0.0;
    for (const auto &s : spans) {
        self_us[s.name] += s.dur_us - child_us[s.id];
        if (s.parent == 0) {
            root_us += s.dur_us;
            ops += 1.0;
        }
    }
    for (const char *layer : kLayers)
        res.metrics[std::string("span.") + layer + ".self_s"] =
            ops > 0 ? self_us[layer] * 1e-6 / ops : 0.0;
    res.metrics["span.cover_frac"] =
        root_us > 0 ? (root_us - self_us["bench"]) / root_us : 0.0;
}

void
platformMetrics(const Truth &t, RunResult &res)
{
    res.metrics["platform.victim_s"] = t.victim_s;
    res.metrics["platform.transfer_s"] = t.transfer_s;
    res.metrics["platform.decay_pct"] = t.decay_pct;
    res.metrics["platform.bits_flipped"] =
        static_cast<double>(t.bits_flipped);
}

/** End-to-end figures from a set of operation latencies. */
void
opMetrics(const std::vector<double> &lat_s, double wall_s,
          RunResult &res, const char *unit_name)
{
    std::vector<double> ms;
    for (double s : lat_s)
        ms.push_back(s * 1e3);
    std::string label;
    res.metrics["op_p50_ms"] = median(ms);
    res.metrics["op_tail_ms"] = tailOf(ms, &label);
    res.metrics["ops_per_s"] =
        wall_s > 0 ? static_cast<double>(lat_s.size()) / wall_s : 0.0;
    res.notes.push_back(std::string("op_tail_ms is the ") + label + " " +
                        unit_name);
}

/**
 * e4_attack and e3_mine: back-to-back passes over one capture for the
 * window. @p check verifies a pass against the truth and may add to
 * its exact counts. A traced run alternates untraced and traced
 * passes, in pairs whose order also alternates, so that host drift
 * and warm-up cancel in the overhead; then it repeats one pass on a
 * one-worker pool, which must give the same counts and keys
 * (DESIGN.md section 9).
 */
template <typename Check>
void
runPasses(const Truth &t, const RunConfig &cfg, const std::string &path,
          bool search, const char *unit_name, RunResult &res,
          Check &&check)
{
    exec::ThreadPool pool(cfg.width);
    exec::ThreadPool::ScopedGlobalOverride global(pool);
    obs::PhaseTracer off, on;
    off.setEnabled(false);
    auto pass = [&](exec::ThreadPool &p, obs::PhaseTracer &tracer,
                    const char *what) {
        AttackRecord r = attackOnce(path, p, tracer, search);
        ++res.attempted;
        auto counts = attackCounts(r);
        check(r, counts, what);
        recordCounts(res, counts, r.digest, what);
        return r;
    };
    platformMetrics(t, res);

    if (!cfg.trace) {
        std::vector<double> lat;
        double wall = timedLoop(cfg.seconds, [&] {
            lat.push_back(pass(pool, off, "a pass").total_s);
        });
        opMetrics(lat, wall, res, unit_name);
        return;
    }

    std::vector<AttackRecord> traced;
    std::vector<double> overhead_ms;
    timedLoop(cfg.seconds, [&] {
        const bool traced_first = overhead_ms.size() % 2 == 1;
        if (traced_first)
            traced.push_back(pass(pool, on, "a traced pass"));
        double untraced_s = pass(pool, off, "an untraced pass").total_s;
        if (!traced_first)
            traced.push_back(pass(pool, on, "a traced pass"));
        overhead_ms.push_back((traced.back().total_s - untraced_s) * 1e3);
    });
    res.metrics["trace.overhead_ms"] = median(overhead_ms);
    res.notes.push_back("trace.overhead_ms is the median of " +
                        std::to_string(overhead_ms.size()) +
                        " traced-minus-untraced pairs");
    attackLayerMetrics(traced, true, res);
    spanMetrics(on, res);
    on.writeTraceFile(cfg.dir + "/trace.json");
    kernelRates(path, res);
    rooflineRatios(res);

    exec::ThreadPool one(1);
    exec::ThreadPool::ScopedGlobalOverride serial(one);
    pass(one, off, "the width-1 pass");
}

RunResult
runE4(const Truth &t, const RunConfig &cfg)
{
    RunResult res;
    if (t.xts.size() != 1)
        throw std::runtime_error("e4_attack: expected one planted pair");
    const PlantedXts &planted = t.xts[0];
    const auto vol = readFile(cfg.dir + "/" + t.volume);
    const uint64_t ct_off =
        volume::headerBytes + t.sector * volume::sectorBytes;
    if (ct_off + volume::sectorBytes > vol.size() ||
        t.secret.size() != volume::sectorBytes)
        throw std::runtime_error("e4_attack: bad volume or secret");

    // As coldboot-tool decrypt: the recovered pair must open the
    // planted sector, and no other pair may come back.
    uint64_t recovered = 0;
    auto check = [&](const AttackRecord &r, auto &, const char *what) {
        bool got = false, wrong = false;
        for (const auto &p : r.pairs) {
            if (!isPlanted(p, planted.master)) {
                wrong = true;
                continue;
            }
            crypto::XtsAes xts(p.data_key, p.tweak_key);
            std::vector<uint8_t> plain(volume::sectorBytes);
            xts.decryptSector(t.sector, {&vol[ct_off], volume::sectorBytes},
                              plain);
            if (plain == t.secret)
                got = true;
            else
                wrong = true;
        }
        if (wrong) {
            ++res.wrong;
            res.fail(std::string("wrong XTS pair or failed decrypt in ") +
                     what);
        }
        if (got)
            ++recovered;
        else
            res.fail(std::string("planted XTS pair not recovered in ") +
                     what);
    };
    runPasses(t, cfg, cfg.dir + "/" + planted.capture, true, "attacks",
              res, check);
    res.metrics["recovered_frac"] =
        static_cast<double>(recovered) / static_cast<double>(res.attempted);
    return res;
}

RunResult
runE3(const Truth &t, const RunConfig &cfg)
{
    RunResult res;
    if (t.line_keys.size() != 4096)
        throw std::runtime_error("e3_mine: truth needs 4096 line keys");

    // As bench_key_mining scores it: how many of the 4096 line keys
    // are among the mined keys, exactly. The E3 shape is that the
    // 16 MiB scan mines them all, but on about one seed in eight one
    // key comes out a bit off (near-zero heap lines sway its majority
    // vote), so the check allows 8 keys (0.2 %) to be missing.
    constexpr size_t kMissingKeysAllowed = 8;
    size_t exact = 0;
    auto check = [&](const AttackRecord &r, auto &counts, const char *what) {
        std::set<Key64> mined;
        for (const auto &k : r.mined)
            mined.insert(k.key);
        exact = 0;
        for (const auto &k : t.line_keys)
            exact += mined.count(k);
        counts["attack.miner.keys_exact"] = exact;
        if (exact + kMissingKeysAllowed < t.line_keys.size())
            res.fail("mined " + std::to_string(exact) +
                     " of 4096 true keys in " + what);
    };
    runPasses(t, cfg, cfg.dir + "/" + t.capture, false, "mining runs", res,
              check);
    res.metrics["recovered_frac"] =
        static_cast<double>(exact) / static_cast<double>(t.line_keys.size());
    return res;
}

//
// served_decay
//

using HexPairs = std::vector<std::pair<std::string, std::string>>;

/** Outcome of one served or one-shot attack on a served capture. */
enum Outcome : int { kMissed = 0, kRecovered = 1, kWrong = 2 };

/** kWrong when any pair is not the planted one, else whether the
 *  planted pair came back. */
Outcome
outcomeOf(const HexPairs &pairs, const Key64 &master)
{
    const std::string data = toHex({master.data(), 32});
    const std::string tweak = toHex({master.data() + 32, 32});
    Outcome out = kMissed;
    for (const auto &[d, tw] : pairs) {
        if (d != data || tw != tweak)
            return kWrong;
        out = kRecovered;
    }
    return out;
}

/** Parse the rendered attack result into (data, tweak) hex pairs. */
HexPairs
renderedPairs(const std::string &text)
{
    HexPairs pairs;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("  data : ", 0) == 0)
            pairs.emplace_back(line.substr(9), "");
        else if (line.rfind("  tweak: ", 0) == 0 && !pairs.empty())
            pairs.back().second = line.substr(9);
    }
    return pairs;
}

struct JobSample
{
    double latency_s = 0.0;
    double submit_s = 0.0;
    /** JobStatus.elapsed_ms (traced jobs only; -1 otherwise). */
    double session_ms = -1.0;
};

class ServedBatch
{
  public:
    ServedBatch(const Truth &t, const RunConfig &cfg, uint16_t port,
                RunResult &res)
        : t_(t), cfg_(cfg), port_(port), res_(res),
          outcome_(t.xts.size(), -1)
    {
    }

    /**
     * Three closed-loop clients for @p seconds; jobs cycle through
     * the captures in submission order. Returns the batch wall time.
     */
    double
    run(double seconds, obs::PhaseTracer &tracer,
        std::vector<JobSample> &samples, uint64_t &recovered)
    {
        constexpr unsigned kClients = 3;
        auto t0 = Clock::now();
        auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kClients; ++c)
            clients.emplace_back([&, c] {
                clientLoop(c, deadline, tracer, samples, recovered);
            });
        for (auto &th : clients)
            th.join();
        return secondsSince(t0);
    }

    /** Outcome per capture; -1 if never served. */
    const std::vector<int> &outcomes() const { return outcome_; }

    /** Captures on which a wrong pair came back. */
    const std::set<std::string> &wrongCaptures() const
    {
        return wrong_captures_;
    }

  private:
    void
    clientLoop(unsigned c, Clock::time_point deadline,
               obs::PhaseTracer &tracer, std::vector<JobSample> &samples,
               uint64_t &recovered)
    {
        serve::JobClient client;
        std::string error;
        if (!client.connect("127.0.0.1", port_, &error)) {
            std::lock_guard<std::mutex> lk(mu_);
            ++res_.attempted;
            ++res_.failed;
            res_.fail("client cannot connect: " + error);
            return;
        }
        while (Clock::now() < deadline) {
            size_t k = next_.fetch_add(1) % t_.xts.size();
            const PlantedXts &p = t_.xts[k];
            serve::JobSpec spec;
            spec.kind = serve::JobKind::Attack;
            spec.dump_path = cfg_.dir + "/" + p.capture;
            spec.client_id = "client" + std::to_string(c);

            JobSample s;
            serve::JobResult jr;
            bool ok = false;
            {
                obs::ScopedSpan root("bench", tracer);
                auto t0 = Clock::now();
                uint64_t id = 0;
                {
                    obs::ScopedSpan sub("serve.submit", tracer);
                    id = client.submit(spec, &error);
                }
                s.submit_s = secondsSince(t0);
                if (id != 0) {
                    obs::ScopedSpan wait("serve.result", tracer);
                    ok = client.result(id, &jr, &error);
                }
                s.latency_s = secondsSince(t0);
                serve::JobStatus st;
                if (ok && tracer.enabled()) {
                    obs::ScopedSpan stat("serve.status", tracer);
                    if (client.status(id, &st, &error))
                        s.session_ms = static_cast<double>(st.elapsed_ms);
                }
            }
            record(k, p, ok, jr, error, s, samples, recovered);
        }
    }

    void
    record(size_t k, const PlantedXts &p, bool ok,
           const serve::JobResult &jr, const std::string &error,
           const JobSample &s, std::vector<JobSample> &samples,
           uint64_t &recovered)
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++res_.attempted;
        if (!ok || jr.state != serve::JobState::Done) {
            ++res_.failed;
            res_.fail("job on " + p.capture + " did not finish: " +
                      (ok ? serve::jobStateName(jr.state) : error));
            return;
        }
        samples.push_back(s);
        Outcome outcome = outcomeOf(renderedPairs(jr.text), p.master);
        recovered += outcome == kRecovered ? 1 : 0;
        if (outcome == kWrong) {
            ++res_.wrong;
            wrong_captures_.insert(p.capture);
        }
        if (outcome_[k] >= 0 && outcome_[k] != outcome)
            res_.fail("served outcome differs between jobs on " +
                      p.capture);
        outcome_[k] = outcome;
        if (p.decay_frac == 0.0 && outcome != kRecovered)
            res_.fail("no pair recovered at 0% decay (" + p.capture + ")");
    }

    const Truth &t_;
    const RunConfig &cfg_;
    uint16_t port_;
    RunResult &res_;
    std::mutex mu_;
    std::atomic<uint64_t> next_{0};
    std::vector<int> outcome_;
    std::set<std::string> wrong_captures_;
};

RunResult
runServed(const Truth &t, const RunConfig &cfg)
{
    RunResult res;
    if (t.xts.empty())
        throw std::runtime_error("served_decay: no captures in truth");

    exec::ThreadPool pool(cfg.width);
    exec::ThreadPool::ScopedGlobalOverride global(pool);

    auto s0 = Clock::now();
    serve::JobServer server;
    std::string error;
    if (!server.start(&error))
        throw std::runtime_error("cannot start the job server: " + error);
    res.metrics["setup_s"] = t.setup_s + secondsSince(s0);

    ServedBatch batch(t, cfg, server.port(), res);
    obs::PhaseTracer off, on;
    off.setEnabled(false);
    std::vector<JobSample> untraced, traced;
    uint64_t recovered = 0, traced_recovered = 0;
    platformMetrics(t, res);

    if (!cfg.trace) {
        double wall = batch.run(cfg.seconds, off, untraced, recovered);
        std::vector<double> lat;
        for (const auto &s : untraced)
            lat.push_back(s.latency_s);
        opMetrics(lat, wall, res, "jobs");
    } else {
        // Untraced and traced stretches alternate, so that host drift
        // cancels in the overhead.
        constexpr unsigned kStretches = 6;
        auto b0 = poolMark(pool);
        for (unsigned i = 0; i < kStretches; ++i) {
            const bool traced_now = i % 2 == 1;
            batch.run(cfg.seconds / kStretches, traced_now ? on : off,
                      traced_now ? traced : untraced,
                      traced_now ? traced_recovered : recovered);
        }
        PoolUse use = poolUse(b0, poolMark(pool), pool.workerCount());
        std::vector<double> lat, tl, submit, queue, session;
        for (const auto &s : untraced)
            lat.push_back(s.latency_s);
        for (const auto &s : traced) {
            tl.push_back(s.latency_s);
            submit.push_back(s.submit_s * 1e3);
            if (s.session_ms >= 0) {
                session.push_back(s.session_ms);
                queue.push_back(s.latency_s * 1e3 - s.session_ms);
            }
        }
        auto &m = res.metrics;
        m["trace.overhead_ms"] = (median(tl) - median(lat)) * 1e3;
        res.notes.push_back("trace.overhead_ms is the median of " +
                            std::to_string(tl.size()) +
                            " traced jobs minus that of " +
                            std::to_string(lat.size()) + " untraced ones");
        m["serve.protocol.submit_ms"] = median(submit);
        m["serve.scheduler.queue_ms"] = median(queue);
        m["serve.session_ms"] = median(session);
        m["exec.pool.batch.tasks"] = static_cast<double>(use.tasks);
        m["exec.pool.batch.steals"] = static_cast<double>(use.steals);
        m["exec.pool.batch.busy_frac"] = use.busy_frac;
        spanMetrics(on, res);
        on.writeTraceFile(cfg.dir + "/trace.json");
    }
    res.metrics["recovered_frac"] =
        untraced.empty() ? 0.0
                         : static_cast<double>(recovered) /
                               static_cast<double>(untraced.size());
    server.stop();

    if (cfg.trace) {
        // Every capture once through the calls a job makes, at the
        // benchmark's width and at width 1: the exact counts, and a
        // cross-check of each served outcome against the one-shot one.
        auto direct = [&](exec::ThreadPool &p, std::vector<AttackRecord> &out) {
            for (const auto &x : t.xts)
                out.push_back(attackOnce(cfg.dir + "/" + x.capture, p, off));
        };
        auto totals = [](const std::vector<AttackRecord> &recs,
                         std::string *digest) {
            std::map<std::string, uint64_t> c;
            crypto::Sha256 sha;
            for (const auto &r : recs) {
                for (const auto &[k, v] : attackCounts(r))
                    c[k] += v;
                sha.update({reinterpret_cast<const uint8_t *>(r.digest.data()),
                            r.digest.size()});
            }
            auto d = sha.finish();
            *digest = toHex({d.data(), 8});
            return c;
        };
        std::vector<AttackRecord> wide, serial;
        direct(pool, wide);
        res.counts = totals(wide, &res.key_digest);
        for (size_t k = 0; k < wide.size(); ++k) {
            HexPairs pairs;
            for (const auto &p : wide[k].pairs)
                pairs.emplace_back(toHex(p.data_key), toHex(p.tweak_key));
            Outcome outcome = outcomeOf(pairs, t.xts[k].master);
            res.metrics["attack.pair.wrong"] += outcome == kWrong ? 1 : 0;
            int served = batch.outcomes()[k];
            if (served >= 0 && served != outcome)
                res.fail("served and one-shot outcomes differ on " +
                         t.xts[k].capture);
        }
        attackLayerMetrics(wide, false, res);
        kernelRates(cfg.dir + "/" + t.xts[0].capture, res);
        rooflineRatios(res);

        exec::ThreadPool one(1);
        exec::ThreadPool::ScopedGlobalOverride serial_pool(one);
        direct(one, serial);
        std::string serial_digest;
        auto serial_counts = totals(serial, &serial_digest);
        checkRepeat(res, serial_counts, serial_digest,
                    "between pool width 1 and the benchmark's width");
    }
    res.notes.push_back("xts_recovered: " + std::to_string(recovered) +
                        " of " + std::to_string(untraced.size()) +
                        " jobs");
    if (res.wrong > 0) {
        std::string which;
        for (const auto &c : batch.wrongCaptures())
            which += " " + c;
        res.notes.push_back("wrong XTS pairs in " +
                            std::to_string(res.wrong) + " jobs, on" +
                            which);
    }
    return res;
}

} // anonymous namespace

RunResult
runWorkload(const Truth &truth, const RunConfig &cfg)
{
    RunResult res;
    if (truth.workload == "e4_attack")
        res = runE4(truth, cfg);
    else if (truth.workload == "e3_mine")
        res = runE3(truth, cfg);
    else
        res = runServed(truth, cfg);
    if (!res.metrics.count("setup_s"))
        res.metrics["setup_s"] = truth.setup_s;
    res.metrics["ok_frac"] =
        res.attempted
            ? 1.0 - static_cast<double>(res.failed + res.wrong) /
                        static_cast<double>(res.attempted)
            : 0.0;
    res.metrics["peak_rss_mib"] = peakRssMib();
    return res;
}

} // namespace dumpbench
