#include "attack/sessions.hh"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "common/hex.hh"
#include "common/logging.hh"
#include "crypto/aes.hh"
#include "crypto/sha256.hh"
#include "exec/scan.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "simd/simd.hh"

namespace coldboot::attack
{

namespace
{

/** Dump bytes XOR-descrambled per pool task. */
constexpr uint64_t kDescrambleGrain = 4ull << 20;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** printf-append into a std::string. */
void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    if (n > 0)
        out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                         sizeof(buf) - 1));
}

} // anonymous namespace

const char *
sessionStageName(SessionStage stage)
{
    switch (stage) {
    case SessionStage::Mine:
        return "mine";
    case SessionStage::Search:
        return "search";
    case SessionStage::Pair:
        return "pair";
    case SessionStage::Descramble:
        return "descramble";
    case SessionStage::Done:
        return "done";
    case SessionStage::Cancelled:
        return "cancelled";
    case SessionStage::Failed:
        return "failed";
    }
    return "unknown";
}

bool
sessionStageTerminal(SessionStage stage)
{
    return stage == SessionStage::Done ||
           stage == SessionStage::Cancelled ||
           stage == SessionStage::Failed;
}

AnalysisSession::AnalysisSession(std::string span_label,
                                 std::string progress_label)
    : span_label_(std::move(span_label)),
      progress_label_(std::move(progress_label))
{
}

bool
AnalysisSession::step()
{
    if (finished())
        return false;
    if (progress_ == nullptr)
        progress_ = obs::ProgressTracker::global().startJob(
            progress_label_, progressTotalUnits());

    // One span per step, not one umbrella span held across steps:
    // ScopedSpan parks trace context in thread-local state, and a
    // scheduler may run successive steps of the same session on
    // different pool threads.
    auto t0 = std::chrono::steady_clock::now();
    try {
        obs::ScopedSpan span(span_label_);
        runStage();
    } catch (const exec::CancelledError &) {
        elapsed_seconds_ += secondsSince(t0);
        stage_ = SessionStage::Cancelled;
        progress_->finish();
        throw;
    } catch (const std::exception &e) {
        elapsed_seconds_ += secondsSince(t0);
        stage_ = SessionStage::Failed;
        error_ = e.what();
        progress_->finish();
        throw;
    }
    elapsed_seconds_ += secondsSince(t0);
    if (stage_ == SessionStage::Done) {
        finalize();
        progress_->finish();
    }
    return !finished();
}

void
AnalysisSession::runToCompletion()
{
    while (step()) {
    }
}

SessionCheckpoint
AnalysisSession::checkpoint() const
{
    SessionCheckpoint cp;
    cp.stage = stage_;
    cp.elapsed_seconds = elapsed_seconds_;
    cp.error = error_;
    return cp;
}

//
// AttackSession
//

AttackSession::AttackSession(const exec::DumpSource &dump,
                             PipelineParams params,
                             std::string progress_label)
    : AnalysisSession("attack.pipeline", std::move(progress_label)),
      dump_(dump), params_(std::move(params))
{
    params_.miner.cancel = &cancel_;
    params_.search.cancel = &cancel_;
    mine_bytes_ = minerScanBytes(dump_, params_.miner);
}

uint64_t
AttackSession::progressTotalUnits() const
{
    return mine_bytes_ + dump_.size() * params_.key_sizes.size();
}

void
AttackSession::runStage()
{
    switch (stage_) {
    case SessionStage::Mine:
        stageMine();
        break;
    case SessionStage::Search:
        stageSearch();
        break;
    case SessionStage::Pair:
        stagePair();
        break;
    default:
        cb_fatal("AttackSession: runStage in state %s",
                 sessionStageName(stage_));
    }
}

void
AttackSession::stageMine()
{
    obs::ScopedSpan span("mine");
    cb_inform("attack: mining scrambler keys from %zu MiB dump",
              dump_.size() >> 20);
    report_.mined_keys = mineScramblerKeys(dump_, params_.miner,
                                           &report_.miner_stats);
    progress_->advance(mine_bytes_);
    cb_inform("attack: mined %zu candidate keys "
              "(%llu litmus hits over %llu blocks)",
              report_.mined_keys.size(),
              static_cast<unsigned long long>(
                  report_.miner_stats.litmus_hits),
              static_cast<unsigned long long>(
                  report_.miner_stats.blocks_scanned));
    stage_ = SessionStage::Search;
}

void
AttackSession::stageSearch()
{
    obs::ScopedSpan span("search");
    if (next_key_size_ < params_.key_sizes.size()) {
        SearchParams search = params_.search;
        search.key_size = params_.key_sizes[next_key_size_];
        SearchStats stats;
        auto found = searchAesKeyTables(dump_, report_.mined_keys,
                                        search, &stats);
        report_.recovered.insert(report_.recovered.end(),
                                 found.begin(), found.end());
        report_.search_stats += stats;
        progress_->advance(dump_.size());
        ++next_key_size_;
    }
    if (next_key_size_ >= params_.key_sizes.size()) {
        cb_inform("attack: recovered %zu AES key table(s)",
                  report_.recovered.size());
        stage_ = SessionStage::Pair;
    }
}

void
AttackSession::stagePair()
{
    obs::ScopedSpan span("pair");
    report_.xts_pairs = pairXtsKeys(report_.recovered);
    cb_inform("attack: paired %zu XTS master key set(s)",
              report_.xts_pairs.size());
    stage_ = SessionStage::Done;
}

void
AttackSession::finalize()
{
    auto &registry = obs::StatRegistry::global();
    registry.counter("attack.pipeline.bytes_scanned",
                     "dump bytes scanned across mining and search")
        .add((report_.miner_stats.blocks_scanned +
              report_.search_stats.blocks_scanned) * 64);
    registry.counter("attack.pipeline.keys_recovered",
                     "AES key tables recovered")
        .add(report_.recovered.size());
    registry.counter("attack.pipeline.xts_pairs",
                     "XTS master key pairs recovered")
        .add(report_.xts_pairs.size());
    registry.counter("attack.pipeline.runs",
                     "end-to-end attack pipelines completed")
        .add();

    // Throughput from the wall clock accumulated across steps; an
    // empty dump (or an impossibly fast run) reports 0, never
    // inf/nan.
    if (dump_.size() > 0 && elapsed_seconds_ > 0.0) {
        report_.mib_per_second =
            static_cast<double>(dump_.size()) / (1 << 20) /
            elapsed_seconds_;
    }
    registry.setScalar("attack.pipeline.mib_per_second",
                       report_.mib_per_second,
                       "end-to-end scan throughput of the most "
                       "recent pipeline run");
}

PipelineReport
AttackSession::takeReport()
{
    cb_assert(finished(), "takeReport on a running session");
    return std::move(report_);
}

SessionCheckpoint
AttackSession::checkpoint() const
{
    SessionCheckpoint cp = AnalysisSession::checkpoint();
    cp.search_passes_done = next_key_size_;
    cp.mined_keys = report_.mined_keys.size();
    cp.recovered_keys = report_.recovered.size();
    cp.xts_pairs = report_.xts_pairs.size();
    return cp;
}

//
// MineSession
//

MineSession::MineSession(const exec::DumpSource &dump,
                         MinerParams params,
                         std::string progress_label)
    : AnalysisSession("attack.mine", std::move(progress_label)),
      dump_(dump), params_(params)
{
    params_.cancel = &cancel_;
}

uint64_t
MineSession::progressTotalUnits() const
{
    return minerScanBytes(dump_, params_);
}

void
MineSession::runStage()
{
    cb_assert(stage_ == SessionStage::Mine,
              "MineSession: runStage in a non-mine state");
    mined_ = mineScramblerKeys(dump_, params_, &stats_);
    progress_->advance(minerScanBytes(dump_, params_));
    stage_ = SessionStage::Done;
}

SessionCheckpoint
MineSession::checkpoint() const
{
    SessionCheckpoint cp = AnalysisSession::checkpoint();
    cp.mined_keys = mined_.size();
    return cp;
}

//
// DescrambleSession
//

DescrambleSession::DescrambleSession(const exec::DumpSource &dump,
                                     std::string out_path,
                                     MinerParams params,
                                     std::string progress_label)
    : AnalysisSession("attack.descramble",
                      std::move(progress_label)),
      dump_(dump), params_(params), out_path_(std::move(out_path))
{
    params_.cancel = &cancel_;
}

uint64_t
DescrambleSession::progressTotalUnits() const
{
    return minerScanBytes(dump_, params_) + dump_.size();
}

void
DescrambleSession::runStage()
{
    switch (stage_) {
    case SessionStage::Mine:
        stageMine();
        break;
    case SessionStage::Descramble:
        stageDescramble();
        break;
    default:
        cb_fatal("DescrambleSession: runStage in state %s",
                 sessionStageName(stage_));
    }
}

void
DescrambleSession::stageMine()
{
    obs::ScopedSpan span("mine");
    mined_ = mineScramblerKeys(dump_, params_, &mine_stats_);
    progress_->advance(minerScanBytes(dump_, params_));
    if (mined_.empty())
        throw std::runtime_error(
            "descramble: no scrambler keys mined from dump");
    stage_ = SessionStage::Descramble;
}

void
DescrambleSession::stageDescramble()
{
    obs::ScopedSpan span("descramble");

    // The whole image XORed with the top-ranked mined key: on a
    // single-key region this is exactly the paper's descramble step,
    // turning the scrambled capture back into the plaintext image the
    // baseline (Halderman) tooling expects.
    const std::array<uint8_t, 64> &key = mined_[0].key;

    std::FILE *f = std::fopen(out_path_.c_str(), "wb");
    if (f == nullptr)
        throw std::runtime_error("descramble: cannot open '" +
                                 out_path_ + "' for writing");

    crypto::Sha256 sha;
    bool write_failed = false;
    // Parallel XOR, strictly ordered write-out + digest: the output
    // file is byte-identical at any pool width (DESIGN.md §9).
    exec::scanDump<std::vector<uint8_t>>(
        dump_,
        {.name = "descramble.scan",
         .end = dump_.size(),
         .grain = kDescrambleGrain,
         .threads = params_.threads,
         .cancel = params_.cancel},
        [&](std::span<const uint8_t> bytes, const exec::ChunkRange &) {
            std::vector<uint8_t> out(bytes.begin(), bytes.end());
            // Chunks are cut on 64-byte lines, so the repeat-key
            // phase restarts at key[0] in every chunk.
            simd::xorRepeatKey64(out.data(), key.data(), out.size());
            return out;
        },
        [&](std::vector<uint8_t> &&out, const exec::ChunkRange &) {
            sha.update(out);
            if (!write_failed &&
                std::fwrite(out.data(), 1, out.size(), f) !=
                    out.size())
                write_failed = true;
        });
    progress_->advance(dump_.size());
    bool close_failed = std::fclose(f) != 0;
    if (write_failed || close_failed)
        throw std::runtime_error("descramble: short write to '" +
                                 out_path_ + "'");

    auto digest = sha.finish();
    result_.mined_keys = mined_.size();
    result_.key_occurrences = mined_[0].occurrences;
    result_.lines = dump_.lines();
    result_.sha256_hex = toHex(digest);
    result_.out_path = out_path_;
    stage_ = SessionStage::Done;
}

SessionCheckpoint
DescrambleSession::checkpoint() const
{
    SessionCheckpoint cp = AnalysisSession::checkpoint();
    cp.mined_keys = mined_.size();
    return cp;
}

//
// Deterministic result rendering
//

std::string
renderAttackSummary(const PipelineReport &report)
{
    std::string out;
    appendf(out,
            "mined %zu candidate keys; recovered %zu AES table(s);"
            " %zu XTS pair(s);",
            report.mined_keys.size(), report.recovered.size(),
            report.xts_pairs.size());
    return out;
}

std::string
renderAttackKeys(const PipelineReport &report)
{
    std::string out;
    for (const auto &pair : report.xts_pairs) {
        // coldboot-lint: allow(secret-taint) -- rendering recovered keys is this attack tool's output
        appendf(out,
                "XTS master keys at dump offset 0x%llx:\n"
                "  data : %s\n  tweak: %s\n",
                static_cast<unsigned long long>(pair.table_offset),
                toHex({pair.data_key.data(), 32}).c_str(),
                toHex({pair.tweak_key.data(), 32}).c_str());
    }
    return out;
}

std::string
renderAttackResult(const PipelineReport &report)
{
    return renderAttackSummary(report) + "\n" +
           renderAttackKeys(report);
}

std::string
renderMineResult(const MinerStats &stats,
                 const std::vector<MinedKey> &mined, size_t top_n)
{
    std::string out;
    appendf(out,
            "scanned %llu blocks, %llu litmus hits, %zu "
            "candidate keys\n",
            static_cast<unsigned long long>(stats.blocks_scanned),
            static_cast<unsigned long long>(stats.litmus_hits),
            mined.size());
    for (size_t i = 0; i < std::min(top_n, mined.size()); ++i) {
        // coldboot-lint: allow(secret-taint) -- listing mined scrambler keys is the mine command's output
        appendf(out, "#%2zu x%-5zu %s...\n", i, mined[i].occurrences,
                toHex({mined[i].key.data(), 16}).c_str());
    }
    return out;
}

std::string
renderDescrambleResult(const DescrambleResult &result)
{
    std::string out;
    appendf(out,
            "descrambled %llu lines with top key (x%zu of %zu "
            "mined)\n",
            static_cast<unsigned long long>(result.lines),
            result.key_occurrences, result.mined_keys);
    appendf(out, "sha256 %s\n", result.sha256_hex.c_str());
    appendf(out, "wrote %s\n", result.out_path.c_str());
    return out;
}

} // namespace coldboot::attack
