/**
 * @file
 * Analysis-service tests: the wire protocol (codec round-trips,
 * truncation safety, framed socket I/O), the admission-controlled
 * JobScheduler (fair share, RSS budget, cancellation, drain,
 * byte-identity against the one-shot pipeline), the JobServer over
 * loopback (ephemeral ports, EADDRINUSE, malformed peers, stop under
 * load) and the session state machines the jobs are built from.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "attack/attack_pipeline.hh"
#include "attack/key_miner.hh"
#include "attack/sessions.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "crypto/aes.hh"
#include "exec/cancel.hh"
#include "exec/dump_io.hh"
#include "exec/thread_pool.hh"
#include "memctrl/scrambler.hh"
#include "obs/trace.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "serve/server.hh"

namespace coldboot::serve
{
namespace
{

/** A temp file holding @p bytes, removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::vector<uint8_t> &bytes = {})
    {
        path = (std::filesystem::temp_directory_path() /
                "test_serve.XXXXXX")
                   .string();
        int fd = mkstemp(path.data());
        if (fd >= 0) {
            if (!bytes.empty()) {
                ssize_t n = write(fd, bytes.data(), bytes.size());
                (void)n;
            }
            close(fd);
        }
    }

    ~TempFile() { std::remove(path.c_str()); }

    std::string path;
};

/**
 * Dump with @p planted scrambler keys (x @p copies) and one planted
 * XTS keytable (two AES-256 schedules back to back, scrambled with
 * key 1) - the serve-level cousin of test_exec's buildAttackDump.
 */
std::vector<uint8_t>
attackDumpBytes(size_t len, unsigned planted = 4, unsigned copies = 6)
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
    return bytes;
}

/** Submit an attack job for @p dump_path; 0 is a test failure. */
uint64_t
submitAttack(JobScheduler &sched, const std::string &dump_path,
             const std::string &client_id = "")
{
    JobSpec spec;
    spec.kind = JobKind::Attack;
    spec.dump_path = dump_path;
    spec.client_id = client_id;
    std::string error;
    uint64_t id = sched.submit(spec, &error);
    EXPECT_NE(id, 0u) << error;
    return id;
}

//
// Wire protocol
//

TEST(ServeProtocol, WirePrimitivesRoundTrip)
{
    WireWriter w;
    w.u32(0);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.str("");
    w.str("hello, dump");

    WireReader r(w.bytes());
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.str(), "hello, dump");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(ServeProtocol, TruncatedReadsTurnNotOkWithoutThrowing)
{
    WireWriter w;
    w.u32(7);
    WireReader r(w.bytes());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.atEnd());
    // Reading past the end: zero values, ok() latches false.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.atEnd());

    // A string whose length prefix overruns the payload.
    WireWriter w2;
    w2.u32(1000); // claims 1000 bytes; none follow
    WireReader r2(w2.bytes());
    EXPECT_EQ(r2.str(), "");
    EXPECT_FALSE(r2.ok());
}

TEST(ServeProtocol, JobSpecRoundTrips)
{
    JobSpec spec;
    spec.kind = JobKind::Descramble;
    spec.dump_path = "/dumps/capture.img";
    spec.out_path = "/dumps/plain.img";
    spec.client_id = "forensics-7";
    spec.scan_limit_bytes = 32ull << 20;
    spec.key_sizes = {crypto::AesKeySize::Aes128,
                      crypto::AesKeySize::Aes256};
    spec.top_n = 25;

    WireWriter w;
    encodeJobSpec(w, spec);
    WireReader r(w.bytes());
    JobSpec out;
    ASSERT_TRUE(decodeJobSpec(r, &out));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(out.kind, spec.kind);
    EXPECT_EQ(out.dump_path, spec.dump_path);
    EXPECT_EQ(out.out_path, spec.out_path);
    EXPECT_EQ(out.client_id, spec.client_id);
    EXPECT_EQ(out.scan_limit_bytes, spec.scan_limit_bytes);
    EXPECT_EQ(out.key_sizes, spec.key_sizes);
    EXPECT_EQ(out.top_n, spec.top_n);
}

TEST(ServeProtocol, JobSpecDecodeRejectsHostileValues)
{
    // Out-of-range kind.
    {
        WireWriter w;
        w.u32(99);
        WireReader r(w.bytes());
        JobSpec out;
        EXPECT_FALSE(decodeJobSpec(r, &out));
    }
    // Invalid AES key size (17 is not 16/24/32).
    {
        WireWriter w;
        w.u32(0); // kind
        w.str("d");
        w.str("");
        w.str("");
        w.u64(0);
        w.u32(1);  // one key size...
        w.u32(17); // ...but a bogus one
        w.u64(0);
        WireReader r(w.bytes());
        JobSpec out;
        EXPECT_FALSE(decodeJobSpec(r, &out));
    }
    // Absurd key-size count (allocation guard).
    {
        WireWriter w;
        w.u32(0);
        w.str("d");
        w.str("");
        w.str("");
        w.u64(0);
        w.u32(100000);
        WireReader r(w.bytes());
        JobSpec out;
        EXPECT_FALSE(decodeJobSpec(r, &out));
    }
    // Truncated mid-record.
    {
        WireWriter w;
        w.u32(0);
        w.str("dump.img"); // record stops here
        WireReader r(w.bytes());
        JobSpec out;
        EXPECT_FALSE(decodeJobSpec(r, &out));
    }
}

TEST(ServeProtocol, JobStatusAndResultRoundTrip)
{
    JobStatus st;
    st.job_id = 42;
    st.kind = JobKind::Mine;
    st.state = JobState::Running;
    st.stage = "mine";
    st.client_id = "c1";
    st.done_units = 123;
    st.total_units = 456;
    st.elapsed_ms = 789;
    st.error = "";
    WireWriter w;
    encodeJobStatus(w, st);
    WireReader r(w.bytes());
    JobStatus st_out;
    ASSERT_TRUE(decodeJobStatus(r, &st_out));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(st_out.job_id, st.job_id);
    EXPECT_EQ(st_out.kind, st.kind);
    EXPECT_EQ(st_out.state, st.state);
    EXPECT_EQ(st_out.stage, st.stage);
    EXPECT_EQ(st_out.client_id, st.client_id);
    EXPECT_EQ(st_out.done_units, st.done_units);
    EXPECT_EQ(st_out.total_units, st.total_units);
    EXPECT_EQ(st_out.elapsed_ms, st.elapsed_ms);

    JobResult res;
    res.job_id = 42;
    res.state = JobState::Failed;
    res.text = "partial output\n";
    res.error = "dump vanished";
    WireWriter w2;
    encodeJobResult(w2, res);
    WireReader r2(w2.bytes());
    JobResult res_out;
    ASSERT_TRUE(decodeJobResult(r2, &res_out));
    EXPECT_EQ(res_out.job_id, res.job_id);
    EXPECT_EQ(res_out.state, res.state);
    EXPECT_EQ(res_out.text, res.text);
    EXPECT_EQ(res_out.error, res.error);
}

TEST(ServeProtocol, FramesRoundTripOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    WireWriter w;
    w.str("payload bytes");
    ASSERT_TRUE(writeFrame(fds[0], MsgType::Submit, w.bytes()));
    ASSERT_TRUE(writeFrame(fds[0], MsgType::List, ""));

    Frame f;
    ASSERT_TRUE(readFrame(fds[1], &f));
    EXPECT_EQ(f.type, MsgType::Submit);
    EXPECT_EQ(f.payload, w.bytes());
    ASSERT_TRUE(readFrame(fds[1], &f));
    EXPECT_EQ(f.type, MsgType::List);
    EXPECT_TRUE(f.payload.empty());

    // Peer close reads as EOF.
    close(fds[0]);
    EXPECT_FALSE(readFrame(fds[1], &f));
    close(fds[1]);
}

TEST(ServeProtocol, FrameReadRejectsCorruption)
{
    // Bad magic.
    {
        int fds[2];
        ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        uint8_t garbage[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
        ASSERT_EQ(send(fds[0], garbage, sizeof(garbage), 0), 12);
        Frame f;
        EXPECT_FALSE(readFrame(fds[1], &f));
        close(fds[0]);
        close(fds[1]);
    }
    // Oversized payload length.
    {
        int fds[2];
        ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        uint8_t header[12];
        uint32_t vals[3] = {kFrameMagic,
                            static_cast<uint32_t>(MsgType::Submit),
                            kMaxPayloadBytes + 1};
        std::memcpy(header, vals, sizeof(header)); // LE host assumed
        ASSERT_EQ(send(fds[0], header, sizeof(header), 0), 12);
        Frame f;
        EXPECT_FALSE(readFrame(fds[1], &f));
        close(fds[0]);
        close(fds[1]);
    }
    // writeFrame refuses to emit an oversized payload at all.
    EXPECT_FALSE(writeFrame(-1, MsgType::Submit,
                            std::string(kMaxPayloadBytes + 1, 'x')));
}

//
// Scheduler
//

TEST(ServeScheduler, SubmitValidatesSpecUpFront)
{
    JobScheduler sched;
    std::string error;

    JobSpec spec;
    spec.kind = JobKind::Attack;
    spec.dump_path = "";
    EXPECT_EQ(sched.submit(spec, &error), 0u);
    EXPECT_NE(error.find("empty"), std::string::npos);

    spec.dump_path = "/nonexistent/test_serve_missing.img";
    EXPECT_EQ(sched.submit(spec, &error), 0u);
    EXPECT_NE(error.find("cannot stat"), std::string::npos);

    // Misaligned dump: exists but is not a multiple of 64 bytes.
    TempFile torn(std::vector<uint8_t>(100, 0xAB));
    spec.dump_path = torn.path;
    EXPECT_EQ(sched.submit(spec, &error), 0u);
    EXPECT_NE(error.find("multiple of 64"), std::string::npos);

    // Empty dump.
    TempFile empty;
    spec.dump_path = empty.path;
    EXPECT_EQ(sched.submit(spec, &error), 0u);
    EXPECT_NE(error.find("multiple of 64"), std::string::npos);

    // Descramble without an output path.
    TempFile ok(attackDumpBytes(KiB(64)));
    spec.kind = JobKind::Descramble;
    spec.dump_path = ok.path;
    spec.out_path = "";
    EXPECT_EQ(sched.submit(spec, &error), 0u);
    EXPECT_NE(error.find("output path"), std::string::npos);

    // A rejected submit must leave no job behind.
    EXPECT_TRUE(sched.list().empty());
    EXPECT_EQ(sched.queuedJobs(), 0u);
}

TEST(ServeScheduler, AttackJobMatchesOneShotPipeline)
{
    TempFile dump(attackDumpBytes(MiB(4)));

    auto src = exec::openDumpSource(dump.path);
    std::string expected =
        attack::renderAttackResult(attack::runColdBootAttack(*src));
    // The planted XTS pair is really recovered - this is a
    // key-recovery comparison, not an empty-vs-empty one.
    ASSERT_NE(expected.find("XTS master keys"), std::string::npos);

    JobScheduler sched;
    uint64_t id = submitAttack(sched, dump.path, "tester");
    JobResult res;
    ASSERT_TRUE(sched.waitResult(id, &res));
    EXPECT_EQ(res.state, JobState::Done);
    EXPECT_EQ(res.text, expected);
    EXPECT_TRUE(res.error.empty());

    auto st = sched.status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Done);
    EXPECT_EQ(st->kind, JobKind::Attack);
    EXPECT_EQ(st->client_id, "tester");
    EXPECT_EQ(st->stage, "done");
    EXPECT_GT(st->total_units, 0u);
    EXPECT_EQ(st->done_units, st->total_units);
}

TEST(ServeScheduler, ResultsByteIdenticalAcrossPoolWidths)
{
    TempFile dump(attackDumpBytes(MiB(4)));

    std::string reference;
    for (unsigned w : {1u, 4u}) {
        exec::ThreadPool pool(w);
        exec::ThreadPool::ScopedGlobalOverride ov(pool);
        JobScheduler sched;
        uint64_t id = submitAttack(sched, dump.path);
        JobResult res;
        ASSERT_TRUE(sched.waitResult(id, &res));
        ASSERT_EQ(res.state, JobState::Done);
        if (reference.empty())
            reference = res.text;
        else
            EXPECT_EQ(res.text, reference) << "width " << w;
        sched.shutdown(); // at rest before the pool dies
    }
    EXPECT_NE(reference.find("XTS master keys"), std::string::npos);
}

TEST(ServeScheduler, RoundRobinSharesAcrossClients)
{
    TempFile dump(attackDumpBytes(MiB(4)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 1;
    JobScheduler sched(opts);

    uint64_t a1 = submitAttack(sched, dump.path, "alice");
    uint64_t a2 = submitAttack(sched, dump.path, "alice");
    uint64_t b1 = submitAttack(sched, dump.path, "bob");
    ASSERT_NE(a1, 0u);

    // Fair share: after alice's first job the round-robin admits
    // bob's lone job, not alice's second - so when b1 completes, a2
    // cannot have finished a whole attack yet.
    JobResult res;
    ASSERT_TRUE(sched.waitResult(b1, &res));
    EXPECT_EQ(res.state, JobState::Done);
    auto a2_then = sched.status(a2);
    ASSERT_TRUE(a2_then.has_value());
    EXPECT_NE(a2_then->state, JobState::Done)
        << "FIFO would have run alice's second job before bob's";

    ASSERT_TRUE(sched.waitResult(a2, &res));
    EXPECT_EQ(res.state, JobState::Done);
    ASSERT_TRUE(sched.waitResult(a1, &res));
    EXPECT_EQ(res.state, JobState::Done);
}

TEST(ServeScheduler, RssBudgetKeepsChargedJobsSerial)
{
    TempFile dump(attackDumpBytes(MiB(4)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 4;
    opts.per_job_streaming_bytes = MiB(4);
    opts.rss_budget_bytes = MiB(4); // room for exactly one charge
    JobScheduler sched(opts);

    uint64_t j1 = submitAttack(sched, dump.path);
    uint64_t j2 = submitAttack(sched, dump.path);

    size_t max_running = 0;
    auto terminal = [&](uint64_t id) {
        auto st = sched.status(id);
        return st.has_value() && jobStateTerminal(st->state);
    };
    while (!terminal(j1) || !terminal(j2)) {
        max_running = std::max(max_running, sched.runningJobs());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_LE(max_running, 1u);

    JobResult res;
    ASSERT_TRUE(sched.waitResult(j1, &res));
    EXPECT_EQ(res.state, JobState::Done);
    ASSERT_TRUE(sched.waitResult(j2, &res));
    EXPECT_EQ(res.state, JobState::Done);
}

TEST(ServeScheduler, LoneJobRunsEvenOverBudget)
{
    TempFile dump(attackDumpBytes(MiB(4)));
    SchedulerOptions opts;
    opts.rss_budget_bytes = 0; // nothing fits...
    JobScheduler sched(opts);
    uint64_t id = submitAttack(sched, dump.path);
    JobResult res;
    ASSERT_TRUE(sched.waitResult(id, &res));
    // ...yet a lone job is always admitted: the budget degrades to
    // serial execution, it never deadlocks the queue.
    EXPECT_EQ(res.state, JobState::Done);
}

TEST(ServeScheduler, CancelDequeuesQueuedJob)
{
    TempFile dump(attackDumpBytes(MiB(4)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 1;
    JobScheduler sched(opts);

    uint64_t j1 = submitAttack(sched, dump.path);
    uint64_t j2 = submitAttack(sched, dump.path); // queued behind j1
    EXPECT_TRUE(sched.cancel(j2));

    JobResult res;
    ASSERT_TRUE(sched.waitResult(j2, &res));
    EXPECT_EQ(res.state, JobState::Cancelled);
    EXPECT_TRUE(res.text.empty());

    // The running job is untouched.
    ASSERT_TRUE(sched.waitResult(j1, &res));
    EXPECT_EQ(res.state, JobState::Done);

    // Terminal and unknown ids are polite no-ops.
    EXPECT_FALSE(sched.cancel(j2));
    EXPECT_FALSE(sched.cancel(j1));
    EXPECT_FALSE(sched.cancel(99999));
}

TEST(ServeScheduler, CancelStopsRunningJobWithoutTouchingOthers)
{
    // A big dump with many planted keys: mining + search take long
    // enough that the cancel lands mid-scan, never post-completion.
    TempFile slow_dump(attackDumpBytes(MiB(16), 64, 4));
    TempFile fast_dump(attackDumpBytes(MiB(4)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 2;
    JobScheduler sched(opts);

    uint64_t slow = submitAttack(sched, slow_dump.path, "slow");
    uint64_t fast = submitAttack(sched, fast_dump.path, "fast");

    // Wait for the slow job to be admitted, then cancel it mid-job.
    while (true) {
        auto st = sched.status(slow);
        ASSERT_TRUE(st.has_value());
        if (st->state == JobState::Running)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(sched.cancel(slow));

    JobResult res;
    ASSERT_TRUE(sched.waitResult(slow, &res));
    EXPECT_EQ(res.state, JobState::Cancelled);
    EXPECT_TRUE(res.error.empty());

    // The concurrent job is unaffected by its neighbour's cancel.
    ASSERT_TRUE(sched.waitResult(fast, &res));
    EXPECT_EQ(res.state, JobState::Done);
    EXPECT_NE(res.text.find("XTS master keys"), std::string::npos);
}

TEST(ServeScheduler, FailedJobReportsErrorNotText)
{
    // Valid at submit, gone at run: the job must fail cleanly, not
    // take the scheduler down (openDumpSource would cb_fatal).
    TempFile dump(attackDumpBytes(KiB(64)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 1;
    JobScheduler sched(opts);

    // Park a job in front so the doomed one stays queued while we
    // delete its dump out from under it.
    TempFile first(attackDumpBytes(MiB(4)));
    uint64_t blocker = submitAttack(sched, first.path);
    uint64_t doomed = submitAttack(sched, dump.path);
    std::remove(dump.path.c_str());

    JobResult res;
    ASSERT_TRUE(sched.waitResult(doomed, &res));
    EXPECT_EQ(res.state, JobState::Failed);
    EXPECT_NE(res.error.find("disappeared"), std::string::npos);
    EXPECT_TRUE(res.text.empty());

    ASSERT_TRUE(sched.waitResult(blocker, &res));
    EXPECT_EQ(res.state, JobState::Done);

    auto st = sched.status(doomed);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Failed);
    EXPECT_FALSE(st->error.empty());
}

TEST(ServeScheduler, DrainCancelsEverythingAndRefusesNewWork)
{
    TempFile slow_dump(attackDumpBytes(MiB(16), 64, 4));
    TempFile dump(attackDumpBytes(MiB(4)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 1;
    JobScheduler sched(opts);

    uint64_t running = submitAttack(sched, slow_dump.path);
    uint64_t queued = submitAttack(sched, dump.path);

    sched.drain(/*cancel_running=*/true);
    EXPECT_EQ(sched.runningJobs(), 0u);
    EXPECT_EQ(sched.queuedJobs(), 0u);

    auto st = sched.status(running);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Cancelled);
    st = sched.status(queued);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->state, JobState::Cancelled);

    std::string error;
    JobSpec spec;
    spec.kind = JobKind::Attack;
    spec.dump_path = dump.path;
    EXPECT_EQ(sched.submit(spec, &error), 0u);
    EXPECT_NE(error.find("draining"), std::string::npos);

    sched.drain(true); // idempotent
}

TEST(ServeScheduler, UnknownIdsAreHandled)
{
    JobScheduler sched;
    EXPECT_FALSE(sched.status(1).has_value());
    JobResult res;
    EXPECT_FALSE(sched.waitResult(1, &res));
    EXPECT_FALSE(sched.cancel(1));
    EXPECT_TRUE(sched.list().empty());
}

TEST(ServeScheduler, RetainsOnlyTheNewestFinishedJobs)
{
    // A closed-loop client runs more jobs than the bound: status
    // after result keeps working, and the oldest finished jobs are
    // forgotten instead of piling up.
    TempFile dump(attackDumpBytes(KiB(64)));
    JobScheduler sched;
    JobSpec spec;
    spec.kind = JobKind::Mine;
    spec.dump_path = dump.path;
    const size_t total = JobScheduler::keptTerminal + 8;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < total; ++i) {
        std::string error;
        uint64_t id = sched.submit(spec, &error);
        ASSERT_NE(id, 0u) << error;
        JobResult res;
        ASSERT_TRUE(sched.waitResult(id, &res));
        ASSERT_EQ(res.state, JobState::Done);
        auto st = sched.status(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->state, JobState::Done);
        ids.push_back(id);
    }
    EXPECT_EQ(sched.list().size(), JobScheduler::keptTerminal);
    EXPECT_FALSE(sched.status(ids[7]).has_value());
    EXPECT_TRUE(sched.status(ids[8]).has_value());
    JobResult res;
    EXPECT_FALSE(sched.waitResult(ids[0], &res));
}

TEST(ServeScheduler, RetentionNeverEvictsLiveJobs)
{
    // Two slow jobs hold the single slot and the queue head while
    // more jobs than the bound are queued and cancelled behind them.
    TempFile slow(attackDumpBytes(MiB(16), 64, 4));
    TempFile dump(attackDumpBytes(KiB(64)));
    SchedulerOptions opts;
    opts.max_concurrent_jobs = 1;
    JobScheduler sched(opts);
    uint64_t running = submitAttack(sched, slow.path);
    uint64_t queued = submitAttack(sched, slow.path);
    std::vector<uint64_t> cancelled;
    for (size_t i = 0; i < JobScheduler::keptTerminal + 8; ++i) {
        uint64_t id = submitAttack(sched, dump.path);
        ASSERT_TRUE(sched.cancel(id));
        cancelled.push_back(id);
    }
    EXPECT_TRUE(sched.status(running).has_value());
    EXPECT_TRUE(sched.status(queued).has_value());
    for (size_t i = 0; i < 8; ++i)
        EXPECT_FALSE(sched.status(cancelled[i]).has_value()) << i;
    EXPECT_TRUE(sched.status(cancelled.back()).has_value());
    sched.shutdown();
}

TEST(ServeScheduler, UnsinkedJobsBufferNoTraceEvents)
{
    // The global tracer records only for an export (--trace, a
    // served /trace); in-process jobs without one must not buffer
    // spans.
    auto &tracer = obs::PhaseTracer::global();
    TempFile dump(attackDumpBytes(MiB(1)));
    JobScheduler sched;
    JobResult res;
    ASSERT_TRUE(sched.waitResult(submitAttack(sched, dump.path), &res));
    EXPECT_EQ(res.state, JobState::Done);
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.eventCount(), 0u);

    // Armed, the same job is traced as before.
    tracer.setEnabled(true);
    ASSERT_TRUE(sched.waitResult(submitAttack(sched, dump.path), &res));
    EXPECT_GT(tracer.eventCount(), 0u);
    tracer.setEnabled(false);
    tracer.resetForTest();
}

//
// Server over loopback
//

TEST(ServeServer, EphemeralPortBindsAndReports)
{
    JobServer server; // 127.0.0.1:0
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    EXPECT_EQ(server.address(), "127.0.0.1");
    EXPECT_GT(server.port(), 0u);
    EXPECT_FALSE(server.shutdownRequested());
    server.stop();
    server.stop(); // idempotent
}

TEST(ServeServer, AddressInUseIsAnActionableError)
{
    JobServer first;
    std::string error;
    ASSERT_TRUE(first.start(&error)) << error;

    ServerOptions opts;
    opts.bind.port = first.port();
    JobServer second(opts);
    EXPECT_FALSE(second.start(&error));
    EXPECT_NE(error.find("address already in use"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("another instance"), std::string::npos);
}

TEST(ServeServer, EndToEndJobOverLoopback)
{
    TempFile dump(attackDumpBytes(MiB(4)));
    auto src = exec::openDumpSource(dump.path);
    std::string expected =
        attack::renderAttackResult(attack::runColdBootAttack(*src));

    JobServer server;
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    JobClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;

    JobSpec spec;
    spec.kind = JobKind::Attack;
    spec.dump_path = dump.path;
    spec.client_id = "net-tester";
    uint64_t id = client.submit(spec, &error);
    ASSERT_NE(id, 0u) << error;

    JobResult res;
    ASSERT_TRUE(client.result(id, &res, &error)) << error;
    EXPECT_EQ(res.state, JobState::Done);
    EXPECT_EQ(res.text, expected);

    JobStatus st;
    ASSERT_TRUE(client.status(id, &st, &error)) << error;
    EXPECT_EQ(st.job_id, id);
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_EQ(st.client_id, "net-tester");

    std::vector<JobStatus> jobs;
    ASSERT_TRUE(client.list(&jobs, &error)) << error;
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].job_id, id);

    // Cancel of a finished job: false without a protocol error.
    error.clear();
    EXPECT_FALSE(client.cancel(id, &error));
    EXPECT_TRUE(error.empty()) << error;

    // Unknown ids travel back as typed errors.
    EXPECT_FALSE(client.status(9999, &st, &error));
    EXPECT_NE(error.find("no such job"), std::string::npos);
}

TEST(ServeServer, RejectsBadSubmissionsWithoutDying)
{
    JobServer server;
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    JobClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error));
    JobSpec spec;
    spec.kind = JobKind::Attack;
    spec.dump_path = "/nonexistent/test_serve_missing.img";
    EXPECT_EQ(client.submit(spec, &error), 0u);
    EXPECT_NE(error.find("cannot stat"), std::string::npos);

    // Same connection still serves follow-up requests.
    std::vector<JobStatus> jobs;
    EXPECT_TRUE(client.list(&jobs, &error)) << error;
    EXPECT_TRUE(jobs.empty());
}

TEST(ServeServer, MalformedFrameDropsOnlyThatConnection)
{
    JobServer server;
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // A hostile peer: garbage where the frame header should be.
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(server.port());
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                        sizeof(sa)),
              0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    // The server drops the connection: recv sees EOF, or ECONNRESET
    // when the server's close outruns its unread garbage bytes.
    char byte;
    ssize_t got = recv(fd, &byte, 1, 0);
    EXPECT_TRUE(got == 0 || (got < 0 && errno == ECONNRESET))
        << got << " errno=" << errno;
    close(fd);

    // A well-formed client right after is served normally.
    JobClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error))
        << error;
    std::vector<JobStatus> jobs;
    EXPECT_TRUE(client.list(&jobs, &error)) << error;
}

TEST(ServeServer, ShutdownRequestRaisesFlag)
{
    JobServer server;
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    JobClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error));
    EXPECT_FALSE(server.shutdownRequested());
    ASSERT_TRUE(client.shutdown(&error)) << error;
    EXPECT_TRUE(server.shutdownRequested());
}

TEST(ServeServer, StopUnderLoadCancelsRunningJobs)
{
    TempFile slow_dump(attackDumpBytes(MiB(16), 64, 4));
    JobServer server;
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    JobClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error));
    JobSpec spec;
    spec.kind = JobKind::Attack;
    spec.dump_path = slow_dump.path;
    uint64_t id = client.submit(spec, &error);
    ASSERT_NE(id, 0u) << error;

    // Stop while the job runs: the drain cancel-raises it and stop()
    // returns promptly instead of waiting out a 16 MiB attack.
    server.stop();
    auto st = server.scheduler().status(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(jobStateTerminal(st->state));
}

//
// Analysis sessions (the state machines under the jobs)
//

TEST(AnalysisSession, AttackSessionWalksStagesExplicitly)
{
    auto bytes = attackDumpBytes(MiB(4));
    exec::MemoryDumpSource src({bytes.data(), bytes.size()});

    attack::AttackSession session(src);
    EXPECT_EQ(session.stage(), attack::SessionStage::Mine);
    EXPECT_FALSE(session.finished());

    // Mine -> Search (one step for the single default variant) ->
    // Pair -> Done.
    EXPECT_TRUE(session.step());
    EXPECT_EQ(session.stage(), attack::SessionStage::Search);
    auto cp = session.checkpoint();
    EXPECT_GT(cp.mined_keys, 0u);
    EXPECT_EQ(cp.search_passes_done, 0u);

    EXPECT_TRUE(session.step());
    EXPECT_EQ(session.stage(), attack::SessionStage::Pair);
    cp = session.checkpoint();
    EXPECT_EQ(cp.search_passes_done, 1u);
    EXPECT_GT(cp.recovered_keys, 0u);

    EXPECT_FALSE(session.step());
    EXPECT_EQ(session.stage(), attack::SessionStage::Done);
    EXPECT_TRUE(session.finished());
    cp = session.checkpoint();
    EXPECT_GT(cp.xts_pairs, 0u);
    EXPECT_GT(cp.elapsed_seconds, 0.0);

    // Stepping a terminal session is a no-op.
    EXPECT_FALSE(session.step());

    // The stepwise walk produced the same rendering as the one-shot
    // wrapper (which itself runs through a session).
    auto report = session.takeReport();
    auto oneshot = attack::runColdBootAttack(src);
    EXPECT_EQ(attack::renderAttackResult(report),
              attack::renderAttackResult(oneshot));
    EXPECT_GT(report.mib_per_second, 0.0);
}

TEST(AnalysisSession, SearchRunsOneStepPerKeySize)
{
    auto bytes = attackDumpBytes(MiB(1));
    exec::MemoryDumpSource src({bytes.data(), bytes.size()});

    attack::PipelineParams params;
    params.key_sizes = {crypto::AesKeySize::Aes128,
                        crypto::AesKeySize::Aes192,
                        crypto::AesKeySize::Aes256};
    attack::AttackSession session(src, params);
    EXPECT_TRUE(session.step()); // mine
    for (size_t pass = 1; pass <= 3; ++pass) {
        EXPECT_TRUE(session.step());
        EXPECT_EQ(session.checkpoint().search_passes_done, pass);
    }
    EXPECT_EQ(session.stage(), attack::SessionStage::Pair);
    EXPECT_FALSE(session.step());
    EXPECT_EQ(session.stage(), attack::SessionStage::Done);
}

TEST(AnalysisSession, CancelMovesSessionToCancelledState)
{
    auto bytes = attackDumpBytes(MiB(1));
    exec::MemoryDumpSource src({bytes.data(), bytes.size()});

    attack::AttackSession session(src);
    session.cancelToken().requestCancel();
    EXPECT_THROW(session.step(), exec::CancelledError);
    EXPECT_EQ(session.stage(), attack::SessionStage::Cancelled);
    EXPECT_TRUE(session.finished());
    EXPECT_TRUE(session.error().empty()); // cancelled, not failed
    EXPECT_EQ(session.checkpoint().stage,
              attack::SessionStage::Cancelled);
    // Terminal: further steps are no-ops, no rethrow.
    EXPECT_FALSE(session.step());
}

TEST(AnalysisSession, MineSessionMatchesDirectMiner)
{
    auto bytes = attackDumpBytes(MiB(2));
    exec::MemoryDumpSource src({bytes.data(), bytes.size()});

    attack::MinerStats direct_stats;
    auto direct =
        attack::mineScramblerKeys(src, {}, &direct_stats);

    attack::MineSession session(src);
    session.runToCompletion();
    EXPECT_EQ(session.stage(), attack::SessionStage::Done);
    ASSERT_EQ(session.minedKeys().size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(session.minedKeys()[i].key, direct[i].key);
        EXPECT_EQ(session.minedKeys()[i].occurrences,
                  direct[i].occurrences);
    }
    EXPECT_EQ(session.stats().blocks_scanned,
              direct_stats.blocks_scanned);
    EXPECT_EQ(session.stats().litmus_hits,
              direct_stats.litmus_hits);

    // Rendering is deterministic given the same inputs.
    EXPECT_EQ(attack::renderMineResult(session.stats(),
                                       session.minedKeys(), 10),
              attack::renderMineResult(direct_stats, direct, 10));
}

TEST(AnalysisSession, DescrambleSessionWritesXoredImage)
{
    auto bytes = attackDumpBytes(MiB(1));
    exec::MemoryDumpSource src({bytes.data(), bytes.size()});
    TempFile out;

    attack::DescrambleSession session(src, out.path);
    session.runToCompletion();
    ASSERT_EQ(session.stage(), attack::SessionStage::Done);

    const auto &result = session.result();
    EXPECT_EQ(result.lines, bytes.size() / 64);
    EXPECT_EQ(result.out_path, out.path);
    EXPECT_GT(result.mined_keys, 0u);
    EXPECT_EQ(result.sha256_hex.size(), 64u);

    // The output is the input XOR the top-ranked mined key, line by
    // line.
    auto mined = attack::mineScramblerKeys(src);
    ASSERT_FALSE(mined.empty());
    std::vector<uint8_t> expected(bytes);
    for (size_t i = 0; i < expected.size(); ++i)
        expected[i] ^= mined[0].key[i & 63];

    std::FILE *f = std::fopen(out.path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> written(bytes.size());
    ASSERT_EQ(std::fread(written.data(), 1, written.size(), f),
              written.size());
    EXPECT_EQ(std::fgetc(f), EOF); // no trailing bytes
    std::fclose(f);
    EXPECT_EQ(written, expected);

    std::string text = attack::renderDescrambleResult(result);
    EXPECT_NE(text.find(result.sha256_hex), std::string::npos);
    EXPECT_NE(text.find(out.path), std::string::npos);
}

TEST(AnalysisSession, DescrambleFailureIsCapturedNotFatal)
{
    auto bytes = attackDumpBytes(MiB(1));
    exec::MemoryDumpSource src({bytes.data(), bytes.size()});

    attack::DescrambleSession session(
        src, "/nonexistent/test_serve_dir/out.img");
    EXPECT_TRUE(session.step()); // mine succeeds
    EXPECT_EQ(session.stage(), attack::SessionStage::Descramble);
    EXPECT_THROW(session.step(), std::runtime_error);
    EXPECT_EQ(session.stage(), attack::SessionStage::Failed);
    EXPECT_NE(session.error().find("cannot open"),
              std::string::npos);
    EXPECT_EQ(session.checkpoint().error, session.error());
    EXPECT_FALSE(session.step());
}

TEST(AnalysisSession, RenderersAreFormatStable)
{
    attack::PipelineReport report;
    report.mined_keys.resize(3);
    std::string summary = attack::renderAttackSummary(report);
    EXPECT_EQ(summary, "mined 3 candidate keys; recovered 0 AES "
                       "table(s); 0 XTS pair(s);");
    EXPECT_EQ(summary.back(), ';'); // no trailing newline
    EXPECT_EQ(attack::renderAttackKeys(report), "");
    EXPECT_EQ(attack::renderAttackResult(report), summary + "\n");
}

} // anonymous namespace
} // namespace coldboot::serve
