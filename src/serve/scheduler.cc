#include "serve/scheduler.hh"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "attack/sessions.hh"
#include "common/logging.hh"
#include "exec/dump_io.hh"
#include "exec/thread_pool.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace coldboot::serve
{

namespace
{

/** serve.jobs.* counter shorthand. */
void
count(const char *name, const char *help)
{
    obs::StatRegistry::global().counter(name, help).add(1);
}

} // anonymous namespace

/**
 * One job. The scheduler lock_ guards every field except session
 * internals: the session is stepped only by the job's pool task, and
 * other threads touch it exclusively through the checkpoint cache
 * (refreshed between steps) and the CancelToken (atomic).
 */
struct JobScheduler::Job
{
    uint64_t id = 0;
    JobSpec spec;
    uint64_t dump_size = 0;
    uint64_t charge = 0;
    JobState state = JobState::Queued;
    bool cancel_requested = false;
    std::string error;
    /** Rendered deterministic result (terminal Done only). */
    std::string result_text;
    std::unique_ptr<exec::DumpSource> dump;
    std::unique_ptr<attack::AnalysisSession> session;
    /** Between-steps snapshot for status() (guarded by lock_). */
    attack::SessionCheckpoint cp;
    /** Umbrella progress units mirrored from the session's job. */
    uint64_t done_units = 0;
    uint64_t total_units = 0;
};

JobScheduler::JobScheduler(SchedulerOptions opts) : opts_(opts)
{
    if (opts_.max_concurrent_jobs == 0)
        opts_.max_concurrent_jobs = 1;
}

JobScheduler::~JobScheduler()
{
    shutdown();
}

uint64_t
JobScheduler::chargeBytes(uint64_t dump_size) const
{
    return std::min<uint64_t>(dump_size,
                              opts_.per_job_streaming_bytes);
}

uint64_t
JobScheduler::submit(const JobSpec &spec, std::string *error)
{
    auto fail = [&](const std::string &why) -> uint64_t {
        if (error != nullptr)
            *error = why;
        count("serve.jobs.rejected", "job submissions rejected");
        return 0;
    };

    // Validate up front, outside the lock: the analysis library
    // treats a bad dump as cb_fatal, and a daemon must survive a
    // client's typo.
    if (spec.dump_path.empty())
        return fail("empty dump path");
    struct stat st;
    if (::stat(spec.dump_path.c_str(), &st) != 0)
        return fail("cannot stat dump '" + spec.dump_path +
                    "': " + std::strerror(errno));
    if (!S_ISREG(st.st_mode))
        return fail("dump '" + spec.dump_path +
                    "' is not a regular file");
    uint64_t size = static_cast<uint64_t>(st.st_size);
    if (size == 0 || size % 64 != 0)
        return fail("dump '" + spec.dump_path + "' size " +
                    std::to_string(size) +
                    " is not a nonzero multiple of 64 bytes");
    if (spec.kind == JobKind::Descramble && spec.out_path.empty())
        return fail("descramble jobs need an output path");

    std::lock_guard<std::mutex> lk(lock_);
    if (draining_)
        return fail("server is draining; not accepting jobs");

    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->spec = spec;
    job->dump_size = size;
    job->charge = chargeBytes(size);
    jobs_[job->id] = job;
    queues_[spec.client_id].push_back(job);
    count("serve.jobs.submitted", "jobs accepted for scheduling");
    obs::StatRegistry::global().setScalar(
        "serve.jobs.queued", static_cast<double>(queuedJobsLocked()),
        "jobs waiting for admission");
    pump();
    return job->id;
}

size_t
JobScheduler::queuedJobsLocked() const
{
    size_t n = 0;
    for (const auto &[client, q] : queues_)
        n += q.size();
    return n;
}

void
JobScheduler::pump()
{
    while (running_ < opts_.max_concurrent_jobs) {
        // Round-robin over client queues: first non-empty queue
        // strictly after the cursor, wrapping.
        std::shared_ptr<Job> job;
        auto it = queues_.upper_bound(rr_cursor_);
        for (size_t i = 0; i < queues_.size() && !job; ++i) {
            if (it == queues_.end())
                it = queues_.begin();
            if (!it->second.empty()) {
                job = it->second.front();
                rr_cursor_ = it->first;
            } else {
                ++it;
            }
        }
        if (!job)
            break;
        // RSS-budget admission; a lone job always runs, so an
        // over-budget dump degrades to serial execution instead of
        // deadlocking the queue.
        if (running_ > 0 &&
            charged_bytes_ + job->charge > opts_.rss_budget_bytes)
            break;
        queues_[rr_cursor_].pop_front();
        if (queues_[rr_cursor_].empty())
            queues_.erase(rr_cursor_);
        job->state = JobState::Running;
        ++running_;
        ++inflight_tasks_;
        charged_bytes_ += job->charge;
        // Pool tasks must not throw: runJob catches everything.
        exec::ThreadPool::global().submit(
            [this, job] { runJob(job); });
    }
    auto &registry = obs::StatRegistry::global();
    registry.setScalar("serve.jobs.running",
                       static_cast<double>(running_),
                       "jobs currently executing");
    registry.setScalar("serve.jobs.queued",
                       static_cast<double>(queuedJobsLocked()),
                       "jobs waiting for admission");
}

void
JobScheduler::runJob(const std::shared_ptr<Job> &job)
{
    obs::ScopedSpan span("serve.job");
    std::string progress_label =
        "serve.job." + std::to_string(job->id) + "." +
        jobKindName(job->spec.kind);
    try {
        // Huge dumps stream through buffered pread: mmapping a
        // multi-GiB capture would let the page cache blow through
        // the daemon's RSS budget.
        exec::DumpBackend backend =
            job->dump_size >= opts_.mmap_threshold_bytes
                ? exec::DumpBackend::Buffered
                : exec::DumpBackend::Auto;
        // Re-validate before the cb_fatal-on-error open: the file
        // may have vanished since submit.
        struct stat st;
        if (::stat(job->spec.dump_path.c_str(), &st) != 0 ||
            !S_ISREG(st.st_mode) || st.st_size == 0 ||
            st.st_size % 64 != 0)
            throw std::runtime_error("dump '" + job->spec.dump_path +
                                     "' disappeared or changed "
                                     "since submit");
        auto dump =
            exec::openDumpSource(job->spec.dump_path, backend);

        std::unique_ptr<attack::AnalysisSession> session;
        switch (job->spec.kind) {
        case JobKind::Attack: {
            attack::PipelineParams params;
            if (job->spec.scan_limit_bytes != 0)
                params.miner.scan_limit_bytes =
                    job->spec.scan_limit_bytes;
            if (!job->spec.key_sizes.empty())
                params.key_sizes = job->spec.key_sizes;
            session = std::make_unique<attack::AttackSession>(
                *dump, params, progress_label);
            break;
        }
        case JobKind::Mine: {
            attack::MinerParams params;
            if (job->spec.scan_limit_bytes != 0)
                params.scan_limit_bytes = job->spec.scan_limit_bytes;
            session = std::make_unique<attack::MineSession>(
                *dump, params, progress_label);
            break;
        }
        case JobKind::Descramble: {
            attack::MinerParams params;
            if (job->spec.scan_limit_bytes != 0)
                params.scan_limit_bytes = job->spec.scan_limit_bytes;
            session = std::make_unique<attack::DescrambleSession>(
                *dump, job->spec.out_path, params, progress_label);
            break;
        }
        }

        // Publish the session (and honour a cancel that raced the
        // admission window) before the first step.
        {
            std::lock_guard<std::mutex> lk(lock_);
            job->dump = std::move(dump);
            job->session = std::move(session);
            if (job->cancel_requested)
                job->session->cancelToken().requestCancel();
        }

        bool more = true;
        while (more) {
            more = job->session->step();
            // Refresh the status snapshot between steps.
            std::lock_guard<std::mutex> lk(lock_);
            job->cp = job->session->checkpoint();
            if (auto p = job->session->progressJob()) {
                job->done_units = p->doneUnits();
                job->total_units = p->totalUnits();
            }
        }

        // Render the deterministic result while the session is
        // still alive, then let finishJob drop it.
        std::string text;
        switch (job->spec.kind) {
        case JobKind::Attack:
            text = attack::renderAttackResult(
                static_cast<attack::AttackSession &>(*job->session)
                    .report());
            break;
        case JobKind::Mine: {
            auto &mine =
                static_cast<attack::MineSession &>(*job->session);
            text = attack::renderMineResult(
                mine.stats(), mine.minedKeys(),
                job->spec.top_n != 0 ? job->spec.top_n : 10);
            break;
        }
        case JobKind::Descramble:
            text = attack::renderDescrambleResult(
                static_cast<attack::DescrambleSession &>(
                    *job->session)
                    .result());
            break;
        }
        {
            std::lock_guard<std::mutex> lk(lock_);
            job->result_text = std::move(text);
        }
        finishJob(job, JobState::Done, "");
    } catch (const exec::CancelledError &) {
        finishJob(job, JobState::Cancelled, "");
    } catch (const std::exception &e) {
        finishJob(job, JobState::Failed, e.what());
    }
}

void
JobScheduler::finishJob(const std::shared_ptr<Job> &job,
                        JobState state, const std::string &error)
{
    std::lock_guard<std::mutex> lk(lock_);
    if (job->session != nullptr)
        job->cp = job->session->checkpoint();
    job->state = state;
    job->error = error;
    // Release the analysis state eagerly: a retained job costs a
    // status record and its rendered text, not a dump mapping.
    job->session.reset();
    job->dump.reset();
    --running_;
    --inflight_tasks_;
    charged_bytes_ -= job->charge;
    retireLocked(job);
    switch (state) {
    case JobState::Done:
        count("serve.jobs.completed", "jobs finished successfully");
        break;
    case JobState::Cancelled:
        count("serve.jobs.cancelled", "jobs cancelled");
        break;
    default:
        count("serve.jobs.failed", "jobs failed");
        break;
    }
    pump();
    terminal_cv_.notify_all();
}

void
JobScheduler::retireLocked(const std::shared_ptr<Job> &job)
{
    terminal_.push_back(job->id);
    while (terminal_.size() > keptTerminal) {
        jobs_.erase(terminal_.front());
        terminal_.pop_front();
    }
}

JobStatus
JobScheduler::statusLocked(const std::shared_ptr<Job> &job)
{
    JobStatus st;
    st.job_id = job->id;
    st.kind = job->spec.kind;
    st.state = job->state;
    st.client_id = job->spec.client_id;
    st.stage = job->state == JobState::Queued
                   ? "queued"
                   : attack::sessionStageName(job->cp.stage);
    st.done_units = job->done_units;
    st.total_units = job->total_units;
    st.elapsed_ms = static_cast<uint64_t>(
        job->cp.elapsed_seconds * 1000.0);
    st.error = job->error;
    return st;
}

std::optional<JobStatus>
JobScheduler::status(uint64_t job_id)
{
    std::lock_guard<std::mutex> lk(lock_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end())
        return std::nullopt;
    return statusLocked(it->second);
}

std::vector<JobStatus>
JobScheduler::list()
{
    std::lock_guard<std::mutex> lk(lock_);
    std::vector<JobStatus> out;
    out.reserve(jobs_.size());
    for (auto &[id, job] : jobs_)
        out.push_back(statusLocked(job));
    return out;
}

bool
JobScheduler::waitResult(uint64_t job_id, JobResult *out)
{
    std::unique_lock<std::mutex> lk(lock_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end())
        return false;
    auto job = it->second;
    terminal_cv_.wait(
        lk, [&] { return jobStateTerminal(job->state); });
    out->job_id = job->id;
    out->state = job->state;
    out->text = job->result_text;
    out->error = job->error;
    return true;
}

bool
JobScheduler::cancel(uint64_t job_id)
{
    std::lock_guard<std::mutex> lk(lock_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end())
        return false;
    auto job = it->second;
    if (jobStateTerminal(job->state))
        return false;
    if (job->state == JobState::Queued) {
        // Dequeue: a queued job never ran, so it terminates here.
        auto qit = queues_.find(job->spec.client_id);
        if (qit != queues_.end()) {
            auto &q = qit->second;
            for (auto jit = q.begin(); jit != q.end(); ++jit) {
                if ((*jit)->id == job_id) {
                    q.erase(jit);
                    break;
                }
            }
            if (q.empty())
                queues_.erase(qit);
        }
        job->state = JobState::Cancelled;
        count("serve.jobs.cancelled", "jobs cancelled");
        retireLocked(job);
        terminal_cv_.notify_all();
        return true;
    }
    // Running: raise the token (or flag it if the session is still
    // being constructed); the job terminates at the session's next
    // cooperative checkpoint.
    job->cancel_requested = true;
    if (job->session != nullptr)
        job->session->cancelToken().requestCancel();
    return true;
}

void
JobScheduler::drain(bool cancel_running)
{
    std::unique_lock<std::mutex> lk(lock_);
    draining_ = true;
    // Queued jobs will never run now; cancel them outright.
    for (auto &[client, q] : queues_) {
        for (auto &job : q) {
            job->state = JobState::Cancelled;
            count("serve.jobs.cancelled", "jobs cancelled");
            retireLocked(job);
        }
    }
    queues_.clear();
    if (cancel_running) {
        for (auto &[id, job] : jobs_) {
            if (job->state == JobState::Running) {
                job->cancel_requested = true;
                if (job->session != nullptr)
                    job->session->cancelToken().requestCancel();
            }
        }
    }
    terminal_cv_.notify_all();
    terminal_cv_.wait(lk, [&] { return inflight_tasks_ == 0; });
}

size_t
JobScheduler::runningJobs()
{
    std::lock_guard<std::mutex> lk(lock_);
    return running_;
}

size_t
JobScheduler::queuedJobs()
{
    std::lock_guard<std::mutex> lk(lock_);
    return queuedJobsLocked();
}

} // namespace coldboot::serve
