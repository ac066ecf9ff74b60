#include "obs/progress.hh"

#include <algorithm>

#include "obs/json.hh"

namespace coldboot::obs
{

//
// ProgressJob
//

ProgressJob::ProgressJob(uint64_t id_, std::string name_,
                         uint64_t total_)
    : job_id(id_), job_name(std::move(name_)), total(total_),
      start(std::chrono::steady_clock::now())
{
}

void
ProgressJob::finish()
{
    bool expected = false;
    if (done_flag.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
        end = std::chrono::steady_clock::now();
        // Snap the done count to the total so percent() lands on
        // exactly 100 even when the caller's unit accounting was
        // conservative (e.g. a truncated tail chunk).
        uint64_t d = done.load(std::memory_order_relaxed);
        if (d < total)
            done.fetch_add(total - d, std::memory_order_relaxed);
    }
}

double
ProgressJob::percent() const
{
    if (finished())
        return 100.0;
    if (total == 0)
        return 0.0;
    double p = 100.0 *
               static_cast<double>(done.load(std::memory_order_relaxed)) /
               static_cast<double>(total);
    return std::clamp(p, 0.0, 100.0);
}

double
ProgressJob::elapsedSeconds() const
{
    auto stop = finished() ? end : std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

double
ProgressJob::etaSeconds() const
{
    if (finished())
        return 0.0;
    uint64_t d = done.load(std::memory_order_relaxed);
    if (d == 0 || total == 0)
        return -1.0;
    if (d >= total)
        return 0.0;
    double elapsed = elapsedSeconds();
    return elapsed * static_cast<double>(total - d) /
           static_cast<double>(d);
}

//
// ProgressTracker
//

ProgressTracker &
ProgressTracker::global()
{
    static ProgressTracker instance;
    return instance;
}

std::shared_ptr<ProgressJob>
ProgressTracker::startJob(const std::string &name,
                          uint64_t total_units)
{
    std::lock_guard<std::mutex> lock(mu);
    auto job =
        std::make_shared<ProgressJob>(next_id++, name, total_units);
    jobs.push_back(job);
    evictFinished();
    return job;
}

void
ProgressTracker::evictFinished()
{
    // Called under `mu`. Drop the oldest finished jobs once more than
    // keptFinished of them accumulated; live jobs are never evicted.
    size_t finished_count = 0;
    for (const auto &j : jobs)
        if (j->finished())
            ++finished_count;
    for (auto it = jobs.begin();
         finished_count > keptFinished && it != jobs.end();) {
        if ((*it)->finished()) {
            it = jobs.erase(it);
            --finished_count;
        } else {
            ++it;
        }
    }
}

std::vector<ProgressSnapshot>
ProgressTracker::snapshot()
{
    std::lock_guard<std::mutex> lock(mu);
    evictFinished();
    std::vector<ProgressSnapshot> out;
    out.reserve(jobs.size());
    for (const auto &j : jobs) {
        ProgressSnapshot s;
        s.id = j->id();
        s.name = j->name();
        s.total_units = j->totalUnits();
        s.done_units = j->doneUnits();
        s.percent = j->percent();
        s.elapsed_seconds = j->elapsedSeconds();
        s.eta_seconds = j->etaSeconds();
        s.finished = j->finished();
        out.push_back(std::move(s));
    }
    return out;
}

std::string
ProgressTracker::dumpJson()
{
    auto snaps = snapshot();
    std::string out = "{\n  \"jobs\": [";
    bool first = true;
    for (const auto &s : snaps) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"id\": " + std::to_string(s.id) +
               ", \"name\": \"" + json::escape(s.name) +
               "\", \"total_units\": " + std::to_string(s.total_units) +
               ", \"done_units\": " + std::to_string(s.done_units) +
               ", \"percent\": " + json::number(s.percent) +
               ", \"eta_seconds\": " + json::number(s.eta_seconds) +
               ", \"elapsed_seconds\": " +
               json::number(s.elapsed_seconds) + ", \"finished\": " +
               (s.finished ? "true" : "false") + "}";
    }
    out += "\n  ]\n}\n";
    return out;
}

void
ProgressTracker::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu);
    jobs.clear();
    next_id = 1;
}

} // namespace coldboot::obs
