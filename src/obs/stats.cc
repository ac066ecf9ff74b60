#include "obs/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "obs/fsio.hh"
#include "obs/json.hh"

namespace coldboot::obs
{

namespace
{

using json::escape;

/** Render a double as JSON (non-finite values become 0). */
std::string
jsonNumber(double v)
{
    return json::number(v);
}

} // anonymous namespace

//
// Distribution
//

Distribution::Distribution(std::vector<double> bucket_edges)
    : edges(std::move(bucket_edges))
{
    cb_assert(std::is_sorted(edges.begin(), edges.end()),
              "Distribution: bucket edges must be sorted");
    if (!edges.empty())
        buckets.assign(edges.size() + 1, 0);
}

void
Distribution::sample(double value)
{
    std::lock_guard<std::mutex> lock(mu);
    if (n == 0) {
        vmin = vmax = value;
    } else {
        vmin = std::min(vmin, value);
        vmax = std::max(vmax, value);
    }
    ++n;
    sum += value;
    sum_sq += value * value;
    if (!buckets.empty()) {
        // Bucket i counts values in [edges[i-1], edges[i]); the first
        // bucket is the underflow (-inf, edges[0]) and the last the
        // overflow [edges.back(), +inf).
        size_t idx = static_cast<size_t>(
            std::upper_bound(edges.begin(), edges.end(), value) -
            edges.begin());
        ++buckets[idx];
    }
}

DistributionSnapshot
Distribution::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    DistributionSnapshot s;
    s.count = n;
    s.min = vmin;
    s.max = vmax;
    s.sum = sum;
    s.bucket_edges = edges;
    s.bucket_counts = buckets;
    if (n > 0) {
        s.mean = sum / static_cast<double>(n);
        double var =
            sum_sq / static_cast<double>(n) - s.mean * s.mean;
        s.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
    }
    return s;
}

void
Distribution::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    n = 0;
    sum = sum_sq = vmin = vmax = 0.0;
    std::fill(buckets.begin(), buckets.end(), 0);
}

//
// StatRegistry
//

StatRegistry::StatRegistry()
    : epoch(std::chrono::steady_clock::now())
{
}

StatRegistry &
StatRegistry::global()
{
    static StatRegistry instance;
    return instance;
}

StatRegistry::Entry &
StatRegistry::findOrCreate(const std::string &name, Kind kind,
                           const std::string &desc)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(name);
    if (it != entries.end()) {
        if (it->second->kind != kind)
            cb_fatal("stat '%s' already registered with a different "
                     "type", name.c_str());
        if (it->second->desc.empty() && !desc.empty())
            it->second->desc = desc;
        return *it->second;
    }
    auto entry = std::make_unique<Entry>();
    entry->kind = kind;
    entry->desc = desc;
    return *entries.emplace(name, std::move(entry)).first->second;
}

Counter &
StatRegistry::counter(const std::string &name, const std::string &desc)
{
    return findOrCreate(name, Kind::CounterKind, desc).counter;
}

Distribution &
StatRegistry::distribution(const std::string &name,
                           const std::string &desc,
                           std::vector<double> bucket_edges)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(name);
    if (it != entries.end()) {
        if (it->second->kind != Kind::DistributionKind)
            cb_fatal("stat '%s' already registered with a different "
                     "type", name.c_str());
        return *it->second->dist;
    }
    auto entry = std::make_unique<Entry>();
    entry->kind = Kind::DistributionKind;
    entry->desc = desc;
    entry->dist =
        std::make_unique<Distribution>(std::move(bucket_edges));
    return *entries.emplace(name, std::move(entry))
                .first->second->dist;
}

void
StatRegistry::setScalar(const std::string &name, double value,
                        const std::string &desc)
{
    if (!std::isfinite(value))
        value = 0.0;
    findOrCreate(name, Kind::ScalarKind, desc)
        .scalar.store(value, std::memory_order_relaxed);
}

bool
StatRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.count(name) != 0;
}

uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(name);
    if (it == entries.end() || it->second->kind != Kind::CounterKind)
        return 0;
    return it->second->counter.value();
}

double
StatRegistry::scalarValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(name);
    if (it == entries.end() || it->second->kind != Kind::ScalarKind)
        return 0.0;
    return it->second->scalar.load(std::memory_order_relaxed);
}

std::vector<StatSnapshot>
StatRegistry::snapshotAll() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<StatSnapshot> out;
    out.reserve(entries.size());
    for (const auto &kv : entries) {
        const Entry &e = *kv.second;
        StatSnapshot s;
        s.name = kv.first;
        s.desc = e.desc;
        switch (e.kind) {
          case Kind::CounterKind:
            s.type = StatSnapshot::Type::Counter;
            s.value = static_cast<double>(e.counter.value());
            break;
          case Kind::ScalarKind:
            s.type = StatSnapshot::Type::Scalar;
            s.value = e.scalar.load(std::memory_order_relaxed);
            break;
          case Kind::DistributionKind:
            s.type = StatSnapshot::Type::Distribution;
            s.dist = e.dist->snapshot();
            s.value = static_cast<double>(s.dist.count);
            break;
        }
        out.push_back(std::move(s));
    }
    return out;
}

void
StatRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &kv : entries) {
        Entry &e = *kv.second;
        switch (e.kind) {
          case Kind::CounterKind: e.counter.reset(); break;
          case Kind::DistributionKind: e.dist->reset(); break;
          case Kind::ScalarKind: e.scalar.store(0.0); break;
        }
    }
    epoch = std::chrono::steady_clock::now();
}

std::string
StatRegistry::dumpText() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    char buf[256];
    for (const auto &kv : entries) {
        const Entry &e = *kv.second;
        switch (e.kind) {
          case Kind::CounterKind:
            std::snprintf(buf, sizeof(buf), "%-52s %20llu\n",
                          kv.first.c_str(),
                          static_cast<unsigned long long>(
                              e.counter.value()));
            out += buf;
            break;
          case Kind::ScalarKind:
            std::snprintf(buf, sizeof(buf), "%-52s %20.6g\n",
                          kv.first.c_str(),
                          e.scalar.load(std::memory_order_relaxed));
            out += buf;
            break;
          case Kind::DistributionKind: {
            auto s = e.dist->snapshot();
            std::snprintf(buf, sizeof(buf),
                          "%-52s n=%llu min=%.6g max=%.6g "
                          "mean=%.6g stddev=%.6g\n",
                          kv.first.c_str(),
                          static_cast<unsigned long long>(s.count),
                          s.min, s.max, s.mean, s.stddev);
            out += buf;
            break;
          }
        }
    }
    return out;
}

std::string
StatRegistry::dumpJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out = "{\n  \"meta\": {\"wall_seconds\": ";
    out += jsonNumber(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - epoch)
                          .count());
    out += "},\n  \"stats\": {";
    bool first = true;
    for (const auto &kv : entries) {
        const Entry &e = *kv.second;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + escape(kv.first) + "\": {";
        out += "\"desc\": \"" + escape(e.desc) + "\", ";
        switch (e.kind) {
          case Kind::CounterKind:
            out += "\"type\": \"counter\", \"value\": " +
                   std::to_string(e.counter.value());
            break;
          case Kind::ScalarKind:
            out += "\"type\": \"scalar\", \"value\": " +
                   jsonNumber(
                       e.scalar.load(std::memory_order_relaxed));
            break;
          case Kind::DistributionKind: {
            auto s = e.dist->snapshot();
            out += "\"type\": \"distribution\", \"count\": " +
                   std::to_string(s.count) +
                   ", \"min\": " + jsonNumber(s.min) +
                   ", \"max\": " + jsonNumber(s.max) +
                   ", \"sum\": " + jsonNumber(s.sum) +
                   ", \"mean\": " + jsonNumber(s.mean) +
                   ", \"stddev\": " + jsonNumber(s.stddev);
            if (!s.bucket_edges.empty()) {
                out += ", \"bucket_edges\": [";
                for (size_t i = 0; i < s.bucket_edges.size(); ++i) {
                    if (i)
                        out += ", ";
                    out += jsonNumber(s.bucket_edges[i]);
                }
                out += "], \"bucket_counts\": [";
                for (size_t i = 0; i < s.bucket_counts.size(); ++i) {
                    if (i)
                        out += ", ";
                    out += std::to_string(s.bucket_counts[i]);
                }
                out += "]";
            }
            break;
          }
        }
        out += "}";
    }
    out += "\n  }\n}\n";
    return out;
}

void
StatRegistry::writeJsonFile(const std::string &path) const
{
    writeFileCreatingDirs(path, dumpJson(), "stats output");
}

} // namespace coldboot::obs
