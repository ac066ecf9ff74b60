/**
 * @file
 * The three measured workloads. Each drives the program through the
 * same public calls its users make, checks every result against the
 * generator's truth, and fills in the metrics by name.
 */

#ifndef DUMPBENCH_WORKLOADS_HH
#define DUMPBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "capture.hh"

namespace dumpbench
{

struct RunConfig
{
    /** Work directory holding the captures and truth.txt. */
    std::string dir;
    /** Measurement window in seconds. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics, spans, width-1 check. */
    bool trace = false;
    /** Pool width the benchmark installs as the global pool. */
    unsigned width = 1;
};

struct RunResult
{
    /**
     * False when a shape check or a repeat check failed, or when
     * e4_attack returned a wrong pair.
     */
    bool correct = true;
    /** Operations attempted; those that failed, were refused or were
     *  cancelled; and those that returned an XTS pair that is not the
     *  planted one (1 - ok_frac = (failed + wrong) / attempted). An
     *  e3_mine run's inexact keys count in recovered_frac instead. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
    /** Metric values by name (units come from the metric tables). */
    std::map<std::string, double> metrics;
    /** Counts that must repeat exactly across runs and pool widths. */
    std::map<std::string, uint64_t> counts;
    /** SHA-256 prefix over the mined and recovered keys. */
    std::string key_digest;
    /** Human-readable lines: tail percentile, flags, failures. */
    std::vector<std::string> notes;

    /** Record a failed check: not correct, with a note saying why. */
    void fail(const std::string &why);
};

/** Run @p truth.workload over the captures in @p cfg.dir. */
RunResult runWorkload(const Truth &truth, const RunConfig &cfg);

} // namespace dumpbench

#endif // DUMPBENCH_WORKLOADS_HH
