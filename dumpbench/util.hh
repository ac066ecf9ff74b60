/**
 * @file
 * Wall-clock timing shared by the benchmark's sources. Order
 * statistics come from obs::bench (median, percentile).
 */

#ifndef DUMPBENCH_UTIL_HH
#define DUMPBENCH_UTIL_HH

#include <chrono>

namespace dumpbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace dumpbench

#endif // DUMPBENCH_UTIL_HH
