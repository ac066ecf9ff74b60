/**
 * @file
 * Render-side of the live telemetry plane: Prometheus text
 * exposition (format version 0.0.4) rendered from a StatRegistry
 * snapshot, and an exposition-format validator shared by the tests,
 * the `coldboot-promcheck` tool and the CI scrape leg.
 *
 * Pure functions over snapshots - no sockets, no threads, no clocks -
 * so every byte `/metrics` serves is unit-testable without a server.
 * Rates over time are the scraper's job: Prometheus derives them from
 * successive counter scrapes.
 */

#ifndef COLDBOOT_OBS_EXPORT_HH
#define COLDBOOT_OBS_EXPORT_HH

#include <string>
#include <string_view>
#include <vector>

#include "obs/stats.hh"

namespace coldboot::obs
{

/**
 * A registry name as a Prometheus metric name: dots and any other
 * character outside [a-zA-Z0-9_:] become '_', and a leading digit is
 * prefixed with '_' ("attack.miner.blocks_scanned" ->
 * "attack_miner_blocks_scanned").
 */
std::string prometheusName(const std::string &name);

/**
 * Render registry stats as Prometheus text exposition:
 *  - counters  -> `# TYPE <name> counter` + value;
 *  - scalars   -> gauge;
 *  - distributions -> histogram when bucket edges exist (cumulative
 *    `_bucket{le="..."}` series ending in `le="+Inf"`, plus `_sum` /
 *    `_count`), else `_count`/`_sum`/`_min`/`_max`/`_mean` gauges.
 */
std::string renderPrometheusText(const std::vector<StatSnapshot> &stats);

/**
 * Validate Prometheus text exposition line by line: `# HELP` /
 * `# TYPE` comments (known types only), metric lines of the form
 * `name[{labels}] value [timestamp]` with a legal metric name and a
 * parseable value (+Inf/-Inf/NaN included), and a TYPE comment never
 * repeated for one metric.
 *
 * @param error When non-null, receives "line N: why" on failure.
 * @return true when every line conforms.
 */
bool validatePrometheusText(std::string_view text,
                            std::string *error = nullptr);

} // namespace coldboot::obs

#endif // COLDBOOT_OBS_EXPORT_HH
