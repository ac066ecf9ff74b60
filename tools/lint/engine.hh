/**
 * @file
 * coldboot-lint driver: tree walking, per-directory configuration,
 * inline suppressions, the cross-TU call-graph analysis
 * (dataflow.hh), and the text / JSON / SARIF 2.1.0 emitters.
 *
 * Configuration: a `.coldboot-lint` file in any directory applies to
 * that directory and everything below it. Lines (comments start
 * with '#'):
 *
 *     disable <rule>                  # whole subtree
 *     disable <rule> <file-substring> # only matching file names
 *
 * Suppressions: a finding is waived by a comment on the same line or
 * the line directly above:
 *
 *     // coldboot-lint: allow(<rule>) -- <justification>
 *
 * The justification is required; a suppression without one (or
 * naming an unknown rule) is itself reported as `bad-suppression`.
 */

#ifndef COLDBOOT_TOOLS_LINT_ENGINE_HH
#define COLDBOOT_TOOLS_LINT_ENGINE_HH

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.hh"

namespace coldboot::lint
{

/** Tool version, reported by --version and in JSON/SARIF output. */
const char *lintVersion();

/** Tree-walk options. */
struct LintOptions
{
    /** Directory the scan roots at (paths are relative to it). */
    std::string root = ".";
    /** Subtrees (or single files) to scan, relative to root. */
    std::vector<std::string> paths = {"src", "bench", "tests",
                                      "tools"};
};

/** Scan outcome. */
struct LintResult
{
    std::vector<Finding> findings;
    size_t files_scanned = 0;
    /** Wall time of the cross-TU call-graph analysis alone. */
    long analysis_ms = 0;
    /** Wall time of the whole tree lint. */
    long elapsed_ms = 0;
    /** Set when the scan itself failed (missing root, bad config). */
    bool internal_error = false;
    std::string error_message;
};

/**
 * Lint one in-memory source with the token rules only (the
 * call-graph passes need the whole project and run in lintTree).
 * @p display_path is used in findings and for header-only rules;
 * @p disabled comes from per-directory config. Applies suppression
 * comments (valid ones waive findings; malformed ones become
 * bad-suppression findings).
 */
std::vector<Finding> lintSource(
    const std::string &display_path, std::string_view content,
    const std::set<std::string> &disabled = {});

/**
 * Walk the tree, lint every C++ source under options.paths, then
 * run the cross-TU call-graph passes (secret-taint,
 * transitive-determinism, wipe-coverage) over the parsed summaries.
 * Per-directory config and inline suppressions apply to the
 * call-graph findings exactly as to token findings, keyed on the
 * finding's primary file and line.
 */
LintResult lintTree(const LintOptions &options);

/** One finding per line: `file:line:col: [rule] message`. */
std::string emitText(const LintResult &result);

/** Machine-readable JSON (tool, version, findings, files_scanned). */
std::string emitJson(const LintResult &result);

/** SARIF 2.1.0 for CI code-scanning annotation. */
std::string emitSarif(const LintResult &result);

} // namespace coldboot::lint

#endif // COLDBOOT_TOOLS_LINT_ENGINE_HH
