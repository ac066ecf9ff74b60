/**
 * @file
 * coldboot-lint rule catalog and rule engine.
 *
 * Each rule enforces one project invariant (see README "Static
 * analysis" for the catalog with rationale):
 *
 *   secret-wipe         memset/bzero on key-material identifiers -
 *                       dead-store elimination can skip the wipe; use
 *                       secureWipe() from common/secure.hh.
 *   banned-api          rand/strcpy/sprintf/gets/system and raw
 *                       new[]: non-deterministic, overflow-prone, or
 *                       both.
 *   no-wallclock-in-sim time()/system_clock/random_device outside
 *                       the allowed zones - the simulator must stay
 *                       deterministic given a seed.
 *   include-hygiene     headers need an include guard (#pragma once
 *                       or #ifndef/#define) and must not contain
 *                       `using namespace`.
 *   log-no-secrets      key-material identifiers may not be passed
 *                       to cb_* logging / LOG_* calls.
 *   no-raw-thread       std::thread / std::jthread / pthread_create
 *                       outside src/exec/ - parallel work must run
 *                       on exec::ThreadPool so COLDBOOT_THREADS and
 *                       the exec.pool.* stats govern it (scoped
 *                       members like std::thread::id are fine).
 *   bad-suppression     malformed `coldboot-lint: allow(...)`
 *                       comments (wrong syntax, unknown rule, or
 *                       missing justification).
 *
 * Three further rules run on the project-wide call graph rather than
 * one file's token stream (tools/lint/dataflow.hh):
 *
 *   secret-taint            key material reaches a logging / output
 *                           sink through assignments and call
 *                           arguments, possibly across translation
 *                           units; the SARIF report carries the full
 *                           inter-procedural path as a code flow.
 *   transitive-determinism  a function reachable from a
 *                           parallelForChunks / parallelMapReduce-
 *                           Chunks / scanDump body transitively calls
 *                           wall-clock or OS-entropy APIs.
 *   wipe-coverage           a struct/class owns key-named byte
 *                           storage but has no destructor that
 *                           secureWipe()s it.
 */

#ifndef COLDBOOT_TOOLS_LINT_RULES_HH
#define COLDBOOT_TOOLS_LINT_RULES_HH

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace coldboot::lint
{

/**
 * One hop of an inter-procedural path (SARIF threadFlowLocation):
 * where the value was sourced, handed to a callee, or sunk.
 */
struct FlowStep
{
    std::string file;
    int line = 0;
    int col = 0;
    std::string note; ///< human-readable step description
};

/** One rule violation. */
struct Finding
{
    std::string rule;
    std::string file; ///< path as given to the engine
    int line = 0;
    int col = 0;
    std::string message;
    /**
     * Inter-procedural path for call-graph findings, source first,
     * sink last. Empty for single-location findings. Rendered as
     * SARIF codeFlows/threadFlows.
     */
    std::vector<FlowStep> flow;
};

/**
 * Catalog entry: stable rule id, one-line description, and the
 * explain/help metadata. The same table feeds `--explain <rule>`,
 * `--list-rules` and the SARIF rule metadata, so the three cannot
 * drift apart.
 */
struct RuleInfo
{
    const char *id;
    const char *description;
    const char *rationale;   ///< why the project enforces this
    const char *example_bad; ///< minimal violating snippet
    const char *example_fix; ///< the corrected snippet
};

/** All rules, in catalog order (includes bad-suppression). */
const std::vector<RuleInfo> &ruleCatalog();

/** Catalog entry for @p id, or nullptr if unknown. */
const RuleInfo *findRule(const std::string &id);

/** Whether @p id names a rule in the catalog. */
bool isKnownRule(const std::string &id);

/**
 * Whether @p ident looks like key material (contains key / secret /
 * master / passphrase / password, case-insensitive). Shared by
 * secret-wipe and log-no-secrets.
 */
bool looksSecret(const std::string &ident);

/**
 * Stricter variant for the dataflow passes: looksSecret() plus
 * demotions for identifiers that are *about* keys without holding
 * key bytes - sizes, addresses, match counts, stat-registry key
 * strings ("key" alone), and so on. Token rules keep the loose
 * heuristic (a direct `cb_warn(..., key)` is worth a look either
 * way); taint tracking amplifies every seed across the call graph,
 * so its seeds must be high-confidence.
 */
bool looksKeyMaterial(const std::string &ident);

/**
 * Type names that hold key material by construction. Locals and
 * parameters of these types seed the secret-taint pass regardless of
 * the variable's name.
 */
const std::vector<const char *> &secretTypeNames();

/**
 * Self-wiping type names: holding key bytes in one of these
 * satisfies wipe-coverage (the destructor guarantees the wipe).
 */
const std::vector<const char *> &wipingTypeNames();

/** Functions whose call reads the wall clock (banned in the sim). */
const std::vector<const char *> &wallclockCallNames();

/** Type names that break seeded determinism (system_clock, ...). */
const std::vector<const char *> &wallclockTypeNames();

/** Whether @p name is a logging entry point (cb_* / LOG_*). */
bool isLogCall(const std::string &name);

/**
 * Whether a call to @p name emits data beyond the process: logging,
 * stdio/file output, or socket writes. These are the secret-taint
 * sinks.
 */
bool isSinkCall(const std::string &name);

/**
 * Run every rule not in @p disabled over one file's token stream.
 * @p path is used for reporting and for the header-only rules
 * (include-hygiene applies to .h/.hh/.hpp files).
 */
std::vector<Finding> runRules(const std::string &path,
                              const LexResult &lex,
                              const std::set<std::string> &disabled);

} // namespace coldboot::lint

#endif // COLDBOOT_TOOLS_LINT_RULES_HH
