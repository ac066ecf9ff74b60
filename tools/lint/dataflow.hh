/**
 * @file
 * Flow-sensitive project-wide analyses over the call graph.
 *
 * Three passes, each backing one rule (see rules.hh for the catalog
 * text):
 *
 *   secret-taint: seeds at key material (locals/params of
 *   secretTypeNames() types and identifiers matching looksSecret()),
 *   closes over intra-function assignment/copy edges, then follows
 *   call arguments through an inter-procedural sink-reachability
 *   fixpoint (an IFDS-style param-summary: "does param k of f reach
 *   a sink?"). A finding is reported at the origin - where the
 *   secret enters the flow - and carries the full hop-by-hop path in
 *   Finding::flow for SARIF code flows.
 *
 *   transitive-determinism: the bodies handed to parallelForChunks /
 *   parallelMapReduceChunks / scanDump must stay deterministic
 *   (DESIGN.md 9).
 *   The token rule no-wallclock-in-sim catches direct uses; this
 *   pass walks the call graph from each parallel-region lambda and
 *   flags wall-clock / OS-entropy uses in transitively-called
 *   functions, which a per-file scan cannot see.
 *
 *   wipe-coverage: a struct owning key-named byte storage
 *   (vector/array/string members whose name looksSecret()) must
 *   either wipe in its destructor (secureWipe()/wipe(), directly or
 *   one call away, in-class or out-of-line) or hold the bytes in a
 *   self-wiping type (SecureBuffer).
 *
 * All resolution is by simple name and deliberately
 * over-approximate; precision comes from suppressions, not from a
 * type checker this linter does not have.
 */

#ifndef COLDBOOT_TOOLS_LINT_DATAFLOW_HH
#define COLDBOOT_TOOLS_LINT_DATAFLOW_HH

#include <vector>

#include "lint/parse.hh"
#include "lint/rules.hh"

namespace coldboot::lint
{

/**
 * Run the three call-graph passes over every parsed TU and return
 * their findings (unsorted, not yet suppression-filtered - the
 * engine applies per-file config and inline suppressions).
 */
std::vector<Finding> analyzeProject(
    const std::vector<FileSummary> &summaries);

} // namespace coldboot::lint

#endif // COLDBOOT_TOOLS_LINT_DATAFLOW_HH
