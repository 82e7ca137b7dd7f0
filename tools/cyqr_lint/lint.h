#ifndef CYQR_LINT_LINT_H_
#define CYQR_LINT_LINT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "parse.h"

namespace cyqr_lint {

/// One finding. Formats as "file:line: [rule] message".
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One acquisition-order edge in the global lock graph: `from` was held
/// when `to` was acquired. Nodes are class-qualified mutex names
/// ("MetricsRegistry::mu_") or bare names for file-scope mutexes.
struct LockOrderEdge {
  std::string from;
  std::string to;
  std::string file;  ///< Witness file (where the inner acquisition is).
  int line = 0;      ///< Witness line of the inner acquisition.
};

/// Cross-file facts shared by every rule. Populated from every parsed
/// file before any rule runs.
struct LintContext {
  /// Unqualified names of functions/methods that accept a Deadline (or
  /// DeadlineBudget) parameter anywhere in the scanned tree — the callee
  /// set for the deadline-propagation rule.
  std::set<std::string> deadline_functions;
  /// "Class::field" (or "::field" at file scope) -> guarding mutex name
  /// as written in the CYQR_GUARDED_BY annotation.
  std::map<std::string, std::string> guarded_fields;
  /// CYQR_REQUIRES attachments, keyed by both "Class::fn" and plain "fn";
  /// values are the required mutex names as written (unqualified).
  std::map<std::string, std::vector<std::string>> requires_functions;
  /// CYQR_ACQUIRE attachments, keyed like requires_functions; values are
  /// class-qualified mutex nodes for the lock-order graph.
  std::map<std::string, std::vector<std::string>> acquire_functions;
  /// The merged global acquisition-order graph, read only by the
  /// whole-tree cycle pass.
  std::vector<LockOrderEdge> lock_order_edges;
};

/// A named invariant check. Rules are pure: they read the parsed file and
/// the shared context and emit diagnostics; NOLINT suppression is applied
/// by RunLint.
class Rule {
 public:
  virtual ~Rule() = default;
  virtual const char* name() const = 0;
  virtual void Check(const ParsedFile& file, const LintContext& ctx,
                     std::vector<Diagnostic>* out) const = 0;
};

/// All built-in rules: unchecked-stream, banned-functions,
/// banned-unseeded-rng, raw-owning-new, include-hygiene, metrics-naming,
/// lock-scope, deadline-propagation, lock-held-blocking-call,
/// atomic-ordering-audit, result-unwrap-check, guarded-field-access,
/// requires-not-held, lock-order-cycle.
std::vector<std::unique_ptr<Rule>> BuildAllRules();

/// Scans one lexed file for functions declared with a Deadline parameter
/// (behind LintContext::deadline_functions). Works on raw tokens so pure
/// declarations (`virtual ... = 0;`) are collected too.
void CollectDeadlineFunctions(const LexedFile& file,
                              std::set<std::string>* names);

struct LintOptions {
  /// When non-empty, only rules named here run.
  std::set<std::string> enabled_rules;
  /// Path substrings excluded from the scan entirely (fixtures etc.).
  std::vector<std::string> exclude;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // Sorted by (file, line, rule).
  int files_scanned = 0;
  std::vector<std::string> errors;  // Unreadable paths etc.
};

/// Files or directories -> sorted unique list of lintable source files
/// (.h/.hpp/.cc/.cpp), dropping any whose path contains an `exclude`
/// fragment.
std::vector<std::string> ExpandPaths(const std::vector<std::string>& paths,
                                     const std::vector<std::string>& exclude,
                                     std::vector<std::string>* errors);

/// Lints every C++ source file under `paths` (files or directories,
/// recursively) in one serial pass: lex and parse every file, merge the
/// cross-file declarations, then per file collect its lock-order edges
/// and run the rules (dropping NOLINT-suppressed findings), then run the
/// whole-tree lock-order-cycle pass.
LintResult RunLint(const std::vector<std::string>& paths,
                   const LintOptions& options);

/// Renders diagnostics as "file:line: [rule] message" lines, or as a JSON
/// array of {file, line, rule, message} objects.
std::string FormatText(const LintResult& result);
std::string FormatJson(const LintResult& result);

/// Renders the result as a SARIF 2.1.0 log (one run, every built-in rule
/// listed in the tool component) for GitHub code scanning upload.
std::string FormatSarif(const LintResult& result);

}  // namespace cyqr_lint

#endif  // CYQR_LINT_LINT_H_
