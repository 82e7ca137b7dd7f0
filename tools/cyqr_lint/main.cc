// cyqr_lint — project-native static analyzer for the cycleqr tree.
//
//   cyqr_lint [--json] [--sarif=FILE] [--rule=NAME ...]
//             [--exclude=PATH_FRAGMENT ...] [--list-rules] PATH [PATH ...]
//
// Walks the given files/directories (.h .hpp .cc .cpp) and enforces the
// project invariants as named rules. A discarded Status or Result<T> is
// not among them: both are `class [[nodiscard]]` and every build compiles
// with -Werror=unused-result. The flat token rules:
//
//   unchecked-stream   a file stream that is never error-checked after
//                      use (the PR-1 LoadParameters bug class)
//   banned-functions   std::rand / atoi / sprintf / time(nullptr) —
//                      determinism and safety killers for replay
//                      debugging
//   banned-unseeded-rng  argless std::mt19937 / mt19937_64 /
//                      default_random_engine construction (declaration
//                      or temporary): the implicit default seed breaks
//                      replay-from-seed
//   raw-owning-new     raw new/delete without a NOLINT exemption
//   include-hygiene    headers without guards; .cc files whose own
//                      header is not the first include
//   metrics-naming     metric names outside the <subsystem>_<noun>_
//                      <unit> convention
//   lock-scope         mutex locked without a scoped guard
//
// The flow-aware rules (built on the parse layer's recovered functions,
// calls, and lock regions):
//
//   deadline-propagation     a function holding a Deadline parameter
//                            calls a Deadline-accepting callee without
//                            forwarding it
//   lock-held-blocking-call  sleep/IO/queue handoff/backend call inside
//                            a lock_guard or unique_lock scope
//   atomic-ordering-audit    explicit std::memory_order_* without a
//                            '// ordering:' justification comment
//   result-unwrap-check      Result<T>::value() with no dominating ok()
//                            check in the same function
//
// The thread-safety rules (driven by the CYQR_GUARDED_BY / CYQR_REQUIRES
// / CYQR_ACQUIRE annotation macros in src/core/thread_annotations.h,
// resolved as cross-file facts):
//
//   guarded-field-access     a CYQR_GUARDED_BY(m) field touched outside
//                            a lock region holding m and outside a
//                            CYQR_REQUIRES(m) function
//   requires-not-held        call site of a CYQR_REQUIRES(m) function
//                            with no enclosing lock region holding m
//   lock-order-cycle         cycle in the global (whole-tree) lock
//                            acquisition-order graph built from nested
//                            lock regions and CYQR_ACQUIRE edges; the
//                            report carries every witness edge's
//                            file:line
//
// Suppression: `// NOLINT(cyqr-<rule>)` on the offending line, or
// `// NOLINTNEXTLINE(cyqr-<rule>)` on the line above; a justification
// after the closing paren is expected by review convention.
//
// One serial pass (RunLint): lex and parse every file, merge the
// cross-file declarations, run the rules file by file, then search the
// merged lock graph for cycles. The whole tree lints in well under a
// second.
//
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#include <cstdio>
#include <string>
#include <vector>

#include "core/file_util.h"
#include "lint.h"

namespace cyqr_lint {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cyqr_lint [--json] [--sarif=FILE] [--rule=NAME ...] "
               "[--exclude=PATH_FRAGMENT ...] [--list-rules] "
               "PATH [PATH ...]\n");
  return 2;
}

int Main(int argc, char** argv) {
  LintOptions options;
  std::vector<std::string> paths;
  bool json = false;
  std::string sarif_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg.rfind("--exclude=", 0) == 0) {
      options.exclude.push_back(arg.substr(10));
    } else if (arg == "--list-rules") {
      for (const auto& rule : BuildAllRules()) {
        std::printf("%s\n", rule->name());
      }
      return 0;
    } else if (arg.rfind("--rule=", 0) == 0) {
      options.enabled_rules.insert(arg.substr(7));
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return Usage();

  const LintResult result = RunLint(paths, options);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
  }
  bool sarif_failed = false;
  if (!sarif_path.empty()) {
    const cyqr::Status written =
        cyqr::WriteStringToFileAtomic(sarif_path, FormatSarif(result));
    if (!written.ok()) {
      std::fprintf(stderr, "error: cannot write SARIF: %s\n",
                   sarif_path.c_str());
      sarif_failed = true;
    }
  }
  if (json) {
    std::fputs(FormatJson(result).c_str(), stdout);
  } else {
    std::fputs(FormatText(result).c_str(), stdout);
    std::fprintf(stderr, "cyqr_lint: %d file(s), %zu violation(s)\n",
                 result.files_scanned, result.diagnostics.size());
  }
  if (!result.errors.empty() || sarif_failed) return 2;
  return result.diagnostics.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cyqr_lint

int main(int argc, char** argv) { return cyqr_lint::Main(argc, argv); }
