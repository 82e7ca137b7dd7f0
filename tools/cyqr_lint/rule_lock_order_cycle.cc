#include "rules.h"

namespace cyqr_lint {

namespace {

/// Whole-tree deadlock detection over the global lock acquisition-order
/// graph. The per-file Check is intentionally empty: edges are collected
/// per file by CollectLockOrderEdges (NOLINT applied at collection time)
/// and the cycle search runs once over the merged graph in RunLint
/// (CheckLockOrderCycles in lint.cc) after every file's edges are in.
/// This registration gives the pass its rule name for --list-rules,
/// --rule=, and NOLINT(cyqr-lock-order-cycle).
class LockOrderCycleRule : public Rule {
 public:
  const char* name() const override { return "lock-order-cycle"; }

  void Check(const ParsedFile& file, const LintContext& ctx,
             std::vector<Diagnostic>* out) const override {
    (void)file;
    (void)ctx;
    (void)out;
  }
};

}  // namespace

std::unique_ptr<Rule> MakeLockOrderCycleRule() {
  return std::make_unique<LockOrderCycleRule>();
}

}  // namespace cyqr_lint
