// Fixture-based self-tests for cyqr_lint: every rule has a
// known-violation and a known-clean fixture, plus suppression coverage.
// The fixtures live outside the linted tree, so the in-tree gate never
// sees their deliberate violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.h"

namespace cyqr_lint {
namespace {

std::string Fixture(const char* name) {
  return std::string(CYQR_LINT_FIXTURE_DIR) + "/" + name;
}

/// Runs a single rule over one fixture file and returns its diagnostics.
std::vector<Diagnostic> RunRule(const char* rule, const char* file) {
  LintOptions options;
  options.enabled_rules.insert(rule);
  const LintResult result = RunLint({Fixture(file)}, options);
  EXPECT_TRUE(result.errors.empty());
  return result.diagnostics;
}

std::vector<int> Lines(const std::vector<Diagnostic>& diags) {
  std::vector<int> lines;
  for (const Diagnostic& d : diags) lines.push_back(d.line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(LintTest, UncheckedStreamViolations) {
  const auto diags =
      RunRule("unchecked-stream", "unchecked_stream_violation.cc");
  EXPECT_EQ(Lines(diags), std::vector<int>({8, 15}));
}

TEST(LintTest, UncheckedStreamClean) {
  EXPECT_TRUE(
      RunRule("unchecked-stream", "unchecked_stream_clean.cc").empty());
}

TEST(LintTest, BannedFunctionsViolations) {
  const auto diags =
      RunRule("banned-functions", "banned_functions_violation.cc");
  // rand, srand + time (same line), atoi, sprintf.
  EXPECT_EQ(Lines(diags), std::vector<int>({10, 14, 14, 18, 22}));
}

TEST(LintTest, BannedFunctionsClean) {
  EXPECT_TRUE(
      RunRule("banned-functions", "banned_functions_clean.cc").empty());
}

TEST(LintTest, UnseededRngViolations) {
  const auto diags =
      RunRule("banned-unseeded-rng", "unseeded_rng_violation.cc");
  // Declaration, empty-brace declaration, () temporary, {} temporary.
  EXPECT_EQ(Lines(diags), std::vector<int>({9, 14, 19, 23}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "banned-unseeded-rng");
  }
}

TEST(LintTest, UnseededRngClean) {
  EXPECT_TRUE(
      RunRule("banned-unseeded-rng", "unseeded_rng_clean.cc").empty());
}

TEST(LintTest, RawOwningNewViolations) {
  const auto diags =
      RunRule("raw-owning-new", "raw_owning_new_violation.cc");
  EXPECT_EQ(Lines(diags), std::vector<int>({9, 13}));
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].message,
            "raw owning 'new'; use std::make_unique/std::make_shared or a "
            "container, or mark a deliberate one "
            "NOLINT(cyqr-raw-owning-new)");
  EXPECT_EQ(diags[1].message.rfind("raw owning 'delete';", 0), 0u)
      << diags[1].message;
}

TEST(LintTest, RawOwningNewClean) {
  EXPECT_TRUE(
      RunRule("raw-owning-new", "raw_owning_new_clean.cc").empty());
}

TEST(LintTest, IncludeHygieneMissingGuard) {
  const auto diags =
      RunRule("include-hygiene", "include_hygiene_noguard.h");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("include guard"), std::string::npos);
}

TEST(LintTest, IncludeHygieneSelfIncludeOrder) {
  const auto diags = RunRule("include-hygiene", "include_hygiene_order.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_NE(diags[0].message.find("first include"), std::string::npos);
}

TEST(LintTest, IncludeHygieneClean) {
  EXPECT_TRUE(
      RunRule("include-hygiene", "include_hygiene_clean.h").empty());
  EXPECT_TRUE(
      RunRule("include-hygiene", "include_hygiene_clean.cc").empty());
  EXPECT_TRUE(
      RunRule("include-hygiene", "include_hygiene_pragma.h").empty());
}

TEST(LintTest, MetricsNamingViolations) {
  const auto diags =
      RunRule("metrics-naming", "metrics_naming_violation.cc");
  // Missing prefix, missing layer, unknown unit, uppercase, bad unit
  // abbreviation, empty segment.
  EXPECT_EQ(Lines(diags), std::vector<int>({5, 6, 7, 8, 10, 11}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "metrics-naming");
    EXPECT_NE(d.message.find("cyqr_<layer>_<name>_<unit>"),
              std::string::npos);
  }
}

TEST(LintTest, MetricsNamingClean) {
  EXPECT_TRUE(
      RunRule("metrics-naming", "metrics_naming_clean.cc").empty());
}

TEST(LintTest, FlightEventNamingViolations) {
  const auto diags =
      RunRule("metrics-naming", "flight_event_naming_violation.cc");
  // Single segment, uppercase, empty segment, leading dot, trailing dot,
  // space.
  EXPECT_EQ(Lines(diags), std::vector<int>({5, 6, 7, 8, 9, 10}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "metrics-naming");
    EXPECT_NE(d.message.find("<layer>.<event>"), std::string::npos);
  }
}

TEST(LintTest, FlightEventNamingClean) {
  EXPECT_TRUE(
      RunRule("metrics-naming", "flight_event_naming_clean.cc").empty());
}

TEST(LintTest, NolintSuppressesSameLineNextLineAndBare) {
  EXPECT_TRUE(RunRule("raw-owning-new", "nolint_suppressed.cc").empty());
}

TEST(LintTest, NolintForAnotherRuleDoesNotSuppress) {
  const auto diags = RunRule("raw-owning-new", "nolint_wrong_rule.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 9);
}

TEST(LintTest, LockScopeViolations) {
  const auto diags = RunRule("lock-scope", "lock_scope_violation.cc");
  // Exclusive manual calls, plus the lock_shared/unlock_shared/
  // try_lock_shared family on a shared_mutex.
  EXPECT_EQ(Lines(diags),
            std::vector<int>({10, 12, 16, 18, 29, 31, 37, 39, 40, 41}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "lock-scope");
  }
  // Shared variants steer toward the RAII reader guard.
  EXPECT_NE(diags[6].message.find("std::shared_lock"), std::string::npos);
}

TEST(LintTest, LockScopeClean) {
  EXPECT_TRUE(RunRule("lock-scope", "lock_scope_clean.cc").empty());
}

TEST(LintTest, SharedLockWriteViolations) {
  // A std::shared_lock region is a reader hold: the reads in the fixture
  // stay clean, every mutation of the guarded field is flagged.
  const auto diags =
      RunRule("guarded-field-access", "shared_lock_violation.cc");
  EXPECT_EQ(Lines(diags), std::vector<int>({15, 16, 17, 18}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "guarded-field-access");
    EXPECT_NE(d.message.find("shared (reader) mode"), std::string::npos);
  }
}

TEST(LintTest, SharedLockReadsAndExclusiveWritesClean) {
  EXPECT_TRUE(
      RunRule("guarded-field-access", "shared_lock_clean.cc").empty());
}

TEST(LintTest, DeadlinePropagationViolations) {
  const auto diags =
      RunRule("deadline-propagation", "deadline_propagation_violation.cc");
  // Dropped budget (Lookup(query)), fresh deadline (Backend(..,
  // Deadline())); the forwarding call and the member call on the deadline
  // object itself stay clean.
  EXPECT_EQ(Lines(diags), std::vector<int>({14, 15}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "deadline-propagation");
    EXPECT_NE(d.message.find("without forwarding it"), std::string::npos);
  }
}

TEST(LintTest, DeadlinePropagationCleanIncludingNolint) {
  // The clean fixture also proves NOLINTNEXTLINE works for this rule.
  EXPECT_TRUE(
      RunRule("deadline-propagation", "deadline_propagation_clean.cc")
          .empty());
}

TEST(LintTest, LockHeldBlockingCallViolations) {
  const auto diags =
      RunRule("lock-held-blocking-call", "lock_held_blocking_violation.cc");
  // sleep_for under lock_guard, queue.Push under lock_guard, and a
  // deadline-bound callee under unique_lock.
  EXPECT_EQ(Lines(diags), std::vector<int>({20, 21, 26}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "lock-held-blocking-call");
    EXPECT_NE(d.message.find("is held"), std::string::npos);
  }
}

TEST(LintTest, LockHeldBlockingCallClean) {
  // Push outside the inner brace scope and cv.wait (which releases the
  // lock) both stay clean.
  EXPECT_TRUE(
      RunRule("lock-held-blocking-call", "lock_held_blocking_clean.cc")
          .empty());
}

TEST(LintTest, AtomicOrderingAuditViolations) {
  const auto diags =
      RunRule("atomic-ordering-audit", "atomic_ordering_violation.cc");
  // Bare relaxed fetch_add, unjustified acquire load, and the scoped
  // memory_order::release spelling.
  EXPECT_EQ(Lines(diags), std::vector<int>({10, 14, 18}));
  // The RMW site gets the sharper message.
  EXPECT_NE(diags[0].message.find("orders nothing"), std::string::npos);
  EXPECT_NE(diags[1].message.find("memory_order_acquire"),
            std::string::npos);
  EXPECT_NE(diags[2].message.find("memory_order_release"),
            std::string::npos);
}

TEST(LintTest, AtomicOrderingAuditClean) {
  // Same-line comment, comment above the statement, and one comment above
  // a CAS whose success/failure orders wrap onto later lines.
  EXPECT_TRUE(
      RunRule("atomic-ordering-audit", "atomic_ordering_clean.cc").empty());
}

TEST(LintTest, ResultUnwrapCheckViolations) {
  const auto diags =
      RunRule("result-unwrap-check", "result_unwrap_violation.cc");
  // Unchecked unwrap of a local Result and of a Result parameter.
  EXPECT_EQ(Lines(diags), std::vector<int>({15, 19}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "result-unwrap-check");
    EXPECT_NE(d.message.find("ok()"), std::string::npos);
  }
}

TEST(LintTest, ResultUnwrapCheckClean) {
  EXPECT_TRUE(
      RunRule("result-unwrap-check", "result_unwrap_clean.cc").empty());
}

TEST(LintTest, GuardedFieldAccessViolations) {
  const auto diags =
      RunRule("guarded-field-access", "guarded_field_access_violation.cc");
  // Lock-free read, lock-free increment, access after unlock(), and a
  // receiver-qualified access after the guard's block closed.
  EXPECT_EQ(Lines(diags), std::vector<int>({16, 20, 27, 45}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "guarded-field-access");
  }
}

TEST(LintTest, GuardedFieldAccessClean) {
  EXPECT_TRUE(
      RunRule("guarded-field-access", "guarded_field_access_clean.cc")
          .empty());
}

TEST(LintTest, RequiresNotHeldViolations) {
  const auto diags =
      RunRule("requires-not-held", "requires_not_held_violation.cc");
  // Unlocked same-object call, call after unlock(), and a cross-object
  // call after the receiver's mutex was released.
  EXPECT_EQ(Lines(diags), std::vector<int>({11, 17, 35}));
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.rule, "requires-not-held");
  }
}

TEST(LintTest, RequiresNotHeldClean) {
  EXPECT_TRUE(
      RunRule("requires-not-held", "requires_not_held_clean.cc").empty());
}

TEST(LintTest, LockOrderCycleAcrossTwoTus) {
  // Each TU's acquisition order is locally consistent; only the merged
  // cross-TU graph exposes the inversion. The one diagnostic must carry
  // both witness paths, file:line each, so the report is actionable
  // without re-running the analysis.
  LintOptions options;
  options.enabled_rules.insert("lock-order-cycle");
  const LintResult result =
      RunLint({Fixture("lock_order_cycle_tu1.cc"),
               Fixture("lock_order_cycle_tu2.cc")},
              options);
  EXPECT_TRUE(result.errors.empty());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  const Diagnostic& d = result.diagnostics[0];
  EXPECT_EQ(d.rule, "lock-order-cycle");
  EXPECT_NE(d.message.find("'g_mu_a' held while acquiring 'g_mu_b'"),
            std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("'g_mu_b' held while acquiring 'g_mu_a'"),
            std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("lock_order_cycle_tu1.cc:10"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("lock_order_cycle_tu2.cc:7"), std::string::npos)
      << d.message;
}

TEST(LintTest, LockOrderCycleEachTuAloneIsClean) {
  EXPECT_TRUE(
      RunRule("lock-order-cycle", "lock_order_cycle_tu1.cc").empty());
  EXPECT_TRUE(
      RunRule("lock-order-cycle", "lock_order_cycle_tu2.cc").empty());
}

TEST(LintTest, LockOrderCycleConsistentOrderIsClean) {
  // Consistent nesting, scoped_lock over both mutexes (atomic — no
  // ordering edge), and unlock/re-lock of one guard all stay quiet.
  EXPECT_TRUE(
      RunRule("lock-order-cycle", "lock_order_cycle_clean.cc").empty());
}

TEST(LintTest, LockOrderCycleSelfAcquireIsReported) {
  const auto diags =
      RunRule("lock-order-cycle", "lock_order_cycle_self.cc");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("acquired while already held"),
            std::string::npos)
      << diags[0].message;
}

TEST(LintTest, AllRulesRunTogether) {
  // The whole fixture directory under every rule: all fourteen rules fire
  // somewhere, proving the multi-rule pass and cross-file fact
  // collection (deadline functions, thread-safety annotations, lock-order
  // edges) work end to end.
  const LintResult result = RunLint({CYQR_LINT_FIXTURE_DIR}, {});
  std::vector<std::string> fired;
  for (const Diagnostic& d : result.diagnostics) fired.push_back(d.rule);
  for (const char* rule :
       {"unchecked-stream", "banned-functions", "banned-unseeded-rng",
        "raw-owning-new", "include-hygiene", "metrics-naming", "lock-scope",
        "deadline-propagation", "lock-held-blocking-call",
        "atomic-ordering-audit", "result-unwrap-check",
        "guarded-field-access", "requires-not-held", "lock-order-cycle"}) {
    EXPECT_NE(std::find(fired.begin(), fired.end(), rule), fired.end())
        << "rule never fired over fixtures: " << rule;
  }
  EXPECT_EQ(BuildAllRules().size(), 14u);
}

TEST(LintTest, ExpandPathsHonorsExcludeFragments) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "cyqr_lint_expand";
  fs::remove_all(dir);
  fs::create_directories(dir / "fixtures");
  std::ofstream(dir / "keep.cc") << "int K();\n";
  std::ofstream(dir / "fixtures" / "skip.cc") << "int S();\n";

  std::vector<std::string> errors;
  EXPECT_EQ(ExpandPaths({dir.string()}, {}, &errors).size(), 2u);
  const std::vector<std::string> filtered =
      ExpandPaths({dir.string()}, {"fixtures"}, &errors);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_NE(filtered[0].find("keep.cc"), std::string::npos);
  EXPECT_TRUE(errors.empty());
  fs::remove_all(dir);
}

TEST(LintTest, UnknownPathReportsError) {
  const LintResult result = RunLint({"/nonexistent/nowhere"}, {});
  EXPECT_FALSE(result.errors.empty());
}

TEST(LintTest, JsonOutputIsWellFormed) {
  LintOptions options;
  options.enabled_rules.insert("raw-owning-new");
  const LintResult result =
      RunLint({Fixture("raw_owning_new_violation.cc")}, options);
  const std::string json = FormatJson(result);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"rule\": \"raw-owning-new\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 9"), std::string::npos);
}

}  // namespace
}  // namespace cyqr_lint
