#!/usr/bin/env bash
# Runs cyqr_lint over the whole tree in JSON mode and converts every
# diagnostic into a GitHub Actions workflow command
# (::error file=F,line=N,title=...::message) so violations surface as
# inline annotations on the PR diff. The raw JSON report is written to a
# file for artifact upload, and a SARIF 2.1.0 report is written alongside
# it for GitHub code scanning. The script preserves the linter's exit
# code (0 clean, 1 violations, 2 usage/IO error).
#
# Usage: scripts/lint_annotations.sh /path/to/cyqr_lint [report.json] [report.sarif]
set -euo pipefail

LINT="${1:?usage: lint_annotations.sh /path/to/cyqr_lint [report.json] [report.sarif]}"
REPORT="${2:-lint_report.json}"
SARIF="${3:-lint_report.sarif}"

# Mirror the tree gate: production code plus tests, minus the lint
# fixture corpus (which exists to violate the rules on purpose).
set +e
"$LINT" --json --exclude=tests/lint/fixtures --sarif="$SARIF" \
  src tools bench examples tests > "$REPORT"
code=$?
set -e

if [[ "$code" -ge 2 ]]; then
  echo "::error::cyqr_lint failed to run (exit $code)" >&2
  exit "$code"
fi

# One diagnostic object per line; pull the fields apart with sed. The
# message is the last quoted field, so greedy matching is safe.
sed -nE 's/.*\{"file": "([^"]+)", "line": ([0-9]+), "rule": "([^"]+)", "message": "(.*)"\}.*/::error file=\1,line=\2,title=cyqr-lint \3::\4/p' \
  "$REPORT"

count=$(grep -c '"rule":' "$REPORT" || true)
echo "cyqr_lint: $count violation(s); JSON report at $REPORT, SARIF at $SARIF" >&2
exit "$code"
