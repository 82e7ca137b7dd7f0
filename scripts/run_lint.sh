#!/usr/bin/env bash
# Runs the project's static-analysis gates locally, mirroring the CI
# lint job: cyqr_lint over the whole tree is mandatory; clang-tidy runs
# when available.
#
# Usage: scripts/run_lint.sh [extra cyqr_lint args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target cyqr_lint

echo "== cyqr_lint =="
"$BUILD_DIR"/tools/cyqr_lint/cyqr_lint --exclude=tests/lint/fixtures \
  src tools bench examples tests "$@"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Spot-check the core and serving layers; full-tree tidy is slow and
  # belongs in a scheduled job, not the inner loop.
  clang-tidy -p "$BUILD_DIR" --quiet \
    src/core/*.cc src/serving/*.cc src/index/*.cc
else
  echo "clang-tidy not found; skipped (cyqr_lint gate still enforced)"
fi
