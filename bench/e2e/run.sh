#!/usr/bin/env bash
# Builds cyqr_bench from this checkout (into .bench_build/e2e) and runs it.
#
#   bench/e2e/run.sh --workload NAME --seed N [--seconds S] [--trace 0|1]
#                    [--trace-out PATH] [--json-out PATH]
#       One workload in one process. Every metric is printed with its
#       unit; the last line of standard output is the JSON result.
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       Every workload, each in its own process, with the result of each
#       written to .bench_build/e2e-results/<workload>.json.
#
# Exits non-zero when the build fails or any output check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build/e2e"
if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$root/bench/e2e" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target cyqr_bench --parallel 4 >&2
bench="$build/cyqr_bench"

if [[ " $* " == *" --workload"* ]]; then
  exec "$bench" "$@"
fi

results="$root/.bench_build/e2e-results"
mkdir -p "$results"
status=0
for workload in serve_head serve_mixed precompute_cyclic train_cyclic; do
  "$bench" --workload "$workload" --json-out "$results/$workload.json" "$@" \
    || status=1
done
exit "$status"
