#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (ctest cyqr_bench_smoke).

    smoke.py CYQR_BENCH BENCHMARK_JSON

Runs every workload named in BENCHMARK.json at a tiny scale (--smoke
--seconds 1), untraced and traced, and checks that each run passes its own
output checks and that its last output line is a result object carrying
exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, with the same units and with names and units that
follow the benchmark grammar.
"""

import json
import math
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(label, result, expected, errors):
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        errors.append(f"{label}: correct is {result['correct']}")
    attempted, failed = result["attempted"], result["failed"]
    if not isinstance(attempted, int) or attempted < 1:
        errors.append(f"{label}: attempted {attempted!r}")
    if not isinstance(failed, int) or failed < 0:
        errors.append(f"{label}: failed {failed!r}")
    metrics = result["metrics"]
    for name in sorted(set(expected) - set(metrics)):
        errors.append(f"{label}: missing metric {name}")
    for name in sorted(set(metrics) - set(expected)):
        errors.append(f"{label}: undeclared metric {name}")
    for name, metric in metrics.items():
        if not NAME.match(name):
            errors.append(f"{label}: bad metric name {name!r}")
        value, unit = metric.get("value"), metric.get("unit")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
        if name in expected and unit != expected[name]:
            errors.append(f"{label}: {name} unit {unit!r}, "
                          f"BENCHMARK.json says {expected[name]!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as f:
        spec = json.load(f)
    errors = []
    groups = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for group in groups.values():
        for metric in group:
            if not NAME.match(metric["name"]):
                errors.append(f"BENCHMARK.json: bad name {metric['name']!r}")
            if not UNIT.match(metric["unit"]):
                errors.append(f"BENCHMARK.json: bad unit {metric['unit']!r}")
    for workload in spec["workloads"]:
        for trace, group in groups.items():
            label = f"{workload['name']} --trace {trace}"
            before = len(errors)
            proc = subprocess.run(
                [binary, "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--smoke", "--trace", trace],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                errors.append(f"{label}: last line is not a JSON result")
                continue
            expected = {m["name"]: m["unit"] for m in group}
            check_result(label, result, expected, errors)
            print(f"{label}: {'ok' if len(errors) == before else 'FAILED'}")
    for error in errors:
        print("FAIL", error)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
