#!/usr/bin/env bash
# Validates a metrics JSON snapshot (the BENCH_*.json artifacts written by
# `cyqr_cli --metrics-out` and the bench binaries): the file must parse,
# declare schema version 1, carry the counters/gauges/histograms sections,
# and keep every histogram internally consistent (bucket counts sum to the
# series count, the final bucket is the +Inf overflow, names follow the
# cyqr_<layer>_<name>_<unit> convention). A data-parallel training snapshot
# (one with a collective wait or a bench_train scaling gauge) must also book
# the coordinator's gradient tail beside the collective wait: the
# all-reduce and optimizer histograms, one observation per step each.
#
# Usage: scripts/check_metrics_json.sh SNAPSHOT.json [SNAPSHOT2.json ...]
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: check_metrics_json.sh SNAPSHOT.json [...]" >&2
  exit 2
fi

check_with_python() {
  python3 - "$1" <<'PY'
import json
import re
import sys

path = sys.argv[1]
with open(path, "r", encoding="utf-8") as f:
    snap = json.load(f)

errors = []
name_re = re.compile(r"^cyqr(_[a-z0-9]+){3,}$")
units = {"total", "millis", "micros", "seconds", "bytes", "tokens",
         "ratio", "count", "state", "norm", "value"}


def check_name(name):
    if not name_re.match(name):
        errors.append(f"bad metric name: {name!r}")
        return
    if not (name.endswith("_per_sec") or name.rsplit("_", 1)[1] in units):
        errors.append(f"unknown unit suffix: {name!r}")


if snap.get("version") != 1:
    errors.append(f"version must be 1, got {snap.get('version')!r}")

for section in ("counters", "gauges", "histograms"):
    if not isinstance(snap.get(section), list):
        errors.append(f"missing or non-array section: {section}")

for c in snap.get("counters", []):
    check_name(c["name"])
    if not isinstance(c["value"], int) or c["value"] < 0:
        errors.append(f"counter {c['name']} has bad value {c['value']!r}")

for g in snap.get("gauges", []):
    check_name(g["name"])
    if "value" not in g:
        errors.append(f"gauge {g['name']} has no value")

for h in snap.get("histograms", []):
    check_name(h["name"])
    buckets = h.get("buckets", [])
    if not buckets or buckets[-1].get("le") != "+Inf":
        errors.append(f"histogram {h['name']} lacks the +Inf bucket")
    total = sum(b.get("count", 0) for b in buckets)
    if total != h.get("count"):
        errors.append(
            f"histogram {h['name']}: bucket sum {total} != count "
            f"{h.get('count')}")
    if any(b.get("count", 0) < 0 for b in buckets):
        errors.append(f"histogram {h['name']} has a negative bucket")

hists = {h["name"]: h for h in snap.get("histograms", [])}
wait = hists.get("cyqr_train_collective_wait_millis")
scaling = any(g["name"].startswith("cyqr_train_workers")
              for g in snap.get("gauges", []))
if wait is not None or scaling:
    for name in ("cyqr_train_collective_wait_millis",
                 "cyqr_train_allreduce_millis",
                 "cyqr_train_optimizer_millis"):
        h = hists.get(name)
        if h is None or not h.get("count"):
            errors.append(f"data-parallel training snapshot lacks {name}")
        elif wait is not None and h.get("count") != wait.get("count"):
            errors.append(
                f"{name} has {h.get('count')} observations, the collective "
                f"wait {wait.get('count')}")

if errors:
    for e in errors:
        print(f"check_metrics_json: {path}: {e}", file=sys.stderr)
    sys.exit(1)

n = (len(snap.get("counters", [])) + len(snap.get("gauges", [])) +
     len(snap.get("histograms", [])))
print(f"check_metrics_json: {path}: OK ({n} series)")
PY
}

check_with_grep() {
  # Degraded fallback when python3 is unavailable: structural greps only.
  local path="$1"
  grep -q '"version": 1' "$path" ||
    { echo "check_metrics_json: $path: missing version 1" >&2; return 1; }
  for section in counters gauges histograms; do
    grep -q "\"$section\":" "$path" ||
      { echo "check_metrics_json: $path: missing $section" >&2; return 1; }
  done
  echo "check_metrics_json: $path: OK (grep fallback)"
}

status=0
for snapshot in "$@"; do
  if [[ ! -s "$snapshot" ]]; then
    echo "check_metrics_json: $snapshot: missing or empty" >&2
    status=1
    continue
  fi
  if command -v python3 >/dev/null 2>&1; then
    check_with_python "$snapshot" || status=1
  else
    check_with_grep "$snapshot" || status=1
  fi
done
exit "$status"
