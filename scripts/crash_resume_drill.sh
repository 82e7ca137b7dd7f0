#!/usr/bin/env bash
# End-to-end crash-resume drill through the real CLI: train a model with
# checkpointing, train the same model again but die mid-run with a hard
# exit (the drill's stand-in for SIGKILL), resume from the surviving
# checkpoint, and require the resumed run's saved parameters to be
# byte-identical to the uninterrupted baseline's.
#
# Two modes, both on the trainer's one data-parallel engine:
#   coordinator (default) — every run uses the host's worker count
#                           (--workers 0: one rank per core, at most the
#                           4 gradient shards); the coordinator, rank 0,
#                           dies as step 23 begins (--crash-at-step).
#   dp                    — the uninterrupted baseline runs with 1 worker,
#                           the crashed run loses worker rank 1 mid-step
#                           under 2 workers, and the resume finishes under
#                           4 workers. Parameters AND the final
#                           convergence-curve point must still be
#                           bit-identical to the baseline: worker count is
#                           never allowed to change the trajectory.
#
# Usage: scripts/crash_resume_drill.sh /path/to/cyqr_cli [workdir] [mode]
set -euo pipefail

CLI="${1:?usage: crash_resume_drill.sh /path/to/cyqr_cli [workdir] [mode]}"
WORK="${2:-$(mktemp -d)}"
MODE="${3:-coordinator}"
if [[ "$MODE" != "coordinator" && "$MODE" != "dp" ]]; then
  echo "unknown mode '$MODE' (expected coordinator or dp)" >&2
  exit 2
fi
mkdir -p "$WORK"
rm -rf "$WORK/data" "$WORK/baseline" "$WORK/crashed"

# The hard exit must still leave a readable post-mortem: the flight
# recorder's crash dump, written on the way down by the fault hook. It
# must parse, be tagged with the simulated-crash source, and carry train
# events from the interrupted run. Checked after each crash, before the
# resume overwrites the file with the clean run's journal.
check_flight_dump() {
  local dump="$1"
  if [[ ! -s "$dump" ]]; then
    echo "FAIL: crashed run left no flight dump at $dump" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$dump" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path, "r", encoding="utf-8") as f:
    dump = json.load(f)  # A torn dump fails right here.

assert dump.get("version") == 1, f"bad version: {dump.get('version')!r}"
assert dump.get("source") == "simulated-crash", \
    f"bad source: {dump.get('source')!r}"
events = dump.get("events", [])
assert events, "flight dump has no events"
names = {e["name"] for e in events}
assert any(n.startswith("train.") for n in names), \
    f"no train events in dump: {sorted(names)}"
print(f"flight dump OK: {len(events)} events, last = "
      f"{events[-1]['name']} step {events[-1]['arg0']}")
PY
  else
    grep -q '"source":"simulated-crash"' "$dump" ||
      { echo "FAIL: dump not tagged simulated-crash" >&2; exit 1; }
    grep -q '"name":"train\.' "$dump" ||
      { echo "FAIL: no train events in dump" >&2; exit 1; }
    echo "flight dump OK (grep fallback)"
  fi
}

echo "== drill workdir: $WORK (mode: $MODE)"
"$CLI" generate-data --out "$WORK/data" --queries 40 --sessions 120 \
  --seed 7

if [[ "$MODE" == "dp" ]]; then
  STEPS=12
  CRASH_AT=9
  TRAIN_FLAGS=(--steps "$STEPS" --warmup 8 --batch 4 --grad-shards 4
               --layers 1 --seed 99 --checkpoint-every 3 --eval-every 6)

  echo "== dp baseline: uninterrupted run with 1 worker"
  "$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/baseline" \
    "${TRAIN_FLAGS[@]}" --workers 1 --curve-out "$WORK/baseline/curve.tsv"

  echo "== dp crashed run: 2 workers, rank 1 dies at step $CRASH_AT"
  set +e
  "$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/crashed" \
    "${TRAIN_FLAGS[@]}" --workers 2 \
    --crash-worker-rank 1 --crash-worker-at-step "$CRASH_AT"
  crash_code=$?
  set -e
  if [[ "$crash_code" -ne 137 ]]; then
    echo "FAIL: crashed run exited $crash_code, expected 137" >&2
    exit 1
  fi
  if [[ -e "$WORK/crashed/model.params" ]]; then
    echo "FAIL: crashed run left a model.params behind" >&2
    exit 1
  fi
  ls "$WORK/crashed/checkpoints"/ckpt-*.cyqc > /dev/null
  if ls "$WORK/crashed/checkpoints"/*.tmp* > /dev/null 2>&1; then
    echo "FAIL: crashed run left torn temp files in the checkpoint dir" >&2
    exit 1
  fi
  echo "== checking the crashed run's flight dump"
  check_flight_dump "$WORK/crashed/flight.json"

  echo "== dp resumed run: picking up under 4 workers"
  "$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/crashed" \
    "${TRAIN_FLAGS[@]}" --workers 4 --resume \
    --curve-out "$WORK/crashed/curve.tsv"

  echo "== comparing resumed parameters against the 1-worker baseline"
  cmp "$WORK/baseline/model.params" "$WORK/crashed/model.params"

  echo "== comparing the final convergence-curve point"
  # The resumed run replays only the steps after the surviving
  # checkpoint, so its curve is a suffix of the baseline's; the final
  # sampled point (step $STEPS) must match bit for bit.
  if [[ "$(tail -n 1 "$WORK/baseline/curve.tsv")" != \
        "$(tail -n 1 "$WORK/crashed/curve.tsv")" ]]; then
    echo "FAIL: final curve points diverge across worker counts" >&2
    diff "$WORK/baseline/curve.tsv" "$WORK/crashed/curve.tsv" >&2 || true
    exit 1
  fi
  echo "PASS: kill under K=2 + resume under K=4 is bit-identical to K=1"
  exit 0
fi

STEPS=30
CRASH_AT=23
TRAIN_FLAGS=(--steps "$STEPS" --warmup 24 --batch 4 --layers 1
             --seed 99 --checkpoint-every 5)

echo "== coordinator baseline: uninterrupted run at the host's worker count"
"$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/baseline" \
  "${TRAIN_FLAGS[@]}"

echo "== coordinator crashed run: rank 0 dies at step $CRASH_AT"
set +e
"$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/crashed" \
  "${TRAIN_FLAGS[@]}" --crash-at-step "$CRASH_AT"
crash_code=$?
set -e
if [[ "$crash_code" -ne 137 ]]; then
  echo "FAIL: crashed run exited $crash_code, expected 137" >&2
  exit 1
fi
if [[ -e "$WORK/crashed/model.params" ]]; then
  echo "FAIL: crashed run left a model.params behind" >&2
  exit 1
fi
ls "$WORK/crashed/checkpoints"/ckpt-*.cyqc > /dev/null
echo "== checking the crashed run's flight dump"
check_flight_dump "$WORK/crashed/flight.json"

echo "== resumed run: picking up from the newest checkpoint"
"$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/crashed" \
  "${TRAIN_FLAGS[@]}" --resume

echo "== comparing resumed parameters against the baseline"
cmp "$WORK/baseline/model.params" "$WORK/crashed/model.params"
echo "PASS: resumed model is byte-identical to the uninterrupted baseline"
