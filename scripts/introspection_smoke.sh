#!/usr/bin/env bash
# End-to-end smoke of the live-introspection endpoint through the real
# CLI: build a tiny model + KV store, start `cyqr_cli serve
# --introspect-port 0` (ephemeral port, parsed from the serve log), and
# while the endpoint holds:
#
#   - /metrics must answer HTTP 200 with a valid Prometheus text
#     exposition (scripts/check_prom_text.sh) carrying at least one
#     trace-id exemplar,
#   - /statusz must answer 200 with a breaker_state that agrees with the
#     cyqr_serving_breaker_state gauge in /metrics,
#   - /tracez must resolve the exemplar's trace id,
#   - /flightz must answer 200 with a version-1 flight journal.
#
# Usage: scripts/introspection_smoke.sh /path/to/cyqr_cli [workdir]
set -euo pipefail

CLI="${1:?usage: introspection_smoke.sh /path/to/cyqr_cli [workdir]}"
WORK="${2:-$(mktemp -d)}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$WORK"
rm -rf "$WORK/data" "$WORK/model" "$WORK/serve.log"

echo "== smoke workdir: $WORK"
"$CLI" generate-data --out "$WORK/data" --queries 40 --sessions 120 \
  --seed 7
"$CLI" train --data "$WORK/data/pairs.tsv" --out "$WORK/model" \
  --steps 8 --warmup 6 --batch 4 --layers 1 --seed 99 --eval-every 0
"$CLI" precompute --model "$WORK/model" \
  --queries "$WORK/data/queries.tsv" --out "$WORK/kv.tsv" --limit 20

echo "== starting serve with a held introspection endpoint"
"$CLI" serve --kv "$WORK/kv.tsv" --queries "$WORK/data/queries.tsv" \
  --requests 300 --threads 2 --introspect-port 0 \
  --introspect-hold-ms 20000 --flight-out "$WORK/flight.json" \
  > "$WORK/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT

# The serve log prints "introspection: http://127.0.0.1:PORT/statusz" as
# soon as the endpoint is up, and "holding introspection endpoint" once the
# replay is over; poll for both instead of guessing a port. Scraping only
# after the replay keeps the exemplar check deterministic: /metrics and
# /tracez are read one after the other, and requests served in between
# could evict the exemplar's trace from /tracez's bounded per-outcome store.
port=""
for _ in $(seq 1 300); do
  if grep -q '^holding introspection endpoint' "$WORK/serve.log"; then
    port="$(sed -n \
      's|^introspection: http://127\.0\.0\.1:\([0-9]*\)/statusz$|\1|p' \
      "$WORK/serve.log" | head -n 1)"
    break
  fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "FAIL: serve exited before holding the endpoint" >&2
    cat "$WORK/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "FAIL: no held introspection port in the serve log" >&2
  cat "$WORK/serve.log" >&2
  exit 1
fi
echo "== endpoint is live on port $port"

# curl -f turns any non-2xx answer into a failure under `set -e`.
curl -fsS "http://127.0.0.1:$port/metrics" > "$WORK/metrics.prom"
curl -fsS "http://127.0.0.1:$port/statusz" > "$WORK/statusz.txt"
curl -fsS "http://127.0.0.1:$port/tracez" > "$WORK/tracez.txt"
curl -fsS "http://127.0.0.1:$port/flightz" > "$WORK/flightz.json"

echo "== validating the /metrics exposition"
"$SCRIPT_DIR/check_prom_text.sh" "$WORK/metrics.prom"

echo "== checking the exemplar joins /metrics to /tracez"
trace_id="$(grep -o 'trace_id="[0-9a-f]\{16\}"' "$WORK/metrics.prom" |
  head -n 1 | cut -d'"' -f2)"
if [[ -z "$trace_id" ]]; then
  echo "FAIL: no trace-id exemplar in /metrics" >&2
  exit 1
fi
if ! grep -q "$trace_id" "$WORK/tracez.txt"; then
  echo "FAIL: exemplar trace id $trace_id not resolvable in /tracez" >&2
  exit 1
fi

echo "== checking /statusz agrees with the breaker gauge"
state_line="$(grep '^breaker_state: ' "$WORK/statusz.txt" || true)"
if [[ -z "$state_line" ]]; then
  echo "FAIL: no breaker_state section in /statusz" >&2
  cat "$WORK/statusz.txt" >&2
  exit 1
fi
state_name="${state_line#breaker_state: }"
case "$state_name" in
  closed) want_gauge=0 ;;
  open) want_gauge=1 ;;
  half-open) want_gauge=2 ;;
  *) echo "FAIL: unknown breaker state '$state_name'" >&2; exit 1 ;;
esac
if ! grep -q "^cyqr_serving_breaker_state $want_gauge$" \
    "$WORK/metrics.prom"; then
  echo "FAIL: /statusz says '$state_name' but the gauge disagrees:" >&2
  grep '^cyqr_serving_breaker_state' "$WORK/metrics.prom" >&2 || true
  exit 1
fi

echo "== checking /flightz serves the journal"
grep -q '"version":1' "$WORK/flightz.json" ||
  { echo "FAIL: /flightz is not a version-1 journal" >&2; exit 1; }
grep -q '"name":"serving.' "$WORK/flightz.json" ||
  { echo "FAIL: /flightz has no serving events" >&2; exit 1; }

kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
echo "PASS: introspection endpoints answered and cross-checked"
