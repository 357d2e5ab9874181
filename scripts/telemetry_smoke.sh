#!/usr/bin/env bash
# Telemetry smoke test: run a short study with every telemetry surface
# enabled — heartbeat, runtime.jsonl, streaming record sink and the
# HTTP endpoint — then scrape /metrics and /progress while the endpoint
# lingers and check the expected series and snapshot keys are there.
#
# Usage: scripts/telemetry_smoke.sh [path-to-fesplit-binary]
set -euo pipefail

bin=${1:-./bin/fesplit}
out=$(mktemp -d)
log="$out/stderr.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$out"' EXIT

"$bin" study -seed 7 -workers 2 -dir "$out/study" \
    -progress -listen 127.0.0.1:0 -linger 60s 2>"$log" &
pid=$!

# The CLI prints the resolved listen address (port 0 → kernel-chosen)
# to stderr before the run starts.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^study: telemetry listening on http://##p' "$log" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "study exited before listening:"; cat "$log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "no listen address in stderr:"; cat "$log"; exit 1; }
echo "telemetry endpoint: $addr"

fetch() {
    if command -v curl >/dev/null; then
        curl -fsS "$1"
    else
        wget -qO- "$1"
    fi
}

# Wait for the study itself to finish (the peak-heap summary line) so
# the scraped totals reflect a complete run; the endpoint lingers.
for _ in $(seq 1 600); do
    grep -q '^study: peak heap' "$log" && break
    kill -0 "$pid" 2>/dev/null || { echo "study died mid-run:"; cat "$log"; exit 1; }
    sleep 0.1
done
grep -q '^study: peak heap' "$log" || { echo "study never finished:"; cat "$log"; exit 1; }

fetch "http://$addr/metrics" >"$out/metrics.txt"
fetch "http://$addr/progress" >"$out/progress.json"

for series in \
    fesplit_runtime_events_total \
    fesplit_runtime_sim_seconds_total \
    fesplit_runtime_heap_watermark_bytes \
    fesplit_runtime_tasks_done \
    fesplit_runtime_fastpath_bytes_total \
    fesplit_runtime_fastpath_segments_total \
    fesplit_runtime_records_streamed_total; do
    grep -qF "$series" "$out/metrics.txt" \
        || { echo "/metrics missing $series"; cat "$out/metrics.txt"; exit 1; }
done

# A finished streaming run must have counted events and records.
awk '$1 == "fesplit_runtime_events_total" { if ($2+0 <= 0) exit 1; found=1 } END { exit !found }' \
    "$out/metrics.txt" || { echo "events_total not positive"; exit 1; }
awk '$1 == "fesplit_runtime_records_streamed_total" { if ($2+0 <= 0) exit 1; found=1 } END { exit !found }' \
    "$out/metrics.txt" || { echo "records_streamed_total not positive (streaming sink idle)"; exit 1; }

for key in '"events"' '"heap_watermark_bytes"' '"tasks"' '"records_streamed"'; do
    grep -qF "$key" "$out/progress.json" \
        || { echo "/progress missing $key"; cat "$out/progress.json"; exit 1; }
done

grep -q '^fesplit: ' "$log" || { echo "no heartbeat lines on stderr"; cat "$log"; exit 1; }
[ -s "$out/study/runtime.jsonl" ] || { echo "runtime.jsonl missing or empty"; exit 1; }
grep -qF '"events_per_sec"' "$out/study/runtime.jsonl" \
    || { echo "runtime.jsonl missing snapshot schema"; exit 1; }

kill "$pid"
wait "$pid" 2>/dev/null || true
echo "telemetry smoke: ok (heartbeat + runtime.jsonl + /metrics + /progress + streaming sink)"
