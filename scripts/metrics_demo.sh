#!/usr/bin/env bash
# metrics_demo.sh — end-to-end tour of the production metrics plane.
#
# Boots a one-worker cluster on loopback, deploys a NAT with telemetry
# and latency probing, and exercises every serving surface while the
# deployment runs:
#
#   1. scrapes OpenMetrics from the worker's /metrics,
#   2. lets the director's SLO check breach (the demo SLO demands an
#      impossible throughput), which requests a flight-recorder dump
#      from the worker,
#   3. fetches the dump from /debug/flight — load it in
#      ui.perfetto.dev to see the moments before the breach.
#
# Exits non-zero when /debug/flight never serves a parseable dump, so it
# doubles as the smoke test of the real gunfu-worker binary's dump path
# (CI runs it with a smaller PACKETS; the deployment must outlive the
# scrape, or the worker exits before the dump can be fetched).
#
# Artifacts land in $OUT (default ./metrics_demo_out). Knobs: PORT,
# HTTP, OUT, PACKETS.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT=${PORT:-7731}
HTTP=${HTTP:-127.0.0.1:8731}
OUT=${OUT:-metrics_demo_out}
PACKETS=${PACKETS:-5000000}

mkdir -p "$OUT"
go build -o "$OUT/gunfu-director" ./cmd/gunfu-director
go build -o "$OUT/gunfu-worker" ./cmd/gunfu-worker

# An SLO no simulated core can meet: every window breaches, so the run
# demonstrates the breach -> flight-dump path without a fault injector.
"$OUT/gunfu-director" -listen "127.0.0.1:$PORT" -agents 1 \
  -nf nat -flows 8192 -packets "$PACKETS" -warmup 20000 -tasks 16 \
  -stats-every "$((PACKETS / 20))" -latency -slo-min-mpps 1000000 \
  >"$OUT/director.log" 2>&1 &
DIRECTOR_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then break; fi
  sleep 0.1
done
"$OUT/gunfu-worker" -connect "127.0.0.1:$PORT" -name demo-worker \
  -metrics "$HTTP" -dump-dir "$OUT" >"$OUT/worker.log" 2>&1 &
WORKER_PID=$!
trap 'kill "$DIRECTOR_PID" "$WORKER_PID" 2>/dev/null || true' EXIT

echo "== waiting for the worker's metrics plane on http://$HTTP =="
for _ in $(seq 1 100); do
  if curl -sf "http://$HTTP/metrics" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

# Give the deployment a moment to stream a few telemetry windows.
sleep 2

echo
echo "== /metrics (OpenMetrics text exposition, first 40 lines) =="
curl -s "http://$HTTP/metrics" -o "$OUT/metrics.txt"
head -40 "$OUT/metrics.txt"


echo
echo "== /debug/flight (SLO breach triggered a flight dump) =="
for _ in $(seq 1 100); do
  if curl -sf "http://$HTTP/debug/flight" -o "$OUT/flight.json" 2>/dev/null; then break; fi
  sleep 0.1
done
dumped=0
if [ -s "$OUT/flight.json" ] &&
  python3 -c 'import json, sys; json.load(open(sys.argv[1]))["traceEvents"]' "$OUT/flight.json"; then
  dumped=1
  echo "flight dump: $OUT/flight.json ($(wc -c <"$OUT/flight.json") bytes) — open in ui.perfetto.dev"
fi

wait "$DIRECTOR_PID" || true
echo
echo "== director output =="
cat "$OUT/director.log"
if [ "$dumped" = 0 ]; then
  echo
  echo "== worker output =="
  cat "$OUT/worker.log"
  echo "metrics_demo: /debug/flight never served a parseable flight dump" >&2
  exit 1
fi
echo
echo "artifacts in $OUT/: metrics.txt flight.json director.log worker.log"
