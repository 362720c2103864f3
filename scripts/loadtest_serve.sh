#!/usr/bin/env bash
# Load-test smoke of the serving path: run a short durable study into
# its run lake (the same fixture plumbing as
# scripts/smoke_serve.sh), boot malnetd on the lake with its debug
# plane, drive an open-loop zipf burst from
# cmd/malnetbench, and fail on any transport error or 5xx — or on
# zero throughput, which would mean the harness measured nothing.
#
# Usage:  scripts/loadtest_serve.sh [summary-out]
#
# DURATION / RATE / CONCURRENCY / SEED override the burst shape.
# With BENCH_FILE naming an existing benchjson document (e.g. the
# repo's BENCH_<date>.json), the summary's rows are merged into it
# via tools/benchjson, so load numbers archive next to the Go
# benchmarks.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-load_summary.json}"
duration="${DURATION:-2s}"
rate="${RATE:-500}"
concurrency="${CONCURRENCY:-8}"
seed="${SEED:-7}"
tmp="$(mktemp -d)"
daemon_pid=""
trap '[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null; rm -rf "$tmp"' EXIT

echo "running the fixture study (-short, durable in a run lake)..." >&2
go run ./cmd/malnet -short -lake-dir "$tmp/lake" -out "$tmp/out" >/dev/null

echo "starting malnetd..." >&2
go build -o "$tmp/malnetd" ./cmd/malnetd
"$tmp/malnetd" -lake-dir "$tmp/lake" -listen 127.0.0.1:0 -reload-every 0 \
  -debug-addr 127.0.0.1:0 -slowlog-threshold "${SLOWLOG_THRESHOLD:-250ms}" \
  >"$tmp/stdout" 2>"$tmp/stderr" &
daemon_pid=$!

base=""
for _ in $(seq 100); do
  base="$(sed -n 's#^listening on ##p' "$tmp/stdout" | head -n1)"
  [ -n "$base" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$base" ]; then
  echo "malnetd did not come up:" >&2
  cat "$tmp/stderr" >&2
  exit 1
fi
dbg="$(sed -n 's#^debug server on http://\([^/]*\)/.*#\1#p' "$tmp/stderr" | head -n1)"

echo "driving $duration of load at $rate req/s x$concurrency against $base..." >&2
go run ./cmd/malnetbench -target "$base" ${dbg:+-debug "$dbg"} \
  -duration "$duration" -rate "$rate" -concurrency "$concurrency" \
  -seed "$seed" -require-success -out "$out"

# With the debug plane up the summary must carry the server-side RED
# rows scraped from /metrics, next to the client-side percentiles, and
# the total row the server allocs/op read from the same scrapes.
if [ -n "$dbg" ] && ! grep -q '"LoadServe/server/' "$out"; then
  echo "loadtest: summary has no server-side /metrics rows" >&2
  exit 1
fi
if [ -n "$dbg" ] && ! sed -n '/"name": "LoadServe\/total"/,/}/p' "$out" | grep -q '"server-allocs/op"'; then
  echo "loadtest: LoadServe/total row has no server-allocs/op" >&2
  exit 1
fi

if [ -n "${BENCH_FILE:-}" ]; then
  # -replace: a re-archived run overwrites the previous LoadServe/
  # rows by name instead of doubling them.
  go run ./tools/benchjson -replace -merge "$BENCH_FILE" -merge "$out" </dev/null >"$tmp/merged.json"
  cp "$tmp/merged.json" "$BENCH_FILE"
  echo "merged load rows into $BENCH_FILE" >&2
fi
echo "load smoke OK ($base)" >&2
