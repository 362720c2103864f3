#!/usr/bin/env bash
# End-to-end smoke test of the serving path: run a short durable study
# that commits a snapshot per day batch into its run lake (-lake-dir),
# point malnetd at that lake, query the /v1 API, and diff the
# responses against committed goldens. The study, the snapshot bytes,
# and the serving layer are all deterministic, so any drift anywhere
# in that chain shows up as a golden mismatch.
#
# The run=/asof= selectors that resolve the branch head must replay
# the bare goldens byte-for-byte; time travel, /v1/runs and /v1/diff
# have goldens of their own. The daemon's debug listener must expose
# the traffic on /metrics, and SIGTERM must drain it to exit 0.
#
# Usage:  scripts/smoke_serve.sh           # check against goldens
#         scripts/smoke_serve.sh -update   # regenerate the goldens
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/testdata
mode="${1:-check}"
tmp="$(mktemp -d)"
daemon_pid=""
trap '[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null; rm -rf "$tmp"' EXIT

echo "running the fixture study (-short, scenario-packed, durable in a run lake)..." >&2
go run ./cmd/malnet -short -scenarios wisp,sora -out "$tmp/out" \
  -lake-dir "$tmp/lake" -lake-run smoke >/dev/null

echo "starting malnetd..." >&2
go build -o "$tmp/malnetd" ./cmd/malnetd
"$tmp/malnetd" -lake-dir "$tmp/lake" -listen 127.0.0.1:0 -reload-every 0 \
  -debug-addr 127.0.0.1:0 -slowlog-threshold 0 \
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

status=0
check() { # <golden-file> <path>
  local name="$1" path="$2"
  curl -sfS "$base$path" >"$tmp/$name"
  if [ "$mode" = "-update" ]; then
    cp "$tmp/$name" "$golden/$name"
    echo "updated $golden/$name" >&2
  elif ! diff -u "$golden/$name" "$tmp/$name"; then
    echo "smoke: $path drifted from $golden/$name" >&2
    status=1
  fi
}

check_status() { # <golden-file> <want-status> <path>
  local name="$1" want="$2" path="$3" got
  got="$(curl -sS -o "$tmp/$name" -w '%{http_code}' "$base$path")"
  if [ "$got" != "$want" ]; then
    echo "smoke: $path returned HTTP $got, want $want" >&2
    status=1
    return
  fi
  if [ "$mode" = "-update" ]; then
    cp "$tmp/$name" "$golden/$name"
    echo "updated $golden/$name" >&2
  elif ! diff -u "$golden/$name" "$tmp/$name"; then
    echo "smoke: $path drifted from $golden/$name" >&2
    status=1
  fi
}

check serve_headline.json "/v1/headline"
check serve_samples.json "/v1/samples?family=mirai&limit=2"
# The other point lookups: one C2 endpoint with the samples citing it,
# one attack type's first page, and a day-and-endpoint intersection.
check serve_c2_point.json "/v1/c2/60.0.0.13:1791"
check serve_attacks_type.json "/v1/attacks?type=SYN%20Flood&limit=3"
check serve_samples_day_c2.json "/v1/samples?day=2&c2=60.0.0.1:606"
# /v1/query expressions, pre-escaped: %3D%3D is ==, %20 space, %22 ".
check serve_query_count.json "/v1/query?q=%7C%20count()%20by%20family"
check serve_query_filter.json "/v1/query?q=family%3D%3D%22mirai%22%20and%20day%20in%200..365%20%7C%20count()%20by%20c2"
check serve_query_topk.json "/v1/query?q=%7C%20topk(3)%20by%20attack"
# The spec registry joined with the scenario-packed dataset: wisp's
# relay mesh and sora's DGA churn must show up with nonzero counts.
check serve_families.json "/v1/families"
# A malformed expression must be a stable 400, not a 500 — the error
# body (with the parser's position) is part of the API surface.
check_status serve_query_bad.json 400 "/v1/query?q=family%3D%3D"
check_status serve_families_bad.json 400 "/v1/families?bogus=1"

# --- run-lake selectors -------------------------------------------------
# Head selectors must replay the goldens above byte-for-byte: run=main
# resolves the branch head, run=smoke the run name, asof=365 the
# newest commit of the year — all three are the generation the bare
# requests just served.
check serve_headline.json "/v1/headline?run=main"
check serve_headline.json "/v1/headline?asof=365"
check serve_samples.json "/v1/samples?family=mirai&limit=2&run=smoke"
check serve_query_count.json "/v1/query?q=%7C%20count()%20by%20family&run=main"
check serve_families.json "/v1/families?run=main"
# Time travel to mid-study: asof=100 resolves the newest commit at or
# before day 100, a generation the bare requests never see.
check serve_asof_headline.json "/v1/headline?asof=100"
# History endpoints: the run listing (truncated so the golden stays
# small) and a head-vs-day-100 diff of the same branch.
check serve_runs.json "/v1/runs?limit=3"
check serve_diff.json "/v1/diff?a=main%40100&b=main"
# Unknown run names are stable 404s.
check_status serve_selector_404.json 404 "/v1/headline?run=nope"

# --- serving-plane observability smoke --------------------------------
# The golden walk above generated known traffic; the debug listener's
# /metrics must now expose it in well-formed Prometheus text format.
dbg="$(sed -n 's#^debug server on http://\([^/]*\)/.*#\1#p' "$tmp/stderr" | head -n1)"
if [ -z "$dbg" ]; then
  echo "smoke: malnetd never announced its debug server" >&2
  cat "$tmp/stderr" >&2
  exit 1
fi
curl -sfS "http://$dbg/metrics" >"$tmp/metrics"

# Every non-comment line must parse as `name{label="v",...} value`.
if ! awk '
  /^#/ { next }
  /^$/ { next }
  !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+(\.[0-9]+)?$/ {
    printf "malformed exposition line: %s\n", $0; bad = 1
  }
  END { exit bad }
' "$tmp/metrics"; then
  echo "smoke: /metrics is not well-formed exposition text" >&2
  status=1
fi

# The one page carries the wall and runtime sections beside the red
# plane's, and the JSON surfaces it replaced are gone.
for family in go_memstats_mallocs_total malnet_serve_cache_hits_total malnet_serve_requests_in_flight malnet_serve_reload_errors_total; do
  if ! grep -Eq "^$family [0-9]" "$tmp/metrics"; then
    echo "smoke: /metrics has no $family line" >&2
    status=1
  fi
done
vars_code="$(curl -s -o /dev/null -w '%{http_code}' "http://$dbg/debug/vars")"
if [ "$vars_code" != 404 ]; then
  echo "smoke: /debug/vars answered $vars_code, want 404" >&2
  status=1
fi

# The golden walk hit these endpoints, so their request counters must
# be nonzero (and 2xx — golden responses all succeeded).
for ep in headline samples query; do
  if ! grep -Eq "^malnetd_requests_total\{endpoint=\"$ep\",code=\"2xx\"\} [1-9]" "$tmp/metrics"; then
    echo "smoke: /metrics shows no 2xx traffic for endpoint \"$ep\":" >&2
    grep '^malnetd_requests_total' "$tmp/metrics" >&2 || true
    status=1
  fi
done
# The deliberate 400 must land in the error-class counter.
if ! grep -Eq '^malnetd_requests_total\{endpoint="query",code="4xx"\} [1-9]' "$tmp/metrics"; then
  echo "smoke: /metrics did not count the golden 400" >&2
  status=1
fi

# With -slowlog-threshold 0 every request is recorded, so the slowlog
# must be serving entries for the walked endpoints.
curl -sfS "http://$dbg/debug/slowlog" >"$tmp/slowlog"
if ! grep -q '"endpoint": "headline"' "$tmp/slowlog"; then
  echo "smoke: /debug/slowlog has no entry for the headline request" >&2
  status=1
fi

# --- shutdown ---------------------------------------------------------
# SIGTERM must drain the daemon and exit 0, not kill it mid-request.
kill -TERM "$daemon_pid"
code=0
wait "$daemon_pid" || code=$?
daemon_pid=""
if [ "$code" -ne 0 ]; then
  echo "smoke: malnetd exited $code after SIGTERM, want 0" >&2
  cat "$tmp/stderr" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "serve smoke OK ($base, metrics on $dbg)" >&2
exit "$status"
