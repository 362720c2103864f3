#!/usr/bin/env bash
# Run the repo's benchmark suite and archive the results as JSON.
#
# Usage:  scripts/bench.sh [output-file]
#
# The default output is BENCH_<utc-date>.json in the repo root.
# BENCHTIME overrides -benchtime, with a floor: iteration-count values
# below 3x are raised to 3x, because archived one-iteration numbers
# (ns/op from a single run, allocs/op with warm-up noise) are too
# unstable to compare across PRs — exactly the trap the 2026-08-05
# archive fell into with BenchmarkAblationProbeInterval at
# iterations: 1. Time-based values (e.g. BENCHTIME=2s) pass through.
# BENCH selects a subset via -bench's regexp. MERGE lists extra JSON
# documents (benchjson output or cmd/malnetbench summaries) whose
# result rows are folded into the archive. The archive's "nproc" and
# "go_version" describe the host that ran the benchmarks: benchjson
# reads them from its own process, which runs here, right after the
# benchmarks, with the same toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date -u +%F).json}"
benchtime="${BENCHTIME:-3x}"
if [[ "$benchtime" =~ ^([0-9]+)x$ ]] && [ "${BASH_REMATCH[1]}" -lt 3 ]; then
  echo "bench.sh: raising BENCHTIME=$benchtime to the 3x floor (archived numbers must be comparable)" >&2
  benchtime=3x
fi
pattern="${BENCH:-.}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

merge_flags=()
for f in ${MERGE:-}; do
  merge_flags+=(-merge "$f")
done

echo "running benchmarks (-bench '$pattern' -benchtime $benchtime)..." >&2
go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . ./internal/core/ ./internal/serve/ ./internal/colstore/ ./internal/simclock/ ./internal/simnet/ | tee "$tmp" >&2
go run ./tools/benchjson ${merge_flags[@]+"${merge_flags[@]}"} <"$tmp" >"$out"
echo "wrote $out" >&2
