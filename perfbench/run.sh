#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload serve_zipf --seed 1 --seconds 16 --trace 0
#   bash perfbench/run.sh compare a.jsonl b.jsonl
#
# The binary, the Go build cache, scratch run directories, traces and
# the run ledger all stay under the checkout's build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$root/$work ;;
esac
mkdir -p "$work"

export GOCACHE="$work/go-cache" GOPATH="$work/go-path" GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$work/config" \
	XDG_CACHE_HOME="$work/cache" PERFBENCH_WORK="$work"
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" "$@"
