// Command malnetbench load-tests a live malnetd: an open-loop HTTP
// generator that replays a deterministic, zipf-distributed query
// schedule (hot families, hot days, hot C2 endpoints dominating, the
// long tail always arriving) against the /v1 API — point lookups,
// index pages, and /v1/query columnar aggregations — and reports
// p50/p99/p999 latency, throughput, and error rate per endpoint.
//
//	go run ./cmd/malnetbench -target http://127.0.0.1:8377 \
//	    -rate 2000 -concurrency 16 -duration 30s -seed 7
//
// Arrivals are paced at -rate regardless of how fast the daemon
// answers, and latency is measured from each request's *scheduled*
// start — a saturated daemon shows up as queueing delay in the tail
// percentiles instead of silently slowing the request stream
// (the coordinated-omission correction).
//
// With the daemon's -debug-addr passed as -debug, the summary also
// carries the server's view, from one /metrics scrape before the run
// and one after: server-side allocs per request (the
// go_memstats_mallocs_total delta — the binary-centric view of what
// each query costs the serving process), and "server" rows with the
// daemon's own RED deltas for the same burst (request counts, 5xx,
// cache hit/miss/coalesced, rows scanned) plus histogram-interpolated
// p50/p99/p999 service time. Client p99 minus server p99 is the
// queueing the daemon never saw.
//
// The summary is JSON; its "results" rows use the same schema as
// tools/benchjson, so a load run merges into the repo's archived
// benchmark document:
//
//	go run ./tools/benchjson -merge BENCH_2026-08-07.json -merge summary.json </dev/null
//
// -duration 0 performs no HTTP at all: it emits the first -schedule
// entries of the deterministic query plan, which is what the golden
// test in internal/loadgen pins down.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"malnet/internal/cli"
	"malnet/internal/loadgen"
)

func main() {
	f := cli.NewLoadFlags(flag.CommandLine)
	flag.Parse()

	var sum *loadgen.Summary
	if f.Duration == 0 {
		sum = loadgen.ScheduleOnly(f.Config(), f.ScheduleN)
	} else {
		if f.Target == "" {
			fmt.Fprintln(os.Stderr, "malnetbench: -target is required (or -duration 0 for schedule-only mode)")
			flag.Usage()
			os.Exit(2)
		}
		var err error
		sum, err = loadgen.Run(f.Config())
		if err != nil {
			fmt.Fprintf(os.Stderr, "malnetbench: %v\n", err)
			os.Exit(1)
		}
		report(sum)
	}

	out := os.Stdout
	if f.Out != "" {
		fh, err := os.Create(f.Out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "malnetbench: %v\n", err)
			os.Exit(1)
		}
		defer fh.Close()
		out = fh
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintf(os.Stderr, "malnetbench: %v\n", err)
		os.Exit(1)
	}
	if f.Out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", f.Out)
	}

	if f.RequireOK && f.Duration != 0 {
		if sum.Errors > 0 || sum.ThroughputRPS == 0 {
			fmt.Fprintf(os.Stderr, "malnetbench: require-success failed: %d errors, %.1f req/s\n",
				sum.Errors, sum.ThroughputRPS)
			os.Exit(1)
		}
	}
}

// report prints the human-readable run summary to stderr (stdout is
// reserved for the JSON summary when -out is unset).
func report(sum *loadgen.Summary) {
	fmt.Fprintf(os.Stderr, "malnetbench: %d requests in %.1fs against %s (generation %.12s…)\n",
		sum.Requests, sum.DurationSec, sum.Target, sum.Generation)
	fmt.Fprintf(os.Stderr, "  throughput %.1f req/s, %d errors\n", sum.ThroughputRPS, sum.Errors)
	if sum.ServerAllocsOp != nil {
		fmt.Fprintf(os.Stderr, "  server-side allocs/op: %.1f\n", *sum.ServerAllocsOp)
	}
	for _, ep := range sum.Endpoints {
		fmt.Fprintf(os.Stderr, "  %-10s %7d req  p50 %8.0fns  p99 %8.0fns  p999 %8.0fns  err %d\n",
			ep.Endpoint, ep.Requests, ep.P50Ns, ep.P99Ns, ep.P999Ns, ep.Errors)
	}
	if len(sum.Server) > 0 {
		fmt.Fprintf(os.Stderr, "  server-side (/metrics deltas; service time, no client queueing):\n")
		for _, ep := range sum.Server {
			fmt.Fprintf(os.Stderr, "  %-10s %7d req  p50 %8.0fns  p99 %8.0fns  p999 %8.0fns  5xx %d  hit/miss/coal %d/%d/%d\n",
				ep.Endpoint, ep.Requests, ep.P50Ns, ep.P99Ns, ep.P999Ns, ep.Errors,
				ep.CacheHit, ep.CacheMiss, ep.CacheCoal)
		}
	}
}
