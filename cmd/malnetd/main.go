// Command malnetd serves a finished (or still-running) MalNet study
// over HTTP. It loads the newest valid snapshot from a checkpoint
// directory — the same day-NNN.ckpt files cmd/malnet writes with
// -checkpoint-dir — encodes its sample table into columns in memory,
// and answers JSON queries, every filter a selection over those
// columns:
//
//	GET /v1/headline            dataset sizes + headline findings
//	GET /v1/metrics             the deterministic metrics section
//	GET /v1/samples?family=&day=&c2=&limit=&cursor=
//	GET /v1/c2                  every known C2 endpoint, paginated
//	GET /v1/c2/{addr}           one endpoint + the samples citing it
//	GET /v1/attacks?type=&limit=&cursor=
//	GET /v1/query?q=            columnar filter+aggregate expressions,
//	                            e.g. family=="mirai" and day in
//	                            100..200 | count() by c2
//
// When -checkpoint-dir holds a run lake (written by cmd/malnet with
// -lake-dir), the whole lake is mounted: the default store tracks
// -branch's head, every endpoint above additionally accepts run= and
// asof= selectors that resolve through the commit journal to any
// retained generation, and two lake-only endpoints appear:
//
//	GET /v1/runs?limit=         branches, runs, retained generations
//	GET /v1/diff?a=&b=          headline/aggregate comparison across
//	                            two selectors (branch-or-run[@day])
//
// While a study is still running, malnetd polls the directory and
// hot-reloads newer snapshots: the store is swapped atomically, so
// in-flight requests finish against the snapshot they started on.
// Identical snapshots produce byte-identical responses, which is what
// makes the smoke test's golden-JSON diff possible.
//
// The serving library (internal/serve) never reads the wall clock;
// the reload ticker lives here, in the command, and request timing is
// delegated to internal/obs/redplane — the one serving-path package
// allowed to touch `time`. With -debug-addr set, the debug listener
// serves pprof, a slow-query ring at /debug/slowlog (threshold via
// -slowlog-threshold) and one Prometheus text page at /metrics: the
// serve.* wall counters and gauges, the Go runtime's allocation and
// GC totals, and per-endpoint RED metrics. -access-log FILE appends
// one JSON line per request.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"malnet/internal/cli"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
	"malnet/internal/serve"
)

func main() {
	dir := flag.String("checkpoint-dir", "", "directory of day-NNN.ckpt study snapshots — or a run lake — to serve (required)")
	branch := flag.String("branch", "main", "lake branch the default store tracks (lake directories only)")
	listen := flag.String("listen", "127.0.0.1:8377", "address to serve the /v1 API on (use :0 for an ephemeral port)")
	reload := flag.Duration("reload-every", 5*time.Second, "how often to check -checkpoint-dir for a newer snapshot (0 = never)")
	accessLog := flag.String("access-log", "", "append one JSON line per request (id, endpoint, status, stages) to FILE")
	slowThreshold := flag.Duration("slowlog-threshold", 250*time.Millisecond, "record requests at least this slow in /debug/slowlog (0 = record everything, negative = disable)")
	slowCap := flag.Int("slowlog-cap", 64, "how many recent slow requests /debug/slowlog retains")
	var obsFlags cli.ObsFlags
	obsFlags.RegisterDebug(flag.CommandLine)
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "malnetd: -checkpoint-dir is required")
		flag.Usage()
		os.Exit(2)
	}

	redOpts := redplane.Options{SlowThreshold: *slowThreshold, SlowCap: *slowCap}
	if *accessLog != "" {
		fh, err := os.OpenFile(*accessLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "malnetd: %v\n", err)
			os.Exit(1)
		}
		defer fh.Close()
		redOpts.AccessLog = fh
	}
	red := redplane.New(redOpts)

	wall := obs.NewWall()
	srv, err := serve.New(*dir, wall, serve.WithRedPlane(red), serve.WithBranch(*branch))
	if err != nil {
		fmt.Fprintf(os.Stderr, "malnetd: %v\n", err)
		os.Exit(1)
	}
	st := srv.Store()
	fmt.Fprintf(os.Stderr, "malnetd: serving snapshot day %d (generation %.12s…) from %s\n",
		st.Day, st.Generation, *dir)
	if st.SkippedCorrupt > 0 {
		fmt.Fprintf(os.Stderr, "malnetd: skipped %d corrupt snapshot(s)\n", st.SkippedCorrupt)
	}

	if obsFlags.DebugAddr != "" {
		dbg, addr, err := obs.ServeDebug(obsFlags.DebugAddr, wall, red)
		if err != nil {
			fmt.Fprintf(os.Stderr, "malnetd: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/metrics (also /debug/pprof/, /debug/slowlog)\n", addr)
	}

	if *reload > 0 {
		go func() {
			for range time.Tick(*reload) {
				changed, err := srv.Reload()
				switch {
				case err != nil:
					fmt.Fprintf(os.Stderr, "malnetd: reload: %v\n", err)
				case changed:
					st := srv.Store()
					fmt.Fprintf(os.Stderr, "malnetd: reloaded snapshot day %d (generation %.12s…)\n",
						st.Day, st.Generation)
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "malnetd: %v\n", err)
		os.Exit(1)
	}
	// The bound address goes to stdout so scripts using -listen :0 can
	// capture it; all logging stays on stderr.
	fmt.Printf("listening on http://%s\n", ln.Addr())
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "malnetd: %v\n", err)
		os.Exit(1)
	}
}
