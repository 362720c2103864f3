// Command malnetd serves a finished (or still-running) MalNet study
// over HTTP. It mounts the run lake a durable `cmd/malnet -lake-dir`
// run commits its snapshots into, loads the head of -branch, encodes
// its sample table into columns in memory, and answers JSON queries,
// every filter a selection over those columns:
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
//	GET /v1/families            the spec registry joined with
//	                            per-family sample counts
//
// Every endpoint above also accepts run= and asof= selectors that
// resolve through the lake's commit journal to any retained
// generation, and two endpoints read the history itself (and refuse
// those selectors with a 400):
//
//	GET /v1/runs?limit=         branches, runs, retained generations
//	GET /v1/diff?a=&b=          headline/aggregate comparison across
//	                            two selectors (branch-or-run[@day])
//
// While a study is still running, malnetd polls the branch head (the
// branch's newest journal frame) and hot-reloads newer commits: the
// store is swapped atomically, so in-flight requests finish against
// the snapshot they started on. A failed reload keeps the mounted
// store and counts in serve.reload_errors.
// Identical snapshots produce byte-identical responses, which is what
// makes the smoke test's golden-JSON diff possible. A directory that
// is not already a lake is refused, not laid out as a new one.
//
// On SIGINT or SIGTERM malnetd stops accepting connections, drains
// in-flight requests, closes its access log and debug listener, and
// exits 0.
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
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"malnet/internal/cli"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
	"malnet/internal/serve"
)

// Connection bounds. A client gets readHeaderTimeout to send its
// request headers and at most maxHeaderBytes of them, and a
// keep-alive connection is closed after idleTimeout without a
// request, so a slow or silent client cannot pin a connection. On
// shutdown, requests still in flight get drainTimeout to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	drainTimeout      = 10 * time.Second
)

func main() { os.Exit(run()) }

// run is main with defer-friendly exits: the access log and the debug
// listener are closed on every path out, the signal-driven shutdown
// included.
func run() int {
	dir := flag.String("lake-dir", "", "run lake to serve, as cmd/malnet -lake-dir writes it (required)")
	branch := flag.String("branch", "main", "lake branch the default store tracks")
	listen := flag.String("listen", "127.0.0.1:8377", "address to serve the /v1 API on (use :0 for an ephemeral port)")
	reload := flag.Duration("reload-every", 5*time.Second, "how often to check the branch head for a newer commit (0 = never)")
	accessLog := flag.String("access-log", "", "append one JSON line per request (id, endpoint, status, stages) to FILE")
	slowThreshold := flag.Duration("slowlog-threshold", 250*time.Millisecond, "record requests at least this slow in /debug/slowlog (0 = record everything, negative = disable)")
	slowCap := flag.Int("slowlog-cap", 64, "how many recent slow requests /debug/slowlog retains")
	var obsFlags cli.ObsFlags
	obsFlags.RegisterDebug(flag.CommandLine)
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "malnetd: -lake-dir is required")
		flag.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "malnetd: %v\n", err)
		return 1
	}

	redOpts := redplane.Options{SlowThreshold: *slowThreshold, SlowCap: *slowCap}
	if *accessLog != "" {
		fh, err := os.OpenFile(*accessLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fail(err)
		}
		defer fh.Close()
		redOpts.AccessLog = fh
	}
	red := redplane.New(redOpts)

	wall := obs.NewWall()
	srv, err := serve.New(*dir, wall, serve.WithRedPlane(red), serve.WithBranch(*branch))
	if err != nil {
		return fail(err)
	}
	st := srv.Store()
	fmt.Fprintf(os.Stderr, "malnetd: serving snapshot day %d (generation %.12s…) from %s\n",
		st.Day, st.Generation, *dir)

	if obsFlags.DebugAddr != "" {
		dbg, addr, err := obs.ServeDebug(obsFlags.DebugAddr, wall, red)
		if err != nil {
			return fail(err)
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
		return fail(err)
	}
	// The bound address goes to stdout so scripts using -listen :0 can
	// capture it; all logging stays on stderr.
	fmt.Printf("listening on http://%s\n", ln.Addr())
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return fail(err)
	case <-ctx.Done():
	}
	// A second signal during the drain kills the process outright.
	stop()
	fmt.Fprintln(os.Stderr, "malnetd: shutting down; draining in-flight requests")
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return fail(fmt.Errorf("shutdown: %w", err))
	}
	return 0
}
