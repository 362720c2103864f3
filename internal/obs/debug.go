package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
)

// Plane is a section of the debug listener that lives outside this
// package, such as the serving red plane: it appends its families to
// /metrics and mounts any handlers of its own.
type Plane interface {
	WritePrometheus(w io.Writer) error
	Mount(mux *http.ServeMux)
}

// ServeDebug starts an HTTP debug server on addr exposing
// /debug/pprof/* (live CPU/heap/goroutine profiling) and /metrics, in
// Prometheus text format (version 0.0.4): the wall profile's stages,
// counters and gauges, then the Go runtime's allocation and GC
// totals, then each plane's section. Planes mount their own handlers
// on the same mux — that is how the serving red plane adds
// /debug/slowlog without this package importing it. It returns the
// server and the bound address (useful with ":0"). The server runs
// until Close; it only reads the wall-clock plane, so serving it
// during a study cannot perturb deterministic outputs.
func ServeDebug(addr string, wall *Wall, planes ...Plane) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	for _, p := range planes {
		p.Mount(mux)
	}
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		wall.WritePrometheus(w)
		writeRuntime(w)
		for _, p := range planes {
			p.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// writeRuntime renders the Go runtime's allocation and GC totals
// under the names Prometheus' Go collector gives them.
func writeRuntime(w io.Writer) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\ngo_goroutines %d\n"+
		"# TYPE go_memstats_alloc_bytes_total counter\ngo_memstats_alloc_bytes_total %d\n"+
		"# TYPE go_memstats_mallocs_total counter\ngo_memstats_mallocs_total %d\n"+
		"# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n",
		runtime.NumGoroutine(), m.TotalAlloc, m.Mallocs, m.NumGC)
}
