package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// sectionPlane is a stand-in for a mounted plane: one family on
// /metrics and one handler of its own.
type sectionPlane struct{}

func (sectionPlane) WritePrometheus(w io.Writer) error {
	_, err := io.WriteString(w, "# TYPE plane_up gauge\nplane_up 1\n")
	return err
}

func (sectionPlane) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/plane", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "plane handler\n")
	})
}

func TestServeDebug(t *testing.T) {
	wall := NewWall()
	wall.Add("stage.static", 3*time.Millisecond)
	wall.Add("stage.static", 1500*time.Microsecond)
	wall.SetCounter("batch.reruns", func() int64 { return 7 })
	wall.SetGauge("executor.queue_depth", func() int64 { return 5 })

	srv, addr, err := ServeDebug("127.0.0.1:0", wall, sectionPlane{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics: status %d", code)
	}
	// The wall section comes first, stages then counters then gauges,
	// then the runtime section, then the plane's.
	wallSection := "# TYPE malnet_stage_static_seconds summary\n" +
		"malnet_stage_static_seconds_sum 0.0045\n" +
		"malnet_stage_static_seconds_count 2\n" +
		"# TYPE malnet_batch_reruns_total counter\n" +
		"malnet_batch_reruns_total 7\n" +
		"# TYPE malnet_executor_queue_depth gauge\n" +
		"malnet_executor_queue_depth 5\n"
	if !strings.HasPrefix(body, wallSection) {
		t.Fatalf("/metrics does not open with the wall section:\n%s", body)
	}
	rt := strings.Index(body, "\ngo_memstats_mallocs_total ")
	plane := strings.Index(body, "\nplane_up 1\n")
	if rt < 0 || plane < rt {
		t.Fatalf("/metrics lacks the runtime section or the plane's after it:\n%s", body)
	}
	if _, again := get("/metrics"); !strings.HasPrefix(again, wallSection) {
		t.Fatalf("wall section not byte-stable across scrapes:\n%s", again)
	}

	if code, body := get("/debug/plane"); code != 200 || body != "plane handler\n" {
		t.Fatalf("/debug/plane: status %d body %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected: status %d\n%s", code, body)
	}
	for _, gone := range []string{"/debug/vars", "/debug/wall"} {
		if code, _ := get(gone); code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", gone, code)
		}
	}
}
