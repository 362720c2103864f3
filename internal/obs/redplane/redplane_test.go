package redplane

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"malnet/internal/obs"
)

// finish runs one synthetic request through the plane.
func finish(p *Plane, endpoint, gen string, status int, cache string, rows, bytes int) {
	sp := p.Start(endpoint, "/v1/"+endpoint, gen)
	stop := sp.Stage("scan")
	stop()
	if cache != "" {
		sp.SetCache(cache)
	}
	sp.AddRows(rows)
	sp.Finish(status, bytes)
}

func TestNilPlaneAbsorbsEverything(t *testing.T) {
	var p *Plane
	sp := p.Start("samples", "/v1/samples", "g")
	if sp != nil {
		t.Fatal("nil plane returned a non-nil span")
	}
	sp.Stage("scan")()
	sp.SetCache("hit")
	sp.AddRows(3)
	sp.Finish(200, 10)
	if sp.ID() != "" {
		t.Fatal("nil span has an ID")
	}
	p.StoreSwapped()
	if err := p.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if p.SlowQueries() != nil {
		t.Fatal("nil plane has slow queries")
	}
}

// expositionLine matches the two legal non-comment shapes of the text
// exposition format as this plane emits them.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9.+-]+(e[+-]?[0-9]+)?$`)

func TestPrometheusExposition(t *testing.T) {
	p := New(Options{SlowThreshold: -1})
	finish(p, "samples", "genA", 200, "miss", 120, 4096)
	finish(p, "samples", "genA", 200, "hit", 0, 4096)
	finish(p, "samples", "genA", 400, "", 0, 30)
	finish(p, "query", "genA", 500, "miss", 7, 64)
	p.StoreSwapped()

	var b strings.Builder
	if err := p.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()

	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}

	for _, want := range []string{
		`malnetd_requests_total{endpoint="samples",code="2xx"} 2`,
		`malnetd_requests_total{endpoint="samples",code="4xx"} 1`,
		`malnetd_requests_total{endpoint="query",code="5xx"} 1`,
		`malnetd_cache_outcomes_total{endpoint="samples",outcome="hit"} 1`,
		`malnetd_cache_outcomes_total{endpoint="samples",outcome="miss"} 1`,
		`malnetd_rows_scanned_total{endpoint="samples"} 120`,
		`malnetd_response_bytes_total{endpoint="samples"} 8222`,
		`malnetd_request_duration_seconds_count{endpoint="samples"} 3`,
		`malnetd_generation_requests_total{generation="genA"} 4`,
		`malnetd_store_swaps_total 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	// Histogram buckets are cumulative and end at count.
	if !strings.Contains(body, `malnetd_request_duration_seconds_bucket{endpoint="samples",le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket != count:\n%s", body)
	}
	// Two identical snapshots render byte-identically.
	var b2 strings.Builder
	p.WritePrometheus(&b2)
	if b2.String() != body {
		t.Fatal("exposition output is not stable across identical snapshots")
	}
}

func TestGenerationLabelEviction(t *testing.T) {
	p := New(Options{SlowThreshold: -1})
	for i := 0; i < maxGenerations+3; i++ {
		finish(p, "headline", fmt.Sprintf("gen%02d", i), 200, "hit", 0, 10)
	}
	_, gens, _ := p.snapshot()
	if len(gens) != maxGenerations {
		t.Fatalf("retained %d generations, want %d", len(gens), maxGenerations)
	}
	for _, g := range gens {
		if g.gen == "gen00" || g.gen == "gen01" || g.gen == "gen02" {
			t.Fatalf("oldest generation %s survived eviction", g.gen)
		}
	}
}

func TestSlowlogThresholdAndRing(t *testing.T) {
	p := New(Options{SlowThreshold: 5 * time.Millisecond, SlowCap: 2})
	// Under threshold: not recorded.
	finish(p, "headline", "g", 200, "hit", 0, 10)
	if got := p.SlowQueries(); len(got) != 0 {
		t.Fatalf("fast request admitted to the slow log: %+v", got)
	}
	// Over threshold: recorded, ring capped at 2, oldest evicted.
	for i := 0; i < 3; i++ {
		sp := p.Start("query", fmt.Sprintf("/v1/query?q=%d", i), "g")
		stop := sp.Stage("scan")
		time.Sleep(6 * time.Millisecond)
		stop()
		sp.Finish(200, 100)
	}
	got := p.SlowQueries()
	if len(got) != 2 {
		t.Fatalf("slow ring holds %d entries, want 2", len(got))
	}
	for _, e := range got {
		if e.DurNs < (5 * time.Millisecond).Nanoseconds() {
			t.Fatalf("entry under threshold: %+v", e)
		}
		if e.Path == "/v1/query?q=0" {
			t.Fatal("ring did not evict the oldest entry")
		}
		if len(e.Stages) != 1 || e.Stages[0].Name != "scan" {
			t.Fatalf("entry lost its stages: %+v", e)
		}
	}
	if got[0].DurNs < got[1].DurNs {
		t.Fatal("slow queries not sorted slowest-first")
	}
}

func TestAccessLogJSONL(t *testing.T) {
	var buf strings.Builder
	mu := &syncWriter{w: &buf}
	p := New(Options{SlowThreshold: -1, AccessLog: mu})

	var wg sync.WaitGroup
	const n = 16
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := p.Start("samples", fmt.Sprintf("/v1/samples?cursor=%d", i), "g")
			stop := sp.Stage("cache_lookup")
			stop()
			sp.SetCache("miss")
			sp.AddRows(i)
			sp.Finish(200, 100+i)
		}(i)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("access log has %d lines, want %d", len(lines), n)
	}
	ids := map[string]bool{}
	for _, line := range lines {
		var rec struct {
			ID     string `json:"id"`
			Status int    `json:"status"`
			Stages []Stage
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access line is not JSON: %v\n%s", err, line)
		}
		if rec.ID == "" || rec.Status != 200 || len(rec.Stages) != 1 {
			t.Fatalf("access line malformed: %s", line)
		}
		if ids[rec.ID] {
			t.Fatalf("duplicate request ID %s", rec.ID)
		}
		ids[rec.ID] = true
	}
}

// syncWriter makes a strings.Builder safe for the plane's already
// serialized writes plus the test's final read.
type syncWriter struct {
	mu sync.Mutex
	w  *strings.Builder
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestMountServesMetricsAndSlowlog(t *testing.T) {
	p := New(Options{SlowThreshold: 0})
	finish(p, "headline", "g", 200, "miss", 1, 10)

	srv, addr, err := obs.ServeDebug("127.0.0.1:0", nil, p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics: status %d, content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	// The plane's section rides on the debug listener's one page,
	// byte-for-byte as WritePrometheus renders it.
	page, _ := io.ReadAll(resp.Body)
	var red strings.Builder
	p.WritePrometheus(&red)
	if !strings.HasSuffix(string(page), red.String()) {
		t.Fatalf("/metrics does not end with the red section:\n%s", page)
	}

	resp2, err := http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Capacity    int         `json:"capacity"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatalf("/debug/slowlog not JSON: %v", err)
	}
	if len(body.Entries) != 1 || body.Capacity != 64 {
		t.Fatalf("slowlog body unexpected: %+v", body)
	}
}
