package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"malnet/internal/obs/redplane"
)

// redServer builds a synthetic-store Server with an armed red plane,
// the serving-observability counterpart of stampedeServer.
func redServer(n int, o redplane.Options) (*Server, *redplane.Plane) {
	s := &Server{cache: map[string][]byte{}}
	WithRedPlane(redplane.New(o))(s)
	s.store.Store(BuildStore(syntheticSnapshot(n), nil))
	return s, s.red
}

// promBody renders the plane's /metrics exposition.
func promBody(t *testing.T, p *redplane.Plane) string {
	t.Helper()
	var b strings.Builder
	if err := p.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestServeObsGenerationRollover swaps the store under live traffic
// and requires the per-generation request counters to roll over with
// it: requests before the swap count under the old generation label,
// requests after under the new, and the swap itself shows in
// store_swaps_total.
func TestServeObsGenerationRollover(t *testing.T) {
	s, p := redServer(300, redplane.Options{SlowThreshold: -1})
	stA := s.Store()
	stB := BuildStore(syntheticSnapshot(500), nil)
	h := s.Handler()

	get := func(path string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body.String())
		}
	}

	for i := 0; i < 3; i++ {
		get("/v1/headline")
	}
	// The swap, as Reload performs it.
	s.store.Store(stB)
	s.red.StoreSwapped()
	s.mu.Lock()
	s.cache = map[string][]byte{}
	s.mu.Unlock()
	for i := 0; i < 2; i++ {
		get("/v1/headline")
	}

	body := promBody(t, p)
	wantA := fmt.Sprintf("malnetd_generation_requests_total{generation=%q} 3", stA.Generation)
	wantB := fmt.Sprintf("malnetd_generation_requests_total{generation=%q} 2", stB.Generation)
	if !strings.Contains(body, wantA+"\n") || !strings.Contains(body, wantB+"\n") {
		t.Fatalf("generation counters did not roll over:\nwant %s\nand  %s\ngot:\n%s", wantA, wantB, body)
	}
	if !strings.Contains(body, "malnetd_store_swaps_total 1\n") {
		t.Fatalf("store swap not counted:\n%s", body)
	}
	// RED totals: 5 requests on the headline endpoint, all 2xx; the
	// repeats were cache hits within each generation.
	if !strings.Contains(body, `malnetd_requests_total{endpoint="headline",code="2xx"} 5`+"\n") {
		t.Fatalf("endpoint request counter wrong:\n%s", body)
	}
	if !strings.Contains(body, `malnetd_cache_outcomes_total{endpoint="headline",outcome="hit"} 3`+"\n") ||
		!strings.Contains(body, `malnetd_cache_outcomes_total{endpoint="headline",outcome="miss"} 2`+"\n") {
		t.Fatalf("cache outcome counters wrong:\n%s", body)
	}
}

// TestServeSlowlogConcurrentHerd fires a concurrent mixed herd —
// unique queries and a shared hot query — with a zero slow-log
// threshold, then requires every recorded span tree to be internally
// consistent: the stages, rows, and path of one request never bleed
// into another entry. Runs under -race in CI's named step.
func TestServeSlowlogConcurrentHerd(t *testing.T) {
	const herd = 32
	s, p := redServer(400, redplane.Options{SlowThreshold: 0, SlowCap: 2 * herd})
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the herd shares one hot query (stressing the
			// singleflight path), half issues unique pages.
			path := "/v1/samples?family=mirai"
			if i%2 == 0 {
				path = fmt.Sprintf("/v1/samples?cursor=%d", i)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			if w.Code != 200 {
				t.Errorf("GET %s: status %d", path, w.Code)
			}
		}(i)
	}
	wg.Wait()

	entries := p.SlowQueries()
	if len(entries) != herd {
		t.Fatalf("slow log recorded %d spans, want %d", len(entries), herd)
	}
	ids := map[string]bool{}
	for _, e := range entries {
		if ids[e.ID] {
			t.Fatalf("duplicate request ID %s in slow log", e.ID)
		}
		ids[e.ID] = true
		if e.Endpoint != "samples" || !strings.HasPrefix(e.Path, "/v1/samples?") {
			t.Fatalf("entry identity inconsistent: %+v", e)
		}
		// Stage spans nest inside the request span.
		for _, st := range e.Stages {
			if st.StartNs < 0 || st.DurNs < 0 || st.StartNs+st.DurNs > e.DurNs {
				t.Fatalf("stage %q [%d +%d] escapes its request span (%d ns): %+v",
					st.Name, st.StartNs, st.DurNs, e.DurNs, e)
			}
		}
		switch e.Cache {
		case "miss":
			// A leader scanned the store: its rows must be the filtered
			// result size of its own query, proving the span the scan
			// reported into is the span of the request that ran it.
			want := int64(s.Store().NumSamples())
			if strings.Contains(e.Path, "family=mirai") {
				want = s.Store().Samples(SampleQuery{Family: "mirai", Day: -1}).Count()
			}
			if e.Rows != want {
				t.Fatalf("leader entry rows %d, want %d: %+v", e.Rows, want, e)
			}
			if !hasStage(e, "scan") || !hasStage(e, "encode") {
				t.Fatalf("leader entry missing scan/encode stages: %+v", e)
			}
		case "coalesced":
			// A joiner never touched the store: no scan stage, no rows.
			if e.Rows != 0 || hasStage(e, "scan") {
				t.Fatalf("coalesced entry carries a leader's scan: %+v", e)
			}
			if !hasStage(e, "flight") {
				t.Fatalf("coalesced entry missing its flight wait: %+v", e)
			}
		case "hit":
			if e.Rows != 0 || hasStage(e, "scan") {
				t.Fatalf("cache-hit entry carries a scan: %+v", e)
			}
		default:
			t.Fatalf("entry without a cache outcome: %+v", e)
		}
	}
}

func hasStage(e redplane.SlowEntry, name string) bool {
	for _, st := range e.Stages {
		if st.Name == name {
			return true
		}
	}
	return false
}

// TestServeAccessLogAndRequestID checks the JSONL access log against
// the X-Request-Id response headers: one well-formed line per
// request, joinable on the ID the client saw.
func TestServeAccessLogAndRequestID(t *testing.T) {
	var log strings.Builder
	s, _ := redServer(120, redplane.Options{SlowThreshold: -1, AccessLog: &log})
	h := s.Handler()

	var headerIDs []string
	for i := 0; i < 3; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/samples?limit="+strconv.Itoa(i+1), nil))
		if w.Code != 200 {
			t.Fatalf("status %d", w.Code)
		}
		if id := w.Header().Get("X-Request-Id"); id == "" {
			t.Fatal("response missing X-Request-Id")
		} else {
			headerIDs = append(headerIDs, id)
		}
	}
	// A 400 is logged too, with its status.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/samples?bogus=1", nil))
	if w.Code != 400 {
		t.Fatalf("status %d, want 400", w.Code)
	}

	lines := strings.Split(strings.TrimRight(log.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("access log has %d lines, want 4:\n%s", len(lines), log.String())
	}
	logged := map[string]int{}
	for _, line := range lines {
		var rec struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
			Path     string `json:"path"`
			Status   int    `json:"status"`
			DurNs    int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access line is not JSON: %v\n%s", err, line)
		}
		if rec.Endpoint != "samples" || rec.DurNs <= 0 {
			t.Fatalf("access line malformed: %s", line)
		}
		logged[rec.ID] = rec.Status
	}
	for _, id := range headerIDs {
		if logged[id] != 200 {
			t.Fatalf("request %s (from X-Request-Id) not logged as a 200: %v", id, logged)
		}
	}
}
