package loadgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestScheduleGolden pins the deterministic query schedule and the
// summary's JSON shape: cmd/malnetbench's -duration 0 mode emits
// exactly these bytes for seed 7, so a drift in the zipf draw order,
// the endpoint mix, or the output format is a deliberate, reviewed
// change — regenerate with `go test ./internal/loadgen -update`.
func TestScheduleGolden(t *testing.T) {
	sum := ScheduleOnly(Config{Seed: 7, Concurrency: 8, Rate: 500}, 64)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "schedule_seed7.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("schedule-only summary drifted from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestScheduleDeterminism double-checks the property the golden file
// rests on: two schedules from one seed agree far past the golden
// prefix, and a different seed diverges.
func TestScheduleDeterminism(t *testing.T) {
	a, b := NewSchedule(11), NewSchedule(11)
	for i := 0; i < 10000; i++ {
		if qa, qb := a.Next(), b.Next(); qa != qb {
			t.Fatalf("same-seed schedules diverged at %d: %+v vs %+v", i, qa, qb)
		}
	}
	c, d := NewSchedule(11), NewSchedule(12)
	same := 0
	for i := 0; i < 1000; i++ {
		if c.Next() == d.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seeds 11 and 12 produced identical schedules")
	}
}

// TestScheduleMix sanity-checks the zipf shape: samples dominate, the
// head family outdraws the tail, every endpoint appears.
func TestScheduleMix(t *testing.T) {
	s := NewSchedule(3)
	counts := map[string]int{}
	miraiQ, vpnfilterQ := 0, 0
	const n = 20000
	for i := 0; i < n; i++ {
		q := s.Next()
		counts[q.Endpoint]++
		if q.Endpoint == "samples" {
			if bytes.Contains([]byte(q.Path), []byte("family=mirai")) {
				miraiQ++
			}
			if bytes.Contains([]byte(q.Path), []byte("family=vpnfilter")) {
				vpnfilterQ++
			}
		}
	}
	for _, ep := range []string{"samples", "c2_point", "c2_index", "attacks", "query", "headline", "metrics"} {
		if counts[ep] == 0 {
			t.Fatalf("endpoint %s never scheduled in %d draws: %v", ep, n, counts)
		}
	}
	if counts["samples"] < n/3 {
		t.Fatalf("samples is %d of %d draws, want the dominant share", counts["samples"], n)
	}
	if miraiQ <= vpnfilterQ*5 {
		t.Fatalf("zipf head not heavy: mirai=%d vpnfilter=%d", miraiQ, vpnfilterQ)
	}
}

func TestPercentile(t *testing.T) {
	lats := make([]float64, 1000)
	for i := range lats {
		lats[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}} {
		if got := percentile(lats, tc.q); got != tc.want {
			t.Fatalf("percentile(1..1000, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("percentile(nil) = %v", got)
	}
}

// TestRunAgainstStub drives the full open-loop runner against a stub
// /v1 API and checks the summary arithmetic: every arrival lands, C2
// ranks resolve to real addresses, errors are counted, and the bench
// rows carry the totals. The stub is its own debug listener too: its
// /metrics steps go_memstats_mallocs_total by a known amount between
// the two scrapes, and server allocs/op must be read from those
// scrapes alone.
func TestRunAgainstStub(t *testing.T) {
	const mallocStep = 4242
	var hits, scrapes, otherDebug atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		n := scrapes.Add(1)
		fmt.Fprintf(w, "# TYPE go_memstats_mallocs_total counter\ngo_memstats_mallocs_total %d\n", 1000+(n-1)*mallocStep)
	})
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, r *http.Request) {
		otherDebug.Add(1)
		http.NotFound(w, r)
	})
	mux.HandleFunc("/v1/headline", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintln(w, `{"generation":"feedface","day":3}`)
	})
	mux.HandleFunc("/v1/c2", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintln(w, `{"addresses":["10.0.0.1:23","10.0.0.2:23"]}`)
	})
	mux.HandleFunc("/v1/c2/{addr}", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if a := r.PathValue("addr"); a != "10.0.0.1:23" && a != "10.0.0.2:23" {
			t.Errorf("c2 rank resolved to unknown address %q", a)
		}
		fmt.Fprintln(w, `{"record":{}}`)
	})
	for _, p := range []string{"/v1/samples", "/v1/attacks", "/v1/query", "/v1/metrics"} {
		mux.HandleFunc(p, func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			fmt.Fprintln(w, `{}`)
		})
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()

	sum, err := Run(Config{
		Target:      ts.URL,
		Concurrency: 4,
		Rate:        400,
		Duration:    500 * time.Millisecond,
		Seed:        7,
		DebugAddr:   strings.TrimPrefix(ts.URL, "http://"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Generation != "feedface" {
		t.Fatalf("generation %q, want feedface", sum.Generation)
	}
	if sum.Requests == 0 || sum.ThroughputRPS == 0 {
		t.Fatalf("no load delivered: %+v", sum)
	}
	if sum.Errors != 0 {
		t.Fatalf("%d errors against a healthy stub: %v", sum.Errors, sum.Status)
	}
	// Open loop at 400/s for 0.5s: within scheduling slop of 200
	// arrivals, and never more than the schedule allows.
	if sum.Requests < 100 || sum.Requests > 250 {
		t.Fatalf("open loop delivered %d requests, want ~200", sum.Requests)
	}
	var total *BenchRow
	epRows := 0
	for i := range sum.Results {
		if sum.Results[i].Name == "LoadServe/total" {
			total = &sum.Results[i]
		} else {
			epRows++
		}
	}
	if total == nil || total.Iterations != sum.Requests {
		t.Fatalf("bench rows missing or wrong total: %+v", sum.Results)
	}
	if epRows != len(sum.Endpoints) {
		t.Fatalf("%d endpoint rows for %d endpoints", epRows, len(sum.Endpoints))
	}
	for _, ep := range sum.Endpoints {
		if ep.P50Ns <= 0 || ep.P999Ns < ep.P99Ns || ep.P99Ns < ep.P50Ns {
			t.Fatalf("endpoint %s has inconsistent percentiles: %+v", ep.Endpoint, ep)
		}
	}
	if n, other := scrapes.Load(), otherDebug.Load(); n != 2 || other != 0 {
		t.Fatalf("debug traffic: %d /metrics scrapes and %d other requests, want 2 and 0", n, other)
	}
	want := float64(mallocStep) / float64(sum.Requests)
	if sum.ServerAllocsOp == nil || *sum.ServerAllocsOp != want {
		t.Fatalf("server allocs/op = %v, want %v", sum.ServerAllocsOp, want)
	}
	if got := total.Metrics["server-allocs/op"]; got != want {
		t.Fatalf("total row server-allocs/op = %v, want %v", got, want)
	}
}

// TestRunCountsServerErrors makes a failing daemon visible in the
// summary: 5xx responses are errors, 4xx are recorded but not
// conflated with failure.
func TestRunCountsServerErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/headline", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"generation":"deadbeef"}`)
	})
	mux.HandleFunc("/v1/c2", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"addresses":[]}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	sum, err := Run(Config{Target: ts.URL, Concurrency: 2, Rate: 200, Duration: 200 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests == 0 || sum.Errors == 0 {
		t.Fatalf("5xx responses not counted as errors: %+v", sum)
	}
	if sum.Status["500"] == 0 {
		t.Fatalf("status histogram missing 500s: %v", sum.Status)
	}
}
