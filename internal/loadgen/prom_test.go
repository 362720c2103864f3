package loadgen

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
)

const scrapeT0 = `# HELP malnetd_requests_total Requests served, by endpoint and status class.
# TYPE malnetd_requests_total counter
malnetd_requests_total{endpoint="headline",code="2xx"} 10
malnetd_requests_total{endpoint="samples",code="2xx"} 100
malnetd_requests_total{endpoint="samples",code="4xx"} 5
# TYPE malnetd_request_duration_seconds histogram
malnetd_request_duration_seconds_bucket{endpoint="samples",le="0.001"} 50
malnetd_request_duration_seconds_bucket{endpoint="samples",le="0.01"} 100
malnetd_request_duration_seconds_bucket{endpoint="samples",le="+Inf"} 105
malnetd_request_duration_seconds_sum{endpoint="samples"} 0.5
malnetd_request_duration_seconds_count{endpoint="samples"} 105
malnetd_cache_outcomes_total{endpoint="samples",outcome="hit"} 80
malnetd_rows_scanned_total{endpoint="samples"} 1000
malnetd_response_bytes_total{endpoint="samples"} 50000
malnetd_store_swaps_total 0
`

const scrapeT1 = `malnetd_requests_total{endpoint="headline",code="2xx"} 10
malnetd_requests_total{endpoint="samples",code="2xx"} 300
malnetd_requests_total{endpoint="samples",code="4xx"} 5
malnetd_requests_total{endpoint="samples",code="5xx"} 2
malnetd_request_duration_seconds_bucket{endpoint="samples",le="0.001"} 150
malnetd_request_duration_seconds_bucket{endpoint="samples",le="0.01"} 300
malnetd_request_duration_seconds_bucket{endpoint="samples",le="+Inf"} 307
malnetd_request_duration_seconds_sum{endpoint="samples"} 1.51
malnetd_request_duration_seconds_count{endpoint="samples"} 307
malnetd_cache_outcomes_total{endpoint="samples",outcome="hit"} 260
malnetd_cache_outcomes_total{endpoint="samples",outcome="miss"} 20
malnetd_cache_outcomes_total{endpoint="samples",outcome="coalesced"} 22
malnetd_rows_scanned_total{endpoint="samples"} 5000
malnetd_response_bytes_total{endpoint="samples"} 150000
malnetd_store_swaps_total 1
`

func mustParse(t *testing.T, text string) *promScrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParsePromText(t *testing.T) {
	s := mustParse(t, scrapeT0)
	if got := s.sum("_requests_total", map[string]string{"endpoint": "samples"}); got != 105 {
		t.Fatalf("samples requests = %v, want 105", got)
	}
	if got := s.sum("_store_swaps_total", nil); got != 0 {
		t.Fatalf("swaps = %v", got)
	}
	if eps := s.endpoints(); len(eps) != 2 || eps[0] != "headline" || eps[1] != "samples" {
		t.Fatalf("endpoints = %v", eps)
	}
	b := s.buckets("samples")
	if len(b) != 3 || b[0].le != 0.001 || !math.IsInf(b[2].le, 1) || b[2].count != 105 {
		t.Fatalf("buckets = %+v", b)
	}
}

func TestParsePromEscapesAndErrors(t *testing.T) {
	s := mustParse(t, `m{l="a\"b\\c\nd"} 1`+"\n")
	if got := s.samples[0].labels["l"]; got != "a\"b\\c\nd" {
		t.Fatalf("unescaped label = %q", got)
	}
	for _, bad := range []string{
		"no_value_here\n",
		`m{l="unterminated} 1` + "\n",
		`m{l="v"} notanumber` + "\n",
		`{l="v"} 1` + "\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Fatalf("parser accepted malformed input %q", bad)
		}
	}
}

func TestBucketQuantile(t *testing.T) {
	// 100 observations: 50 in (0, 1ms], 50 in (1ms, 10ms].
	b := []promBucket{{0.001, 50}, {0.01, 100}, {inf, 100}}
	if got := bucketQuantile(b, 0.50); got != 0.001*1e9 {
		t.Fatalf("p50 = %v, want 1ms", got)
	}
	// p75 lands halfway through the second bucket: 1ms + 0.5*9ms.
	if got, want := bucketQuantile(b, 0.75), 0.0055*1e9; math.Abs(got-want) > 1 {
		t.Fatalf("p75 = %v, want %v", got, want)
	}
	// Quantile in +Inf clamps to the highest finite bound.
	b2 := []promBucket{{0.001, 10}, {inf, 100}}
	if got := bucketQuantile(b2, 0.99); got != 0.001*1e9 {
		t.Fatalf("p99 in +Inf = %v, want clamp to 1ms", got)
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
}

func TestScrapeMetrics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, scrapeT0)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	s, ok := scrapeMetrics(ts.Client(), addr)
	if !ok {
		t.Fatal("scrape against a live /metrics failed")
	}
	if got := s.sum("_requests_total", map[string]string{"endpoint": "samples"}); got != 105 {
		t.Fatalf("scraped samples requests = %v", got)
	}
	// Absent debug listener and a 404 both degrade to ok=false, never
	// an error — older daemons must still be loadable.
	if _, ok := scrapeMetrics(ts.Client(), ""); ok {
		t.Fatal("empty addr scraped")
	}
	if _, ok := scrapeMetrics(ts.Client(), addr+"/nope"); ok {
		t.Fatal("bad path scraped")
	}
}

func TestServerDeltas(t *testing.T) {
	rows := serverDeltas(mustParse(t, scrapeT0), mustParse(t, scrapeT1))
	// headline saw no traffic during the window: no row.
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Endpoint != "samples" || r.Requests != 202 || r.Errors != 2 {
		t.Fatalf("RED delta wrong: %+v", r)
	}
	if r.CacheHit != 180 || r.CacheMiss != 20 || r.CacheCoal != 22 {
		t.Fatalf("cache deltas wrong: %+v", r)
	}
	if r.RowsScanned != 4000 || r.Bytes != 100000 {
		t.Fatalf("rows/bytes deltas wrong: %+v", r)
	}
	// Mean from sum/count delta: (1.51-0.5)s / 202 requests.
	if want := (1.51 - 0.5) / 202 * 1e9; math.Abs(r.MeanNs-want) > 1 {
		t.Fatalf("mean = %v, want %v", r.MeanNs, want)
	}
	// Delta histogram: 100 in (0,1ms], 100 in (1ms,10ms], 2 in +Inf.
	// p50 rank is 101 of 202 — just inside the second bucket:
	// 1ms + (1/100)*9ms.
	if want := 0.00109 * 1e9; math.Abs(r.P50Ns-want) > 1 {
		t.Fatalf("p50 = %v, want %v", r.P50Ns, want)
	}
	if r.P999Ns != 0.01*1e9 {
		t.Fatalf("p999 (lands in +Inf) = %v, want clamp to 10ms", r.P999Ns)
	}

	bench := serverBenchRows(rows)
	if len(bench) != 1 || bench[0].Name != "LoadServe/server/samples" {
		t.Fatalf("bench rows = %+v", bench)
	}
	if got := bench[0].Metrics["err-rate"]; math.Abs(got-2.0/202) > 1e-12 {
		t.Fatalf("err-rate = %v", got)
	}
	if got := bench[0].Metrics["cache-hit-rate"]; math.Abs(got-180.0/222) > 1e-12 {
		t.Fatalf("cache-hit-rate = %v", got)
	}
}

// debugPage starts a real debug listener whose /metrics carries every
// section the daemon's does — a Wall with one stage, one counter and
// one gauge, the Go runtime, and a red plane with one finished
// request — and returns its address.
func debugPage(tb testing.TB) string {
	tb.Helper()
	wall := obs.NewWall()
	wall.Add("batch.static_isolated", 1500*time.Microsecond)
	wall.SetCounter("serve.cache_hits", func() int64 { return 3 })
	wall.SetGauge("serve.requests_in_flight", func() int64 { return 1 })
	red := redplane.New(redplane.Options{SlowThreshold: -1})
	sp := red.Start("headline", "/v1/headline", "genA")
	sp.SetCache("miss")
	sp.Finish(200, 64)
	srv, addr, err := obs.ServeDebug("127.0.0.1:0", wall, red)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return addr
}

// TestScrapeRenderedPage joins the renderer (internal/obs and its red
// plane) to this package's parser: every section of a live page must
// parse, and each must carry its values.
func TestScrapeRenderedPage(t *testing.T) {
	s, ok := scrapeMetrics(http.DefaultClient, debugPage(t))
	if !ok {
		t.Fatal("scrape of a live debug listener failed")
	}
	for name, want := range map[string]float64{
		"malnet_batch_static_isolated_seconds_sum":   0.0015,
		"malnet_batch_static_isolated_seconds_count": 1,
		"malnet_serve_cache_hits_total":              3,
		"malnet_serve_requests_in_flight":            1,
	} {
		if got, ok := s.value(name); !ok || got != want {
			t.Fatalf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if got, ok := s.value("go_memstats_mallocs_total"); !ok || got <= 0 {
		t.Fatalf("go_memstats_mallocs_total = %v (present %v), want > 0", got, ok)
	}
	if got := s.sum("_requests_total", map[string]string{"endpoint": "headline", "code": "2xx"}); got != 1 {
		t.Fatalf("malnetd_requests_total for headline = %v, want 1", got)
	}
	if eps := s.endpoints(); len(eps) != 1 || eps[0] != "headline" {
		t.Fatalf("endpoints = %v, want [headline]", eps)
	}
}

// FuzzParseProm: the parser never panics, and whatever it accepts
// yields one sample per line that is neither blank nor a comment.
func FuzzParseProm(f *testing.F) {
	f.Add(scrapeT0)
	f.Add(scrapeT1)
	resp, err := http.Get("http://" + debugPage(f) + "/metrics")
	if err != nil {
		f.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(page))
	f.Fuzz(func(t *testing.T, text string) {
		s, err := parseProm(strings.NewReader(text))
		if err != nil {
			return
		}
		want := 0
		for _, line := range strings.Split(text, "\n") {
			// bufio.ScanLines drops one trailing carriage return.
			if line = strings.TrimSuffix(line, "\r"); line != "" && !strings.HasPrefix(line, "#") {
				want++
			}
		}
		if len(s.samples) != want {
			t.Fatalf("%d samples from %d sample lines:\n%q", len(s.samples), want, text)
		}
	})
}
