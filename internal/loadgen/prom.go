package loadgen

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// This file closes the observability loop: the load generator scrapes
// the daemon's /metrics page (obs.ServeDebug, with the red plane of
// internal/obs/redplane mounted) before and after the run and reports
// the *server's* view of the same burst — RED deltas, histogram-derived
// percentiles and allocs per request — next to the client's
// coordinated-omission-corrected percentiles. The two disagree by
// exactly the queueing the client saw, which is the point of having
// both columns.

// ServerEndpoint is one endpoint's server-side RED delta over the run
// window, scraped from /metrics.
type ServerEndpoint struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
	// Errors counts 5xx responses; the client-side error column also
	// includes transport failures the server never saw.
	Errors      int64   `json:"errors"`
	MeanNs      float64 `json:"mean_ns"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	RowsScanned int64   `json:"rows_scanned"`
	Bytes       int64   `json:"bytes"`
	CacheHit    int64   `json:"cache_hit"`
	CacheMiss   int64   `json:"cache_miss"`
	CacheCoal   int64   `json:"cache_coalesced"`
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promScrape is one parsed /metrics response.
type promScrape struct {
	samples []promSample
}

// parseProm parses the Prometheus text exposition format (the subset
// redplane emits: # comments, then `name{label="v",...} value`). It
// is strict — a malformed line is an error, not a skip — so the smoke
// test's well-formedness assertion and this parser agree on what
// "well-formed" means.
func parseProm(r io.Reader) (*promScrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	out := &promScrape{}
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out.samples = append(out.samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("prom: no value on line %q", line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if s.name == "" {
		return s, fmt.Errorf("prom: empty metric name in %q", line)
	}
	if strings.HasPrefix(rest, "{") {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 || !strings.HasPrefix(rest[eq+1:], `"`) {
				return s, fmt.Errorf("prom: malformed labels in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			val, n, err := promUnquote(rest)
			if err != nil {
				return s, fmt.Errorf("prom: %v in %q", err, line)
			}
			s.labels[key] = val
			rest = rest[n:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return s, fmt.Errorf("prom: malformed labels in %q", line)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("prom: bad value %q in %q", rest, line)
	}
	s.value = v
	return s, nil
}

// promUnquote reads a label value up to its closing quote, resolving
// the format's three escapes (\\, \", \n); n is how much of in was
// consumed including the closing quote.
func promUnquote(in string) (val string, n int, err error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("truncated escape")
			}
			i++
			switch in[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", in[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// sum adds every sample whose name has the given suffix and whose
// labels include want (extra labels are allowed, so callers can fold
// over e.g. all codes of one endpoint).
func (p *promScrape) sum(suffix string, want map[string]string) float64 {
	var total float64
sample:
	for _, s := range p.samples {
		if !strings.HasSuffix(s.name, suffix) {
			continue
		}
		for k, v := range want {
			if s.labels[k] != v {
				continue sample
			}
		}
		total += s.value
	}
	return total
}

// value reads the one sample named name.
func (p *promScrape) value(name string) (float64, bool) {
	for _, s := range p.samples {
		if s.name == name {
			return s.value, true
		}
	}
	return 0, false
}

// endpoints lists the distinct values of the endpoint label across
// request counters.
func (p *promScrape) endpoints() []string {
	seen := map[string]bool{}
	for _, s := range p.samples {
		if strings.HasSuffix(s.name, "_requests_total") {
			if ep := s.labels["endpoint"]; ep != "" {
				seen[ep] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for ep := range seen {
		out = append(out, ep)
	}
	sort.Strings(out)
	return out
}

// histogram collects one endpoint's cumulative duration buckets,
// sorted by bound; +Inf rides last with bound = +Inf.
type promBucket struct {
	le    float64
	count float64
}

func (p *promScrape) buckets(endpoint string) []promBucket {
	var out []promBucket
	for _, s := range p.samples {
		if !strings.HasSuffix(s.name, "_request_duration_seconds_bucket") || s.labels["endpoint"] != endpoint {
			continue
		}
		le, err := parseLe(s.labels["le"])
		if err != nil {
			continue
		}
		out = append(out, promBucket{le: le, count: s.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return inf, nil
	}
	return strconv.ParseFloat(s, 64)
}

var inf = func() float64 { v, _ := strconv.ParseFloat("+Inf", 64); return v }()

// deltaBuckets subtracts the pre-run scrape from the post-run scrape,
// matching buckets by bound. A missing pre-run bucket (endpoint first
// seen during the run) counts as zero.
func deltaBuckets(t1, t0 []promBucket) []promBucket {
	base := map[float64]float64{}
	for _, b := range t0 {
		base[b.le] = b.count
	}
	out := make([]promBucket, len(t1))
	for i, b := range t1 {
		out[i] = promBucket{le: b.le, count: b.count - base[b.le]}
	}
	return out
}

// bucketQuantile interpolates the q-quantile (in nanoseconds) from
// cumulative delta buckets, the way Prometheus' histogram_quantile
// does: linear within the winning bucket, clamped to the highest
// finite bound when the quantile lands in +Inf.
func bucketQuantile(buckets []promBucket, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].count
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if b.le == inf {
				// No upper bound to interpolate toward: report the
				// highest finite bound.
				return prevLe * 1e9
			}
			width := b.le - prevLe
			inBucket := b.count - prevCount
			frac := 1.0
			if inBucket > 0 {
				frac = (rank - prevCount) / inBucket
			}
			return (prevLe + width*frac) * 1e9
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe * 1e9
}

// scrapeMetrics pulls and parses the daemon's /metrics; ok=false when
// the debug listener is absent or predates the exposition endpoint,
// so load runs against older daemons still work, just without the
// server-side columns.
func scrapeMetrics(client *http.Client, debugAddr string) (*promScrape, bool) {
	if debugAddr == "" {
		return nil, false
	}
	resp, err := client.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	scrape, err := parseProm(resp.Body)
	if err != nil {
		return nil, false
	}
	return scrape, true
}

// serverDeltas folds two scrapes into per-endpoint server-side RED
// rows for every endpoint that saw traffic during the run.
func serverDeltas(t0, t1 *promScrape) []ServerEndpoint {
	var out []ServerEndpoint
	for _, ep := range t1.endpoints() {
		want := func(extra map[string]string) map[string]string {
			m := map[string]string{"endpoint": ep}
			for k, v := range extra {
				m[k] = v
			}
			return m
		}
		d := func(suffix string, extra map[string]string) float64 {
			return t1.sum(suffix, want(extra)) - t0.sum(suffix, want(extra))
		}
		requests := d("_requests_total", nil)
		if requests <= 0 {
			continue
		}
		row := ServerEndpoint{
			Endpoint:    ep,
			Requests:    int64(requests),
			Errors:      int64(d("_requests_total", map[string]string{"code": "5xx"})),
			RowsScanned: int64(d("_rows_scanned_total", nil)),
			Bytes:       int64(d("_response_bytes_total", nil)),
			CacheHit:    int64(d("_cache_outcomes_total", map[string]string{"outcome": "hit"})),
			CacheMiss:   int64(d("_cache_outcomes_total", map[string]string{"outcome": "miss"})),
			CacheCoal:   int64(d("_cache_outcomes_total", map[string]string{"outcome": "coalesced"})),
		}
		if count := d("_request_duration_seconds_count", nil); count > 0 {
			row.MeanNs = d("_request_duration_seconds_sum", nil) / count * 1e9
		}
		db := deltaBuckets(t1.buckets(ep), t0.buckets(ep))
		row.P50Ns = bucketQuantile(db, 0.50)
		row.P99Ns = bucketQuantile(db, 0.99)
		row.P999Ns = bucketQuantile(db, 0.999)
		out = append(out, row)
	}
	return out
}

// allocsPerOp is the server's go_memstats_mallocs_total delta across
// the run divided by its request count; nil when a scrape lacks the
// family or nothing was sent.
func allocsPerOp(t0, t1 *promScrape, requests int64) *float64 {
	m0, ok0 := t0.value("go_memstats_mallocs_total")
	m1, ok1 := t1.value("go_memstats_mallocs_total")
	if !ok0 || !ok1 || requests == 0 {
		return nil
	}
	v := (m1 - m0) / float64(requests)
	return &v
}

// serverBenchRows renders the server-side rows in benchjson's result
// schema, named LoadServe/server/<endpoint> so they land next to the
// client-side LoadServe/<endpoint> rows in BENCH_<date>.json.
func serverBenchRows(server []ServerEndpoint) []BenchRow {
	rows := make([]BenchRow, 0, len(server))
	for _, ep := range server {
		m := map[string]float64{
			"p50-ns":  ep.P50Ns,
			"p99-ns":  ep.P99Ns,
			"p999-ns": ep.P999Ns,
		}
		if ep.Requests > 0 {
			m["err-rate"] = float64(ep.Errors) / float64(ep.Requests)
			m["rows/op"] = float64(ep.RowsScanned) / float64(ep.Requests)
			m["resp-B/op"] = float64(ep.Bytes) / float64(ep.Requests)
		}
		if served := ep.CacheHit + ep.CacheMiss + ep.CacheCoal; served > 0 {
			m["cache-hit-rate"] = float64(ep.CacheHit) / float64(served)
		}
		rows = append(rows, BenchRow{
			Name:       "LoadServe/server/" + ep.Endpoint,
			Iterations: ep.Requests,
			NsPerOp:    ep.MeanNs,
			Metrics:    m,
		})
	}
	return rows
}
