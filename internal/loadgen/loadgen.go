package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config shapes one load run against a live malnetd.
type Config struct {
	// Target is the daemon's base URL (malnetd prints it as
	// "listening on http://...").
	Target string
	// Concurrency is the sender pool size.
	Concurrency int
	// Rate is the open-loop arrival rate in requests/second; 0 runs
	// closed-loop (every sender issues back-to-back requests).
	Rate float64
	// Duration bounds the run. 0 means schedule-only: no HTTP at all,
	// the summary carries the deterministic schedule prefix instead.
	Duration time.Duration
	// Seed fixes the query schedule.
	Seed int64
	// Timeout is the per-request client timeout.
	Timeout time.Duration
	// DebugAddr, when set, is the daemon's -debug-addr; the runner
	// samples its expvar memstats before and after the run to report
	// *server-side* allocs per request.
	DebugAddr string
	// MaxC2 caps how many addresses the C2-rank resolution pulls from
	// /v1/c2 at startup.
	MaxC2 int
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.MaxC2 <= 0 {
		c.MaxC2 = 2048
	}
	c.Target = strings.TrimRight(c.Target, "/")
	return c
}

// EndpointSummary is one latency bucket of the run.
type EndpointSummary struct {
	Endpoint string  `json:"endpoint"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	MeanNs   float64 `json:"mean_ns"`
	P50Ns    float64 `json:"p50_ns"`
	P99Ns    float64 `json:"p99_ns"`
	P999Ns   float64 `json:"p999_ns"`
}

// BenchRow mirrors tools/benchjson's result schema, so a summary's
// rows merge straight into BENCH_<date>.json.
type BenchRow struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Summary is the machine-readable result of a run (or, with
// Duration=0, of schedule generation alone).
type Summary struct {
	Target         string            `json:"target,omitempty"`
	Generation     string            `json:"generation,omitempty"`
	Seed           int64             `json:"seed"`
	Concurrency    int               `json:"concurrency"`
	RatePerSec     float64           `json:"rate_per_sec"`
	DurationSec    float64           `json:"duration_sec"`
	Requests       int64             `json:"requests"`
	Errors         int64             `json:"errors"`
	Status         map[string]int64  `json:"status,omitempty"`
	ThroughputRPS  float64           `json:"throughput_rps"`
	ServerAllocsOp *float64          `json:"server_allocs_per_op,omitempty"`
	Endpoints      []EndpointSummary `json:"endpoints,omitempty"`
	// Server holds the daemon's own RED view of the run window,
	// scraped from its /metrics before and after (needs DebugAddr).
	Server   []ServerEndpoint `json:"server,omitempty"`
	Schedule []Query          `json:"schedule,omitempty"`
	Results  []BenchRow       `json:"results,omitempty"`
}

// ScheduleOnly renders the first n scheduled queries without touching
// the network: the diffable, golden-testable face of the schedule.
func ScheduleOnly(cfg Config, n int) *Summary {
	cfg = cfg.withDefaults()
	sched := NewSchedule(cfg.Seed)
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = sched.Next()
	}
	return &Summary{
		Seed:        cfg.Seed,
		Concurrency: cfg.Concurrency,
		RatePerSec:  cfg.Rate,
		Schedule:    qs,
	}
}

// sample is one completed request.
type sample struct {
	endpoint string
	ns       float64
	status   int
	failed   bool // transport error or 5xx
}

// item is one dispatched query; due is the scheduled start (zero in
// closed-loop mode, where latency is pure service time).
type item struct {
	q   Query
	due time.Time
}

// Run drives the load and collects the summary. It is an open-loop
// generator: arrivals are scheduled at cfg.Rate regardless of how
// fast the daemon answers, and each latency is measured from the
// request's scheduled start — a saturated daemon shows up as rising
// queue delay in p99/p999, not as a quietly slower request stream.
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Run needs a positive duration (use ScheduleOnly for -duration 0)")
	}
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}

	generation, addrs, err := discover(client, cfg)
	if err != nil {
		return nil, err
	}
	mallocs0, haveMallocs := serverMallocs(client, cfg.DebugAddr)
	// The pre-run scrape happens after discover, so the discovery
	// requests themselves are excluded from the server-side deltas.
	scrape0, haveScrape := scrapeMetrics(client, cfg.DebugAddr)

	// The queue is sized for the whole open-loop backlog: a stalled
	// daemon must never push back on the arrival process.
	capHint := cfg.Concurrency * 16
	if cfg.Rate > 0 {
		capHint = int(cfg.Rate*cfg.Duration.Seconds()) + cfg.Concurrency
	}
	queue := make(chan item, capHint)

	var wg sync.WaitGroup
	perWorker := make([][]sample, cfg.Concurrency)
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range queue {
				perWorker[w] = append(perWorker[w], doRequest(client, cfg.Target, it, addrs))
			}
		}(w)
	}

	sched := NewSchedule(cfg.Seed)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	if cfg.Rate > 0 {
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		for due, i := start, 0; due.Before(deadline); i++ {
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			queue <- item{q: sched.Next(), due: due}
			due = start.Add(time.Duration(i+1) * interval)
		}
	} else {
		for time.Now().Before(deadline) {
			queue <- item{q: sched.Next()}
		}
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)

	var all []sample
	for _, s := range perWorker {
		all = append(all, s...)
	}
	sum := summarize(cfg, all, elapsed)
	sum.Target = cfg.Target
	sum.Generation = generation
	if haveMallocs && sum.Requests > 0 {
		if mallocs1, ok := serverMallocs(client, cfg.DebugAddr); ok {
			v := float64(mallocs1-mallocs0) / float64(sum.Requests)
			sum.ServerAllocsOp = &v
		}
	}
	if haveScrape {
		if scrape1, ok := scrapeMetrics(client, cfg.DebugAddr); ok {
			sum.Server = serverDeltas(scrape0, scrape1)
		}
	}
	sum.Results = append(benchRows(sum), serverBenchRows(sum.Server)...)
	return sum, nil
}

// doRequest issues one query and times it. Open-loop latency runs
// from the scheduled start when one was set.
func doRequest(client *http.Client, target string, it item, addrs []string) sample {
	path := it.q.Path
	if it.q.C2Rank >= 0 {
		if len(addrs) == 0 {
			// No index to resolve against: degrade to the headline,
			// keeping the arrival (an open loop never skips a slot).
			path = "/v1/headline"
		} else {
			path = "/v1/c2/" + addrs[it.q.C2Rank%len(addrs)]
		}
	}
	start := time.Now()
	anchor := start
	if !it.due.IsZero() {
		anchor = it.due
	}
	resp, err := client.Get(target + path)
	if err != nil {
		return sample{endpoint: it.q.Endpoint, ns: float64(time.Since(anchor).Nanoseconds()), status: 0, failed: true}
	}
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ns := float64(time.Since(anchor).Nanoseconds())
	return sample{
		endpoint: it.q.Endpoint,
		ns:       ns,
		status:   resp.StatusCode,
		failed:   cerr != nil || resp.StatusCode >= 500,
	}
}

// discover pulls the served generation and the C2 address index the
// rank placeholders resolve against.
func discover(client *http.Client, cfg Config) (generation string, addrs []string, err error) {
	var head struct {
		Generation string `json:"generation"`
	}
	if err := getJSON(client, cfg.Target+"/v1/headline", &head); err != nil {
		return "", nil, fmt.Errorf("loadgen: discovering target: %w", err)
	}
	cursor := 0
	for len(addrs) < cfg.MaxC2 {
		var page struct {
			Addresses  []string `json:"addresses"`
			NextCursor *int     `json:"next_cursor"`
		}
		url := fmt.Sprintf("%s/v1/c2?limit=500&cursor=%d", cfg.Target, cursor)
		if err := getJSON(client, url, &page); err != nil {
			return "", nil, fmt.Errorf("loadgen: walking /v1/c2: %w", err)
		}
		addrs = append(addrs, page.Addresses...)
		if page.NextCursor == nil {
			break
		}
		cursor = *page.NextCursor
	}
	if len(addrs) > cfg.MaxC2 {
		addrs = addrs[:cfg.MaxC2]
	}
	return head.Generation, addrs, nil
}

// serverMallocs samples the daemon's expvar memstats.Mallocs — the
// counter behind the reported server-side allocs/op.
func serverMallocs(client *http.Client, debugAddr string) (uint64, bool) {
	if debugAddr == "" {
		return 0, false
	}
	var vars struct {
		Memstats struct {
			Mallocs uint64 `json:"Mallocs"`
		} `json:"memstats"`
	}
	if err := getJSON(client, "http://"+debugAddr+"/debug/vars", &vars); err != nil {
		return 0, false
	}
	return vars.Memstats.Mallocs, true
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// summarize folds the collected samples into the summary: overall and
// per-endpoint counts, error totals, and latency percentiles.
func summarize(cfg Config, all []sample, elapsed time.Duration) *Summary {
	sum := &Summary{
		Seed:        cfg.Seed,
		Concurrency: cfg.Concurrency,
		RatePerSec:  cfg.Rate,
		DurationSec: elapsed.Seconds(),
		Status:      map[string]int64{},
	}
	byEP := map[string][]float64{}
	errsByEP := map[string]int64{}
	for _, s := range all {
		sum.Requests++
		if s.failed {
			sum.Errors++
			errsByEP[s.endpoint]++
		}
		if s.status == 0 {
			sum.Status["transport-error"]++
		} else {
			sum.Status[fmt.Sprint(s.status)]++
		}
		byEP[s.endpoint] = append(byEP[s.endpoint], s.ns)
	}
	if elapsed > 0 {
		sum.ThroughputRPS = float64(sum.Requests) / elapsed.Seconds()
	}
	eps := make([]string, 0, len(byEP))
	for ep := range byEP {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		lats := byEP[ep]
		sort.Float64s(lats)
		mean := 0.0
		for _, v := range lats {
			mean += v
		}
		mean /= float64(len(lats))
		sum.Endpoints = append(sum.Endpoints, EndpointSummary{
			Endpoint: ep,
			Requests: int64(len(lats)),
			Errors:   errsByEP[ep],
			MeanNs:   mean,
			P50Ns:    percentile(lats, 0.50),
			P99Ns:    percentile(lats, 0.99),
			P999Ns:   percentile(lats, 0.999),
		})
	}
	return sum
}

// percentile reads the q-quantile from ascending-sorted lats
// (nearest-rank definition).
func percentile(lats []float64, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	idx := int(q*float64(len(lats))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx]
}

// benchRows renders the summary as benchjson result rows: one per
// endpoint plus a total, named under LoadServe/ so they sort next to
// the Go benchmarks in BENCH_<date>.json.
func benchRows(sum *Summary) []BenchRow {
	rows := make([]BenchRow, 0, len(sum.Endpoints)+1)
	var meanAll float64
	for _, ep := range sum.Endpoints {
		meanAll += ep.MeanNs * float64(ep.Requests)
		m := map[string]float64{
			"p50-ns":  ep.P50Ns,
			"p99-ns":  ep.P99Ns,
			"p999-ns": ep.P999Ns,
		}
		if ep.Requests > 0 {
			m["err-rate"] = float64(ep.Errors) / float64(ep.Requests)
		}
		rows = append(rows, BenchRow{
			Name:       "LoadServe/" + ep.Endpoint,
			Iterations: ep.Requests,
			NsPerOp:    ep.MeanNs,
			Metrics:    m,
		})
	}
	total := BenchRow{
		Name:       "LoadServe/total",
		Iterations: sum.Requests,
		Metrics: map[string]float64{
			"rps": sum.ThroughputRPS,
		},
	}
	if sum.Requests > 0 {
		total.NsPerOp = meanAll / float64(sum.Requests)
		total.Metrics["err-rate"] = float64(sum.Errors) / float64(sum.Requests)
	}
	if sum.ServerAllocsOp != nil {
		total.Metrics["server-allocs/op"] = *sum.ServerAllocsOp
	}
	return append(rows, total)
}
