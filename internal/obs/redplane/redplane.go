// Package redplane is the serving-plane half of the repo's wall-clock
// observability: per-endpoint RED metrics (request Rate, Error-class
// counts, Duration histograms), per-request spans with per-stage
// timings, a JSONL access log, and a ring-buffered slow-query log.
//
// Where internal/obs's deterministic plane is a pure function of the
// study inputs, the red plane exists precisely to measure the
// nondeterministic world: a live malnetd answering concurrent HTTP
// traffic. It is mutex-protected, wall-clock-driven, and never feeds
// anything back into deterministic outputs. It is also the only
// blessed wall-clock reader on the serving path — tools/vettime bans
// `time` from internal/serve outright, so every latency measurement
// there must arrive through a Span.
//
// Metrics are rendered in Prometheus text exposition format (see
// prom.go) into the debug listener's /metrics page, which
// obs.ServeDebug owns; the slow-query ring is served as JSON at
// /debug/slowlog. Like the rest of internal/obs, every type is
// nil-receiver safe: a nil *Plane or *Span absorbs all calls, so
// instrumented code needs no conditionals and a daemon without the
// plane armed pays one nil check per touch.
package redplane

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malnet/internal/obs"
)

// LatencyBounds are the fixed request-duration bucket bounds in
// nanoseconds: 50µs to 5s in a 1-2.5-5 ladder, wide enough to place
// both a warm cache hit and a pathological cold aggregation. Fixed
// bounds (the obs.Histogram discipline) keep scrape deltas mergeable:
// two scrapes subtract bucket-by-bucket, which is what lets
// malnetbench derive percentiles for exactly its own burst.
var LatencyBounds = []int64{
	50_000, 100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, 10_000_000,
	25_000_000, 50_000_000, 100_000_000, 250_000_000,
	500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000,
}

// maxGenerations bounds the per-generation request-counter label set.
// Generations are content hashes and a long-lived daemon hot-reloads
// indefinitely, so the label space must not grow with uptime: when a
// new generation would exceed the cap, the oldest is evicted. Scrapes
// always see the current generation plus the most recent history —
// enough to audit which queries ran against which snapshot across a
// swap.
const maxGenerations = 8

// prefix names every family the plane exposes.
const prefix = "malnetd"

// Options shapes a Plane.
type Options struct {
	// SlowThreshold is the slow-query log's admission threshold: a
	// request whose total duration reaches it is recorded. Zero
	// records every request (useful in smoke tests); negative
	// disables the slow log.
	SlowThreshold time.Duration
	// SlowCap is the slow-query ring capacity (64 when zero).
	SlowCap int
	// AccessLog, when set, receives one JSON line per finished
	// request. The Plane serializes writes; the caller owns the
	// writer's lifetime.
	AccessLog io.Writer
}

// Plane is the serving-plane telemetry hub: one per daemon process,
// shared by every request goroutine. All methods are safe for
// concurrent use.
type Plane struct {
	epoch  int64 // process start, unix nanos: the request-ID namespace
	reqSeq atomic.Uint64

	mu        sync.Mutex
	endpoints map[string]*endpointRED
	gens      []genCount
	swaps     int64

	slow slowLog

	logMu     sync.Mutex
	accessLog io.Writer
}

// endpointRED is one endpoint's RED row: request counts by status
// class, the latency histogram, cache outcomes, and scan/encode
// volume counters.
type endpointRED struct {
	byClass map[string]int64 // "2xx" | "4xx" | "5xx"
	latency *obs.Histogram   // ns, LatencyBounds
	cache   map[string]int64 // "hit" | "miss" | "coalesced"
	rows    int64
	bytes   int64
}

// genCount is one store generation's request total, kept in
// first-seen order so eviction drops the oldest. run is the lake run
// that produced the generation ("" when the commit names no run —
// the label is then omitted from the exposition), so one counter row
// answers both "which snapshot" and "whose study".
type genCount struct {
	gen string
	run string
	n   int64
}

// New returns an armed Plane.
func New(o Options) *Plane {
	if o.SlowCap <= 0 {
		o.SlowCap = 64
	}
	p := &Plane{
		epoch:     time.Now().UnixNano(),
		endpoints: map[string]*endpointRED{},
		accessLog: o.AccessLog,
	}
	p.slow.init(o.SlowThreshold, o.SlowCap)
	return p
}

// StoreSwapped records one hot swap of the serving store. The swap
// count is exposed as a counter so a reload burst is visible next to
// the RED deltas it causes.
func (p *Plane) StoreSwapped() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.swaps++
	p.mu.Unlock()
}

// Stage is one timed step of a request span: name, start offset from
// the span's start, and duration, all in nanoseconds.
type Stage struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Span is one request's trace: identity (request ID, endpoint label,
// raw path, store generation), the stage list, and the outcome fields
// the middleware fills in as the request progresses. A span is owned
// by its request goroutine until Finish; the Plane only sees it under
// its own lock. A nil Span absorbs every call.
type Span struct {
	p *Plane

	id         string
	endpoint   string
	path       string
	generation string
	run        string
	start      time.Time

	stages []Stage
	cache  string
	rows   int64
	bytes  int64
	status int
}

// Start opens a span for one request against endpoint (the RED label,
// e.g. "samples") with the raw request path and the resolved store
// generation. The request ID is unique within the process and carries
// the process epoch, so IDs from a restarted daemon never collide in
// a shared log.
func (p *Plane) Start(endpoint, path, generation string) *Span {
	if p == nil {
		return nil
	}
	return &Span{
		p:          p,
		id:         fmt.Sprintf("%x-%06x", uint64(p.epoch)&0xffffffff, p.reqSeq.Add(1)),
		endpoint:   endpoint,
		path:       path,
		generation: generation,
		start:      time.Now(),
		stages:     make([]Stage, 0, 4),
	}
}

// ID returns the span's request ID ("" for a nil span) — the value of
// the X-Request-Id response header and the join key between access
// log, slow-query log, and any client-side record of the request.
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// Stage starts timing one named step and returns its stop function.
// Stages are recorded in call order with offsets from the span start,
// so the finished span reads as a one-level trace tree: request →
// cache_lookup → flight_wait/scan → encode.
func (sp *Span) Stage(name string) func() {
	if sp == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		end := time.Now()
		sp.stages = append(sp.stages, Stage{
			Name:    name,
			StartNs: begin.Sub(sp.start).Nanoseconds(),
			DurNs:   end.Sub(begin).Nanoseconds(),
		})
	}
}

// SetCache records the cache outcome: "hit", "miss", or "coalesced".
func (sp *Span) SetCache(outcome string) {
	if sp != nil {
		sp.cache = outcome
	}
}

// SetRun records the lake run whose generation answered the request;
// it labels the generation counter and the access-log line. Requests
// that resolve a historical generation (run=/asof= selectors) call
// this after resolution, alongside SetGeneration.
func (sp *Span) SetRun(run string) {
	if sp != nil {
		sp.run = run
	}
}

// SetGeneration re-points the span at the generation that actually
// answered the request, when selector resolution lands on a different
// store than the one the span was opened against.
func (sp *Span) SetGeneration(gen string) {
	if sp != nil {
		sp.generation = gen
	}
}

// AddRows records rows scanned while computing the response (index
// positions touched, columnar rows selected).
func (sp *Span) AddRows(n int) {
	if sp != nil {
		sp.rows += int64(n)
	}
}

// Finish closes the span with the response's HTTP status and body
// size, folds it into the RED metrics, and hands it to the access and
// slow-query logs. Must be called exactly once, after the last Stage
// stop.
func (sp *Span) Finish(status, bytes int) {
	if sp == nil {
		return
	}
	sp.status, sp.bytes = status, int64(bytes)
	end := time.Now()
	durNs := end.Sub(sp.start).Nanoseconds()
	p := sp.p

	p.mu.Lock()
	ep := p.endpoints[sp.endpoint]
	if ep == nil {
		ep = &endpointRED{
			byClass: map[string]int64{},
			latency: obs.NewHistogram(LatencyBounds),
			cache:   map[string]int64{},
		}
		p.endpoints[sp.endpoint] = ep
	}
	ep.byClass[statusClass(sp.status)]++
	ep.latency.Observe(durNs)
	if sp.cache != "" {
		ep.cache[sp.cache]++
	}
	ep.rows += sp.rows
	ep.bytes += sp.bytes
	p.countGeneration(sp.generation, sp.run)
	p.mu.Unlock()

	p.slow.record(sp, durNs)
	p.logAccess(sp, durNs)
}

// countGeneration bumps the per-(generation, run) request counter,
// evicting the oldest label pair past maxGenerations. Caller holds
// p.mu.
func (p *Plane) countGeneration(gen, run string) {
	if gen == "" {
		return
	}
	for i := range p.gens {
		if p.gens[i].gen == gen && p.gens[i].run == run {
			p.gens[i].n++
			return
		}
	}
	if len(p.gens) >= maxGenerations {
		p.gens = p.gens[1:]
	}
	p.gens = append(p.gens, genCount{gen: gen, run: run, n: 1})
}

// statusClass buckets an HTTP status for the error-class counters.
func statusClass(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	default:
		return "2xx"
	}
}

// accessRecord is one JSONL access-log line.
type accessRecord struct {
	TS         string  `json:"ts"`
	ID         string  `json:"id"`
	Endpoint   string  `json:"endpoint"`
	Path       string  `json:"path"`
	Generation string  `json:"generation,omitempty"`
	Run        string  `json:"run,omitempty"`
	Status     int     `json:"status"`
	Cache      string  `json:"cache,omitempty"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
	DurNs      int64   `json:"dur_ns"`
	Stages     []Stage `json:"stages,omitempty"`
}

// logAccess emits the span as one access-log line, if a log is armed.
func (p *Plane) logAccess(sp *Span, durNs int64) {
	if p.accessLog == nil {
		return
	}
	line, err := json.Marshal(accessRecord{
		TS:         sp.start.UTC().Format(time.RFC3339Nano),
		ID:         sp.id,
		Endpoint:   sp.endpoint,
		Path:       sp.path,
		Generation: sp.generation,
		Run:        sp.run,
		Status:     sp.status,
		Cache:      sp.cache,
		Rows:       sp.rows,
		Bytes:      sp.bytes,
		DurNs:      durNs,
		Stages:     sp.stages,
	})
	if err != nil {
		return
	}
	line = append(line, '\n')
	p.logMu.Lock()
	p.accessLog.Write(line)
	p.logMu.Unlock()
}

// redSnapshot is one endpoint's copied counters, for exposition
// outside the plane lock.
type redSnapshot struct {
	endpoint string
	byClass  map[string]int64
	bounds   []int64
	buckets  []int64
	count    int64
	sum      int64
	cache    map[string]int64
	rows     int64
	bytes    int64
}

// snapshot copies the full metric state under the lock.
func (p *Plane) snapshot() (eps []redSnapshot, gens []genCount, swaps int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.endpoints))
	for name := range p.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := p.endpoints[name]
		eps = append(eps, redSnapshot{
			endpoint: name,
			byClass:  copyMap(ep.byClass),
			bounds:   ep.latency.Bounds(),
			buckets:  append([]int64(nil), ep.latency.BucketCounts()...),
			count:    ep.latency.Count(),
			sum:      ep.latency.Sum(),
			cache:    copyMap(ep.cache),
			rows:     ep.rows,
			bytes:    ep.bytes,
		})
	}
	gens = append(gens, p.gens...)
	sort.Slice(gens, func(i, j int) bool {
		if gens[i].gen != gens[j].gen {
			return gens[i].gen < gens[j].gen
		}
		return gens[i].run < gens[j].run
	})
	return eps, gens, p.swaps
}

func copyMap(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
