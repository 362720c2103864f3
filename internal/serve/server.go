package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"malnet/internal/colstore"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
	"malnet/internal/results"
)

// Server answers the /v1 query API from an atomically swappable
// Store. New and Reload ingest the head of a run lake's branch; every
// request resolves the store pointer once, so a swap mid-request is
// invisible to that request.
type Server struct {
	store atomic.Pointer[Store]

	// lk is the mounted lake and branch the line of history the
	// default store tracks. Every endpoint accepts run=/asof=
	// selectors that resolve through the commit journal to any
	// retained generation; resolved historical generations are kept
	// as resident stores in an LRU capped at maxResidentStores (see
	// lake.go in this package).
	lk     *lake.Lake
	branch string

	residentMu   sync.Mutex
	resident     map[string]*residentStore
	residentTick int64

	inflight     atomic.Int64
	reloadErrors atomic.Int64

	// Response cache, read-through, keyed by (store generation,
	// normalized query). Entries never go stale — a generation's
	// responses are immutable — so the only invalidation is the
	// wholesale clear on swap. Concurrent misses for the same key
	// coalesce through flights: one store scan per (generation,
	// query), no matter how wide the post-swap thundering herd.
	mu        sync.Mutex
	cache     map[string][]byte
	flights   flightGroup
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64

	// red is the serving-plane observability hub (RED metrics,
	// request spans, access + slow-query logs). Optional: a nil plane
	// absorbs every call, so an unobserved daemon pays one nil check
	// per request.
	red *redplane.Plane
}

// Option configures a Server at construction.
type Option func(*Server)

// WithRedPlane arms per-request observability: every request gets a
// span threaded through cache lookup → singleflight → scan → encode,
// and the plane's RED metrics/slow-query ring see every response.
func WithRedPlane(p *redplane.Plane) Option {
	return func(s *Server) { s.red = p }
}

// WithBranch selects the lake branch the default store tracks
// ("main" when unset).
func WithBranch(branch string) Option {
	return func(s *Server) { s.branch = branch }
}

// maxCacheEntries bounds cache memory. The cache is cleared (not
// LRU-evicted) when full: generations turn over wholesale, and a
// daemon hot enough to fill the cap is about to repopulate it with
// exactly the queries that filled it.
const maxCacheEntries = 4096

// New mounts the run lake at dir and builds the first store from
// the branch head. It fails when dir is not a lake or the branch has
// no commits — a daemon with nothing to serve should say so at
// startup, not 500 forever. The lake check comes before lake.Open,
// which would lay out a new lake: a directory that is not already a
// lake is refused, never turned into one.
//
// Wall exposition: levels (requests_in_flight, resident_stores) are
// gauges; monotone totals (cache_hits, cache_misses, cache_coalesced,
// reload_errors) are counters — see DESIGN.md's /metrics table. Store
// swaps are the red plane's store_swaps_total.
func New(dir string, wall *obs.Wall, opts ...Option) (*Server, error) {
	if !lake.IsLake(dir) {
		return nil, fmt.Errorf("serve: %s is not a run lake (no journal.lake)", dir)
	}
	lk, err := lake.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		lk:       lk,
		branch:   "main",
		cache:    map[string][]byte{},
		resident: map[string]*residentStore{},
	}
	for _, opt := range opts {
		opt(s)
	}
	changed, err := s.Reload()
	if err != nil {
		return nil, err
	}
	if !changed {
		return nil, fmt.Errorf("serve: lake %s has no commits on branch %q", dir, s.branch)
	}
	wall.SetGauge("serve.requests_in_flight", s.inflight.Load)
	wall.SetCounter("serve.cache_hits", s.hits.Load)
	wall.SetCounter("serve.cache_misses", s.misses.Load)
	wall.SetCounter("serve.cache_coalesced", s.coalesced.Load)
	wall.SetCounter("serve.reload_errors", s.reloadErrors.Load)
	wall.SetGauge("serve.resident_stores", func() int64 {
		s.residentMu.Lock()
		defer s.residentMu.Unlock()
		return int64(len(s.resident))
	})
	return s, nil
}

// Store is the current snapshot generation.
func (s *Server) Store() *Store { return s.store.Load() }

// Reload reads the branch head from the lake's journal and, when it
// names a different generation than the one being served, ingests
// that object and swaps the store pointer. In-flight requests finish
// against the old store; the response cache starts over. Returns
// whether a swap happened. A branch that doesn't exist yet is
// "nothing to serve", not an error — the daemon's reload ticker keeps
// watching for the first commit. A failed reload keeps the mounted
// store and counts in serve.reload_errors. Safe to call concurrently
// with requests (though the daemon calls it from a single ticker
// goroutine).
func (s *Server) Reload() (bool, error) {
	head, err := s.lk.Head(s.branch)
	if err != nil {
		s.reloadErrors.Add(1)
		return false, fmt.Errorf("serve: %w", err)
	}
	if head == nil {
		return false, nil
	}
	if cur := s.store.Load(); cur != nil && cur.Generation == head.Snapshot {
		return false, nil
	}
	st, err := s.openStore(head)
	if err != nil {
		s.reloadErrors.Add(1)
		return false, fmt.Errorf("serve: %w", err)
	}
	s.store.Store(st)
	s.red.StoreSwapped()
	s.mu.Lock()
	s.cache = map[string][]byte{}
	s.mu.Unlock()
	return true, nil
}

// openStore opens a commit's lake object and builds its store.
func (s *Server) openStore(c *lake.Commit) (*Store, error) {
	ss, reg, err := core.OpenSnapshotAt(s.lk.ObjectPath(c.Snapshot))
	if err != nil {
		return nil, err
	}
	st := BuildStore(ss, reg)
	st.Run = c.Run
	return st, nil
}

// Handler returns the /v1 API handler. The endpoint labels handed to
// cached are the RED-metric `endpoint` label values; they match the
// latency-bucket names cmd/malnetbench reports client-side, so the
// two views of one load run diff column-for-column.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/headline", s.cached("headline", s.handleHeadline))
	mux.HandleFunc("GET /v1/metrics", s.cached("metrics", s.handleMetrics))
	mux.HandleFunc("GET /v1/samples", s.cached("samples", s.handleSamples))
	mux.HandleFunc("GET /v1/attacks", s.cached("attacks", s.handleAttacks))
	mux.HandleFunc("GET /v1/c2", s.cached("c2_index", s.handleC2Index))
	mux.HandleFunc("GET /v1/c2/{addr}", s.cached("c2_point", s.handleC2))
	mux.HandleFunc("GET /v1/query", s.cached("query", s.handleQuery))
	mux.HandleFunc("GET /v1/families", s.cached("families", s.handleFamilies))
	mux.HandleFunc("GET /v1/runs", s.uncached("runs", s.handleRuns))
	mux.HandleFunc("GET /v1/diff", s.uncached("diff", s.handleDiff))
	return mux
}

// httpError carries a client-visible status + message out of an
// endpoint.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// endpoint computes a response body against one resolved store. The
// span carries the request's trace context; handlers report rows
// scanned into it (a nil span absorbs the call).
type endpoint func(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError)

// keyScratch is the reusable scratch behind cache-key construction:
// the key bytes and the query-segment slice survive across requests
// in a pool, so the warm path builds its key without allocating.
type keyScratch struct {
	buf  []byte
	segs []string
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// appendKey normalizes (generation, path, raw query) into a cache
// key: raw query segments are sorted, so reordered parameters share a
// slot. Segments are compared unescaped-as-sent — two escapings of
// the same parameter land in separate slots, which costs a duplicate
// entry but can never conflate distinct queries.
func (ks *keyScratch) appendKey(gen, path, rawQuery string) []byte {
	b := append(ks.buf[:0], gen...)
	b = append(b, 0)
	b = append(b, path...)
	segs := ks.segs[:0]
	for len(rawQuery) > 0 {
		seg := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			seg, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		if seg != "" {
			segs = append(segs, seg)
		}
	}
	sort.Strings(segs)
	for _, seg := range segs {
		b = append(b, '&')
		b = append(b, seg...)
	}
	ks.buf, ks.segs = b, segs
	return b
}

// encodeBufPool recycles the JSON serialization scratch: responses
// are encoded into a pooled buffer and copied out once, sized
// exactly, instead of growing a fresh buffer per computation.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// cached wraps an endpoint with the in-flight gauge, the read-through
// response cache, miss coalescing, JSON encoding, and the request
// span. Only 200s are cached; error responses are cheap to recompute
// and should never mask a later success. The store pointer is
// resolved once, before the key is built — the flight a request joins
// is always for the generation it resolved, so a hot swap mid-flight
// cannot mix generations into one response.
//
// The span (nil unless a red plane is armed) is owned by this
// request's goroutine end to end: the singleflight compute closure
// only ever runs on the leader's own goroutine, so the leader's
// scan/encode stages land on the leader's span and a joiner's span
// records only its flight wait — spans never cross requests. Stage
// tree: cache_lookup, then flight (for the leader it brackets
// scan + encode, whose offsets nest inside; for a joiner it is pure
// singleflight wait).
func (s *Server) cached(name string, fn endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		// def is the default store at dispatch, before any selector
		// rewrite; putCache keeps the body only while def is current.
		def := s.store.Load()
		st := def
		sp := s.red.Start(name, requestPath(r), st.Generation)
		// Time travel: a run=/asof= selector re-points the request at
		// a resolved historical generation before the cache key is
		// built, so everything downstream — key, flight, handler — is
		// oblivious to how the store was chosen. The selector scan is
		// a plain substring walk; selector-free requests (the hot
		// path) never touch url.Values.
		if hasSelector(r.URL.RawQuery) {
			hst, herr := s.storeForSelector(r)
			if herr != nil {
				b, _ := json.Marshal(map[string]string{"error": herr.msg})
				finishJSON(w, sp, herr.status, append(b, '\n'))
				return
			}
			st = hst
			sp.SetGeneration(st.Generation)
		}
		sp.SetRun(st.Run)
		ks := keyScratchPool.Get().(*keyScratch)
		kb := ks.appendKey(st.Generation, r.URL.Path, r.URL.RawQuery)
		stopLookup := sp.Stage("cache_lookup")
		s.mu.Lock()
		body, ok := s.cache[string(kb)]
		s.mu.Unlock()
		stopLookup()
		if ok {
			keyScratchPool.Put(ks)
			s.hits.Add(1)
			sp.SetCache("hit")
			finishJSON(w, sp, http.StatusOK, body)
			return
		}
		key := string(kb)
		keyScratchPool.Put(ks)

		stopFlight := sp.Stage("flight")
		body, herr, leader := s.flights.do(key, func() ([]byte, *httpError) {
			stopScan := sp.Stage("scan")
			v, herr := fn(st, r, sp)
			stopScan()
			if herr != nil {
				return nil, herr
			}
			stopEncode := sp.Stage("encode")
			buf := encodeBufPool.Get().(*bytes.Buffer)
			buf.Reset()
			if err := json.NewEncoder(buf).Encode(v); err != nil {
				encodeBufPool.Put(buf)
				stopEncode()
				return nil, &httpError{status: http.StatusInternalServerError, msg: "encoding response"}
			}
			out := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
			encodeBufPool.Put(buf)
			stopEncode()
			s.putCache(key, def, out)
			return out, nil
		})
		stopFlight()
		if leader {
			s.misses.Add(1)
			sp.SetCache("miss")
		} else {
			s.coalesced.Add(1)
			sp.SetCache("coalesced")
		}
		if herr != nil {
			b, _ := json.Marshal(map[string]string{"error": herr.msg})
			finishJSON(w, sp, herr.status, append(b, '\n'))
			return
		}
		finishJSON(w, sp, http.StatusOK, body)
	}
}

// requestPath renders the request path with its raw query, the form
// access and slow-query log entries carry.
func requestPath(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return r.URL.Path
	}
	return r.URL.Path + "?" + r.URL.RawQuery
}

// finishJSON writes the response and closes the span. The request ID
// goes out as X-Request-Id, so a client-side latency outlier can be
// joined against the daemon's access and slow-query logs.
func finishJSON(w http.ResponseWriter, sp *redplane.Span, status int, body []byte) {
	if id := sp.ID(); id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	writeJSON(w, status, body)
	sp.Finish(status, len(body))
}

// putCache inserts a computed 200 body — unless the default store has
// been swapped since the request resolved it at dispatch (def): the
// swap cleared the cache, and a long miss landing after several swaps
// would strand dead bytes until the next wholesale clear. It compares
// store pointers, not generations, so time-travel bodies, which name
// a historical generation, are cached too.
func (s *Server) putCache(key string, def *Store, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store.Load() != def {
		return
	}
	if len(s.cache) >= maxCacheEntries {
		s.cache = map[string][]byte{}
	}
	s.cache[key] = body
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// page parses limit/cursor pagination. limit defaults to 50, capped
// at 500; cursor is a plain offset into the filtered result, so it
// stays valid (if approximate) across snapshot swaps.
func page(r *http.Request) (limit, cursor int, herr *httpError) {
	limit = 50
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			return 0, 0, badRequest("limit: want a positive integer, got %q", raw)
		}
		if n > 500 {
			n = 500
		}
		limit = n
	}
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return 0, 0, badRequest("cursor: want a non-negative integer, got %q", raw)
		}
		cursor = n
	}
	return limit, cursor, nil
}

// checkParams rejects unknown query parameters: a typoed filter that
// silently matches everything is worse than a 400. The run= and
// asof= selectors pass: the cached wrapper consumes them before the
// handler reads its own, and uncached refuses them first.
func checkParams(r *http.Request, known ...string) *httpError {
	for k := range r.URL.Query() {
		if k == "run" || k == "asof" {
			continue
		}
		found := false
		for _, want := range known {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			return badRequest("unknown query parameter %q (known: %s)", k, strings.Join(known, ", "))
		}
	}
	return nil
}

// pageEnvelope is the shared pagination wrapper.
type pageEnvelope struct {
	Generation string `json:"generation"`
	Day        int    `json:"day"`
	Total      int    `json:"total"`
	Count      int    `json:"count"`
	// NextCursor is present while more results remain.
	NextCursor *int `json:"next_cursor,omitempty"`
}

func envelope(st *Store, total, cursor, count int) pageEnvelope {
	e := pageEnvelope{Generation: st.Generation, Day: st.Day, Total: total, Count: count}
	if next := cursor + count; next < total {
		e.NextCursor = &next
	}
	return e
}

// pageLen is how many of total results the page [cursor,
// cursor+limit) holds.
func pageLen(total, cursor, limit int) int {
	return min(limit, max(0, total-cursor))
}

func (s *Server) handleHeadline(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r); herr != nil {
		return nil, herr
	}
	samples, c2s, exploits, ddos := st.Sizes()
	return struct {
		Generation string            `json:"generation"`
		Day        int               `json:"day"`
		Datasets   map[string]int    `json:"datasets"`
		Headline   results.Headlines `json:"headline"`
	}{
		Generation: st.Generation,
		Day:        st.Day,
		Datasets: map[string]int{
			"samples": samples, "c2s": c2s, "exploits": exploits, "ddos": ddos,
		},
		Headline: st.Headline(),
	}, nil
}

func (s *Server) handleMetrics(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r); herr != nil {
		return nil, herr
	}
	return struct {
		Generation string                 `json:"generation"`
		Day        int                    `json:"day"`
		Metrics    results.MetricsSection `json:"metrics"`
	}{Generation: st.Generation, Day: st.Day, Metrics: st.Metrics()}, nil
}

func (s *Server) handleSamples(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r, "family", "day", "c2", "limit", "cursor"); herr != nil {
		return nil, herr
	}
	limit, cursor, herr := page(r)
	if herr != nil {
		return nil, herr
	}
	q := SampleQuery{
		Family: r.URL.Query().Get("family"),
		Day:    -1,
		C2:     r.URL.Query().Get("c2"),
	}
	if raw := r.URL.Query().Get("day"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, badRequest("day: want a non-negative study-day index, got %q", raw)
		}
		q.Day = n
	}
	sel := st.Samples(q)
	total := int(sel.Count())
	sp.AddRows(total)
	recs := make([]*core.SampleRecord, 0, pageLen(total, cursor, limit))
	sel.Page(cursor, limit, func(i int) { recs = append(recs, st.Sample(i)) })
	return struct {
		pageEnvelope
		Samples []*core.SampleRecord `json:"samples"`
	}{envelope(st, total, cursor, len(recs)), recs}, nil
}

func (s *Server) handleAttacks(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r, "type", "limit", "cursor"); herr != nil {
		return nil, herr
	}
	limit, cursor, herr := page(r)
	if herr != nil {
		return nil, herr
	}
	typ := r.URL.Query().Get("type")
	sel, ok := st.Attacks(typ)
	if !ok {
		return nil, badRequest("type: unknown attack type %q (known: %s)", typ, strings.Join(st.AttackTypes(), ", "))
	}
	total := int(sel.Count())
	sp.AddRows(total)
	obsv := make([]core.DDoSObservation, 0, pageLen(total, cursor, limit))
	sel.Page(cursor, limit, func(i int) { obsv = append(obsv, st.Attack(i)) })
	return struct {
		pageEnvelope
		Types   []string               `json:"types"`
		Attacks []core.DDoSObservation `json:"attacks"`
	}{envelope(st, total, cursor, len(obsv)), st.AttackTypes(), obsv}, nil
}

func (s *Server) handleC2Index(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r, "limit", "cursor"); herr != nil {
		return nil, herr
	}
	limit, cursor, herr := page(r)
	if herr != nil {
		return nil, herr
	}
	addrs := st.C2Addresses()
	sp.AddRows(len(addrs))
	var pg []string
	if cursor < len(addrs) {
		pg = addrs[cursor : cursor+pageLen(len(addrs), cursor, limit)]
	}
	return struct {
		pageEnvelope
		Addresses []string `json:"addresses"`
	}{envelope(st, len(addrs), cursor, len(pg)), pg}, nil
}

// handleQuery is the vectorized filter+aggregate endpoint: ?q= holds
// a colstore expression (`family=="mirai" and day in 100..200 |
// count() by c2`), parsed and type-checked per request — malformed
// queries are 400s carrying the parser's position — then compiled to
// kernel calls over the store's columnar batch. Responses ride the
// same generation-keyed cache, singleflight, and hot-swap machinery
// as every other endpoint: the query string is part of the cache
// key, and a repeated aggregation is a cache hit that never touches
// the columns.
func (s *Server) handleQuery(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r, "q"); herr != nil {
		return nil, herr
	}
	src := r.URL.Query().Get("q")
	q, err := colstore.Parse(src)
	if err != nil {
		return nil, badRequest("q: %v", err)
	}
	plan, err := st.batch.Compile(q)
	if err != nil {
		return nil, badRequest("q: %v", err)
	}
	// A vectorized plan always scans every row of the batch; the
	// selection happens inside the kernels.
	sp.AddRows(st.batch.NumRows)
	return struct {
		Generation string           `json:"generation"`
		Day        int              `json:"day"`
		Query      string           `json:"query"`
		Result     *colstore.Result `json:"result"`
	}{Generation: st.Generation, Day: st.Day, Query: src, Result: plan.Run()}, nil
}

func (s *Server) handleC2(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r); herr != nil {
		return nil, herr
	}
	addr := r.PathValue("addr")
	rec, sel := st.C2(addr)
	if rec == nil {
		return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("no such C2 endpoint %q", addr)}
	}
	n := int(sel.Count())
	sp.AddRows(n)
	shas := make([]string, 0, n)
	sel.ForEach(func(i int) { shas = append(shas, st.Sample(i).SHA) })
	return struct {
		Generation string         `json:"generation"`
		Day        int            `json:"day"`
		Record     *core.C2Record `json:"record"`
		SampleSHAs []string       `json:"sample_shas"`
		Lifespan   float64        `json:"lifespan_days"`
	}{Generation: st.Generation, Day: st.Day, Record: rec, SampleSHAs: shas, Lifespan: rec.LifespanDays()}, nil
}
