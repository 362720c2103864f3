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

	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
)

// The daemon mounts a whole run lake. The default store tracks a
// branch head (see Reload); this file is everything beyond that
// default — resolving run=/asof= selectors through the commit
// journal, keeping resolved historical generations resident, and the
// two history endpoints (/v1/runs, /v1/diff).

// maxResidentStores caps how many historical generations are kept
// built in memory at once. A Store holds its snapshot's records plus
// their columnar encoding, so the cap is small; eviction is LRU by
// last request. The default (branch-head) store lives outside this
// cache and is never evicted.
const maxResidentStores = 4

// residentStore is one historical generation's lazily built store.
// The once gates the build so a thundering herd of time-travel
// requests for the same generation builds it exactly once; losers of
// an LRU eviction race still resolve through their own entry.
type residentStore struct {
	once  sync.Once
	store *Store
	err   error
	touch int64
}

// hasSelector reports whether the raw query carries a run= or asof=
// selector, by segment scan — no url.Values allocation on the
// selector-free hot path.
func hasSelector(rawQuery string) bool {
	for len(rawQuery) > 0 {
		seg := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			seg, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		if strings.HasPrefix(seg, "run=") || strings.HasPrefix(seg, "asof=") {
			return true
		}
	}
	return false
}

// storeForSelector resolves the request's run=/asof= selector to a
// store: the run (branch or run name, defaulting to the serving
// branch) picks a line of history, asof= picks the newest commit at
// or before that study day (absent = head). Resolution goes through
// the journal on every request — head lookups must see commits landed
// since the last reload tick.
func (s *Server) storeForSelector(r *http.Request) (*Store, *httpError) {
	sel := r.URL.Query().Get("run")
	if sel == "" {
		sel = s.branch
	}
	asof := -1
	if raw := r.URL.Query().Get("asof"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			return nil, badRequest("asof: want a non-negative study-day index, got %q", raw)
		}
		asof = n
	}
	c, err := s.lk.ResolveSelector(sel, asof)
	if err != nil {
		return nil, &httpError{status: http.StatusNotFound, msg: err.Error()}
	}
	return s.storeForCommit(c)
}

// storeForCommit returns a store serving the commit's generation: the
// current default store when the generations match, a resident store
// otherwise (built on first touch, LRU-retained).
func (s *Server) storeForCommit(c *lake.Commit) (*Store, *httpError) {
	if cur := s.store.Load(); cur != nil && cur.Generation == c.Snapshot {
		return cur, nil
	}
	s.residentMu.Lock()
	e := s.resident[c.Snapshot]
	if e == nil {
		if len(s.resident) >= maxResidentStores {
			s.evictOldestLocked()
		}
		e = &residentStore{}
		s.resident[c.Snapshot] = e
	}
	s.residentTick++
	e.touch = s.residentTick
	s.residentMu.Unlock()

	e.once.Do(func() { e.store, e.err = s.openStore(c) })
	if e.err != nil {
		// A failed build must not stay resident: the object may be
		// mid-GC or the error transient, and a poisoned entry would
		// 500 forever.
		s.residentMu.Lock()
		if s.resident[c.Snapshot] == e {
			delete(s.resident, c.Snapshot)
		}
		s.residentMu.Unlock()
		return nil, &httpError{status: http.StatusInternalServerError,
			msg: fmt.Sprintf("loading generation %s: %v", c.Snapshot, e.err)}
	}
	return e.store, nil
}

// evictOldestLocked drops the least-recently-touched resident store.
// Caller holds residentMu.
func (s *Server) evictOldestLocked() {
	oldestKey, oldestTouch := "", int64(0)
	for k, e := range s.resident {
		if oldestKey == "" || e.touch < oldestTouch {
			oldestKey, oldestTouch = k, e.touch
		}
	}
	if oldestKey != "" {
		delete(s.resident, oldestKey)
	}
}

// uncached wraps an endpoint with the in-flight gauge, the
// request span, and JSON encoding — but no response cache: /v1/runs
// and /v1/diff read the journal, which can grow without any
// generation turnover, so generation-keyed caching would serve stale
// history. Both read the whole journal, so a run= or asof= selector,
// even a bare one, is a 400 rather than silently ignored.
func (s *Server) uncached(name string, fn func(r *http.Request, sp *redplane.Span) (any, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		sp := s.red.Start(name, requestPath(r), "")
		var v any
		var herr *httpError
		if q := r.URL.Query(); q.Has("run") || q.Has("asof") {
			herr = badRequest("/v1/%s takes no run= or asof= selector", name)
		} else {
			v, herr = fn(r, sp)
		}
		if herr != nil {
			b, _ := json.Marshal(map[string]string{"error": herr.msg})
			finishJSON(w, sp, herr.status, append(b, '\n'))
			return
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			b, _ := json.Marshal(map[string]string{"error": "encoding response"})
			finishJSON(w, sp, http.StatusInternalServerError, append(b, '\n'))
			return
		}
		finishJSON(w, sp, http.StatusOK, buf.Bytes())
	}
}

// runCommit is one commit in a /v1/runs listing.
type runCommit struct {
	ID         int64  `json:"id"`
	Day        int    `json:"day"`
	Generation string `json:"generation"`
	Run        string `json:"run"`
	Seed       int64  `json:"seed"`
}

// runBranch is one branch's row in /v1/runs: identity from the head
// commit, then the retained generations newest-first.
type runBranch struct {
	Branch         string      `json:"branch"`
	Run            string      `json:"run"`
	Seed           int64       `json:"seed"`
	HeadDay        int         `json:"head_day"`
	HeadGeneration string      `json:"head_generation"`
	Fingerprint    string      `json:"fingerprint,omitempty"`
	Generations    int         `json:"generations"`
	Commits        []runCommit `json:"commits"`
}

// handleRuns lists the lake's branches, their runs, and retained
// generations, all from one read of the journal.
func (s *Server) handleRuns(r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r, "limit"); herr != nil {
		return nil, herr
	}
	limit, _, herr := page(r)
	if herr != nil {
		return nil, herr
	}
	logs, err := s.lk.Logs()
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	out := make([]runBranch, 0, len(logs))
	for _, br := range obs.SortedKeys(logs) {
		log := logs[br]
		head := log[0]
		rb := runBranch{
			Branch:         br,
			Run:            head.Run,
			Seed:           head.Seed,
			HeadDay:        head.Day,
			HeadGeneration: head.Snapshot,
			Fingerprint:    head.Fingerprint,
			Generations:    len(log),
		}
		for _, c := range log {
			if len(rb.Commits) >= limit {
				break
			}
			rb.Commits = append(rb.Commits, runCommit{
				ID: c.ID, Day: c.Day, Generation: c.Snapshot, Run: c.Run, Seed: c.Seed,
			})
		}
		sp.AddRows(len(log))
		out = append(out, rb)
	}
	return struct {
		Branch   string      `json:"serving_branch"`
		Branches []runBranch `json:"branches"`
	}{s.branch, out}, nil
}

// diffSide is one resolved endpoint of a /v1/diff comparison.
type diffSide struct {
	Selector   string         `json:"selector"`
	Branch     string         `json:"branch"`
	Run        string         `json:"run"`
	Seed       int64          `json:"seed"`
	Day        int            `json:"day"`
	Generation string         `json:"generation"`
	Datasets   map[string]int `json:"datasets"`
}

// parseSelector splits a diff selector "branch-or-run[@day]".
func parseSelector(sel string) (name string, asof int, herr *httpError) {
	name, rawDay, hasDay := strings.Cut(sel, "@")
	if name == "" {
		return "", 0, badRequest("selector: want branch-or-run[@day], got %q", sel)
	}
	asof = -1
	if hasDay {
		n, err := strconv.Atoi(rawDay)
		if err != nil || n < 0 {
			return "", 0, badRequest("selector %q: @day wants a non-negative study-day index, got %q", sel, rawDay)
		}
		asof = n
	}
	return name, asof, nil
}

// handleDiff compares headline and aggregate results across two
// runs/branches (optionally pinned to a day: a=main@90&b=ablation).
// The response carries both sides' full headline sections plus the
// list of top-level headline fields whose values differ, so a caller
// can spot the changed findings without diffing client-side.
func (s *Server) handleDiff(r *http.Request, sp *redplane.Span) (any, *httpError) {
	if herr := checkParams(r, "a", "b"); herr != nil {
		return nil, herr
	}
	sides := [2]struct {
		side  diffSide
		store *Store
	}{}
	for i, param := range []string{"a", "b"} {
		sel := r.URL.Query().Get(param)
		if sel == "" {
			return nil, badRequest("%s: want a selector branch-or-run[@day]", param)
		}
		name, asof, herr := parseSelector(sel)
		if herr != nil {
			return nil, herr
		}
		c, err := s.lk.ResolveSelector(name, asof)
		if err != nil {
			return nil, &httpError{status: http.StatusNotFound, msg: fmt.Sprintf("%s: %v", param, err)}
		}
		st, herr := s.storeForCommit(c)
		if herr != nil {
			return nil, herr
		}
		samples, c2s, exploits, ddos := st.Sizes()
		sides[i].side = diffSide{
			Selector: sel, Branch: c.Branch, Run: c.Run, Seed: c.Seed,
			Day: c.Day, Generation: c.Snapshot,
			Datasets: map[string]int{
				"samples": samples, "c2s": c2s, "exploits": exploits, "ddos": ddos,
			},
		}
		sides[i].store = st
		sp.AddRows(samples)
	}
	a, b := sides[0], sides[1]
	changed, herr := headlineChanged(a.store, b.store)
	if herr != nil {
		return nil, herr
	}
	return struct {
		A         diffSide       `json:"a"`
		B         diffSide       `json:"b"`
		Identical bool           `json:"identical"`
		Datasets  map[string]int `json:"dataset_deltas"`
		Changed   []string       `json:"headline_changed"`
		HeadlineA any            `json:"headline_a"`
		HeadlineB any            `json:"headline_b"`
	}{
		A:         a.side,
		B:         b.side,
		Identical: a.side.Generation == b.side.Generation,
		Datasets: map[string]int{
			"samples":  b.side.Datasets["samples"] - a.side.Datasets["samples"],
			"c2s":      b.side.Datasets["c2s"] - a.side.Datasets["c2s"],
			"exploits": b.side.Datasets["exploits"] - a.side.Datasets["exploits"],
			"ddos":     b.side.Datasets["ddos"] - a.side.Datasets["ddos"],
		},
		Changed:   changed,
		HeadlineA: a.store.Headline(),
		HeadlineB: b.store.Headline(),
	}, nil
}

// headlineChanged names the top-level headline fields whose JSON
// values differ between the two stores, sorted. Comparing through
// JSON keeps the diff in lockstep with whatever results.Headlines
// grows into — a new headline finding is diffable the day it exists.
func headlineChanged(a, b *Store) ([]string, *httpError) {
	var am, bm map[string]json.RawMessage
	for _, side := range []struct {
		st *Store
		m  *map[string]json.RawMessage
	}{{a, &am}, {b, &bm}} {
		enc, err := json.Marshal(side.st.Headline())
		if err == nil {
			err = json.Unmarshal(enc, side.m)
		}
		if err != nil {
			return nil, &httpError{status: http.StatusInternalServerError, msg: "encoding headline"}
		}
	}
	changed := []string{}
	for k, av := range am {
		if bv, ok := bm[k]; !ok || !bytes.Equal(av, bv) {
			changed = append(changed, k)
		}
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			changed = append(changed, k)
		}
	}
	sort.Strings(changed)
	return changed, nil
}
