package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malnet/internal/obs/redplane"
)

// stampedeServer builds a Server over a synthetic store with an
// instrumented blocking endpoint: every computation increments
// computes, then parks on release. The handler is the real cached()
// pipeline — cache, singleflight, pooled encoding — with only the
// store scan stubbed out.
func stampedeServer(n int) (*Server, *Store) {
	st := BuildStore(syntheticSnapshot(n), nil)
	s := &Server{cache: map[string][]byte{}}
	s.store.Store(st)
	return s, st
}

// TestServeStampedeSingleFlight sends a thundering herd of identical
// queries against a cold generation and requires exactly one store
// scan: the leader computes, everyone else coalesces onto its flight
// and receives byte-identical bodies.
func TestServeStampedeSingleFlight(t *testing.T) {
	s, st := stampedeServer(100)
	var computes atomic.Int64
	release := make(chan struct{})
	h := s.cached("test", func(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
		computes.Add(1)
		<-release
		return map[string]any{"generation": st.Generation, "n": st.NumSamples()}, nil
	})

	const herd = 32
	req := httptest.NewRequest("GET", "/v1/test?family=mirai&day=3", nil)
	key := string(new(keyScratch).appendKey(st.Generation, req.URL.Path, req.URL.RawQuery))

	var wg sync.WaitGroup
	bodies := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			bodies[i] = w.Body.String()
		}(i)
	}

	// Wait until the whole herd is parked on the one flight (leader
	// included), so no request can arrive after the flight closes and
	// legitimately recompute.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.joined(key) != herd {
		if time.Now().After(deadline) {
			t.Fatalf("herd never assembled: %d/%d joined, %d computing",
				s.flights.joined(key), herd, computes.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("cold stampede of %d identical queries ran %d store scans, want exactly 1", herd, got)
	}
	for i := 1; i < herd; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("herd member %d got a different body:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if s.misses.Load() != 1 || s.coalesced.Load() != herd-1 {
		t.Fatalf("counters: misses=%d coalesced=%d, want 1/%d", s.misses.Load(), s.coalesced.Load(), herd-1)
	}

	// The herd's body is now cached: a straggler is a pure hit, still
	// one scan total.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := computes.Load(); got != 1 {
		t.Fatalf("post-herd request recomputed: %d store scans", got)
	}
	if s.hits.Load() != 1 {
		t.Fatalf("post-herd request did not hit the cache: hits=%d", s.hits.Load())
	}
}

// TestServeHotSwapMidFlight swaps the store while a flight against
// the old generation is still computing. The requests parked on that
// flight must come back with old-generation bodies, a request issued
// after the swap must start its own flight against the new
// generation, and the late old-generation result must not be cached
// into the new generation's working set.
func TestServeHotSwapMidFlight(t *testing.T) {
	s, stA := stampedeServer(100)
	stB := BuildStore(syntheticSnapshot(200), nil)
	if stA.Generation == stB.Generation {
		t.Fatal("fixture stores share a generation")
	}

	var computes atomic.Int64
	release := make(chan struct{})
	h := s.cached("test", func(st *Store, r *http.Request, sp *redplane.Span) (any, *httpError) {
		computes.Add(1)
		if st.Generation == stA.Generation {
			<-release
		}
		return map[string]any{"generation": st.Generation}, nil
	})
	req := httptest.NewRequest("GET", "/v1/test?family=mirai", nil)
	keyA := string(new(keyScratch).appendKey(stA.Generation, req.URL.Path, req.URL.RawQuery))

	gen := func(body string) string {
		var v struct {
			Generation string `json:"generation"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
		return v.Generation
	}

	const herd = 8
	var wg sync.WaitGroup
	bodiesA := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			bodiesA[i] = w.Body.String()
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.joined(keyA) != herd {
		if time.Now().After(deadline) {
			t.Fatalf("old-generation herd never assembled: %d/%d", s.flights.joined(keyA), herd)
		}
		time.Sleep(time.Millisecond)
	}

	// Hot swap while the old-generation flight is mid-computation:
	// what Reload does, minus the lake.
	s.store.Store(stB)
	s.mu.Lock()
	s.cache = map[string][]byte{}
	s.mu.Unlock()

	// A post-swap request resolves the new store, derives a new key,
	// and must not join the parked flight.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if g := gen(w.Body.String()); g != stB.Generation {
		t.Fatalf("post-swap request served generation %.12s, want new generation %.12s", g, stB.Generation)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("post-swap request coalesced onto the old flight: %d computes, want 2", got)
	}

	close(release)
	wg.Wait()
	for i, b := range bodiesA {
		if g := gen(b); g != stA.Generation {
			t.Fatalf("pre-swap request %d served generation %.12s, want its snapshot %.12s", i, g, stA.Generation)
		}
	}

	// The old flight finished after the swap: its body must not have
	// been inserted into the (new-generation) cache.
	s.mu.Lock()
	_, staleCached := s.cache[keyA]
	n := len(s.cache)
	s.mu.Unlock()
	if staleCached {
		t.Fatal("old-generation body was cached after the swap")
	}
	if n != 1 {
		t.Fatalf("cache holds %d entries after swap, want 1 (the new generation's)", n)
	}
}

// TestServeHotSwapPaginationRace hammers paginating readers while
// another goroutine hot-swaps between two generations. Every response
// must be internally consistent — generation, total, and page all
// from one snapshot. Run under -race, this is the shared-state check
// for the cache, the flight group, and the pooled scratch.
func TestServeHotSwapPaginationRace(t *testing.T) {
	stores := []*Store{
		BuildStore(syntheticSnapshot(300), nil),
		BuildStore(syntheticSnapshot(500), nil),
	}
	totals := map[string]int{
		stores[0].Generation: 300,
		stores[1].Generation: 500,
	}
	s := &Server{cache: map[string][]byte{}}
	s.store.Store(stores[0])
	h := s.Handler()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			s.store.Store(stores[i%2])
			s.mu.Lock()
			s.cache = map[string][]byte{}
			s.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const readers = 8
	errs := make(chan error, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			cursor := 0
			for i := 0; i < 400; i++ {
				w := httptest.NewRecorder()
				req := httptest.NewRequest("GET", fmt.Sprintf("/v1/samples?limit=7&cursor=%d", cursor), nil)
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d: %s", r, w.Code, w.Body.String())
					return
				}
				var page struct {
					Generation string `json:"generation"`
					Total      int    `json:"total"`
					Count      int    `json:"count"`
					NextCursor *int   `json:"next_cursor"`
					Samples    []struct {
						SHA string
					} `json:"samples"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
					errs <- fmt.Errorf("reader %d: decoding: %v", r, err)
					return
				}
				want, ok := totals[page.Generation]
				if !ok {
					errs <- fmt.Errorf("reader %d: unknown generation %q", r, page.Generation)
					return
				}
				// The response must be all one snapshot: the total
				// matches the generation it claims, and the page is
				// exactly the count it claims.
				if page.Total != want {
					errs <- fmt.Errorf("reader %d: generation %.12s reports total %d, want %d — mixed-generation response",
						r, page.Generation, page.Total, want)
					return
				}
				if len(page.Samples) != page.Count {
					errs <- fmt.Errorf("reader %d: count %d but %d samples", r, page.Count, len(page.Samples))
					return
				}
				if page.NextCursor == nil {
					cursor = 0
				} else {
					cursor = *page.NextCursor
				}
			}
		}(r)
	}

	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
