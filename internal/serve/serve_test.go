package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"malnet/internal/c2"
	"malnet/internal/checkpoint"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
	"malnet/internal/world"
)

// The fixture studies: small enough that building a handful of
// checkpoints stays quick, big enough that every endpoint has data
// behind it.
const (
	fixtureSeed    = 11
	fixtureSamples = 120
)

var fixtureBase string

func TestMain(m *testing.M) {
	var err error
	fixtureBase, err = os.MkdirTemp("", "serve-fixtures-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(fixtureBase)
	os.Exit(code)
}

// runStudy executes one checkpointed fixture study. killDay < 0 runs
// to completion; otherwise the run is cancelled killDay days in and
// must fail with context.Canceled.
func runStudy(t testing.TB, dir string, workers, killDay int, resume bool) {
	t.Helper()
	wcfg := world.DefaultConfig(fixtureSeed)
	wcfg.TotalSamples = fixtureSamples
	w := world.Generate(wcfg)
	scfg := core.Defaults(fixtureSeed)
	scfg.Analysis.ProbeRounds = 4
	scfg.Determinism.Workers = workers
	scfg.Durability = core.CheckpointConfig{Dir: dir, Resume: resume}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if killDay >= 0 {
		w.Clock.Schedule(world.StudyStart().AddDate(0, 0, killDay), cancel)
	}
	_, err := core.RunStudyContext(ctx, w, scfg)
	if killDay >= 0 {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("killed run (day %d): want context.Canceled, got %v", killDay, err)
		}
	} else if err != nil {
		t.Fatalf("fixture study failed: %v", err)
	}
}

// commitLatest commits the newest checkpoint in ckptDir to branch
// "main" of each lake in lakeDirs, creating the lakes on first use,
// and returns the first lake's commit and object path.
func commitLatest(t testing.TB, ckptDir string, lakeDirs ...string) (c *lake.Commit, object string) {
	t.Helper()
	snap, _, err := checkpoint.Latest(ckptDir)
	if err != nil || snap == nil {
		t.Fatalf("no checkpoint in %s: snap=%v err=%v", ckptDir, snap, err)
	}
	for i, dir := range lakeDirs {
		l, err := lake.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := l.CommitFile("main", fmt.Sprintf("seed-%d", fixtureSeed), fixtureSeed, snap.Day, snap.Path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			c, object = lc, l.ObjectPath(lc.Snapshot)
		}
	}
	return c, object
}

// checkpointDir lazily builds (and caches for the whole test run) a
// completed fixture study per worker count, with its final checkpoint
// committed into a lake, and returns the lake's directory. The study's
// own checkpoint directory is the lake's sibling "ckpt".
var (
	fixMu   sync.Mutex
	fixDirs = map[int]string{}
)

func checkpointDir(t testing.TB, workers int) string {
	fixMu.Lock()
	defer fixMu.Unlock()
	if d, ok := fixDirs[workers]; ok {
		return d
	}
	base := filepath.Join(fixtureBase, fmt.Sprintf("w%d", workers))
	runStudy(t, filepath.Join(base, "ckpt"), workers, -1, false)
	d := filepath.Join(base, "lake")
	commitLatest(t, filepath.Join(base, "ckpt"), d)
	fixDirs[workers] = d
	return d
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	return resp.StatusCode, body
}

func getOK(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	status, body := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decoding: %v\n%s", path, err, body)
	}
}

// pageResp covers every paginated endpoint's envelope plus the
// per-endpoint payload fields.
type pageResp struct {
	Generation string `json:"generation"`
	Day        int    `json:"day"`
	Total      int    `json:"total"`
	Count      int    `json:"count"`
	NextCursor *int   `json:"next_cursor"`
	Samples    []struct {
		SHA    string
		Date   time.Time
		Family string
	} `json:"samples"`
	Addresses []string       `json:"addresses"`
	Types     []string       `json:"types"`
	Attacks   []inertPayload `json:"attacks"`
}

// inertPayload swallows a JSON object we only count.
type inertPayload map[string]any

type headlineResp struct {
	Generation string         `json:"generation"`
	Day        int            `json:"day"`
	Datasets   map[string]int `json:"datasets"`
	Headline   map[string]any `json:"headline"`
}

func TestServeEndpoints(t *testing.T) {
	srv, err := New(checkpointDir(t, 1), obs.NewWall())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var head headlineResp
	getOK(t, ts, "/v1/headline", &head)
	if len(head.Generation) != 64 {
		t.Fatalf("generation is not a SHA-256 hex string: %q", head.Generation)
	}
	if head.Datasets["samples"] == 0 || head.Datasets["c2s"] == 0 {
		t.Fatalf("fixture study produced empty datasets: %v", head.Datasets)
	}
	if _, ok := head.Headline["mean_lifespan_days"]; !ok {
		t.Fatalf("headline findings missing: %v", head.Headline)
	}

	var met struct {
		Generation string         `json:"generation"`
		Metrics    map[string]any `json:"metrics"`
	}
	getOK(t, ts, "/v1/metrics", &met)
	if met.Generation != head.Generation {
		t.Fatalf("metrics generation %q != headline generation %q", met.Generation, head.Generation)
	}
	if v, ok := met.Metrics["samples_accepted"].(float64); !ok || int(v) != head.Datasets["samples"] {
		t.Fatalf("metrics samples_accepted %v, want %d", met.Metrics["samples_accepted"], head.Datasets["samples"])
	}

	// Walk the full sample set with a small page size: every page
	// honors the limit, the SHAs never repeat, and the walk ends
	// exactly at total.
	seen := map[string]bool{}
	cursor, pages := 0, 0
	for {
		var page pageResp
		getOK(t, ts, fmt.Sprintf("/v1/samples?limit=7&cursor=%d", cursor), &page)
		if page.Total != head.Datasets["samples"] {
			t.Fatalf("samples total %d, want %d", page.Total, head.Datasets["samples"])
		}
		if page.Count != len(page.Samples) || page.Count > 7 {
			t.Fatalf("page count %d with %d samples (limit 7)", page.Count, len(page.Samples))
		}
		for _, s := range page.Samples {
			if seen[s.SHA] {
				t.Fatalf("sample %s appeared twice during pagination", s.SHA)
			}
			seen[s.SHA] = true
		}
		pages++
		if page.NextCursor == nil {
			break
		}
		cursor = *page.NextCursor
	}
	if len(seen) != head.Datasets["samples"] {
		t.Fatalf("pagination visited %d samples over %d pages, want %d", len(seen), pages, head.Datasets["samples"])
	}

	// Family filter: everything returned carries the family, and the
	// filtered total is consistent with the unfiltered one.
	var first pageResp
	getOK(t, ts, "/v1/samples?limit=1", &first)
	family := first.Samples[0].Family
	var fam pageResp
	getOK(t, ts, "/v1/samples?family="+family+"&limit=500", &fam)
	if fam.Total == 0 || fam.Total > head.Datasets["samples"] {
		t.Fatalf("family %q total %d out of range", family, fam.Total)
	}
	for _, s := range fam.Samples {
		if s.Family != family {
			t.Fatalf("family filter %q returned sample of family %q", family, s.Family)
		}
	}

	// Day filter: day 0 returns only day-0 records.
	var day0 pageResp
	getOK(t, ts, "/v1/samples?day=0&limit=500", &day0)
	start := world.StudyStart()
	for _, s := range day0.Samples {
		if d := int(s.Date.Sub(start).Hours() / 24); d != 0 {
			t.Fatalf("day=0 filter returned a day-%d sample (%s)", d, s.SHA)
		}
	}

	// Combining filters intersects them.
	var both pageResp
	getOK(t, ts, fmt.Sprintf("/v1/samples?family=%s&day=0&limit=500", family), &both)
	if both.Total > fam.Total || both.Total > day0.Total {
		t.Fatalf("intersection total %d exceeds its factors (%d, %d)", both.Total, fam.Total, day0.Total)
	}

	// C2 index and point lookup.
	var c2s pageResp
	getOK(t, ts, "/v1/c2?limit=500", &c2s)
	if c2s.Total != head.Datasets["c2s"] || len(c2s.Addresses) == 0 {
		t.Fatalf("c2 index total %d (want %d), %d addresses", c2s.Total, head.Datasets["c2s"], len(c2s.Addresses))
	}
	var rec struct {
		Generation string         `json:"generation"`
		Record     map[string]any `json:"record"`
		SampleSHAs []string       `json:"sample_shas"`
		Lifespan   float64        `json:"lifespan_days"`
	}
	getOK(t, ts, "/v1/c2/"+c2s.Addresses[0], &rec)
	if rec.Record["Address"] != c2s.Addresses[0] {
		t.Fatalf("c2 lookup returned record for %v, want %s", rec.Record["Address"], c2s.Addresses[0])
	}
	if len(rec.SampleSHAs) == 0 || rec.Lifespan < 1 {
		t.Fatalf("c2 lookup: %d sample SHAs, lifespan %v", len(rec.SampleSHAs), rec.Lifespan)
	}
	if status, _ := get(t, ts, "/v1/c2/no.such.host:1"); status != http.StatusNotFound {
		t.Fatalf("unknown c2: status %d, want 404", status)
	}

	// Attacks: the per-type totals partition the unfiltered total.
	var atk pageResp
	getOK(t, ts, "/v1/attacks?limit=500", &atk)
	if atk.Total != head.Datasets["ddos"] {
		t.Fatalf("attacks total %d, want %d", atk.Total, head.Datasets["ddos"])
	}
	if atk.Total > 0 {
		sum := 0
		for _, typ := range atk.Types {
			var one pageResp
			getOK(t, ts, "/v1/attacks?type="+url.QueryEscape(typ), &one)
			sum += one.Total
		}
		if sum != atk.Total {
			t.Fatalf("per-type totals sum to %d, want %d (types %v)", sum, atk.Total, atk.Types)
		}
	}

	// Malformed queries are 4xx, not empty 200s.
	for _, path := range []string{
		"/v1/samples?day=tuesday",
		"/v1/samples?day=-1",
		"/v1/samples?limit=0",
		"/v1/samples?limit=many",
		"/v1/samples?cursor=-2",
		"/v1/samples?cursor=abc",
		"/v1/samples?frobnicate=1",
		"/v1/attacks?type=NO-SUCH-ATTACK",
		"/v1/c2?limit=zz",
		"/v1/metrics?verbose=1",
		"/v1/headline?x=y",
	} {
		status, body := get(t, ts, path)
		if status != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400 (%s)", path, status, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("GET %s: error body not JSON with an error field: %s", path, body)
		}
	}
}

// TestServeNoSnapshot: a lake with nothing on the serving branch
// refuses to serve — an empty lake, and a fixture lake asked for a
// branch it does not have.
func TestServeNoSnapshot(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "lake")
	if _, err := lake.Open(empty); err != nil {
		t.Fatal(err)
	}
	if _, err := New(empty, obs.NewWall()); err == nil {
		t.Fatal("New on an empty lake did not fail")
	}
	_, err := New(checkpointDir(t, 1), obs.NewWall(), WithBranch("ablation"))
	if err == nil || !strings.Contains(err.Error(), `"ablation"`) {
		t.Fatalf("New on a branch without commits: err=%v, want one naming the branch", err)
	}
}

// TestServeRefusesNonLake: New serves run lakes only. An empty
// directory and a study's plain checkpoint directory are both
// refused with an error naming the directory, and neither is laid
// out as a lake: New writes nothing into the directory it is given.
func TestServeRefusesNonLake(t *testing.T) {
	ckpt := filepath.Join(filepath.Dir(checkpointDir(t, 1)), "ckpt")
	for _, dir := range []string{t.TempDir(), ckpt} {
		before, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(dir, obs.NewWall())
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Fatalf("New(%s): err=%v, want a refusal naming the directory", dir, err)
		}
		after, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("New(%s) changed the directory: %v, was %v", dir, after, before)
		}
	}
}

// wallGauges reads the live gauges off a wall snapshot.
func wallGauges(t *testing.T, wall *obs.Wall) map[string]int64 {
	t.Helper()
	g, ok := wall.Snapshot()["gauges"].(map[string]int64)
	if !ok {
		t.Fatal("wall snapshot has no gauges")
	}
	return g
}

// wallCounters reads the live monotone counters off a wall snapshot.
func wallCounters(t *testing.T, wall *obs.Wall) map[string]int64 {
	t.Helper()
	c, ok := wall.Snapshot()["counters"].(map[string]int64)
	if !ok {
		t.Fatal("wall snapshot has no counters")
	}
	return c
}

// TestServeHotReloadAndCache drives the daemon's lifecycle: serve a
// mid-study snapshot, let the study finish and commit, Reload, and
// check that the swap is atomic-by-generation, the cache turns over,
// and an in-flight pagination cursor keeps working against the new
// store.
func TestServeHotReloadAndCache(t *testing.T) {
	ckpt := filepath.Join(fixtureBase, "reload", "ckpt")
	lakeDir := filepath.Join(fixtureBase, "reload", "lake")
	runStudy(t, ckpt, 2, 90, false)
	commitLatest(t, ckpt, lakeDir)

	wall := obs.NewWall()
	red := redplane.New(redplane.Options{SlowThreshold: -1})
	srv, err := New(lakeDir, wall, WithRedPlane(red))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var before headlineResp
	getOK(t, ts, "/v1/headline", &before)
	if before.Day >= 90 {
		t.Fatalf("killed-at-day-90 snapshot claims day %d", before.Day)
	}

	// Identical repeat → served from cache, byte-for-byte.
	_, body1 := get(t, ts, "/v1/headline")
	_, body2 := get(t, ts, "/v1/headline")
	if string(body1) != string(body2) {
		t.Fatal("repeated query differs from the first")
	}
	if c := wallCounters(t, wall); c["serve.cache_hits"] < 1 {
		t.Fatalf("second identical query did not hit the cache: %v", c)
	}
	if body := promBody(t, red); !strings.Contains(body, "malnetd_store_swaps_total 1\n") {
		t.Fatalf("store swaps before any reload, want 1:\n%s", body)
	}

	// Open a pagination walk against the old generation.
	var page1 pageResp
	getOK(t, ts, "/v1/samples?limit=5", &page1)
	if page1.NextCursor == nil {
		t.Fatalf("mid-study snapshot has only %d samples; fixture too small", page1.Total)
	}

	// No new commit → no swap.
	if changed, err := srv.Reload(); err != nil || changed {
		t.Fatalf("no-op reload: changed=%v err=%v", changed, err)
	}

	// Finish the study and commit it, then reload for real.
	runStudy(t, ckpt, 2, -1, true)
	commitLatest(t, ckpt, lakeDir)
	changed, err := srv.Reload()
	if err != nil || !changed {
		t.Fatalf("reload after new snapshot: changed=%v err=%v", changed, err)
	}

	var after headlineResp
	getOK(t, ts, "/v1/headline", &after)
	if after.Generation == before.Generation {
		t.Fatal("reload kept serving the old generation")
	}
	if after.Day <= before.Day {
		t.Fatalf("reloaded snapshot day %d is not newer than %d", after.Day, before.Day)
	}
	if body := promBody(t, red); !strings.Contains(body, "malnetd_store_swaps_total 2\n") {
		t.Fatalf("store swaps after one reload, want 2:\n%s", body)
	}

	// The cursor from the old generation keeps paging — against the
	// new store, as its generation field shows.
	var page2 pageResp
	getOK(t, ts, fmt.Sprintf("/v1/samples?limit=5&cursor=%d", *page1.NextCursor), &page2)
	if page2.Generation != after.Generation {
		t.Fatalf("cursor request served generation %q, want %q", page2.Generation, after.Generation)
	}
	if page2.Count != 5 || page2.Total <= page1.Total {
		t.Fatalf("cursor page after reload: count %d total %d (old total %d)", page2.Count, page2.Total, page1.Total)
	}
}

// TestServeDeterminism is the serving half of the byte-equality
// contract: studies run at different worker counts write identical
// snapshots, so malnetd serves identical bytes — generation included
// — for every endpoint.
func TestServeDeterminism(t *testing.T) {
	paths := []string{
		"/v1/headline",
		"/v1/metrics",
		"/v1/samples?limit=500",
		"/v1/samples?day=0",
		"/v1/c2?limit=500",
		"/v1/attacks?limit=500",
	}
	var want map[string][]byte
	for _, workers := range []int{1, 2, 8} {
		srv, err := New(checkpointDir(t, workers), obs.NewWall())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ts := httptest.NewServer(srv.Handler())
		got := map[string][]byte{}
		for _, p := range paths {
			status, body := get(t, ts, p)
			if status != http.StatusOK {
				t.Fatalf("workers=%d: GET %s: status %d", workers, p, status)
			}
			got[p] = body
		}
		ts.Close()
		if want == nil {
			want = got
			continue
		}
		for _, p := range paths {
			if string(got[p]) != string(want[p]) {
				t.Fatalf("workers=%d: GET %s differs from workers=1:\n%s\nvs\n%s", workers, p, got[p], want[p])
			}
		}
	}
}

// syntheticSnapshot fabricates a snapshot of n samples for the
// benchmarks: family and day distributions roughly like a study's,
// one C2 endpoint per ~10 samples, one attack per 5.
func syntheticSnapshot(n int) *core.StudySnapshot {
	families := []string{"mirai", "gafgyt", "tsunami", "hajime", "xorddos", "mozi", "dofloo", "pnscan", "hiddenwasp", "vpnfilter"}
	start := world.StudyStart()
	ds := core.CheckpointDatasets{C2s: map[string]*core.C2Record{}}
	nC2 := n/10 + 1
	for i := 0; i < nC2; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:23", i/65536, i/256%256, i%256)
		ds.C2s[addr] = &core.C2Record{
			Address: addr, FirstSeen: start, LastSeen: start.AddDate(0, 0, i%14),
		}
	}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:23", i%nC2/65536, i%nC2/256%256, i%nC2%256)
		ds.Samples = append(ds.Samples, &core.SampleRecord{
			SHA:    fmt.Sprintf("%064x", i),
			Date:   start.AddDate(0, 0, i%365),
			Family: families[i%len(families)],
			C2s:    []core.C2Candidate{{Address: addr}},
		})
	}
	for i := 0; i < n/5; i++ {
		ds.DDoS = append(ds.DDoS, core.DDoSObservation{
			SHA256: fmt.Sprintf("%064x", i%n),
			Command: c2.Command{
				Attack: c2.AttackType(i % 8),
				Target: netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 250)}),
				Port:   80,
			},
		})
	}
	return &core.StudySnapshot{Generation: fmt.Sprintf("%064x", n), Datasets: ds}
}

// benchServer wires a synthetic store into a Server without a lake
// behind it; requests to it carry no run=/asof= selector.
func benchServer(n int) (*Server, *Store) {
	st := BuildStore(syntheticSnapshot(n), nil)
	s := &Server{cache: map[string][]byte{}}
	s.store.Store(st)
	return s, st
}

// BenchmarkStoreSamples measures the raw lookup (family+day selection
// over the columns plus the first page's record fetch) as the store
// grows from toy size to past the paper's 1447-sample scale.
func BenchmarkStoreSamples(b *testing.B) {
	for _, n := range []int{100, 1500, 100000} {
		_, st := benchServer(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := SampleQuery{Family: "mirai", Day: i % 365}
					st.Samples(q).Page(0, 50, func(p int) { _ = st.Sample(p) })
					i++
				}
			})
		})
	}
}

// storeSink keeps BenchmarkBuildStore's result live.
var storeSink *Store

// BenchmarkBuildStore is the per-generation cost every reload and
// every resident time-travel store pays before its first request, at
// the same sizes as BenchmarkStoreSamples.
func BenchmarkBuildStore(b *testing.B) {
	for _, n := range []int{100, 1500, 100000} {
		ss := syntheticSnapshot(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				storeSink = BuildStore(ss, nil)
			}
		})
	}
}

// BenchmarkServeQuery measures the full HTTP path — routing, store
// lookup, JSON encoding — with the response cache cold (every request
// recomputes) and warm (every request is a cache hit). The warm path
// is the daemon's steady state and should be an order of magnitude
// cheaper.
func BenchmarkServeQuery(b *testing.B) {
	for _, n := range []int{1500, 100000} {
		s, _ := benchServer(n)
		h := s.Handler()
		req := httptest.NewRequest("GET", "/v1/samples?family=mirai&limit=100", nil)
		b.Run(fmt.Sprintf("n=%d/cold", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.mu.Lock()
				s.cache = map[string][]byte{}
				s.mu.Unlock()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/warm", n), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Fatalf("status %d", w.Code)
					}
				}
			})
		})
	}
}
