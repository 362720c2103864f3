package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"malnet/internal/checkpoint"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
)

// lakeFixture is one worker count's lakes: a study killed mid-run
// and resumed to completion, with both checkpoints committed to
// branch "main" of lakeDir — two generations of one run — and each
// also committed alone into a one-commit lake of its own, the
// reference the equivalence diff serves directly.
type lakeFixture struct {
	lakeDir   string
	midLake   string
	finalLake string
	midDay    int
	finalDay  int
	// midObject and finalObject are the two generations' objects in
	// lakeDir.
	midObject   string
	finalObject string
}

var (
	lakeFixtures = map[int]*lakeFixture{}
)

// buildLakeFixture runs the killed+resumed study for one worker count
// and commits both generations. Cached per worker count for the test
// binary's lifetime (study runs dominate this package's runtime).
func buildLakeFixture(t *testing.T, workers int) *lakeFixture {
	t.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := lakeFixtures[workers]; ok {
		return f
	}
	base := filepath.Join(fixtureBase, fmt.Sprintf("lake-w%d", workers))
	study := filepath.Join(base, "study")
	f := &lakeFixture{
		lakeDir:   filepath.Join(base, "lake"),
		midLake:   filepath.Join(base, "mid"),
		finalLake: filepath.Join(base, "final"),
	}

	runStudy(t, study, workers, 90, false)
	mid, midObject := commitLatest(t, study, f.lakeDir, f.midLake)
	f.midDay, f.midObject = mid.Day, midObject

	runStudy(t, study, workers, -1, true)
	final, finalObject := commitLatest(t, study, f.lakeDir, f.finalLake)
	if final.Day <= f.midDay {
		t.Fatalf("final checkpoint day %d not past mid day %d", final.Day, f.midDay)
	}
	f.finalDay, f.finalObject = final.Day, finalObject
	lakeFixtures[workers] = f
	return f
}

// TestServeTimeTravelEquivalence is the lake's serving contract: a
// run=/asof= selector answers with bytes identical to a daemon
// serving a one-commit lake of that checkpoint, and — like every
// serving path — identical across worker counts 1, 2, and 8.
func TestServeTimeTravelEquivalence(t *testing.T) {
	paths := []string{
		"/v1/headline",
		"/v1/metrics",
		"/v1/samples?limit=7",
		"/v1/c2?limit=500",
		"/v1/attacks?limit=500",
		"/v1/query?q=" + url.QueryEscape(`| count() by family`),
	}
	sel := func(p, extra string) string {
		if strings.Contains(p, "?") {
			return p + "&" + extra
		}
		return p + "?" + extra
	}
	var want map[string][]byte
	for _, workers := range []int{1, 2, 8} {
		f := buildLakeFixture(t, workers)
		lsrv, err := New(f.lakeDir, obs.NewWall())
		if err != nil {
			t.Fatalf("workers=%d: mounting lake: %v", workers, err)
		}
		lts := httptest.NewServer(lsrv.Handler())
		midSrv, err := New(f.midLake, obs.NewWall())
		if err != nil {
			t.Fatalf("workers=%d: serving the mid lake: %v", workers, err)
		}
		mts := httptest.NewServer(midSrv.Handler())
		finalSrv, err := New(f.finalLake, obs.NewWall())
		if err != nil {
			t.Fatalf("workers=%d: serving the final lake: %v", workers, err)
		}
		fts := httptest.NewServer(finalSrv.Handler())

		got := map[string][]byte{}
		for _, p := range paths {
			// Head of the branch == the final checkpoint, three ways:
			// bare, by run name, by branch name.
			_, direct := get(t, fts, p)
			for _, q := range []string{p,
				sel(p, "run=main"),
				sel(p, fmt.Sprintf("run=seed-%d", fixtureSeed)),
			} {
				if _, body := get(t, lts, q); !bytes.Equal(body, direct) {
					t.Fatalf("workers=%d: GET %s differs from direct serving:\n%s\nvs\n%s", workers, q, body, direct)
				}
			}
			// Time travel to the mid-study day — exact day and a day
			// between the two commits both resolve to the mid
			// generation.
			_, directMid := get(t, mts, p)
			for _, asof := range []int{f.midDay, f.midDay + 1} {
				q := sel(p, fmt.Sprintf("asof=%d", asof))
				if _, body := get(t, lts, q); !bytes.Equal(body, directMid) {
					t.Fatalf("workers=%d: GET %s differs from direct mid serving:\n%s\nvs\n%s", workers, q, body, directMid)
				}
			}
			got[p] = direct
		}
		lts.Close()
		mts.Close()
		fts.Close()
		if want == nil {
			want = got
			continue
		}
		for _, p := range paths {
			if !bytes.Equal(got[p], want[p]) {
				t.Fatalf("workers=%d: GET %s differs from workers=1", workers, p)
			}
		}
	}
}

// TestServeLakeSelectorsAndErrors covers the selector edges: asof
// before the first commit, unknown runs, and the resident-store
// gauge.
func TestServeLakeSelectorsAndErrors(t *testing.T) {
	f := buildLakeFixture(t, 2)
	wall := obs.NewWall()
	srv, err := New(f.lakeDir, wall)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path   string
		status int
	}{
		{"/v1/headline?run=nope", http.StatusNotFound},
		{fmt.Sprintf("/v1/headline?asof=%d", f.midDay-1), http.StatusNotFound},
		{"/v1/headline?asof=-3", http.StatusBadRequest},
		{"/v1/headline?asof=later", http.StatusBadRequest},
	} {
		status, body := get(t, ts, tc.path)
		if status != tc.status {
			t.Fatalf("GET %s: status %d, want %d (%s)", tc.path, status, tc.status, body)
		}
	}

	// A time-travel request leaves its generation resident.
	if status, _ := get(t, ts, fmt.Sprintf("/v1/headline?asof=%d", f.midDay)); status != http.StatusOK {
		t.Fatalf("time-travel request failed with %d", status)
	}
	if g := wallGauges(t, wall); g["serve.resident_stores"] != 1 {
		t.Fatalf("resident_stores %d after one time-travel request, want 1", g["serve.resident_stores"])
	}
}

// TestServeLakeTimeTravelCached: a historical generation's responses
// ride the response cache like the head's — a repeated asof= read is
// one miss, then hits with the same bytes.
func TestServeLakeTimeTravelCached(t *testing.T) {
	f := buildLakeFixture(t, 2)
	srv, err := New(f.lakeDir, obs.NewWall())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path := fmt.Sprintf("/v1/headline?asof=%d", f.midDay)
	var first headlineResp
	getOK(t, ts, path, &first)
	if first.Generation == srv.Store().Generation {
		t.Fatalf("asof=%d resolved the head generation; the fixture needs a historical one", f.midDay)
	}
	_, want := get(t, ts, path)
	for i := 0; i < 2; i++ {
		if _, body := get(t, ts, path); !bytes.Equal(body, want) {
			t.Fatalf("repeat %d of GET %s differs:\n%s\nvs\n%s", i, path, body, want)
		}
	}
	if hits, misses := srv.hits.Load(), srv.misses.Load(); hits != 3 || misses != 1 {
		t.Fatalf("four identical historical reads: %d hits, %d misses; want 3 and 1", hits, misses)
	}
}

// TestServeLakeRunsAndDiff covers the two history endpoints against
// a two-generation branch.
func TestServeLakeRunsAndDiff(t *testing.T) {
	f := buildLakeFixture(t, 2)
	red := redplane.New(redplane.Options{SlowThreshold: -1})
	srv, err := New(f.lakeDir, obs.NewWall(), WithRedPlane(red))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var runs struct {
		ServingBranch string `json:"serving_branch"`
		Branches      []struct {
			Branch         string `json:"branch"`
			Run            string `json:"run"`
			Seed           int64  `json:"seed"`
			HeadDay        int    `json:"head_day"`
			HeadGeneration string `json:"head_generation"`
			Fingerprint    string `json:"fingerprint"`
			Generations    int    `json:"generations"`
			Commits        []struct {
				ID         int64  `json:"id"`
				Day        int    `json:"day"`
				Generation string `json:"generation"`
			} `json:"commits"`
		} `json:"branches"`
	}
	getOK(t, ts, "/v1/runs", &runs)
	if runs.ServingBranch != "main" || len(runs.Branches) != 1 {
		t.Fatalf("/v1/runs: %+v", runs)
	}
	br := runs.Branches[0]
	if br.Branch != "main" || br.Run != fmt.Sprintf("seed-%d", fixtureSeed) || br.Seed != fixtureSeed {
		t.Fatalf("/v1/runs branch identity: %+v", br)
	}
	if br.Generations != 2 || len(br.Commits) != 2 || br.Fingerprint == "" {
		t.Fatalf("/v1/runs generations: %+v", br)
	}
	if br.Commits[0].Day != br.HeadDay || br.Commits[1].Day != f.midDay {
		t.Fatalf("/v1/runs commits not newest-first: %+v", br.Commits)
	}
	if br.HeadGeneration != srv.Store().Generation {
		t.Fatalf("/v1/runs head generation %s, serving %s", br.HeadGeneration, srv.Store().Generation)
	}
	// limit=1 truncates the commit list but not the generation count.
	getOK(t, ts, "/v1/runs?limit=1", &runs)
	if br := runs.Branches[0]; br.Generations != 2 || len(br.Commits) != 1 {
		t.Fatalf("/v1/runs?limit=1: %+v", br)
	}

	var diff struct {
		A struct {
			Day        int    `json:"day"`
			Generation string `json:"generation"`
		} `json:"a"`
		B struct {
			Day        int    `json:"day"`
			Generation string `json:"generation"`
		} `json:"b"`
		Identical bool           `json:"identical"`
		Deltas    map[string]int `json:"dataset_deltas"`
		Changed   []string       `json:"headline_changed"`
	}
	getOK(t, ts, fmt.Sprintf("/v1/diff?a=main@%d&b=main", f.midDay), &diff)
	if diff.Identical || diff.A.Day != f.midDay || diff.B.Day <= f.midDay {
		t.Fatalf("/v1/diff mid-vs-head: %+v", diff)
	}
	if diff.Deltas["samples"] <= 0 {
		t.Fatalf("/v1/diff: head should hold more samples than day %d: %+v", f.midDay, diff.Deltas)
	}

	getOK(t, ts, "/v1/diff?a=main&b=main", &diff)
	if !diff.Identical || diff.A.Generation != diff.B.Generation || len(diff.Changed) != 0 {
		t.Fatalf("/v1/diff self: %+v", diff)
	}
	for k, d := range diff.Deltas {
		if d != 0 {
			t.Fatalf("/v1/diff self: nonzero %s delta %d", k, d)
		}
	}

	for _, tc := range []struct {
		path   string
		status int
	}{
		{"/v1/diff?a=main", http.StatusBadRequest},
		{"/v1/diff?a=main&b=ghost", http.StatusNotFound},
		{"/v1/diff?a=main@x&b=main", http.StatusBadRequest},
		{"/v1/runs?limit=0", http.StatusBadRequest},
		{"/v1/runs?cursor=1", http.StatusBadRequest},
		// Both endpoints read the whole journal: a selector is refused,
		// a bare one too, never ignored.
		{"/v1/runs?limit=1&asof=5", http.StatusBadRequest},
		{"/v1/runs?run=main", http.StatusBadRequest},
		{"/v1/runs?run", http.StatusBadRequest},
		{"/v1/diff?a=main@5&b=main&run=nope", http.StatusBadRequest},
		{"/v1/diff?a=main&b=main&asof", http.StatusBadRequest},
	} {
		status, body := get(t, ts, tc.path)
		if status != tc.status {
			t.Fatalf("GET %s: status %d, want %d (%s)", tc.path, status, tc.status, body)
		}
	}

	// The generation counters carry the commit's run label.
	if status, _ := get(t, ts, "/v1/headline"); status != http.StatusOK {
		t.Fatal("headline request failed")
	}
	var prom bytes.Buffer
	if err := red.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	wantLabel := fmt.Sprintf("generation_requests_total{generation=%q,run=%q}",
		srv.Store().Generation, fmt.Sprintf("seed-%d", fixtureSeed))
	if !strings.Contains(prom.String(), wantLabel) {
		t.Fatalf("exposition missing per-run generation label %s:\n%s", wantLabel, prom.String())
	}
}

// TestServeLakeReload drives the daemon lifecycle against a lake: a
// commit landing after startup changes nothing any endpoint answers
// until Reload picks it up, and then the new head serves while the
// old generation stays reachable via asof.
func TestServeLakeReload(t *testing.T) {
	f := buildLakeFixture(t, 2)
	// A private lake so the commit below doesn't pollute the shared
	// fixture: re-commit the two fixture generations.
	dir := t.TempDir()
	l, err := lake.Open(filepath.Join(dir, "lake"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CommitFile("main", "r", fixtureSeed, f.midDay, f.midObject); err != nil {
		t.Fatal(err)
	}

	wall := obs.NewWall()
	srv, err := New(filepath.Join(dir, "lake"), wall)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var before headlineResp
	getOK(t, ts, "/v1/headline", &before)
	if before.Day != f.midDay {
		t.Fatalf("lake head day %d, want %d", before.Day, f.midDay)
	}
	if changed, err := srv.Reload(); err != nil || changed {
		t.Fatalf("no-op lake reload: changed=%v err=%v", changed, err)
	}

	if _, err := l.CommitFile("main", "r", fixtureSeed, f.finalDay, f.finalObject); err != nil {
		t.Fatal(err)
	}
	// Until Reload runs, /v1/families answers the mounted generation
	// like every endpoint, and builds no store for the new head.
	var fam headlineResp
	getOK(t, ts, "/v1/families", &fam)
	if fam.Generation != before.Generation || fam.Day != before.Day {
		t.Fatalf("/v1/families before reload: day %d generation %.12s, mounted day %d generation %.12s",
			fam.Day, fam.Generation, before.Day, before.Generation)
	}
	if g := wallGauges(t, wall); g["serve.resident_stores"] != 0 {
		t.Fatalf("resident_stores %d before reload, want 0", g["serve.resident_stores"])
	}
	if changed, err := srv.Reload(); err != nil || !changed {
		t.Fatalf("lake reload after commit: changed=%v err=%v", changed, err)
	}
	var after headlineResp
	getOK(t, ts, "/v1/headline", &after)
	if after.Day != f.finalDay || after.Generation == before.Generation {
		t.Fatalf("reloaded head: day %d generation %.12s (before %.12s)", after.Day, after.Generation, before.Generation)
	}
	// The pre-reload generation is still one asof away.
	var old headlineResp
	getOK(t, ts, fmt.Sprintf("/v1/headline?asof=%d", f.midDay), &old)
	if old.Generation != before.Generation {
		t.Fatalf("old generation unreachable after reload: %.12s vs %.12s", old.Generation, before.Generation)
	}
}

// writeJSONDatasetsCheckpoint writes to dst the checkpoint at src as
// a build before datasets.bin wrote it: the datasets as a JSON
// "datasets" section.
func writeJSONDatasetsCheckpoint(t *testing.T, src, dst string) {
	t.Helper()
	ss, _, err := core.OpenSnapshotAt(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	old := &checkpoint.File{}
	for _, s := range f.Sections {
		if s.Name != "datasets.bin" {
			old.Add(s.Name, s.Data)
		}
	}
	if err := old.AddJSON("datasets", ss.Datasets); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(dst, old); err != nil {
		t.Fatal(err)
	}
}

// TestServeLakeReloadDamagedObject: a branch head whose object is
// damaged on disk never mounts. Reload fails and counts, the mounted
// generation keeps serving, a selector naming the damaged generation
// gets a 500 that names it, and re-committing the same snapshot (a
// deterministic re-run) repairs the object, so the next Reload mounts
// it. A head that an older build wrote, its datasets a JSON section
// rather than datasets.bin, is refused the same way, and a daemon
// will not mount a lake with such a head at all; so is a head whose
// metrics dump does not fit its histogram bounds. The damaged commit is
// made from a private copy of the fixture's object: CommitFile links
// the object to the file it commits, so the in-place damage below
// reaches that file too, and must not reach the shared fixture.
func TestServeLakeReloadDamagedObject(t *testing.T) {
	f := buildLakeFixture(t, 2)
	dir := filepath.Join(t.TempDir(), "lake")
	private := filepath.Join(t.TempDir(), "final.ckpt")
	b, err := os.ReadFile(f.finalObject)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(private, b, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := lake.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CommitFile("main", "r", fixtureSeed, f.midDay, f.midObject); err != nil {
		t.Fatal(err)
	}
	wall := obs.NewWall()
	srv, err := New(dir, wall)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	mounted := srv.Store().Generation

	final, err := l.CommitFile("main", "r", fixtureSeed, f.finalDay, private)
	if err != nil {
		t.Fatal(err)
	}
	obj := l.ObjectPath(final.Snapshot)
	b, err = os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(obj, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if changed, err := srv.Reload(); err == nil || changed {
		t.Fatalf("reload onto a damaged object: changed=%v err=%v", changed, err)
	}
	if got := srv.Store().Generation; got != mounted {
		t.Fatalf("failed reload swapped the store to %.12s, want %.12s kept", got, mounted)
	}
	if status, body := get(t, ts, "/v1/headline"); status != http.StatusOK {
		t.Fatalf("GET /v1/headline after a failed reload: status %d (%s)", status, body)
	}
	if status, body := get(t, ts, "/v1/headline?run=main"); status != http.StatusInternalServerError || !strings.Contains(string(body), final.Snapshot) {
		t.Fatalf("GET /v1/headline?run=main on a damaged head: status %d, want 500 naming %s: %s", status, final.Snapshot, body)
	}
	var prom bytes.Buffer
	if err := wall.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nmalnet_serve_reload_errors_total 1\n") {
		t.Fatalf("/metrics wall section does not count the failed reload:\n%s", prom.String())
	}

	// A head written by an older build, whose datasets are a JSON
	// section, is refused the same way, by name: no reload onto it and
	// no daemon mounting it.
	older := filepath.Join(t.TempDir(), "older.ckpt")
	writeJSONDatasetsCheckpoint(t, f.finalObject, older)
	if _, err := l.CommitFile("main", "r", fixtureSeed, f.finalDay, older); err != nil {
		t.Fatal(err)
	}
	const missing = `section "datasets.bin" missing`
	if changed, err := srv.Reload(); err == nil || changed || !strings.Contains(err.Error(), missing) {
		t.Fatalf("reload onto an older build's object: changed=%v err=%v, want the missing datasets.bin named", changed, err)
	}
	if got := srv.Store().Generation; got != mounted {
		t.Fatalf("failed reload swapped the store to %.12s, want %.12s kept", got, mounted)
	}
	prom.Reset()
	if err := wall.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nmalnet_serve_reload_errors_total 2\n") {
		t.Fatalf("/metrics wall section does not count the second failed reload:\n%s", prom.String())
	}
	if _, err := New(dir, obs.NewWall()); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("mounting a lake whose head an older build wrote: got %v, want the missing datasets.bin named", err)
	}

	if _, err := l.CommitFile("main", "r", fixtureSeed, f.finalDay, f.finalObject); err != nil {
		t.Fatal(err)
	}
	if changed, err := srv.Reload(); err != nil || !changed {
		t.Fatalf("reload after re-committing the snapshot: changed=%v err=%v", changed, err)
	}
	if got := srv.Store().Generation; got != final.Snapshot {
		t.Fatalf("store after repair: %.12s, want %.12s", got, final.Snapshot)
	}
	if _, err := checkpoint.ReadFile(f.finalObject); err != nil {
		t.Fatalf("the fixture's object after the damage and repair: %v", err)
	}

	// A head whose metrics dump holds a histogram with fewer bucket
	// counts than its bounds, sealed with a valid footer, is refused by
	// name too: no daemon mounts it, no reload swaps to it, and a
	// selector naming it answers 500 each time it is asked, so the
	// failed build is not kept.
	crafted, err := checkpoint.ReadFile(f.finalObject)
	if err != nil {
		t.Fatal(err)
	}
	for i := range crafted.Sections {
		if crafted.Sections[i].Name == "metrics" {
			crafted.Sections[i].Data = []byte(`{"hists":{"x":{"bounds":[1,2],"counts":[1]}}}`)
		}
	}
	bad, err := l.Commit("main", "r", fixtureSeed, f.finalDay, checkpoint.Encode(crafted))
	if err != nil {
		t.Fatal(err)
	}
	const badHist = `histogram "x"`
	if _, err := New(dir, obs.NewWall()); err == nil || !strings.Contains(err.Error(), badHist) {
		t.Fatalf("mounting a lake whose head holds a bad histogram: got %v, want %s named", err, badHist)
	}
	if changed, err := srv.Reload(); err == nil || changed || !strings.Contains(err.Error(), badHist) {
		t.Fatalf("reload onto a bad histogram: changed=%v err=%v, want %s named", changed, err, badHist)
	}
	if got := srv.Store().Generation; got != final.Snapshot {
		t.Fatalf("failed reload swapped the store to %.12s, want %.12s kept", got, final.Snapshot)
	}
	prom.Reset()
	if err := wall.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nmalnet_serve_reload_errors_total 3\n") {
		t.Fatalf("/metrics wall section does not count the third failed reload:\n%s", prom.String())
	}
	for i := 0; i < 2; i++ {
		path := fmt.Sprintf("/v1/headline?asof=%d", f.finalDay)
		if status, body := get(t, ts, path); status != http.StatusInternalServerError || !strings.Contains(string(body), bad.Snapshot) {
			t.Fatalf("GET %s (request %d) on a bad histogram: status %d, want 500 naming %s: %s", path, i+1, status, bad.Snapshot, body)
		}
	}
}
