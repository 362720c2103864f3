package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"malnet/internal/core"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// oracleLimit is the page size the oracle walks with: small, so most
// filters span several pages and every cursor step is checked.
const oracleLimit = 3

// TestServeRowScanOracle pins the point endpoints to a naive walk of
// the snapshot's records: every /v1/samples filter a client can name
// (each family, each day with samples and one without, each C2
// address, and each sample's own family/day/c2 combinations), every
// /v1/c2/{addr}, /v1/attacks unfiltered and per type, and the
// /v1/families counts. Totals, every page reached through the
// cursor, and the records on it, in order, must match the walk.
func TestServeRowScanOracle(t *testing.T) {
	srv, err := New(checkpointDir(t, 1), obs.NewWall())
	if err != nil {
		t.Fatal(err)
	}
	ss, _, err := core.OpenSnapshotAt(srv.lk.ObjectPath(srv.Store().Generation))
	if err != nil {
		t.Fatalf("opening the fixture snapshot: %v", err)
	}
	synth := syntheticSnapshot(300)
	synthSrv := &Server{cache: map[string][]byte{}}
	synthSrv.store.Store(BuildStore(synth, nil))

	for _, tc := range []struct {
		name string
		ds   core.CheckpointDatasets
		h    http.Handler
	}{
		{"fixture", ss.Datasets, srv.Handler()},
		{"synthetic", synth.Datasets, synthSrv.Handler()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := &rowOracle{t: t, h: tc.h, ds: tc.ds}
			o.checkSamples()
			o.checkC2s()
			o.checkAttacks()
			o.checkFamilies()
		})
	}
}

// rowOracle answers every filter by walking the records one by one,
// the way the endpoints were specified, and diffs the daemon's pages
// against that.
type rowOracle struct {
	t  *testing.T
	h  http.Handler
	ds core.CheckpointDatasets
}

// oracleDay is a sample's study day, derived from the record's
// timestamp independently of any store.
func oracleDay(rec *core.SampleRecord) int {
	return int(rec.Date.Sub(world.StudyStart()).Hours() / 24)
}

func cites(rec *core.SampleRecord, addr string) bool {
	for _, c := range rec.C2s {
		if c.Address == addr {
			return true
		}
	}
	return false
}

func (o *rowOracle) get(path string) []byte {
	o.t.Helper()
	w := httptest.NewRecorder()
	o.h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusOK {
		o.t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// oraclePage is one page of /v1/samples or /v1/attacks, with the list
// fields kept raw so an empty list must literally be [].
type oraclePage struct {
	Total      int             `json:"total"`
	Count      int             `json:"count"`
	NextCursor *int            `json:"next_cursor"`
	Samples    json.RawMessage `json:"samples"`
	Types      json.RawMessage `json:"types"`
	Attacks    json.RawMessage `json:"attacks"`
}

// walk pages through base (a path with its filter query) and returns
// each page's list field, checking the envelope of every page against
// the expected total.
func (o *rowOracle) walk(base string, want int, list func(p *oraclePage) json.RawMessage) []json.RawMessage {
	o.t.Helper()
	sep := "&"
	if strings.HasSuffix(base, "?") {
		sep = ""
	}
	var items []json.RawMessage
	cursor := 0
	for {
		path := fmt.Sprintf("%s%slimit=%d&cursor=%d", base, sep, oracleLimit, cursor)
		var p oraclePage
		if err := json.Unmarshal(o.get(path), &p); err != nil {
			o.t.Fatalf("GET %s: decoding: %v", path, err)
		}
		wantCount := min(oracleLimit, max(0, want-cursor))
		if p.Total != want || p.Count != wantCount {
			o.t.Fatalf("GET %s: total %d count %d, want %d and %d", path, p.Total, p.Count, want, wantCount)
		}
		var page []json.RawMessage
		if err := json.Unmarshal(list(&p), &page); err != nil || page == nil {
			o.t.Fatalf("GET %s: list field %s is not a JSON array (err %v)", path, list(&p), err)
		}
		if len(page) != p.Count {
			o.t.Fatalf("GET %s: count %d but %d items", path, p.Count, len(page))
		}
		items = append(items, page...)
		if next := cursor + p.Count; next < want {
			if p.NextCursor == nil || *p.NextCursor != next {
				o.t.Fatalf("GET %s: next_cursor %v, want %d", path, p.NextCursor, next)
			}
			cursor = next
			continue
		}
		if p.NextCursor != nil {
			o.t.Fatalf("GET %s: next_cursor %d past the end (total %d)", path, *p.NextCursor, want)
		}
		return items
	}
}

// sampleFilter is one /v1/samples query: zero values don't constrain,
// day -1 means any day.
type sampleFilter struct {
	family string
	day    int
	c2     string
}

func (f sampleFilter) query() string {
	v := url.Values{}
	if f.family != "" {
		v.Set("family", f.family)
	}
	if f.day >= 0 {
		v.Set("day", fmt.Sprint(f.day))
	}
	if f.c2 != "" {
		v.Set("c2", f.c2)
	}
	return "/v1/samples?" + v.Encode()
}

func (f sampleFilter) match(rec *core.SampleRecord) bool {
	return (f.family == "" || rec.Family == f.family) &&
		(f.day < 0 || oracleDay(rec) == f.day) &&
		(f.c2 == "" || cites(rec, f.c2))
}

func (o *rowOracle) checkSamples() {
	filters := []sampleFilter{{day: -1}}
	seen := map[sampleFilter]bool{}
	add := func(f sampleFilter) {
		if !seen[f] {
			seen[f] = true
			filters = append(filters, f)
		}
	}
	days := map[int]bool{}
	for _, rec := range o.ds.Samples {
		fam, day := rec.Family, oracleDay(rec)
		days[day] = true
		add(sampleFilter{family: fam, day: -1})
		add(sampleFilter{day: day})
		add(sampleFilter{family: fam, day: day})
		for _, c := range rec.C2s {
			add(sampleFilter{day: -1, c2: c.Address})
			add(sampleFilter{family: fam, day: -1, c2: c.Address})
			add(sampleFilter{day: day, c2: c.Address})
			add(sampleFilter{family: fam, day: day, c2: c.Address})
		}
	}
	empty := 0
	for days[empty] {
		empty++
	}
	add(sampleFilter{day: empty})
	o.t.Logf("%d samples, %d /v1/samples filters", len(o.ds.Samples), len(filters))

	for _, f := range filters {
		var want []string
		for _, rec := range o.ds.Samples {
			if f.match(rec) {
				want = append(want, rec.SHA)
			}
		}
		if f.day == empty && len(want) != 0 {
			o.t.Fatalf("day %d was picked as sample-free but holds %d samples", empty, len(want))
		}
		items := o.walk(f.query(), len(want), func(p *oraclePage) json.RawMessage { return p.Samples })
		for i, raw := range items {
			var rec struct{ SHA string }
			if err := json.Unmarshal(raw, &rec); err != nil {
				o.t.Fatal(err)
			}
			if rec.SHA != want[i] {
				o.t.Fatalf("GET %s: row %d is %s, want %s", f.query(), i, rec.SHA, want[i])
			}
		}
	}
}

func (o *rowOracle) checkC2s() {
	if len(o.ds.C2s) == 0 {
		o.t.Fatal("snapshot has no C2 endpoints")
	}
	for addr := range o.ds.C2s {
		want := []string{}
		for _, rec := range o.ds.Samples {
			if cites(rec, addr) {
				want = append(want, rec.SHA)
			}
		}
		path := "/v1/c2/" + url.PathEscape(addr)
		var got struct {
			Record struct{ Address string } `json:"record"`
			SHAs   json.RawMessage          `json:"sample_shas"`
		}
		if err := json.Unmarshal(o.get(path), &got); err != nil {
			o.t.Fatalf("GET %s: decoding: %v", path, err)
		}
		wantSHAs, _ := json.Marshal(want)
		if got.Record.Address != addr || !bytes.Equal(got.SHAs, wantSHAs) {
			o.t.Fatalf("GET %s: record %q, sample_shas %s; want %q, %s", path, got.Record.Address, got.SHAs, addr, wantSHAs)
		}
	}
}

func (o *rowOracle) checkAttacks() {
	typeSet := map[string]bool{}
	for _, a := range o.ds.DDoS {
		typeSet[a.Command.Attack.String()] = true
	}
	types := []string{}
	for typ := range typeSet {
		types = append(types, typ)
	}
	sort.Strings(types)
	wantTypes, _ := json.Marshal(types)
	o.t.Logf("%d attacks of %d types, %d C2 endpoints", len(o.ds.DDoS), len(types), len(o.ds.C2s))

	for _, typ := range append([]string{""}, types...) {
		var want [][]byte
		for _, a := range o.ds.DDoS {
			if typ == "" || a.Command.Attack.String() == typ {
				b, err := json.Marshal(a)
				if err != nil {
					o.t.Fatal(err)
				}
				want = append(want, b)
			}
		}
		base := "/v1/attacks?" + url.Values{"type": {typ}}.Encode()
		if typ == "" {
			base = "/v1/attacks?"
		}
		items := o.walk(base, len(want), func(p *oraclePage) json.RawMessage {
			if !bytes.Equal(p.Types, wantTypes) {
				o.t.Fatalf("GET %s: types %s, want %s", base, p.Types, wantTypes)
			}
			return p.Attacks
		})
		for i, raw := range items {
			if !bytes.Equal(raw, want[i]) {
				o.t.Fatalf("GET %s: row %d is %s, want %s", base, i, raw, want[i])
			}
		}
	}
}

func (o *rowOracle) checkFamilies() {
	want := map[string]int{}
	for _, rec := range o.ds.Samples {
		want[rec.Family]++
	}
	var got struct {
		Families []struct {
			Family  string `json:"family"`
			Samples int    `json:"samples"`
		} `json:"families"`
	}
	if err := json.Unmarshal(o.get("/v1/families"), &got); err != nil {
		o.t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, f := range got.Families {
		listed[f.Family] = true
		if f.Samples != want[f.Family] {
			o.t.Fatalf("/v1/families: %s has %d samples, want %d", f.Family, f.Samples, want[f.Family])
		}
	}
	for fam := range want {
		if !listed[fam] {
			o.t.Fatalf("/v1/families omits family %q, which has %d samples", fam, want[fam])
		}
	}
}
