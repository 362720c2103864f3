// Package serve is the read side of a MalNet study: it loads a
// checkpointed study into an immutable in-memory store and answers
// the daemon's JSON queries with internal/colstore's kernels — every
// filter is a selection bitmap over the store's columns. A Store is
// built once per snapshot generation and never mutated afterwards,
// which is what makes the hot-reload swap safe: in-flight requests
// keep reading the store they resolved at dispatch time while new
// requests see the freshly ingested one.
//
// The package deliberately never reads the wall clock (the repo's
// vettime lint holds it to the same rule as the pipeline); the
// daemon owns the reload ticker and calls Reload itself.
package serve

import (
	"sort"

	"malnet/internal/colstore"
	"malnet/internal/core"
	"malnet/internal/obs"
	"malnet/internal/results"
)

// Store is one snapshot generation, encoded for queries. All fields
// are write-once at build time; every accessor is safe for concurrent
// readers.
type Store struct {
	// Generation is the snapshot file's SHA-256 footer (hex) — the
	// cache key prefix and the client-visible snapshot id.
	Generation string
	// Day is the snapshot's study-day index.
	Day int
	// Run names the lake run that committed this generation; empty
	// for a run-less commit or a store built outside a lake. It
	// labels the red plane's generation counters, never response
	// bodies — a generation answers with the same bytes whichever
	// run name or selector reached it.
	Run string

	samples  []*core.SampleRecord
	exploits []core.ExploitFinding
	ddos     []core.DDoSObservation
	c2s      map[string]*core.C2Record
	// c2Addrs is the sorted C2 index: every endpoint in D-C2s,
	// including those no sample cites.
	c2Addrs []string

	// batch is the sample table's columnar encoding, the scan target
	// of every sample filter; attackType is D-DDOS's one filter
	// column, in D-DDOS order.
	batch      *colstore.Batch
	attackType colstore.DictCol

	headline results.Headlines
	metrics  results.MetricsSection
}

// BuildStore encodes a loaded snapshot for queries. The registry
// carries the snapshot's reconstructed deterministic metrics (may be
// nil: the metrics section then reads all-zero).
func BuildStore(ss *core.StudySnapshot, reg *obs.Registry) *Store {
	ds := ss.Datasets
	s := &Store{
		Generation: ss.Generation,
		Day:        ss.Day,
		samples:    ds.Samples,
		exploits:   ds.Exploits,
		ddos:       ds.DDoS,
		c2s:        ds.C2s,
		c2Addrs:    make([]string, 0, len(ds.C2s)),
		batch:      colstore.Encode(ds.Samples),
		attackType: colstore.NewDictCol(len(ds.DDoS), func(i int) string {
			return ds.DDoS[i].Command.Attack.String()
		}),
		headline: results.HeadlinesFrom(ds),
		metrics:  results.MetricsSectionFrom(reg),
	}
	for a := range s.c2s {
		s.c2Addrs = append(s.c2Addrs, a)
	}
	sort.Strings(s.c2Addrs)
	return s
}

// Batch is the store's columnar sample table, the scan target of
// every sample filter. Like every Store field it is write-once at
// build time.
func (s *Store) Batch() *colstore.Batch { return s.batch }

// SampleQuery is the /v1/samples filter: zero-valued fields don't
// constrain. Day is a study-day index; -1 means any day.
type SampleQuery struct {
	Family string
	Day    int
	C2     string
}

// filter is q as the expression /v1/query would parse from
// `family=="…" and day==… and c2=="…"`; nil when nothing constrains.
func (q SampleQuery) filter() colstore.Expr {
	var f colstore.Expr
	and := func(e colstore.Expr) {
		if f != nil {
			e = &colstore.Logic{Op: "and", X: f, Y: e}
		}
		f = e
	}
	if q.Family != "" {
		and(&colstore.Cmp{Field: "family", Op: "==", Str: q.Family, IsStr: true})
	}
	if q.Day >= 0 {
		and(&colstore.Cmp{Field: "day", Op: "==", Int: int64(q.Day)})
	}
	if q.C2 != "" {
		and(&colstore.Cmp{Field: "c2", Op: "==", Str: q.C2, IsStr: true})
	}
	return f
}

// Samples selects the feed-order rows matching q.
func (s *Store) Samples(q SampleQuery) *colstore.Bitmap {
	return s.plan(&colstore.Query{Filter: q.filter()}).Select()
}

// plan compiles a query this package built. Its fields and literal
// types are fixed by the code that builds it, so Compile cannot
// reject it.
func (s *Store) plan(q *colstore.Query) *colstore.Plan {
	p, err := s.batch.Compile(q)
	if err != nil {
		panic("serve: internal query rejected: " + err.Error())
	}
	return p
}

// Sample returns the record at feed position i.
func (s *Store) Sample(i int) *core.SampleRecord { return s.samples[i] }

// NumSamples is the store's D-Samples size.
func (s *Store) NumSamples() int { return len(s.samples) }

// C2 returns the record for addr (nil when unknown) together with the
// selection of the samples that cite it.
func (s *Store) C2(addr string) (*core.C2Record, *colstore.Bitmap) {
	return s.c2s[addr], s.Samples(SampleQuery{Day: -1, C2: addr})
}

// C2Addresses lists every known endpoint, sorted. The returned slice
// is the store's own — callers must not mutate it.
func (s *Store) C2Addresses() []string { return s.c2Addrs }

// Attacks selects the D-DDOS rows of an attack type, or every row
// when typ is empty. ok is false when no row has the type.
func (s *Store) Attacks(typ string) (sel *colstore.Bitmap, ok bool) {
	if typ == "" {
		sel = colstore.NewBitmap(len(s.ddos))
		sel.SetAll()
		return sel, true
	}
	return s.attackType.Eq(typ)
}

// Attack returns the observation at D-DDOS position i.
func (s *Store) Attack(i int) core.DDoSObservation { return s.ddos[i] }

// AttackTypes lists the attack types present, sorted.
func (s *Store) AttackTypes() []string { return s.attackType.Dict.Sorted() }

// FamilyCounts is `| count() by family`: each present family's
// D-Samples row count, sorted by family.
func (s *Store) FamilyCounts() []colstore.ResultRow {
	return s.plan(&colstore.Query{Agg: colstore.Agg{Fn: "count", By: "family"}}).Run().Rows
}

// Headline is the snapshot's precomputed headline findings.
func (s *Store) Headline() results.Headlines { return s.headline }

// Metrics is the snapshot's precomputed metrics section.
func (s *Store) Metrics() results.MetricsSection { return s.metrics }

// Sizes reports the four dataset sizes (the /v1/headline banner).
func (s *Store) Sizes() (samples, c2s, exploits, ddos int) {
	return len(s.samples), len(s.c2s), len(s.exploits), len(s.ddos)
}
