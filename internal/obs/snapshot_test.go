package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRegistryExportRestore asserts the checkpoint contract: a
// restored registry snapshots byte-identically to the exported one,
// previously cached metric pointers stay live, and state the dump
// does not carry is zeroed rather than left behind.
func TestRegistryExportRestore(t *testing.T) {
	r := NewRegistry()
	cached := r.Counter("hot.counter") // simulates simnet's cached pointers
	cached.Add(7)
	r.Gauge("g").Set(-3)
	r.Histogram("h", []int64{10, 100}).Observe(42)
	dump := r.Export()
	want := r.Snapshot()

	// Drift past the export: new metrics, changed values.
	cached.Add(100)
	r.Counter("later.counter").Inc()
	r.Gauge("later.gauge").Set(9)
	r.Histogram("h", []int64{10, 100}).Observe(5)
	r.Histogram("later.hist", []int64{1}).Observe(1)

	if err := r.Restore(dump); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); got != want {
		t.Fatalf("restored snapshot diverged:\ngot:\n%swant:\n%s", got, want)
	}
	if cached.Value() != 7 {
		t.Fatalf("cached counter pointer disconnected: %d", cached.Value())
	}
	cached.Inc()
	if r.ReadCounter("hot.counter") != 8 {
		t.Fatal("cached pointer no longer feeds the registry after restore")
	}
}

func TestRegistryExportRestoreRoundTripEmpty(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	if err := r.Restore(NewRegistry().Export()); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); got != "" {
		t.Fatalf("restore from empty dump: %q", got)
	}
}

// TestRegistryRestoreRefusesBadHistogram: a dumped histogram whose
// bucket counts do not fit its bounds, or whose bounds differ from
// those of the registry's histogram of that name, even in value
// alone, is refused with an error naming it, and the registry is left
// as it was.
func TestRegistryRestoreRefusesBadHistogram(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("live", []int64{10, 100}).Observe(42)
	want := r.Snapshot()
	for _, tc := range []struct {
		name string
		hd   HistogramDump
	}{
		{"x", HistogramDump{Bounds: []int64{1, 2}, Counts: []int64{1}}},
		{"live", HistogramDump{Bounds: []int64{10}, Counts: []int64{0, 1}}},
		// The live histogram's bucket count, other bounds.
		{"live", HistogramDump{Bounds: []int64{10, 200}, Counts: []int64{0, 1, 0}}},
	} {
		name, hd := tc.name, tc.hd
		d := MetricsDump{Hists: map[string]HistogramDump{name: hd}}
		if err := r.Restore(d); err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Fatalf("restoring %s %+v: err=%v, want an error naming it", name, hd, err)
		}
		if got := r.Snapshot(); got != want {
			t.Fatalf("a refused restore changed the registry:\ngot:\n%swant:\n%s", got, want)
		}
	}
}

// TestJournalCursorRewind replays the study's resume dance: journal
// some lines, checkpoint the cursor, journal more (the killed run's
// tail), rewind, re-emit — the file must be byte-identical to one
// written straight through.
func TestJournalCursorRewind(t *testing.T) {
	emit := func(j *Journal, names ...string) {
		for _, n := range names {
			s := NewSpan(n, time.Unix(0, 0).UTC())
			s.Finish(time.Unix(1, 0).UTC())
			j.EmitSpan(0, s)
		}
	}

	straight := filepath.Join(t.TempDir(), "straight.jsonl")
	sf, err := os.Create(straight)
	if err != nil {
		t.Fatal(err)
	}
	sj := NewJournal(sf)
	emit(sj, "a", "b", "c", "d")
	if err := sj.Flush(); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	resumed := filepath.Join(t.TempDir(), "resumed.jsonl")
	rf, err := os.Create(resumed)
	if err != nil {
		t.Fatal(err)
	}
	rj := NewJournal(rf)
	emit(rj, "a", "b")
	if err := rj.Flush(); err != nil {
		t.Fatal(err)
	}
	id, bytes := rj.Cursor()
	if id != 2 || bytes == 0 {
		t.Fatalf("cursor after two spans: id=%d bytes=%d", id, bytes)
	}
	emit(rj, "killed-run-tail", "more-tail")
	rj.Flush()
	if err := rj.Rewind(id, bytes); err != nil {
		t.Fatalf("Rewind: %v", err)
	}
	emit(rj, "c", "d")
	if err := rj.Flush(); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	want, _ := os.ReadFile(straight)
	got, _ := os.ReadFile(resumed)
	if string(got) != string(want) {
		t.Fatalf("rewound journal diverged:\ngot:\n%swant:\n%s", got, want)
	}
}

func TestJournalRewindNeedsFile(t *testing.T) {
	var sink struct{ nopWriter }
	j := NewJournal(&sink)
	if err := j.Rewind(0, 0); err == nil {
		t.Fatal("Rewind over a non-file sink did not error")
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
