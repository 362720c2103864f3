package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func at(h int) time.Time { return time.Date(2021, 5, 20, h, 0, 0, 0, time.UTC) }

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := r.ReadCounter("x"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent")
	}
	r.Gauge("g").Set(7)
	if got := r.ReadGauge("g"); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	h := r.Histogram("h", []int64{10, 100})
	h.Observe(3)
	h.Observe(10) // inclusive upper bound
	h.Observe(50)
	h.Observe(1000)
	if n, sum := r.ReadHistogram("h"); n != 4 || sum != 1063 {
		t.Fatalf("histogram count=%d sum=%d, want 4/1063", n, sum)
	}
	snap := r.Snapshot()
	if !strings.Contains(snap, "histogram h count=4 sum=1063 le10=2 le100=1 inf=1") {
		t.Fatalf("snapshot buckets wrong:\n%s", snap)
	}
}

func TestNilSafety(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		s *Span
		e *Event
		r *Recorder
		j *Journal
		w *Wall
	)
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	s.SetAttr("k", 1)
	s.Finish(at(0))
	if s.Child("x", at(0)) != nil {
		t.Fatal("nil span Child != nil")
	}
	e.SetAttr("k", 1)
	r.Counter("x").Inc()
	r.EnableEvents(true)
	if r.Event("x", at(0)) != nil {
		t.Fatal("nil recorder Event != nil")
	}
	r.Merge(NewRecorder())
	if j.EmitSpan(0, NewSpan("x", at(0))) != 0 {
		t.Fatal("nil journal EmitSpan != 0")
	}
	j.EmitEvent(0, &Event{})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Timer("x")()
	w.Add("x", time.Second)
	w.SetGauge("x", func() int64 { return 0 })
	if w.Snapshot() != nil {
		t.Fatal("nil wall Snapshot != nil")
	}
	var page strings.Builder
	if err := w.WritePrometheus(&page); err != nil || page.Len() != 0 {
		t.Fatalf("nil wall rendered %q, %v", page.String(), err)
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.ReadCounter("x") != 0 || reg.Snapshot() != "" {
		t.Fatal("nil registry not inert")
	}
	reg.Merge(NewRegistry())
}

func TestMergeCommutativeAndPrefixed(t *testing.T) {
	mk := func() (*Registry, *Registry) {
		a, b := NewRegistry(), NewRegistry()
		a.Counter("c").Add(2)
		b.Counter("c").Add(3)
		a.Histogram("h", []int64{5}).Observe(1)
		b.Histogram("h", []int64{5}).Observe(9)
		b.Gauge("g").Set(4)
		return a, b
	}
	a1, b1 := mk()
	root1 := NewRegistry()
	root1.Merge(a1)
	root1.Merge(b1)
	a2, b2 := mk()
	root2 := NewRegistry()
	root2.Merge(b2)
	root2.Merge(a2)
	if root1.Snapshot() != root2.Snapshot() {
		t.Fatalf("merge not commutative:\n%s\nvs\n%s", root1.Snapshot(), root2.Snapshot())
	}
	if root1.ReadCounter("c") != 5 || root1.ReadGauge("g") != 4 {
		t.Fatalf("merge totals wrong:\n%s", root1.Snapshot())
	}

	pre := NewRegistry()
	pre.MergePrefixed("world.", a1)
	if pre.ReadCounter("world.c") != 2 || pre.ReadCounter("c") != 0 {
		t.Fatalf("prefixed merge wrong:\n%s", pre.Snapshot())
	}
}

func TestRecorderEvents(t *testing.T) {
	r := NewRecorder()
	if ev := r.Event("fault", at(1)); ev != nil {
		t.Fatal("event recorded while disabled")
	}
	r.EnableEvents(true)
	ev := r.Event("fault", at(1))
	ev.SetAttr("src", "10.0.0.1")
	if evs := r.DrainEvents(); len(evs) != 1 || evs[0].Name != "fault" {
		t.Fatalf("drained %v", evs)
	}
	if evs := r.DrainEvents(); len(evs) != 0 {
		t.Fatal("drain not clearing")
	}
}

func TestJournalBytes(t *testing.T) {
	var b strings.Builder
	j := NewJournal(&b)
	sp := NewSpan("sample", at(0))
	sp.SetAttr("sha", "abc")
	st := sp.Child("stage.isolated", at(0))
	st.SetAttr("events", 12)
	st.Finish(at(1))
	sp.Finish(at(2))
	id := j.EmitSpan(0, sp)
	j.EmitEvent(id, &Event{Name: "fault.reset", At: at(1), Attrs: []Attr{{"dst", "x"}}})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"t":"span","id":1,"name":"sample","start":"2021-05-20T00:00:00Z","end":"2021-05-20T02:00:00Z","attrs":{"sha":"abc"}}
{"t":"span","id":2,"parent":1,"name":"stage.isolated","start":"2021-05-20T00:00:00Z","end":"2021-05-20T01:00:00Z","attrs":{"events":12}}
{"t":"event","parent":1,"name":"fault.reset","at":"2021-05-20T01:00:00Z","attrs":{"dst":"x"}}
`
	if b.String() != want {
		t.Fatalf("journal bytes:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestWallConcurrent(t *testing.T) {
	w := NewWall()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				stop := w.Timer("busy")
				stop()
				w.Add("merge", time.Microsecond)
				if err := w.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	w.SetGauge("depth", func() int64 { return 42 })
	w.SetCounter("served", func() int64 { return 800 })
	snap := w.Snapshot()
	stages := snap["stages"].(map[string]any)
	if stages["busy"].(map[string]int64)["count"] != 800 {
		t.Fatalf("busy count: %v", stages)
	}
	if snap["gauges"].(map[string]int64)["depth"] != 42 {
		t.Fatalf("gauge: %v", snap)
	}
	if snap["counters"].(map[string]int64)["served"] != 800 {
		t.Fatalf("counter: %v", snap)
	}
}

func TestHistogramBucketAccessors(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if got := h.Bounds(); len(got) != 2 || got[0] != 10 || got[1] != 100 {
		t.Fatalf("bounds = %v", got)
	}
	if got := h.BucketCounts(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("bucket counts = %v", got)
	}
	var nilH *Histogram
	if nilH.Bounds() != nil || nilH.BucketCounts() != nil {
		t.Fatal("nil histogram exposes buckets")
	}
}
