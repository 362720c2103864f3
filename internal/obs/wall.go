package obs

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Wall collects wall-clock profiling data: cumulative per-stage
// timings and live gauges (queue depth, worker count). Unlike the
// deterministic plane it is mutex-protected — workers report busy
// time concurrently — and its contents are nondeterministic by
// design. Nothing here ever flows into the deterministic snapshot
// or the journal. A nil Wall absorbs all calls.
type Wall struct {
	mu       sync.Mutex
	stages   map[string]wallStage
	gauges   map[string]func() int64
	counters map[string]func() int64
}

type wallStage struct {
	count int64
	nanos int64
}

// NewWall returns an empty wall profile.
func NewWall() *Wall {
	return &Wall{
		stages:   map[string]wallStage{},
		gauges:   map[string]func() int64{},
		counters: map[string]func() int64{},
	}
}

// Timer starts timing one occurrence of stage and returns the stop
// function. Safe for concurrent use.
func (w *Wall) Timer(stage string) func() {
	if w == nil {
		return func() {}
	}
	start := time.Now()
	return func() { w.Add(stage, time.Since(start)) }
}

// Add records one occurrence of stage taking d.
func (w *Wall) Add(stage string, d time.Duration) {
	if w == nil {
		return
	}
	w.mu.Lock()
	s := w.stages[stage]
	s.count++
	s.nanos += int64(d)
	w.stages[stage] = s
	w.mu.Unlock()
}

// SetGauge registers (or replaces) a live gauge read on demand at
// snapshot time. fn must be safe to call from any goroutine.
func (w *Wall) SetGauge(name string, fn func() int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.gauges[name] = fn
	w.mu.Unlock()
}

// SetCounter registers (or replaces) a func-backed monotone counter,
// read on demand at snapshot time. Counters and gauges share the
// namespace of live values but are reported separately: a counter
// only ever goes up (request totals, cache hits), a gauge is a level
// (in-flight requests, queue depth). fn must be safe to call from any
// goroutine.
func (w *Wall) SetCounter(name string, fn func() int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.counters[name] = fn
	w.mu.Unlock()
}

// read copies the stages and evaluates every live value.
func (w *Wall) read() (stages map[string]wallStage, gauges, counters map[string]int64) {
	w.mu.Lock()
	stages = maps.Clone(w.stages)
	gaugeFns, counterFns := maps.Clone(w.gauges), maps.Clone(w.counters)
	w.mu.Unlock()
	// Gauge and counter functions run outside the lock: they may touch
	// other structures (channel lengths) and must not deadlock through
	// us.
	return stages, readLiveValues(gaugeFns), readLiveValues(counterFns)
}

// readLiveValues evaluates each func-backed live value.
func readLiveValues(fns map[string]func() int64) map[string]int64 {
	out := make(map[string]int64, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// Snapshot returns the current profile as a map:
// {"stages": {name: {count, total_ns}}, "gauges": {name: v},
// "counters": {name: v}}.
func (w *Wall) Snapshot() map[string]any {
	if w == nil {
		return nil
	}
	stages, gauges, counters := w.read()
	out := map[string]any{}
	for name, s := range stages {
		out[name] = map[string]int64{"count": s.count, "total_ns": s.nanos}
	}
	return map[string]any{"stages": out, "gauges": gauges, "counters": counters}
}

// WritePrometheus renders the profile in Prometheus text exposition
// format (version 0.0.4), each kind in sorted name order so identical
// states render byte-identically. A name's dots become underscores
// under the malnet_ prefix: a stage is a summary in seconds
// (malnet_<stage>_seconds_sum and _count), a counter is
// malnet_<name>_total and a gauge is malnet_<name>.
func (w *Wall) WritePrometheus(out io.Writer) error {
	if w == nil {
		return nil
	}
	stages, gauges, counters := w.read()
	var b strings.Builder
	for _, name := range SortedKeys(stages) {
		m := promName(name) + "_seconds"
		fmt.Fprintf(&b, "# TYPE %s summary\n%s_sum %s\n%s_count %d\n", m, m, FormatSeconds(stages[name].nanos), m, stages[name].count)
	}
	for _, name := range SortedKeys(counters) {
		m := promName(name) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m, m, counters[name])
	}
	for _, name := range SortedKeys(gauges) {
		m := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", m, m, gauges[name])
	}
	_, err := io.WriteString(out, b.String())
	return err
}

func promName(name string) string {
	return "malnet_" + strings.ReplaceAll(name, ".", "_")
}

// SortedKeys returns m's keys in ascending order, the order every
// /metrics section renders its names in.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatSeconds renders a nanosecond count as decimal seconds without
// exponent notation ('f' format): the Prometheus base unit, in the
// shape bucket bounds conventionally take.
func FormatSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'f', -1, 64)
}
