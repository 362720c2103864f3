// Package obs is the deterministic observability layer of the MalNet
// reproduction. It splits telemetry into two strictly separated
// planes:
//
//   - The deterministic plane — counters, gauges, fixed-bucket
//     histograms (Registry), virtual-time trace spans and events
//     (Span, Event, Recorder) and the JSONL run journal (Journal).
//     Everything here is a pure function of (seed, feed): metric
//     snapshots and journals are byte-identical at any worker count.
//     Like simclock, these types are single-goroutine-owned and
//     unsynchronized; ownership moves between goroutines only across
//     happens-before edges (the executor's per-sample done channels).
//
//   - The wall-clock plane — per-stage wall timings and live gauges
//     (Wall), published via expvar and served with net/http/pprof by
//     ServeDebug. This plane is mutex-protected, nondeterministic by
//     nature (queue depth, busy time, samples/sec), and never feeds
//     back into the deterministic snapshot.
//
// Every type is nil-receiver safe so instrumented code needs no
// conditionals: a nil *Counter, *Gauge, *Histogram, *Span, *Event,
// *Recorder, *Journal or *Wall absorbs writes as no-ops.
package obs

import (
	"io"
	"time"
)

// Observer bundles the three telemetry sinks a study run uses: the
// deterministic root recorder (merged per-sample registries + study
// totals), the wall-clock profile, and an optional trace journal.
type Observer struct {
	Root    *Recorder
	Wall    *Wall
	Journal *Journal
}

// NewObserver returns an Observer with a fresh root recorder and
// wall profile and no journal (spans and events are then dropped at
// the source, costing nothing).
func NewObserver() *Observer {
	return &Observer{Root: NewRecorder(), Wall: NewWall()}
}

// SetJournal directs the run journal at w and arms event recording
// on the root recorder. Callers own w's lifetime; Flush before
// closing it.
func (o *Observer) SetJournal(w io.Writer) {
	o.Journal = NewJournal(w)
	o.Root.EnableEvents(true)
}

// Flush flushes the journal, if any.
func (o *Observer) Flush() error {
	if o == nil {
		return nil
	}
	return o.Journal.Flush()
}

// Now is the blessed wall-clock read for instrumented packages.
// Deterministic pipeline code must not call time.Now directly
// (tools/vettime enforces this); routing the reads through obs keeps
// the exception list to one package and makes wall-time usage
// greppable.
func Now() time.Time { return time.Now() }
