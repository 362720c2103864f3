package obs

import "time"

// Attr is one key/value annotation on a span or event. Attrs keep
// insertion order in memory; the journal serializes them in sorted
// key order so output is deterministic regardless.
type Attr struct {
	Key   string
	Value any
}

// Span is one virtual-time interval in the run's trace: begin/end
// are simclock timestamps, never wall time. Spans form a hierarchy
// (sample → stage → probe) and are emitted to the journal when the
// sample merges, in feed order.
type Span struct {
	Name     string
	Start    time.Time
	End      time.Time
	Attrs    []Attr
	Children []*Span
}

// NewSpan starts a root span at the given virtual time.
func NewSpan(name string, start time.Time) *Span {
	return &Span{Name: name, Start: start}
}

// Child starts a sub-span. A nil parent returns nil, so span trees
// vanish wholesale when tracing is off.
func (s *Span) Child(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: start}
	s.Children = append(s.Children, c)
	return c
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key string, value any) {
	if s != nil {
		s.Attrs = append(s.Attrs, Attr{key, value})
	}
}

// Finish stamps the span's end time.
func (s *Span) Finish(end time.Time) {
	if s != nil {
		s.End = end
	}
}

// Event is one instantaneous virtual-time occurrence (e.g. a fault
// injection), recorded outside any span.
type Event struct {
	Name  string
	At    time.Time
	Attrs []Attr
}

// SetAttr annotates the event.
func (e *Event) SetAttr(key string, value any) {
	if e != nil {
		e.Attrs = append(e.Attrs, Attr{key, value})
	}
}

// Recorder couples a metrics registry with an ordered event buffer.
// Events are only retained when enabled (the study arms them iff a
// journal is configured), so un-journaled runs never accumulate
// event memory. Recorders are single-goroutine-owned, like
// registries; the executor hands per-sample recorders from worker to
// merge goroutine across a done channel.
type Recorder struct {
	reg      *Registry
	events   []*Event
	eventsOn bool
}

// NewRecorder returns a Recorder with a fresh registry and events
// disabled.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry()}
}

// Registry exposes the underlying metrics registry (nil for a nil
// Recorder, which is itself safe to read and merge).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter is shorthand for Registry().Counter.
func (r *Recorder) Counter(name string) *Counter { return r.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge.
func (r *Recorder) Gauge(name string) *Gauge { return r.Registry().Gauge(name) }

// Histogram is shorthand for Registry().Histogram.
func (r *Recorder) Histogram(name string, bounds []int64) *Histogram {
	return r.Registry().Histogram(name, bounds)
}

// EnableEvents turns event retention on or off.
func (r *Recorder) EnableEvents(on bool) {
	if r != nil {
		r.eventsOn = on
	}
}

// EventsEnabled reports whether events are being retained.
func (r *Recorder) EventsEnabled() bool { return r != nil && r.eventsOn }

// Event records an instantaneous occurrence at virtual time at and
// returns it for annotation. Returns nil (a no-op sink) when the
// recorder is nil or events are disabled.
func (r *Recorder) Event(name string, at time.Time) *Event {
	if r == nil || !r.eventsOn {
		return nil
	}
	e := &Event{Name: name, At: at}
	r.events = append(r.events, e)
	return e
}

// DrainEvents returns the buffered events in record order and clears
// the buffer.
func (r *Recorder) DrainEvents() []*Event {
	if r == nil {
		return nil
	}
	evs := r.events
	r.events = nil
	return evs
}

// Merge folds other's registry into r's. Events are not merged —
// they are drained to the journal by whoever owns the feed order.
func (r *Recorder) Merge(other *Recorder) {
	r.Registry().Merge(other.Registry())
}
