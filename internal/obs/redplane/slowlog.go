package redplane

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SlowEntry is one slow request's full span tree as /debug/slowlog
// serves it: the request's identity and outcome plus every recorded
// stage with offsets from the request start. Entries are immutable
// once recorded — the ring stores value copies, so a concurrent herd
// can never splice one request's stages into another's entry.
type SlowEntry struct {
	ID         string  `json:"id"`
	Endpoint   string  `json:"endpoint"`
	Path       string  `json:"path"`
	Generation string  `json:"generation,omitempty"`
	Start      string  `json:"start"`
	DurNs      int64   `json:"dur_ns"`
	Status     int     `json:"status"`
	Cache      string  `json:"cache,omitempty"`
	Rows       int64   `json:"rows"`
	Bytes      int64   `json:"bytes"`
	Stages     []Stage `json:"stages"`
}

// slowLog is a fixed-capacity ring of the most recent requests whose
// total duration reached the threshold. A ring (rather than a top-N
// heap) keeps the log fresh: the interesting slow queries are the
// ones happening now, and with a meaningful threshold everything
// admitted is already "worst". Snapshot orders slowest-first.
type slowLog struct {
	mu          sync.Mutex
	thresholdNs int64 // -1 disables
	entries     []SlowEntry
	next        int // ring cursor
}

func (l *slowLog) init(threshold time.Duration, cap int) {
	if threshold < 0 {
		l.thresholdNs = -1
		return
	}
	l.thresholdNs = threshold.Nanoseconds()
	l.entries = make([]SlowEntry, 0, cap)
}

// record admits a finished span when it crossed the threshold. The
// span's stage slice is copied: the entry must not alias memory a
// pooled or reused span could touch later.
func (l *slowLog) record(sp *Span, durNs int64) {
	if l.thresholdNs < 0 || durNs < l.thresholdNs {
		return
	}
	e := SlowEntry{
		ID:         sp.id,
		Endpoint:   sp.endpoint,
		Path:       sp.path,
		Generation: sp.generation,
		Start:      sp.start.UTC().Format(time.RFC3339Nano),
		DurNs:      durNs,
		Status:     sp.status,
		Cache:      sp.cache,
		Rows:       sp.rows,
		Bytes:      sp.bytes,
		Stages:     append([]Stage(nil), sp.stages...),
	}
	l.mu.Lock()
	if len(l.entries) < cap(l.entries) {
		l.entries = append(l.entries, e)
	} else if cap(l.entries) > 0 {
		l.entries[l.next] = e
		l.next = (l.next + 1) % cap(l.entries)
	}
	l.mu.Unlock()
}

// Snapshot copies the ring's entries, slowest first.
func (l *slowLog) Snapshot() []SlowEntry {
	l.mu.Lock()
	out := append([]SlowEntry(nil), l.entries...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurNs != out[j].DurNs {
			return out[i].DurNs > out[j].DurNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SlowQueries returns the plane's slow-query entries, slowest first
// (nil when the plane or the log is disabled).
func (p *Plane) SlowQueries() []SlowEntry {
	if p == nil {
		return nil
	}
	return p.slow.Snapshot()
}

// writeJSON renders the /debug/slowlog response body.
func (l *slowLog) writeJSON(w io.Writer) error {
	l.mu.Lock()
	threshold, capacity := l.thresholdNs, cap(l.entries)
	l.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		ThresholdNs int64       `json:"threshold_ns"`
		Capacity    int         `json:"capacity"`
		Entries     []SlowEntry `json:"entries"`
	}{threshold, capacity, l.Snapshot()})
}
