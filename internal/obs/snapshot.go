package obs

import (
	"fmt"
	"slices"
)

// The checkpoint plane: a Registry can be exported to a plain-data
// dump (stored in a study snapshot) and later restored from one. The
// restore is in-place — existing metric objects are mutated, never
// replaced — because hot paths across the repo cache *Counter
// pointers (simnet's netMetrics, the probing loop's counters); a
// restore that swapped the maps out would silently disconnect them.

// HistogramDump is a Histogram's serializable state.
type HistogramDump struct {
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts"`
	Sum    int64   `json:"sum"`
	N      int64   `json:"n"`
}

// MetricsDump is a Registry's serializable state. Gauges carry only
// set values — an unset gauge is indistinguishable from an absent
// one, which is exactly how WriteSnapshot treats it too.
type MetricsDump struct {
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]int64         `json:"gauges,omitempty"`
	Hists    map[string]HistogramDump `json:"hists,omitempty"`
}

// Export captures the registry's current state as plain data.
func (r *Registry) Export() MetricsDump {
	d := MetricsDump{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistogramDump{},
	}
	if r == nil {
		return d
	}
	for name, c := range r.counters {
		d.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		if g.set {
			d.Gauges[name] = g.v
		}
	}
	for name, h := range r.hists {
		d.Hists[name] = HistogramDump{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			Sum:    h.sum,
			N:      h.n,
		}
	}
	return d
}

// Restore overwrites the registry's state from a dump: metrics in the
// dump are set to their dumped values (mutated in place when they
// already exist, created when missing), metrics present in the
// registry but absent from the dump are deleted. After Restore,
// Snapshot() is byte-identical to the snapshot the dump was exported
// from. A cached pointer to a deleted metric is orphaned — safe only
// because the study restores a dump taken strictly later in the same
// deterministic schedule, so the live registry's metric set is always
// a subset of the dump's.
//
// A dump is bytes from disk: Restore first checks every dumped
// histogram's bounds against those of the registry's histogram of
// that name, if it has one, and its bucket count against its bounds.
// On a mismatch it returns an error naming the histogram and changes
// nothing.
func (r *Registry) Restore(d MetricsDump) error {
	if r == nil {
		return nil
	}
	for name, hd := range d.Hists {
		if h := r.hists[name]; h != nil && !slices.Equal(hd.Bounds, h.bounds) {
			return fmt.Errorf("obs: histogram %q: bounds %v, want %v", name, hd.Bounds, h.bounds)
		}
		if want := len(hd.Bounds) + 1; len(hd.Counts) != want {
			return fmt.Errorf("obs: histogram %q: %d bucket counts, want %d", name, len(hd.Counts), want)
		}
	}
	for name := range r.counters {
		if _, ok := d.Counters[name]; !ok {
			delete(r.counters, name)
		}
	}
	for name, v := range d.Counters {
		r.Counter(name).v = v
	}
	for name := range r.gauges {
		if _, ok := d.Gauges[name]; !ok {
			delete(r.gauges, name)
		}
	}
	for name, v := range d.Gauges {
		r.Gauge(name).Set(v)
	}
	for name := range r.hists {
		if _, ok := d.Hists[name]; !ok {
			delete(r.hists, name)
		}
	}
	for name, hd := range d.Hists {
		h := r.Histogram(name, hd.Bounds)
		copy(h.counts, hd.Counts)
		h.sum, h.n = hd.Sum, hd.N
	}
	return nil
}
