package redplane

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"malnet/internal/obs"
)

// WritePrometheus renders the plane's RED metrics in Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, then
// one sample per line, endpoints and label values in sorted order so
// identical states render byte-identically. Durations are exposed in
// seconds (the Prometheus base unit); the underlying histograms count
// nanoseconds, converted at the edge.
func (p *Plane) WritePrometheus(w io.Writer) error {
	if p == nil {
		return nil
	}
	eps, gens, swaps := p.snapshot()
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP %s_requests_total Requests served, by endpoint and status class.\n", prefix)
	fmt.Fprintf(&b, "# TYPE %s_requests_total counter\n", prefix)
	for _, ep := range eps {
		for _, class := range obs.SortedKeys(ep.byClass) {
			fmt.Fprintf(&b, "%s_requests_total{endpoint=%q,code=%q} %d\n", prefix, ep.endpoint, class, ep.byClass[class])
		}
	}

	fmt.Fprintf(&b, "# HELP %s_request_duration_seconds Request latency, by endpoint.\n", prefix)
	fmt.Fprintf(&b, "# TYPE %s_request_duration_seconds histogram\n", prefix)
	for _, ep := range eps {
		cum := int64(0)
		for i, bound := range ep.bounds {
			cum += ep.buckets[i]
			fmt.Fprintf(&b, "%s_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				prefix, ep.endpoint, obs.FormatSeconds(bound), cum)
		}
		fmt.Fprintf(&b, "%s_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", prefix, ep.endpoint, ep.count)
		fmt.Fprintf(&b, "%s_request_duration_seconds_sum{endpoint=%q} %s\n", prefix, ep.endpoint, obs.FormatSeconds(ep.sum))
		fmt.Fprintf(&b, "%s_request_duration_seconds_count{endpoint=%q} %d\n", prefix, ep.endpoint, ep.count)
	}

	fmt.Fprintf(&b, "# HELP %s_cache_outcomes_total Response-cache outcomes, by endpoint.\n", prefix)
	fmt.Fprintf(&b, "# TYPE %s_cache_outcomes_total counter\n", prefix)
	for _, ep := range eps {
		for _, outcome := range obs.SortedKeys(ep.cache) {
			fmt.Fprintf(&b, "%s_cache_outcomes_total{endpoint=%q,outcome=%q} %d\n", prefix, ep.endpoint, outcome, ep.cache[outcome])
		}
	}

	fmt.Fprintf(&b, "# HELP %s_rows_scanned_total Store rows touched computing responses, by endpoint.\n", prefix)
	fmt.Fprintf(&b, "# TYPE %s_rows_scanned_total counter\n", prefix)
	for _, ep := range eps {
		fmt.Fprintf(&b, "%s_rows_scanned_total{endpoint=%q} %d\n", prefix, ep.endpoint, ep.rows)
	}

	fmt.Fprintf(&b, "# HELP %s_response_bytes_total Response body bytes written, by endpoint.\n", prefix)
	fmt.Fprintf(&b, "# TYPE %s_response_bytes_total counter\n", prefix)
	for _, ep := range eps {
		fmt.Fprintf(&b, "%s_response_bytes_total{endpoint=%q} %d\n", prefix, ep.endpoint, ep.bytes)
	}

	fmt.Fprintf(&b, "# HELP %s_generation_requests_total Requests answered per store generation (last %d generations retained).\n", prefix, maxGenerations)
	fmt.Fprintf(&b, "# TYPE %s_generation_requests_total counter\n", prefix)
	for _, g := range gens {
		// A generation with no run name (a run-less lake commit, or
		// a store built outside a lake) gets no run label rather
		// than an empty one.
		if g.run == "" {
			fmt.Fprintf(&b, "%s_generation_requests_total{generation=%q} %d\n", prefix, g.gen, g.n)
		} else {
			fmt.Fprintf(&b, "%s_generation_requests_total{generation=%q,run=%q} %d\n", prefix, g.gen, g.run, g.n)
		}
	}

	fmt.Fprintf(&b, "# HELP %s_store_swaps_total Hot swaps of the serving store.\n", prefix)
	fmt.Fprintf(&b, "# TYPE %s_store_swaps_total counter\n", prefix)
	fmt.Fprintf(&b, "%s_store_swaps_total %d\n", prefix, swaps)

	_, err := io.WriteString(w, b.String())
	return err
}

// Mount registers the plane's own handler on a debug mux:
// /debug/slowlog, the slow-query ring as JSON. Pass the plane to
// obs.ServeDebug, which mounts it and renders WritePrometheus into
// the /metrics page.
func (p *Plane) Mount(mux *http.ServeMux) {
	if p == nil {
		return
	}
	mux.HandleFunc("GET /debug/slowlog", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		p.slow.writeJSON(w)
	})
}
