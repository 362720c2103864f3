package main

import "testing"

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}
	cases := []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"the same runs", base, true, "same"},
		{"slower by more than the bound", scaled(base, 1.2), true, "worse"},
		{"slower within the bound", scaled(base, 1.05), true, "same"},
		{"faster in every pair", scaled(base, 0.8), true, "better"},
		{"more throughput in every pair", scaled(base, 1.2), false, "better"},
		{"less throughput", scaled(base, 0.8), false, "worse"},
		{"spread wider than the bound", []float64{5, 15, 8, 12, 10, 20, 6, 14, 9, 11}, true, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(base, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCountsOnlyUntracedCorrectRuns(t *testing.T) {
	spec := benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	rec := func(trace int, correct bool, v float64) ledgerRecord {
		return ledgerRecord{Workload: "w", Trace: trace, Result: result{
			Correct: correct, Metrics: map[string]metric{"read_p50_ms": {v, "ms"}},
		}}
	}
	a := []ledgerRecord{rec(0, true, 1), rec(0, true, 1.01), rec(1, true, 50)}
	b := []ledgerRecord{rec(0, true, 1.005), rec(0, false, 99), rec(0, true, 0.995)}
	rows := compareLedgers(spec, a, b)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	if r := rows[0]; r.A.N != 2 || r.B.N != 2 || r.Verdict != "same" {
		t.Errorf("row = %+v, want 2 runs a side judged the same", r)
	}
}
