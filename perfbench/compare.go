package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spread is a set of runs' quartiles.
type spread struct {
	Q1, Median, Q3 float64
	N              int
}

// comparison is one (workload, metric) row of a compare.
type comparison struct {
	Workload, Metric, Unit string
	A, B                   spread
	Delta                  float64 // B's median relative to A's
	Verdict                string
}

// compareMain reads two ledgers — A, the baseline, and B — and prints,
// for every (workload, end-to-end metric) pair both hold untraced,
// correct runs of, each side's quartiles, B's change and a verdict
// against the metric's bound in BENCHMARK.json.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "perfbench compare: want two ledgers, A (the baseline) and B")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	var a, bl []ledgerRecord
	if err == nil {
		a, err = readLedger(fs.Arg(0))
	}
	if err == nil {
		bl, err = readLedger(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-13s %-13s %-5s %10s %10s %10s %10s %10s %10s %8s  %s\n",
		"workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "delta", "verdict")
	for _, c := range compareLedgers(spec, a, bl) {
		fmt.Fprintf(stdout, "%-13s %-13s %-5s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%%  %s (runs %d, %d)\n",
			c.Workload, c.Metric, c.Unit, c.A.Q1, c.A.Median, c.A.Q3, c.B.Q1, c.B.Median, c.B.Q3,
			100*c.Delta, c.Verdict, c.A.N, c.B.N)
	}
	return 0
}

func readLedger(path string) ([]ledgerRecord, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var recs []ledgerRecord
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var r ledgerRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareLedgers(spec benchSpec, a, b []ledgerRecord) []comparison {
	values := func(recs []ledgerRecord, workload, name string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 && r.Result.Correct {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var rows []comparison
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, v := verdict(va, vb, m.Better == "lower", m.Bound)
			rows = append(rows, comparison{w.Name, m.Name, m.Unit, summarizeRuns(va), summarizeRuns(vb), delta, v})
		}
	}
	return rows
}

func summarizeRuns(xs []float64) spread {
	q1, med, q3 := quartiles(xs)
	return spread{q1, med, q3, len(xs)}
}

// verdict judges B against A on one metric. A spread (quartile distance
// over median) wider than the bound on either side leaves the pair
// unresolved, unless every run of one side beats every run of the
// other. Otherwise B is worse when its median is worse than A's by
// more than the bound, better when its median is better by more than
// A's spread and it wins at least nine in ten of the (a, b) pairs
// (ties count for neither), and the same otherwise.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (delta float64, v string) {
	sa, sb := summarizeRuns(a), summarizeRuns(b)
	delta = (sb.Median - sa.Median) / sa.Median
	gain := delta
	if lowerIsBetter {
		gain = -delta
	}
	widthA := (sa.Q3 - sa.Q1) / sa.Median
	widthB := (sb.Q3 - sb.Q1) / sb.Median
	wins, losses := pairs(a, b, lowerIsBetter)
	all := len(a) * len(b)
	switch {
	case max(widthA, widthB) > bound:
		if wins == all {
			return delta, "better"
		}
		if losses == all {
			return delta, "worse"
		}
		return delta, "unresolved"
	case gain < -bound:
		return delta, "worse"
	case gain > widthA && float64(wins) >= 0.9*float64(all):
		return delta, "better"
	}
	return delta, "same"
}

// pairs counts the (a, b) pairs in which b is better, and those in
// which it is worse.
func pairs(a, b []float64, lowerIsBetter bool) (wins, losses int) {
	for _, x := range a {
		for _, y := range b {
			better, worse := y < x, y > x
			if !lowerIsBetter {
				better, worse = worse, better
			}
			if better {
				wins++
			} else if worse {
				losses++
			}
		}
	}
	return wins, losses
}
