// Command benchjson converts `go test -bench` text output on stdin
// into a stable JSON document on stdout, so CI can archive benchmark
// runs as machine-readable artifacts (see scripts/bench.sh).
//
// It understands the standard benchmark line shape
//
//	BenchmarkName-8   100   11859 ns/op   5122 B/op   72 allocs/op   1447 samples
//
// keeping ns/op, B/op, allocs/op, and any b.ReportMetric extras, plus
// the goos/goarch/cpu header lines as run metadata. When stdin holds
// rows, the document also records the host's CPU count as "nproc" and
// benchjson's Go version as "go_version": run it on the machine, and
// with the toolchain, that ran the benchmarks. Each row keeps the
// package whose "pkg:" header was in effect when it was read, and the
// GOMAXPROCS its name carried ("-8" in the line above) as "procs"; the
// name itself drops the suffix so rows compare across machines. The
// document-level "pkg" is set only when every row shares one package.
//
// -merge FILE (repeatable) folds the result rows of an existing JSON
// document — a previous benchjson run, or a cmd/malnetbench summary,
// whose "results" arrays share this schema — into the output after
// the stdin rows. That is how a load-test run lands next to the Go
// benchmarks in one BENCH_<date>.json:
//
//	benchjson -merge BENCH_2026-08-07.json -merge load_summary.json </dev/null
//
// -replace dedupes the final document by row name, keeping the value
// from the last source that produced it (stdin first, then the -merge
// files in order). That is how a fresh load run re-archives over the
// previous day's LoadServe/ rows without doubling them:
//
//	benchjson -replace -merge BENCH_2026-08-07.json -merge new_summary.json </dev/null
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

type doc struct {
	GOOS      string   `json:"goos,omitempty"`
	GOARCH    string   `json:"goarch,omitempty"`
	Pkg       string   `json:"pkg,omitempty"`
	CPU       string   `json:"cpu,omitempty"`
	NProc     int      `json:"nproc,omitempty"`
	GoVersion string   `json:"go_version,omitempty"`
	Results   []result `json:"results"`
}

// multiFlag collects a repeatable -merge flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var merges multiFlag
	replace := false
	args := os.Args[1:]
	for len(args) > 0 {
		switch {
		case args[0] == "-merge" && len(args) > 1:
			merges.Set(args[1])
			args = args[2:]
		case strings.HasPrefix(args[0], "-merge="):
			merges.Set(strings.TrimPrefix(args[0], "-merge="))
			args = args[1:]
		case args[0] == "-replace":
			replace = true
			args = args[1:]
		default:
			fmt.Fprintf(os.Stderr, "benchjson: unknown argument %q (usage: benchjson [-replace] [-merge FILE]... < bench.txt)\n", args[0])
			os.Exit(2)
		}
	}

	d, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, path := range merges {
		if err := mergeFile(&d, path); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	if replace {
		d.Results = dedupeByName(d.Results)
	}
	if len(d.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin and nothing merged")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads a `go test -bench` transcript, possibly spanning several
// packages.
func parse(in io.Reader) (doc, error) {
	var d doc
	pkg, pkgs := "", map[string]bool{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			d.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			d.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			d.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				r.Pkg = pkg
				pkgs[pkg] = true
				d.Results = append(d.Results, r)
			}
		}
	}
	if len(pkgs) == 1 {
		d.Pkg = pkg
	}
	if len(d.Results) > 0 {
		d.NProc, d.GoVersion = runtime.NumCPU(), runtime.Version()
	}
	return d, sc.Err()
}

// mergeFile appends the result rows of a benchjson-schema document
// into d, adopting its run metadata when stdin supplied none (the
// </dev/null -merge-only invocation).
func mergeFile(d *doc, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m doc
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(m.Results) == 0 {
		return fmt.Errorf("%s has no results rows to merge", path)
	}
	if d.GOOS == "" {
		d.GOOS = m.GOOS
	}
	if d.GOARCH == "" {
		d.GOARCH = m.GOARCH
	}
	if d.Pkg == "" {
		d.Pkg = m.Pkg
	}
	if d.CPU == "" {
		d.CPU = m.CPU
	}
	if d.NProc == 0 {
		d.NProc, d.GoVersion = m.NProc, m.GoVersion
	}
	d.Results = append(d.Results, m.Results...)
	return nil
}

// dedupeByName keeps one row per name: the row stays at its first
// position (so the document's ordering is stable across re-archives)
// but carries the value of its last occurrence (so the newest merge
// wins).
func dedupeByName(rows []result) []result {
	at := map[string]int{}
	var out []result
	for _, r := range rows {
		if i, ok := at[r.Name]; ok {
			out[i] = r
			continue
		}
		at[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// parseLine decodes one benchmark result line. Fields come in
// "value unit" pairs after the name and iteration count.
func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	name, procs := splitProcSuffix(f[0])
	r := result{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			val := v
			r.BytesPerOp = &val
		case "allocs/op":
			val := v
			r.AllocsOp = &val
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}

// splitProcSuffix splits the trailing -GOMAXPROCS marker off a name,
// so names are comparable across machines (Benchmark/sub-8 →
// Benchmark/sub, 8). The testing package omits the marker at
// GOMAXPROCS=1, so a name without one reports 1.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs < 1 {
		return name, 1
	}
	return name[:i], procs
}
