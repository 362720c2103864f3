// Command perfbench is MalNet's benchmark. One process drives the
// program's public entry points — world generation, the study,
// checkpoint writing, the run lake and malnetd's HTTP handler on
// loopback — prints every metric by name with its unit, the error rate
// and a correctness verdict, and ends with one JSON result line.
//
//	bash perfbench/run.sh --workload serve_zipf --seed 7 --seconds 16 --trace 0
//	bash perfbench/run.sh compare a.jsonl b.jsonl
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the
// workload twice, untraced and then traced, reports the per-layer
// metrics and the tracing overhead, and writes the spans it recorded.
// Every result is appended, stamped with the machine, build, worker
// count and seeds it came from, to the ledger the compare mode reads.
// README.md lists the metrics and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp names what a result was measured on and with.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Workers    int    `json:"workers"`
	Senders    int    `json:"senders"`
	WorldSeed  int64  `json:"world_seed"`
	QuerySeed  int64  `json:"query_seed"`
}

// ledgerRecord is one line of the run ledger.
type ledgerRecord struct {
	Workload string `json:"workload"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Stamp    stamp  `json:"stamp"`
	Result   result `json:"result"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the query schedule")
	seconds := fs.Int("seconds", 16, "length of the timed phase: the capacity ladder takes half, at most 8 s, the nominal rate the rest")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and tracing overhead from an untraced and a traced pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*name)
	if !ok || *seconds < 2 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds of at least 2 and --trace 0 or 1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{seed: *seed, worldSeed: pinned.Seed, seconds: *seconds, workers: runtime.NumCPU(), senders: runtime.NumCPU(), work: workDir()}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	measure := untracedRun
	if *trace == 1 {
		measure = tracedRun
	}
	res, notes, err := measure(wl, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", wl.name, n)
	}
	st := newStamp(cfg)
	report(stdout, wl.name, cfg, *trace, st, res)
	rec := ledgerRecord{Workload: wl.name, Seconds: cfg.seconds, Trace: *trace, Stamp: st, Result: res}
	if err := appendLedger(filepath.Join(cfg.work, "ledger.jsonl"), rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: ledger: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// workDir holds scratch run directories, traces and the ledger; run.sh
// points it at the checkout's build directory.
func workDir() string {
	if d := os.Getenv("PERFBENCH_WORK"); d != "" {
		return d
	}
	return ".bench_build"
}

// report prints every metric by name with its unit, the error rate and
// the correctness verdict.
func report(w io.Writer, workload string, cfg runConfig, trace int, st stamp, res result) {
	sj, _ := json.Marshal(st) // a stamp is plain fields and always encodes
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d\nstamp %s\n", workload, cfg.seed, cfg.seconds, trace, sj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-36s %14.6g ratio (%d failed of %d attempted)\n",
		"error_rate", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(w, "  %-36s %14v\n", "correct", res.Correct)
}

func newStamp(cfg runConfig) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit("."),
		Workers:    cfg.workers,
		Senders:    cfg.senders,
		WorldSeed:  cfg.worldSeed,
		QuerySeed:  cfg.seed,
	}
}

// cpuModel is the processor name the kernel reports, "unknown" where
// there is none to read.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory under root without
// running git. A checkout exported without its history reads "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // a detached HEAD holds the commit itself
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func appendLedger(path string, rec ledgerRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(append(line, '\n')); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
