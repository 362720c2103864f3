package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// twoPackages is a `go test -bench` transcript over two packages, the
// shape scripts/bench.sh feeds benchjson.
const twoPackages = `goos: linux
goarch: amd64
pkg: malnet
cpu: Intel(R) Xeon(R) Processor
BenchmarkStudyWorkers/workers=2-8         	       1	25000000000 ns/op	      1447 samples
BenchmarkELFEncode-8                      	   10000	    100000 ns/op	    5122 B/op	      72 allocs/op
PASS
ok  	malnet	31.2s
goos: linux
goarch: amd64
pkg: malnet/internal/serve
cpu: Intel(R) Xeon(R) Processor
BenchmarkStoreSamples-8                   	    1000	     11859 ns/op	    5122 B/op	      11 allocs/op
BenchmarkServeQuery                       	     500	      2000 ns/op
PASS
ok  	malnet/internal/serve	4.0s
`

func TestParseKeepsPackageAndProcsPerRow(t *testing.T) {
	d, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, pkg string
		procs     int
	}{
		{"BenchmarkStudyWorkers/workers=2", "malnet", 8},
		{"BenchmarkELFEncode", "malnet", 8},
		{"BenchmarkStoreSamples", "malnet/internal/serve", 8},
		{"BenchmarkServeQuery", "malnet/internal/serve", 1},
	}
	if len(d.Results) != len(want) {
		t.Fatalf("parsed %d rows, want %d", len(d.Results), len(want))
	}
	for i, w := range want {
		r := d.Results[i]
		if r.Name != w.name || r.Pkg != w.pkg || r.Procs != w.procs {
			t.Errorf("row %d = (%q, %q, procs %d), want (%q, %q, procs %d)", i, r.Name, r.Pkg, r.Procs, w.name, w.pkg, w.procs)
		}
	}
	if d.Pkg != "" {
		t.Errorf("document pkg = %q for a two-package transcript, want none", d.Pkg)
	}
	if d.GOOS != "linux" || d.GOARCH != "amd64" || d.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("run metadata = %q/%q/%q", d.GOOS, d.GOARCH, d.CPU)
	}
	if got := d.Results[2]; got.AllocsOp == nil || *got.AllocsOp != 11 || got.NsPerOp != 11859 {
		t.Errorf("StoreSamples values = %+v", got)
	}
	if got := d.Results[0].Metrics["samples"]; got != 1447 {
		t.Errorf("ReportMetric extra = %v, want 1447", got)
	}
}

func TestParseSinglePackageLabelsDocument(t *testing.T) {
	d, err := parse(strings.NewReader("pkg: malnet/internal/simclock\nBenchmarkClockScheduleStep-2   100   417 ns/op   0 B/op   0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Pkg != "malnet/internal/simclock" || len(d.Results) != 1 || d.Results[0].Pkg != d.Pkg || d.Results[0].Procs != 2 {
		t.Fatalf("single-package document = %+v", d)
	}
}

// TestHostStampOnlyWithStdinRows: rows read from stdin are stamped
// with this host's CPU count and Go version; a merge-only run keeps
// the archive's own stamp, and a merge under fresh rows keeps the
// host's.
func TestHostStampOnlyWithStdinRows(t *testing.T) {
	archive := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(archive, []byte(`{"nproc": 64, "go_version": "go1.21.0", "results": [{"name": "BenchmarkOld", "iterations": 1, "ns_per_op": 5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	fresh, err := parse(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.NProc != runtime.NumCPU() || fresh.GoVersion != runtime.Version() {
		t.Fatalf("stdin rows stamped nproc %d, %q; want %d, %q", fresh.NProc, fresh.GoVersion, runtime.NumCPU(), runtime.Version())
	}
	if err := mergeFile(&fresh, archive); err != nil {
		t.Fatal(err)
	}
	if fresh.NProc != runtime.NumCPU() || fresh.GoVersion != runtime.Version() || len(fresh.Results) != 5 {
		t.Fatalf("merge under stdin rows: nproc %d, %q, %d rows", fresh.NProc, fresh.GoVersion, len(fresh.Results))
	}

	mergeOnly, err := parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if mergeOnly.NProc != 0 || mergeOnly.GoVersion != "" {
		t.Fatalf("empty stdin stamped nproc %d, %q", mergeOnly.NProc, mergeOnly.GoVersion)
	}
	if err := mergeFile(&mergeOnly, archive); err != nil {
		t.Fatal(err)
	}
	if mergeOnly.NProc != 64 || mergeOnly.GoVersion != "go1.21.0" {
		t.Fatalf("merge-only run: nproc %d, %q; want the archive's 64, go1.21.0", mergeOnly.NProc, mergeOnly.GoVersion)
	}
}
