package report_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"malnet/internal/core"
	"malnet/internal/obs"
	"malnet/internal/results"
	"malnet/internal/world"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenFaultedStudy renders the report-layer output of a small,
// fully faulted study and compares it byte-for-byte against the
// committed golden file. The run is deterministic end to end (world
// seed, fault seed, virtual clock), so any diff is a real behavior
// change — rerun with -update to accept one deliberately:
//
//	go test ./internal/report/ -run TestGoldenFaultedStudy -update
func TestGoldenFaultedStudy(t *testing.T) {
	wcfg := world.DefaultConfig(7)
	wcfg.TotalSamples = 60
	scfg := core.Defaults(7)
	scfg.Analysis.ProbeRounds = 2
	scfg.Determinism.Workers = 2
	scfg.Determinism.Faults = true
	scfg.Determinism.FaultSeed = 1007
	st := core.RunStudy(world.Generate(wcfg), scfg)

	var b strings.Builder
	b.WriteString(results.NewTable1(st).Render())
	b.WriteString("\n")
	b.WriteString(results.NewFaultSummary(st).Render())
	b.WriteString("\n")
	b.WriteString(results.NewFigure4(st).Render())

	got := b.String()
	path := filepath.Join("testdata", "faulted_study.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (rerun with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d:\nwant: %s\ngot:  %s\n(rerun with -update if intentional)",
				i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("golden mismatch: line counts differ, want %d got %d (rerun with -update if intentional)",
		len(wantLines), len(gotLines))
}

// TestGoldenMetricsSection pins the report's deterministic metrics
// section: a small faulted study's obs registry, rendered through
// results.NewMetricsSection, must match the committed golden bytes.
// Worker count is part of the fixture on purpose — the snapshot is
// identical at any value, so the golden doubles as a determinism
// check. Rerun with -update to accept a deliberate schema change:
//
//	go test ./internal/report/ -run TestGoldenMetricsSection -update
func TestGoldenMetricsSection(t *testing.T) {
	wcfg := world.DefaultConfig(7)
	wcfg.TotalSamples = 60
	scfg := core.Defaults(7)
	scfg.Analysis.ProbeRounds = 2
	scfg.Determinism.Workers = 4
	scfg.Determinism.Faults = true
	scfg.Determinism.FaultSeed = 1007
	scfg.Observability.Obs = obs.NewObserver()
	st := core.RunStudy(world.Generate(wcfg), scfg)

	got := results.NewMetricsSection(st).Render()
	path := filepath.Join("testdata", "metrics_section.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (rerun with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("golden mismatch at line %d:\nwant: %s\ngot:  %s\n(rerun with -update if intentional)",
				i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("golden mismatch: line counts differ, want %d got %d (rerun with -update if intentional)",
		len(wantLines), len(gotLines))
}
