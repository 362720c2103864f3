package core

import (
	"os"
	"sync"
	"testing"

	"malnet/internal/world"
)

var (
	shortStudyOnce sync.Once
	shortStudy     *Study
)

// finishedShortStudy runs the -short study once per test binary.
func finishedShortStudy() *Study {
	shortStudyOnce.Do(func() {
		shortStudy = runShortStudy(func(*world.Config, *StudyConfig) {})
	})
	return shortStudy
}

// runShortStudy runs the -short study (seed 42, 150 samples, 12 probe
// rounds) with tweak applied to its world and study configs.
func runShortStudy(tweak func(*world.Config, *StudyConfig)) *Study {
	wcfg := world.DefaultConfig(42)
	wcfg.TotalSamples = 150
	scfg := Defaults(42)
	scfg.Analysis.ProbeRounds = 12
	tweak(&wcfg, &scfg)
	return RunStudy(world.Generate(wcfg), scfg)
}

// BenchmarkSaveCheckpoint measures one day's checkpoint as a durable
// study pays it: saveCheckpoint builds every section, encodes the
// snapshot and commits it into the study lake (the object written and
// fsync'd, then the fsync'd journal frame). It runs on a finished
// -short study, whose datasets and metrics are at their largest, so
// this is the study's last and dearest checkpoint. The study runs on
// a clean network, so its connection-counter table is empty. Each
// iteration appends a journal frame, so quote a fixed -benchtime.
func BenchmarkSaveCheckpoint(b *testing.B) {
	st := finishedShortStudy()
	st.Cfg.Durability.Dir = b.TempDir()
	day := dayIndex(world.StudyEnd())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.saveCheckpoint(day + i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(headObject(b, st))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
}

// BenchmarkOpenSnapshot measures what malnetd pays to read a
// generation before it builds the store: core.OpenSnapshotAt on the
// lake object of the -short study's last and largest snapshot, as
// BenchmarkSaveCheckpoint commits it.
func BenchmarkOpenSnapshot(b *testing.B) {
	st := finishedShortStudy()
	st.Cfg.Durability.Dir = b.TempDir()
	if err := st.saveCheckpoint(dayIndex(world.StudyEnd())); err != nil {
		b.Fatal(err)
	}
	path := headObject(b, st)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OpenSnapshotAt(path); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
}

// headObject is the path of the object at the head of the study's
// lake branch.
func headObject(tb testing.TB, st *Study) string {
	tb.Helper()
	lk, err := st.runLake()
	if err != nil {
		tb.Fatal(err)
	}
	head, err := lk.Head(st.Cfg.Durability.Branch)
	if err != nil || head == nil {
		tb.Fatalf("no commit on %q: %v", st.Cfg.Durability.Branch, err)
	}
	return lk.ObjectPath(head.Snapshot)
}
