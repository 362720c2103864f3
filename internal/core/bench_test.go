package core

import (
	"os"
	"sync"
	"testing"

	"malnet/internal/checkpoint"
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
// study pays it: saveCheckpoint builds every section, writes and
// fsyncs the file, and prunes the day before. It runs on a finished
// -short study, whose datasets and metrics are at their largest, so
// this is the study's last and dearest checkpoint. The study runs on
// a clean network, so its connection-counter table is empty.
func BenchmarkSaveCheckpoint(b *testing.B) {
	st := finishedShortStudy()
	dir := b.TempDir()
	st.Cfg.Durability.Dir = dir
	day := dayIndex(world.StudyEnd())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.saveCheckpoint(day + i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(checkpoint.DayPath(dir, day+b.N-1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
}

// BenchmarkOpenSnapshot measures what malnetd pays to read a
// generation before it builds the store: core.OpenSnapshotAt on the
// -short study's last and largest snapshot, as BenchmarkSaveCheckpoint
// writes it.
func BenchmarkOpenSnapshot(b *testing.B) {
	st := finishedShortStudy()
	st.Cfg.Durability.Dir = b.TempDir()
	day := dayIndex(world.StudyEnd())
	if err := st.saveCheckpoint(day); err != nil {
		b.Fatal(err)
	}
	path := checkpoint.DayPath(st.Cfg.Durability.Dir, day)
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
