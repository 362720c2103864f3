package cli

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"malnet/internal/checkpoint"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/world"
)

// TestStudyFlagsLakeLinksCheckpoints runs the -short study as
// `malnet -short -lake-dir L` configures it. The lake is the run's one
// store: L's head is the study's last day, L holds one object per
// commit, every object decodes to the generation its commit names,
// and nothing else is written beside L.
func TestStudyFlagsLakeLinksCheckpoints(t *testing.T) {
	dir := t.TempDir()
	lakeDir := filepath.Join(dir, "lake")
	fs := flag.NewFlagSet("malnet", flag.ContinueOnError)
	flags := NewStudyFlags(fs)
	if err := fs.Parse([]string{"-short", "-lake-dir", lakeDir}); err != nil {
		t.Fatal(err)
	}
	wcfg, scfg, err := flags.Configs()
	if err != nil {
		t.Fatal(err)
	}
	w := world.Generate(wcfg)
	lastDay := -1
	for day := world.StudyStart(); day.Before(world.StudyEnd()); day = day.AddDate(0, 0, 1) {
		if len(w.FeedOn(day)) > 0 {
			lastDay = int(day.Sub(world.StudyStart()).Hours() / 24)
		}
	}
	if _, err := core.RunStudyContext(context.Background(), w, scfg); err != nil {
		t.Fatal(err)
	}

	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 || entries[0].Name() != "lake" {
		t.Fatalf("the run wrote %v beside its lake (err=%v)", entries, err)
	}
	l, err := lake.Open(lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := l.Log("main")
	if err != nil || len(log) == 0 {
		t.Fatalf("Log(main): %d commits, err=%v", len(log), err)
	}
	if head := log[0]; head.Day != lastDay || head.Run != "seed-42" {
		t.Fatalf("head commit is day %d of run %q, want the study's last day %d of seed-42", head.Day, head.Run, lastDay)
	}
	objects, err := os.ReadDir(filepath.Join(lakeDir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) != len(log) {
		t.Fatalf("objects/ holds %d entries for %d commits", len(objects), len(log))
	}
	for _, c := range log {
		f, err := checkpoint.ReadFile(l.ObjectPath(c.Snapshot))
		if err != nil {
			t.Fatalf("commit %d (day %d): %v", c.ID, c.Day, err)
		}
		if f.SumHex() != c.Snapshot {
			t.Fatalf("commit %d (day %d): object decodes to %.12s, want %.12s", c.ID, c.Day, f.SumHex(), c.Snapshot)
		}
	}
}
