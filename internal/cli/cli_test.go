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
// `malnet -short -checkpoint-dir C -lake-dir L` configures it. C keeps
// one checkpoint, the newest, and it is the same file as L's head
// object: each commit linked its checkpoint in, so pruning the day
// before only dropped a name. Every object in L decodes to the
// generation its commit names.
func TestStudyFlagsLakeLinksCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ckptDir, lakeDir := filepath.Join(dir, "ckpt"), filepath.Join(dir, "lake")
	fs := flag.NewFlagSet("malnet", flag.ContinueOnError)
	flags := NewStudyFlags(fs)
	if err := fs.Parse([]string{"-short", "-checkpoint-dir", ckptDir, "-lake-dir", lakeDir}); err != nil {
		t.Fatal(err)
	}
	wcfg, scfg, err := flags.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunStudyContext(context.Background(), world.Generate(wcfg), scfg); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := checkpoint.Latest(ckptDir)
	if err != nil || snap == nil || len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, newest %v (err=%v); want one checkpoint", len(entries), snap, err)
	}
	l, err := lake.Open(lakeDir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := l.Log("main")
	if err != nil || len(log) == 0 {
		t.Fatalf("Log(main): %d commits, err=%v", len(log), err)
	}
	head := log[0]
	headFile, err := os.Stat(l.ObjectPath(head.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	ckptFile, err := os.Stat(snap.Path)
	if err != nil {
		t.Fatal(err)
	}
	if head.Day != snap.Day || head.Snapshot != snap.SumHex() || !os.SameFile(headFile, ckptFile) {
		t.Fatalf("head commit day %d %.12s, checkpoint day %d %.12s: want one file", head.Day, head.Snapshot, snap.Day, snap.SumHex())
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
