package lake

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"malnet/internal/checkpoint"
)

// snapshotFile fabricates a checkpoint whose content (and therefore
// generation id) is a function of day and tag.
func snapshotFile(day int, tag string) *checkpoint.File {
	f := &checkpoint.File{}
	f.Add("fingerprint", []byte(`{"cfg":"`+tag+`"}`))
	f.Add("meta", []byte(fmt.Sprintf(`{"day":%d}`, day)))
	f.Add("datasets", []byte(`{"samples":[],"tag":"`+tag+`"}`))
	return f
}

// snapshotBytes is snapshotFile sealed.
func snapshotBytes(day int, tag string) []byte {
	return checkpoint.Encode(snapshotFile(day, tag))
}

// writeSnapshot writes snapshotFile(day, tag) to path as the study
// writes its checkpoints, with checkpoint.WriteFile.
func writeSnapshot(t *testing.T, path string, day int, tag string) {
	t.Helper()
	if err := checkpoint.WriteFile(path, snapshotFile(day, tag)); err != nil {
		t.Fatal(err)
	}
}

// sameFile reports whether two paths name one inode.
func sameFile(t *testing.T, a, b string) bool {
	t.Helper()
	fa, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(fa, fb)
}

// decodesTo fails the test unless the checkpoint at path decodes to
// generation sha.
func decodesTo(t *testing.T, path, sha string) {
	t.Helper()
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if f.SumHex() != sha {
		t.Fatalf("%s decodes to generation %s, want %s", path, f.SumHex(), sha)
	}
}

func mustCommit(t *testing.T, l *Lake, branch, run string, seed int64, day int, tag string) *Commit {
	t.Helper()
	c, err := l.Commit(branch, run, seed, day, snapshotBytes(day, tag))
	if err != nil {
		t.Fatalf("Commit(%s, day %d): %v", branch, day, err)
	}
	return c
}

func TestLakeCommitAndResolve(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !IsLake(dir) {
		t.Fatal("Open did not leave a recognizable lake")
	}
	if IsLake(t.TempDir()) {
		t.Fatal("an empty directory claims to be a lake")
	}

	c1 := mustCommit(t, l, "main", "seed-42", 42, 10, "a")
	c2 := mustCommit(t, l, "main", "seed-42", 42, 20, "a")
	c3 := mustCommit(t, l, "ablation", "seed-7", 7, 15, "b")

	if c1.ID >= c2.ID || c2.Parent != c1.ID || c3.Parent != 0 {
		t.Fatalf("commit chain wrong: c1=%+v c2=%+v c3=%+v", c1, c2, c3)
	}
	if c1.Fingerprint == "" || c1.Fingerprint != c2.Fingerprint || c1.Fingerprint == c3.Fingerprint {
		t.Fatalf("fingerprints: c1=%s c2=%s c3=%s", c1.Fingerprint, c2.Fingerprint, c3.Fingerprint)
	}

	// Re-mount from disk: everything durable.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := l2.Branches()
	if err != nil || len(branches) != 2 || branches[0] != "ablation" || branches[1] != "main" {
		t.Fatalf("Branches: %v err=%v", branches, err)
	}
	head, err := l2.Head("main")
	if err != nil || head == nil || head.ID != c2.ID {
		t.Fatalf("Head(main): %+v err=%v", head, err)
	}
	if head, err := l2.Head("nope"); err != nil || head != nil {
		t.Fatalf("Head(nope): %+v err=%v", head, err)
	}

	log, err := l2.Log("main")
	if err != nil || len(log) != 2 || log[0].ID != c2.ID || log[1].ID != c1.ID {
		t.Fatalf("Log(main): %v err=%v", log, err)
	}

	// Time travel: head, mid-chain, and out-of-range.
	for _, tc := range []struct {
		asof   int
		wantID int64
	}{{-1, c2.ID}, {25, c2.ID}, {20, c2.ID}, {19, c1.ID}, {10, c1.ID}} {
		c, err := l2.Resolve("main", tc.asof)
		if err != nil || c.ID != tc.wantID {
			t.Fatalf("Resolve(main, %d): %+v err=%v, want id %d", tc.asof, c, err, tc.wantID)
		}
	}
	if _, err := l2.Resolve("main", 9); err == nil {
		t.Fatal("Resolve before the first commit did not error")
	}
	if _, err := l2.Resolve("missing", -1); err == nil {
		t.Fatal("Resolve on an unknown branch did not error")
	}

	// Objects are content-addressed, mountable checkpoint files.
	for _, c := range []*Commit{c1, c2, c3} {
		f, err := checkpoint.ReadFile(l2.ObjectPath(c.Snapshot))
		if err != nil {
			t.Fatalf("object %s: %v", c.Snapshot, err)
		}
		if f.SumHex() != c.Snapshot {
			t.Fatalf("object %s decodes to generation %s", c.Snapshot, f.SumHex())
		}
	}

	// Identical content commits reuse the object.
	c4 := mustCommit(t, l2, "replay", "seed-42", 42, 10, "a")
	if c4.Snapshot != c1.Snapshot {
		t.Fatalf("identical snapshot got a new generation: %s vs %s", c4.Snapshot, c1.Snapshot)
	}
}

// threeBranchLake commits three branches into a lake at dir: main
// (days 10, 20, 30), ablation (day 12) and sweep (day 15), with main's
// first commit returned.
func threeBranchLake(t *testing.T, dir string) (l *Lake, first *Commit) {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first = mustCommit(t, l, "main", "seed-42", 42, 10, "a")
	mustCommit(t, l, "ablation", "no-probe", 42, 12, "b")
	mustCommit(t, l, "main", "seed-42", 42, 20, "c")
	mustCommit(t, l, "sweep", "seed-7", 7, 15, "d")
	mustCommit(t, l, "main", "seed-42", 42, 30, "e")
	return l, first
}

// TestLakeLogs: Logs, every branch's log from one read of the journal,
// has a key for each branch Branches lists and nothing else, and each
// entry is that branch's Log.
func TestLakeLogs(t *testing.T) {
	l, first := threeBranchLake(t, t.TempDir())
	logs, err := l.Logs()
	if err != nil {
		t.Fatal(err)
	}
	branches, err := l.Branches()
	if err != nil || len(branches) != len(logs) || fmt.Sprint(branches) != "[ablation main sweep]" {
		t.Fatalf("Branches %v err=%v, Logs has %d keys", branches, err, len(logs))
	}
	for _, br := range branches {
		log, err := l.Log(br)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(log)
		got, _ := json.Marshal(logs[br])
		if string(got) != string(want) {
			t.Fatalf("Logs()[%s] = %s, Log(%s) = %s", br, got, br, want)
		}
	}
	if main := logs["main"]; len(main) != 3 || main[0].Day != 30 || main[2].ID != first.ID {
		t.Fatalf("Logs()[main] = %+v, want days 30, 20, 10", main)
	}
	if log, ok := logs["nope"]; ok {
		t.Fatalf("Logs() holds a branch with no frame: %+v", log)
	}
}

// TestLakeCommitFileLinks: CommitFile places the object as a hard link
// of the checkpoint file it read, so the commit writes no object
// bytes, and removing the file's name leaves the object whole. Another
// lake commits that object by link too.
func TestLakeCommitFileLinks(t *testing.T) {
	dir := t.TempDir()
	src := checkpoint.DayPath(filepath.Join(dir, "ckpt"), 10)
	writeSnapshot(t, src, 10, "linked")
	l, err := Open(filepath.Join(dir, "lake"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.CommitFile("main", "r", 1, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	obj := l.ObjectPath(c.Snapshot)
	if !sameFile(t, src, obj) {
		t.Fatalf("object %s is a copy of %s, want a hard link of it", obj, src)
	}
	if err := os.Remove(src); err != nil {
		t.Fatal(err)
	}
	decodesTo(t, obj, c.Snapshot)
	if names := dirNames(t, l.objectsDir()); len(names) != 1 {
		t.Fatalf("objects/ holds %v, want the one object and no temp name", names)
	}

	other, err := Open(filepath.Join(dir, "other"))
	if err != nil {
		t.Fatal(err)
	}
	oc, err := other.CommitFile("main", "r", 1, 10, obj)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Snapshot != c.Snapshot || !sameFile(t, obj, other.ObjectPath(oc.Snapshot)) {
		t.Fatalf("the other lake's object %s is not a link of %s", other.ObjectPath(oc.Snapshot), obj)
	}
	if head := mountAndCheck(t, filepath.Join(dir, "other"), "main"); head == nil || head.ID != oc.ID {
		t.Fatalf("the other lake's head %+v, want %d", head, oc.ID)
	}
}

// TestLakeRepairsDamagedLinkedObject: damage written into a linked
// object in place is damage to the checkpoint file it shares an inode
// with, which CommitFile then refuses; re-committing a freshly written
// copy of the snapshot, as a deterministic re-run writes it, replaces
// the object with a link of the fresh file.
func TestLakeRepairsDamagedLinkedObject(t *testing.T) {
	dir := t.TempDir()
	src := checkpoint.DayPath(filepath.Join(dir, "ckpt"), 20)
	writeSnapshot(t, src, 20, "damaged")
	l, err := Open(filepath.Join(dir, "lake"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.CommitFile("main", "r", 1, 20, src)
	if err != nil {
		t.Fatal(err)
	}
	obj := l.ObjectPath(c.Snapshot)
	b, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(obj, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CommitFile("main", "r", 1, 20, src); err == nil || !strings.Contains(err.Error(), "integrity footer mismatch") {
		t.Fatalf("re-committing the source of a damaged linked object: err=%v, want an integrity footer mismatch", err)
	}

	rerun := checkpoint.DayPath(filepath.Join(dir, "rerun"), 20)
	writeSnapshot(t, rerun, 20, "damaged")
	rc, err := l.CommitFile("main", "r", 1, 20, rerun)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Snapshot != c.Snapshot || !sameFile(t, rerun, obj) {
		t.Fatalf("repair commit %+v: object %s is not a link of the fresh file", rc, obj)
	}
	decodesTo(t, obj, c.Snapshot)
	mountAndCheck(t, filepath.Join(dir, "lake"), "main")
}

// lakeAnswers renders every read of a three-branch lake as text, so
// two lakes' answers compare as strings: branches, each branch's head
// and log, time travel along it, and selectors by branch and run.
func lakeAnswers(l *Lake) []string {
	show := func(v any, err error) string {
		b, _ := json.Marshal(v)
		return fmt.Sprintf("%s err=%v", b, err)
	}
	var out []string
	out = append(out, show(l.Branches()), show(l.Logs()))
	for _, br := range []string{"main", "ablation", "sweep", "nope"} {
		out = append(out, show(l.Head(br)), show(l.Log(br)))
		for _, asof := range []int{-1, 9, 12, 25, 40} {
			out = append(out, show(l.Resolve(br, asof)))
		}
	}
	for _, sel := range []string{"main", "sweep", "seed-42", "no-probe", "seed-7", "nope"} {
		out = append(out, show(l.ResolveSelector(sel, -1)), show(l.ResolveSelector(sel, 12)))
	}
	return out
}

// dirNames lists a directory's entry names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestLakeJournalIsTheRecord: journal.lake and objects/ are the whole
// lake. A copy of the two answers every read as the original does, a
// commit adds nothing beside them, and a refs/ directory an older
// build left behind moves no head: the newest sealed frame is the
// head even where a leftover ref names an older commit.
func TestLakeJournalIsTheRecord(t *testing.T) {
	src := t.TempDir()
	l, first := threeBranchLake(t, src)

	dst := t.TempDir()
	copyFile := func(rel string) {
		b, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("journal.lake")
	if err := os.Mkdir(filepath.Join(dst, "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range dirNames(t, filepath.Join(src, "objects")) {
		copyFile(filepath.Join("objects", name))
	}

	lc, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	want, got := lakeAnswers(l), lakeAnswers(lc)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d of the copy differs:\n%s\nvs the original\n%s", i, got[i], want[i])
		}
	}
	if head, err := lc.Head("main"); err != nil || head == nil || head.Day != 30 {
		t.Fatalf("copy's Head(main): %+v err=%v, want the day-30 commit", head, err)
	}
	next := mustCommit(t, lc, "main", "seed-42", 42, 40, "f")
	if names := dirNames(t, dst); fmt.Sprint(names) != "[journal.lake objects]" {
		t.Fatalf("lake directory after a commit holds %v, want only journal.lake and objects", names)
	}

	// An older build also kept refs/<branch>. A leftover ref naming an
	// older commit, and one naming a branch with no frames, move
	// nothing; a frame sealed by a commit that crashed before its ref
	// moved is the head.
	if err := os.Mkdir(filepath.Join(dst, "refs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for br, id := range map[string]int64{"main": first.ID, "ghost": first.ID} {
		ref := fmt.Sprintf("{\"commit\": %d}\n", id)
		if err := os.WriteFile(filepath.Join(dst, "refs", br), []byte(ref), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	lc.failpoint = func(stage string) error {
		if stage == "journal-appended" {
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	if _, err := lc.Commit("main", "seed-42", 42, 50, snapshotBytes(50, "g")); err == nil {
		t.Fatal("failpoint did not fire")
	}
	lr, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	head := mountAndCheck(t, dst, "main")
	if head == nil || head.Day != 50 || head.Parent != next.ID {
		t.Fatalf("Head(main) with a leftover ref: %+v, want the day-50 tail frame on commit %d", head, next.ID)
	}
	if branches, err := lr.Branches(); err != nil || fmt.Sprint(branches) != "[ablation main sweep]" {
		t.Fatalf("Branches with a leftover refs/: %v err=%v", branches, err)
	}
	log, err := lr.Log("main")
	if err != nil || len(log) != 5 || log[4].ID != first.ID {
		t.Fatalf("Log(main) with a leftover ref: %v err=%v", log, err)
	}
	mustCommit(t, lr, "main", "seed-42", 42, 60, "h")
	if names := dirNames(t, dst); fmt.Sprint(names) != "[journal.lake objects refs]" {
		t.Fatalf("lake directory holds %v, want the leftover refs/ left in place", names)
	}
}

func TestLakeRefusesCorruptCommit(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(3, "x")
	data[len(data)/2] ^= 0x20
	if _, err := l.Commit("main", "r", 1, 3, data); err == nil {
		t.Fatal("Commit accepted a corrupt snapshot")
	}
	if _, err := l.Commit("../escape", "r", 1, 3, snapshotBytes(3, "x")); err == nil {
		t.Fatal("Commit accepted a path-traversal branch name")
	}
}

func TestLakeCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var commits []*Commit
	for day := 1; day <= 5; day++ {
		commits = append(commits, mustCommit(t, l, "main", "r", 1, day, fmt.Sprintf("d%d", day)))
	}
	side := mustCommit(t, l, "side", "r2", 2, 1, "side")

	// An orphan object (a commit that crashed before its journal
	// frame) must be collected too.
	l.failpoint = func(stage string) error {
		if stage == "object-written" {
			return fmt.Errorf("injected crash")
		}
		return nil
	}
	if _, err := l.Commit("main", "r", 1, 99, snapshotBytes(99, "orphan")); err == nil {
		t.Fatal("failpoint did not fire")
	}
	l.failpoint = nil

	droppedCommits, droppedObjects, err := l.Compact(2)
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Kept: main's newest 2 (days 4, 5) + side's 1. Dropped frames:
	// days 1..3. Dropped objects: those three snapshots and the
	// orphan.
	if droppedCommits != 3 || droppedObjects != 4 {
		t.Fatalf("Compact dropped %d commits, %d objects; want 3, 4", droppedCommits, droppedObjects)
	}

	log, err := l.Log("main")
	if err != nil || len(log) != 2 || log[0].Day != 5 || log[1].Day != 4 {
		t.Fatalf("post-compact Log(main): %v err=%v", log, err)
	}
	if head, err := l.Head("side"); err != nil || head == nil || head.ID != side.ID {
		t.Fatalf("post-compact Head(side): %+v err=%v", head, err)
	}
	for _, c := range commits[:3] {
		if _, err := os.Stat(l.ObjectPath(c.Snapshot)); !os.IsNotExist(err) {
			t.Errorf("compacted object %s still on disk: %v", c.Snapshot, err)
		}
	}
	for _, c := range []*Commit{commits[3], commits[4], side} {
		if _, err := os.Stat(l.ObjectPath(c.Snapshot)); err != nil {
			t.Errorf("live object %s gone: %v", c.Snapshot, err)
		}
	}

	// A fresh mount sees the compacted history and can keep
	// committing.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mustCommit(t, l2, "main", "r", 1, 6, "d6")
	if c.Parent != commits[4].ID {
		t.Fatalf("post-compact commit parent %d, want %d", c.Parent, commits[4].ID)
	}
}

// TestLakeObjectsWorldReadable: objects and the journal are 0644,
// including the object of a checkpoint file that is not world-readable,
// which CommitFile writes instead of linking.
func TestLakeObjectsWorldReadable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "lake"))
	if err != nil {
		t.Fatal(err)
	}
	c := mustCommit(t, l, "main", "r", 1, 2, "perm")
	private := checkpoint.DayPath(filepath.Join(dir, "ckpt"), 3)
	writeSnapshot(t, private, 3, "private")
	if err := os.Chmod(private, 0o600); err != nil {
		t.Fatal(err)
	}
	pc, err := l.CommitFile("main", "r", 1, 3, private)
	if err != nil {
		t.Fatal(err)
	}
	if sameFile(t, private, l.ObjectPath(pc.Snapshot)) {
		t.Fatalf("a 0600 checkpoint was linked into the lake")
	}
	decodesTo(t, l.ObjectPath(pc.Snapshot), pc.Snapshot)
	for _, p := range []string{l.ObjectPath(c.Snapshot), l.ObjectPath(pc.Snapshot), l.journalPath()} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o644 {
			t.Errorf("%s mode %v, want 0644", p, fi.Mode().Perm())
		}
	}
}
