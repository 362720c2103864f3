package lake

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"malnet/internal/checkpoint"
)

// mountAndCheck re-opens the lake from disk the way the daemon does
// and asserts the branch head is a fully valid reference: the head
// commit exists in the journal, its object decodes, and Resolve over
// the whole log only ever lands on decodable objects.
func mountAndCheck(t *testing.T, dir, branch string) *Commit {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	head, err := l.Head(branch)
	if err != nil {
		t.Fatalf("mount: Head(%s): %v", branch, err)
	}
	if head == nil {
		return nil
	}
	log, err := l.Log(branch)
	if err != nil || len(log) == 0 || log[0].ID != head.ID {
		t.Fatalf("mount: Log(%s): %v err=%v", branch, log, err)
	}
	for _, c := range log {
		f, err := checkpoint.ReadFile(l.ObjectPath(c.Snapshot))
		if err != nil {
			t.Fatalf("mount: commit %d object %s: %v", c.ID, c.Snapshot, err)
		}
		if f.SumHex() != c.Snapshot {
			t.Fatalf("mount: commit %d object decodes to %s", c.ID, f.SumHex())
		}
	}
	return head
}

// TestLakeKillPoints simulates a crash after every durable step of
// the commit protocol (each step is fully on disk when the failpoint
// fires, so aborting there leaves exactly the state a kill would). At
// every point, a fresh mount must yield either the previous or the
// new branch head — never a torn commit or an invalid reference —
// and a retried commit must land cleanly on the head the crash left.
// The linked cases commit a checkpoint file, whose object is a hard
// link of it: Compact then removes an orphaned object's lake name
// only, and the file still decodes to the snapshot.
func TestLakeKillPoints(t *testing.T) {
	for _, tc := range []struct {
		name, stage string
		// committed: the crash came after the commit point, the
		// journal frame's fsync.
		committed bool
		// linked: the crashed and the retried commit are CommitFile
		// calls on a checkpoint.WriteFile'd file.
		linked bool
	}{
		{"object-written", "object-written", false, false},
		{"journal-appended", "journal-appended", true, false},
		{"object-written-linked", "object-written", false, true},
		{"journal-appended-linked", "journal-appended", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			base := mustCommit(t, l, "main", "r", 1, 10, "base")
			src := checkpoint.DayPath(t.TempDir(), 20)
			writeSnapshot(t, src, 20, "next")
			commitNext := func(l *Lake) (*Commit, error) {
				if tc.linked {
					return l.CommitFile("main", "r", 1, 20, src)
				}
				return l.Commit("main", "r", 1, 20, snapshotBytes(20, "next"))
			}

			l.failpoint = func(s string) error {
				if s == tc.stage {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			if _, err := commitNext(l); err == nil {
				t.Fatalf("failpoint %s did not fire", tc.stage)
			}

			// Before the frame is sealed every mount still resolves the
			// previous head; once it is, the crashed commit is the head.
			head := mountAndCheck(t, dir, "main")
			if tc.committed {
				if head == nil || head.ID == base.ID || head.Parent != base.ID || head.Day != 20 {
					t.Fatalf("after crash at %s: head %+v, want the day-20 commit on %d", tc.stage, head, base.ID)
				}
			} else if head == nil || head.ID != base.ID {
				t.Fatalf("after crash at %s: head %+v, want base commit %d", tc.stage, head, base.ID)
			}

			// Retry on a fresh mount (the crashed process is gone).
			l2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.linked {
				next, err := checkpoint.Decode(snapshotBytes(20, "next"))
				if err != nil {
					t.Fatal(err)
				}
				obj := l2.ObjectPath(next.SumHex())
				if !sameFile(t, src, obj) {
					t.Fatalf("after crash at %s: object %s is not a link of %s", tc.stage, obj, src)
				}
				wantObjects := 0
				if !tc.committed {
					wantObjects = 1
				}
				if commits, objects, err := l2.Compact(0); err != nil || commits != 0 || objects != wantObjects {
					t.Fatalf("Compact after crash at %s dropped %d commits, %d objects (err=%v); want 0, %d", tc.stage, commits, objects, err, wantObjects)
				}
				decodesTo(t, src, next.SumHex())
			}
			retried, err := commitNext(l2)
			if err != nil {
				t.Fatal(err)
			}
			if retried.Parent != head.ID {
				t.Fatalf("retried commit parent %d, want %d", retried.Parent, head.ID)
			}
			head = mountAndCheck(t, dir, "main")
			if head == nil || head.ID != retried.ID {
				t.Fatalf("after retry: head %+v, want %d", head, retried.ID)
			}
			if tc.linked && !sameFile(t, src, l2.ObjectPath(retried.Snapshot)) {
				t.Fatalf("after retry: object is not a link of %s", src)
			}
		})
	}
}

// TestLakeTornJournalTail simulates the other crash shape: the
// process dies mid-append, leaving a partial frame at the journal's
// tail. The reader must stop at the valid prefix (old head intact)
// and the next commit must repair the tail rather than append after
// garbage.
func TestLakeTornJournalTail(t *testing.T) {
	for _, torn := range [][]byte{
		{0x00},                               // torn length prefix
		{0x00, 0x00, 0x00, 0x50, 'p', 'a'},   // length frame, payload cut short
		{0xff, 0xff, 0xff, 0xff, 0x00},       // implausible length
		[]byte("{\"id\":999}garbagegarbage"), // valid-ish JSON, no frame around it
	} {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		base := mustCommit(t, l, "main", "r", 1, 5, "base")

		fh, err := os.OpenFile(l.journalPath(), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		fh.Write(torn)
		fh.Close()

		head := mountAndCheck(t, dir, "main")
		if head == nil || head.ID != base.ID {
			t.Fatalf("torn tail %v: head %+v, want %d", torn, head, base.ID)
		}

		l2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		next := mustCommit(t, l2, "main", "r", 1, 6, "next")
		if next.Parent != base.ID {
			t.Fatalf("torn tail %v: repaired commit parent %d, want %d", torn, next.Parent, base.ID)
		}
		// The repair truncated the garbage: the journal now decodes
		// clean end to end.
		b, err := os.ReadFile(l2.journalPath())
		if err != nil {
			t.Fatal(err)
		}
		commits, _, tornNow, err := decodeJournal(b)
		if err != nil || tornNow || len(commits) != 2 {
			t.Fatalf("torn tail %v: post-repair journal commits=%d torn=%v err=%v", torn, len(commits), tornNow, err)
		}
	}
}

// TestLakeConcurrentMountCommit drives a writer goroutine committing
// a chain while reader goroutines continuously mount, resolve, and
// open objects. Run under -race in CI ("Run lake (race)"); the
// invariant is that every observed head is a valid, decodable commit
// whose day only ever moves forward.
func TestLakeConcurrentMountCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, l, "main", "r", 1, 0, "day0")

	const commits = 25
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastDay := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				lr, err := Open(dir)
				if err != nil {
					t.Errorf("reader: mount: %v", err)
					return
				}
				head, err := lr.Head("main")
				if err != nil || head == nil {
					t.Errorf("reader: head: %+v err=%v", head, err)
					return
				}
				if head.Day < lastDay {
					t.Errorf("reader: head day went backwards: %d after %d", head.Day, lastDay)
					return
				}
				lastDay = head.Day
				if _, err := checkpoint.ReadFile(lr.ObjectPath(head.Snapshot)); err != nil {
					t.Errorf("reader: head object: %v", err)
					return
				}
				if _, err := lr.Resolve("main", head.Day/2); err != nil && head.Day > 0 {
					t.Errorf("reader: resolve asof %d: %v", head.Day/2, err)
					return
				}
			}
		}()
	}
	for day := 1; day <= commits; day++ {
		mustCommit(t, l, "main", "r", 1, day, fmt.Sprintf("day%d", day))
	}
	close(done)
	wg.Wait()

	if head := mountAndCheck(t, dir, "main"); head == nil || head.Day != commits {
		t.Fatalf("final head %+v, want day %d", head, commits)
	}
}
