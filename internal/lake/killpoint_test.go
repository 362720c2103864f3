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
func TestLakeKillPoints(t *testing.T) {
	for _, tc := range []struct {
		stage string
		// committed: the crash came after the commit point, the
		// journal frame's fsync.
		committed bool
	}{{"object-written", false}, {"journal-appended", true}} {
		t.Run(tc.stage, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			base := mustCommit(t, l, "main", "r", 1, 10, "base")

			l.failpoint = func(s string) error {
				if s == tc.stage {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			if _, err := l.Commit("main", "r", 1, 20, snapshotBytes(20, "next")); err == nil {
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
			retried := mustCommit(t, l2, "main", "r", 1, 20, "next")
			if retried.Parent != head.ID {
				t.Fatalf("retried commit parent %d, want %d", retried.Parent, head.ID)
			}
			head = mountAndCheck(t, dir, "main")
			if head == nil || head.ID != retried.ID {
				t.Fatalf("after retry: head %+v, want %d", head, retried.ID)
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
