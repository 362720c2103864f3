// Package lake is the multi-run study lake: an append-only,
// crash-safe store of checkpointed study snapshots with named
// branches and time travel. Where internal/checkpoint keeps one
// resumable snapshot per directory (older days pruned), the lake
// keeps every committed generation of every run — ablation branches,
// seed sweeps, fault-level studies — so the serving layer can answer
// cross-run queries ("this branch as of day 90", "diff these two
// seeds") from one mounted directory.
//
// Layout under the lake root:
//
//	journal.lake        the commit journal (see journal.go)
//	objects/<sha>.ckpt  content-addressed snapshot files; <sha> is the
//	                    checkpoint's SHA-256 integrity footer, i.e.
//	                    the serving layer's generation id
//	refs/<branch>       branch heads: a JSON {"commit": id} moved by
//	                    atomic rename
//
// Commit protocol — three durable steps, in order:
//
//  1. write the snapshot object (temp file, fsync, rename, dir fsync)
//  2. append the commit frame to the journal (fsync'd, self-sealed)
//  3. move the branch ref (temp file, fsync, rename, dir fsync)
//
// Every step is atomic and durable before the next begins, so a crash
// at any point leaves the lake mountable: before step 3 the branch
// head still names the previous commit (the new object and journal
// frame are harmless orphans, collected by Compact), and after step 3
// the new head is fully backed by a sealed object and journal entry.
// A mount therefore yields either the previous or the new branch
// head, never a torn commit — the kill-point tests walk every gap.
package lake

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"malnet/internal/checkpoint"
)

// Commit is one journal entry: a snapshot reference plus the identity
// of the run that produced it.
type Commit struct {
	// ID is the commit's journal sequence number, unique and
	// ascending within a lake; Parent is the branch head this commit
	// extended (0 for a branch's first commit).
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Branch is the named line of history this commit extends.
	Branch string `json:"branch"`
	// Run names the study run that produced the snapshot (e.g.
	// "seed-42" or an ablation label); Seed is its world seed.
	Run  string `json:"run"`
	Seed int64  `json:"seed"`
	// Day is the snapshot's study-day index — the time-travel axis.
	Day int `json:"day"`
	// Snapshot is the checkpoint's SHA-256 integrity footer (hex):
	// the object name and the serving generation id.
	Snapshot string `json:"snapshot"`
	// Fingerprint is the SHA-256 (hex) of the run's config
	// fingerprint section, so commits from identically configured
	// runs group without embedding the whole config in the journal.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Lake is a mounted lake directory. Reads (Head, Log, Resolve,
// Branches) are safe concurrently with a writer; Commit and Compact
// serialize through an in-process mutex — the lake assumes one
// writing process, like the checkpoint directory it grew from.
type Lake struct {
	dir string

	mu sync.Mutex
	// failpoint, when non-nil, is consulted after each durable commit
	// step; a non-nil return aborts the commit there. Tests use it to
	// simulate a crash between steps — every step is already on disk
	// when it fires, so the on-disk state is exactly a kill there.
	failpoint func(stage string) error
}

// Open mounts the lake at dir, creating the layout on first use. An
// existing journal is validated (bad magic is refused — that is not a
// lake) but a torn tail is fine: it is repaired on the next commit.
func Open(dir string) (*Lake, error) {
	l := &Lake{dir: dir}
	for _, d := range []string{l.objectsDir(), l.refsDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("lake: %w", err)
		}
	}
	if _, err := os.Stat(l.journalPath()); os.IsNotExist(err) {
		if err := atomicWrite(l.journalPath(), journalMagic[:]); err != nil {
			return nil, fmt.Errorf("lake: initializing journal: %w", err)
		}
	} else if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	if _, _, _, err := l.readJournal(); err != nil {
		return nil, err
	}
	return l, nil
}

// IsLake reports whether dir holds a lake (its commit journal
// exists). Open creates a missing layout, so the serving layer checks
// IsLake first and refuses a directory that is not already a lake.
func IsLake(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "journal.lake"))
	return err == nil
}

func (l *Lake) journalPath() string { return filepath.Join(l.dir, "journal.lake") }
func (l *Lake) objectsDir() string  { return filepath.Join(l.dir, "objects") }
func (l *Lake) refsDir() string     { return filepath.Join(l.dir, "refs") }

// ObjectPath names the content-addressed snapshot file for a
// generation. The caller gets the path, not the bytes, so the serving
// layer can hand it to its existing checkpoint loader.
func (l *Lake) ObjectPath(sha string) string {
	return filepath.Join(l.objectsDir(), sha+".ckpt")
}

// validBranch holds branch names to ref-file-safe characters.
func validBranch(name string) error {
	if name == "" {
		return fmt.Errorf("lake: empty branch name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("lake: branch name %q: want [a-zA-Z0-9._-], not starting with a separator", name)
		}
	}
	return nil
}

// fail consults the test failpoint after a durable commit step.
func (l *Lake) fail(stage string) error {
	if l.failpoint == nil {
		return nil
	}
	return l.failpoint(stage)
}

// Commit appends one snapshot to branch: data is a complete encoded
// checkpoint (decoded here, which both verifies the integrity footer
// and yields the content address). Returns the new branch head.
func (l *Lake) Commit(branch, run string, seed int64, day int, data []byte) (*Commit, error) {
	if err := validBranch(branch); err != nil {
		return nil, err
	}
	f, err := checkpoint.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("lake: refusing to commit: %w", err)
	}
	c := &Commit{
		Branch:   branch,
		Run:      run,
		Seed:     seed,
		Day:      day,
		Snapshot: f.SumHex(),
	}
	if fp, ok := f.Section("fingerprint"); ok {
		sum := sha256.Sum256(fp)
		c.Fingerprint = hex.EncodeToString(sum[:])
	}

	l.mu.Lock()
	defer l.mu.Unlock()

	// Step 1: the object. Content-addressed, so an identical snapshot
	// already on disk (the same study re-committed, or two worker
	// counts of one deterministic run) is simply reused.
	objPath := l.ObjectPath(c.Snapshot)
	if _, err := os.Stat(objPath); os.IsNotExist(err) {
		if err := atomicWrite(objPath, data); err != nil {
			return nil, fmt.Errorf("lake: writing object: %w", err)
		}
	} else if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	if err := l.fail("object-written"); err != nil {
		return nil, err
	}

	// Step 2: the journal frame. The commit id is allocated from the
	// journal itself (max id + 1), so an orphan frame left by a crash
	// before step 3 never collides with the retry's id. The same read
	// yields the valid prefix the frame is appended after.
	commits, validLen, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	for _, old := range commits {
		if old.ID >= c.ID {
			c.ID = old.ID + 1
		}
	}
	if c.ID == 0 {
		c.ID = 1
	}
	head, err := l.readRef(branch)
	if err != nil {
		return nil, err
	}
	c.Parent = head
	if err := l.appendJournal(c, validLen); err != nil {
		return nil, fmt.Errorf("lake: appending journal: %w", err)
	}
	if err := l.fail("journal-appended"); err != nil {
		return nil, err
	}

	// Step 3: the branch-head move. Until this rename lands, every
	// mount still resolves the previous head.
	if err := l.writeRef(branch, c.ID); err != nil {
		return nil, fmt.Errorf("lake: moving branch head: %w", err)
	}
	return c, nil
}

// CommitFile commits the checkpoint at path (e.g. a day-NNN.ckpt the
// study just wrote).
func (l *Lake) CommitFile(branch, run string, seed int64, day int, path string) (*Commit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	return l.Commit(branch, run, seed, day, data)
}

// refFile is the JSON body of refs/<branch>.
type refFile struct {
	Commit int64 `json:"commit"`
}

// readRef returns the branch's head commit id, 0 when the branch does
// not exist yet.
func (l *Lake) readRef(branch string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(l.refsDir(), branch))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("lake: %w", err)
	}
	var rf refFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return 0, fmt.Errorf("lake: ref %s: %w", branch, err)
	}
	return rf.Commit, nil
}

// writeRef moves a branch head via the atomic-rename + fsync
// discipline: a crash leaves either the old ref or the new one.
func (l *Lake) writeRef(branch string, id int64) error {
	return atomicWrite(filepath.Join(l.refsDir(), branch), []byte(fmt.Sprintf("{\"commit\": %d}\n", id)))
}

// Branches lists the lake's branch names, sorted.
func (l *Lake) Branches() ([]string, error) {
	entries, err := os.ReadDir(l.refsDir())
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && validBranch(e.Name()) == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Head returns a branch's head commit, nil when the branch does not
// exist. A ref naming a commit absent from the journal is an error:
// the commit protocol makes that state unreachable by crash, so
// finding it means the lake was tampered with or mis-copied.
func (l *Lake) Head(branch string) (*Commit, error) {
	id, err := l.readRef(branch)
	if err != nil || id == 0 {
		return nil, err
	}
	commits, _, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	for _, c := range commits {
		if c.ID == id {
			return c, nil
		}
	}
	return nil, fmt.Errorf("lake: branch %s head names commit %d, absent from the journal", branch, id)
}

// Log returns a branch's commits, newest first, by walking parent
// links from the head. The walk stops at a parent the journal no
// longer holds (compacted away) — history older than the compaction
// horizon is simply not listed.
func (l *Lake) Log(branch string) ([]*Commit, error) {
	head, err := l.Head(branch)
	if err != nil || head == nil {
		return nil, err
	}
	commits, _, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	byID := make(map[int64]*Commit, len(commits))
	for _, c := range commits {
		byID[c.ID] = c
	}
	var out []*Commit
	for c := head; c != nil; c = byID[c.Parent] {
		out = append(out, c)
		if c.Parent == 0 {
			break
		}
	}
	return out, nil
}

// Resolve is the time-travel lookup: the newest commit on branch with
// Day <= asofDay, or the branch head when asofDay is negative. An
// unknown branch or an asofDay before the branch's first commit is an
// error naming what was asked.
func (l *Lake) Resolve(branch string, asofDay int) (*Commit, error) {
	log, err := l.Log(branch)
	if err != nil {
		return nil, err
	}
	if len(log) == 0 {
		return nil, fmt.Errorf("lake: no such branch %q", branch)
	}
	if asofDay < 0 {
		return log[0], nil
	}
	for _, c := range log {
		if c.Day <= asofDay {
			return c, nil
		}
	}
	return nil, fmt.Errorf("lake: branch %q has no commit at or before day %d", branch, asofDay)
}

// ResolveSelector resolves a serving selector to a commit: sel names
// a branch when a ref by that name exists, otherwise the unique
// branch whose head commit records Run == sel — so a client can say
// "seed-42" without knowing which branch the run landed on. An
// ambiguous run name (two branches, same run) is an error naming
// both. asofDay selects along the branch as in Resolve.
func (l *Lake) ResolveSelector(sel string, asofDay int) (*Commit, error) {
	if validBranch(sel) == nil {
		if _, err := os.Stat(filepath.Join(l.refsDir(), sel)); err == nil {
			return l.Resolve(sel, asofDay)
		}
	}
	branches, err := l.Branches()
	if err != nil {
		return nil, err
	}
	match := ""
	for _, br := range branches {
		head, err := l.Head(br)
		if err != nil {
			return nil, err
		}
		if head != nil && head.Run == sel {
			if match != "" {
				return nil, fmt.Errorf("lake: run %q is ambiguous (on branches %q and %q); select by branch", sel, match, br)
			}
			match = br
		}
	}
	if match == "" {
		return nil, fmt.Errorf("lake: no such branch or run %q", sel)
	}
	return l.Resolve(match, asofDay)
}

// Compact is the lake's garbage collector: it rewrites the journal
// keeping only each branch's newest keep commits (keep <= 0 keeps
// every reachable commit), drops orphan frames left by crashed
// commits, and removes objects no kept commit references. Branch
// heads are always kept, so a mount across a compaction never loses
// its head.
func (l *Lake) Compact(keep int) (droppedCommits, droppedObjects int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	commits, _, _, err := l.readJournal()
	if err != nil {
		return 0, 0, err
	}
	branches, err := l.Branches()
	if err != nil {
		return 0, 0, err
	}
	byID := make(map[int64]*Commit, len(commits))
	for _, c := range commits {
		byID[c.ID] = c
	}
	keepIDs := map[int64]bool{}
	for _, br := range branches {
		id, err := l.readRef(br)
		if err != nil {
			return 0, 0, err
		}
		n := 0
		for c := byID[id]; c != nil; c = byID[c.Parent] {
			keepIDs[c.ID] = true
			if n++; keep > 0 && n >= keep {
				break
			}
			if c.Parent == 0 {
				break
			}
		}
	}

	buf := append([]byte(nil), journalMagic[:]...)
	liveObjects := map[string]bool{}
	for _, c := range commits {
		if !keepIDs[c.ID] {
			droppedCommits++
			continue
		}
		liveObjects[c.Snapshot] = true
		if buf, err = appendFrame(buf, c); err != nil {
			return 0, 0, err
		}
	}
	if droppedCommits > 0 {
		if err := atomicWrite(l.journalPath(), buf); err != nil {
			return 0, 0, fmt.Errorf("lake: rewriting journal: %w", err)
		}
	}

	entries, err := os.ReadDir(l.objectsDir())
	if err != nil {
		return droppedCommits, 0, fmt.Errorf("lake: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		sha, isObj := strings.CutSuffix(name, ".ckpt")
		if !isObj || liveObjects[sha] {
			continue
		}
		if err := os.Remove(filepath.Join(l.objectsDir(), name)); err != nil {
			return droppedCommits, droppedObjects, fmt.Errorf("lake: %w", err)
		}
		droppedObjects++
	}
	return droppedCommits, droppedObjects, nil
}

// atomicWrite lands data at path with the lake's durability
// discipline: temp file in the destination directory, fsync, chmod
// 0644 (CreateTemp's 0600 would hide the lake from a daemon running
// as another user), rename into place, fsync the directory.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return abort(err)
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return abort(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return checkpoint.SyncDir(dir)
}
