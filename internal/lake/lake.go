// Package lake is the multi-run study lake: an append-only,
// crash-safe store of checkpointed study snapshots with named
// branches and time travel. A durable study commits each day's
// snapshot into its lake and resumes from its branch head; the lake
// keeps every committed generation of every run — ablation branches,
// seed sweeps, fault-level studies — so the serving layer can answer
// cross-run queries ("this branch as of day 90", "diff these two
// seeds") from one mounted directory.
//
// Layout under the lake root:
//
//	journal.lake        the commit journal (see journal.go), the lake's
//	                    one record of history: a branch's head is its
//	                    newest sealed frame
//	objects/<sha>.ckpt  content-addressed snapshot files; <sha> is the
//	                    checkpoint's SHA-256 integrity footer, i.e.
//	                    the serving layer's generation id
//
// Commit protocol — two durable steps, in order:
//
//  1. place the snapshot object: Commit, the study's path, writes the
//     bytes (checkpoint.WriteBytes: temp file, fsync, rename, dir
//     fsync); CommitFile, for a caller that wrote a checkpoint file of
//     its own, hard-links that file (checkpoint.LinkBytes: link to a
//     temp name, fsync, rename, dir fsync), or writes the bytes where
//     the link cannot be made
//  2. append the commit frame to the journal (fsync'd, self-sealed)
//
// The frame's fsync is the commit point. A crash before it leaves the
// branch head where it was (a new object is a harmless orphan,
// collected by Compact); a crash mid-append leaves a torn frame that
// every reader ignores and the next commit truncates; after it, the
// new head is fully backed by a sealed frame and a durable object. A
// mount therefore yields either the previous or the new branch head,
// never a torn commit — the kill-point tests walk every gap.
//
// A linked object and the checkpoint file it was committed from are
// one file under two names, so a committed checkpoint file must never
// be modified in place. Replacing it (checkpoint.WriteFile renames a
// new file over it) or removing it leaves the object whole.
//
// A refs/ directory, where older builds also kept each branch head,
// is ignored and left in place.
package lake

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
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

// Lake is a mounted lake directory. Reads (Head, Log, Logs, Resolve,
// Branches) are safe concurrently with a writer; Commit and Compact
// serialize through an in-process mutex — the lake assumes one
// writing process.
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
	if err := os.MkdirAll(l.objectsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	if _, err := os.Stat(l.journalPath()); os.IsNotExist(err) {
		if err := checkpoint.WriteBytes(l.journalPath(), journalMagic[:]); err != nil {
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

// ObjectPath names the content-addressed snapshot file for a
// generation. The caller gets the path, not the bytes, so the serving
// layer can hand it to its existing checkpoint loader.
func (l *Lake) ObjectPath(sha string) string {
	return filepath.Join(l.objectsDir(), sha+".ckpt")
}

// validBranch holds branch names to [a-zA-Z0-9._-], so a name reads
// the same in a branch-or-run[@day] selector, a URL and a log line.
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
	return l.commit(branch, run, seed, day, data, nil)
}

// CommitFile commits the checkpoint file at path, one the caller
// wrote itself. A missing or damaged object is placed as a hard
// link of that file rather than a copy (checkpoint.LinkBytes), so the
// file must never be modified in place afterwards: the object would
// change with it. Where the link cannot be made the bytes are written.
func (l *Lake) CommitFile(branch, run string, seed int64, day int, path string) (*Commit, error) {
	src, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	defer src.Close()
	// Sized from the handle, as os.ReadFile sizes its buffer: the bytes
	// verified are the bytes of the inode the object will link.
	fi, err := src.Stat()
	if err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(src, data); err != nil {
		return nil, fmt.Errorf("lake: reading %s: %w", path, err)
	}
	return l.commit(branch, run, seed, day, data, src)
}

// commit is Commit with the source of data: the open checkpoint file
// it was read from, whose inode a placed object links, or nil to write
// data.
func (l *Lake) commit(branch, run string, seed int64, day int, data []byte, src *os.File) (*Commit, error) {
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
	// counts of one deterministic run) is reused — but only when its
	// bytes still match: a damaged object is replaced, so re-running
	// the study repairs it.
	objPath := l.ObjectPath(c.Snapshot)
	if onDisk, err := os.ReadFile(objPath); err != nil || !bytes.Equal(onDisk, data) {
		if src != nil {
			err = checkpoint.LinkBytes(objPath, src, data)
		} else {
			err = checkpoint.WriteBytes(objPath, data)
		}
		if err != nil {
			return nil, fmt.Errorf("lake: placing object: %w", err)
		}
	}
	if err := l.fail("object-written"); err != nil {
		return nil, err
	}

	// Step 2: the journal frame, the commit point. One read yields the
	// new id (max id + 1), the parent (the branch's newest frame) and
	// the valid prefix the frame is appended after.
	commits, validLen, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	for _, old := range commits {
		c.ID = max(c.ID, old.ID)
		if old.Branch == branch {
			c.Parent = old.ID
		}
	}
	c.ID++
	if err := l.appendJournal(c, validLen); err != nil {
		return nil, fmt.Errorf("lake: appending journal: %w", err)
	}
	if err := l.fail("journal-appended"); err != nil {
		return nil, err
	}
	return c, nil
}

// heads maps each branch that has a frame in commits to its head,
// its newest frame.
func heads(commits []*Commit) map[string]*Commit {
	out := map[string]*Commit{}
	for _, c := range commits {
		out[c.Branch] = c
	}
	return out
}

// sortedBranches lists the keys of a map by branch, sorted.
func sortedBranches[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for br := range m {
		out = append(out, br)
	}
	sort.Strings(out)
	return out
}

// branchLog is Log over one read of the journal. A parent's frame
// always precedes its child's, so one backward pass finds the chain.
// It skips a frame no later commit names as its parent: in a lake
// written by an older build, a commit that crashed before moving its
// ref and was then retried.
func branchLog(commits []*Commit, branch string) []*Commit {
	var out []*Commit
	for i := len(commits) - 1; i >= 0; i-- {
		c := commits[i]
		if (len(out) == 0 && c.Branch == branch) || (len(out) > 0 && c.ID == out[len(out)-1].Parent) {
			out = append(out, c)
		}
	}
	return out
}

// Logs returns every branch's Log, keyed by branch name, from one
// read of the journal, so no two branches are listed from different
// journal states. Every branch with a frame in the journal has a key.
func (l *Lake) Logs() (map[string][]*Commit, error) {
	commits, _, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	out := map[string][]*Commit{}
	for br := range heads(commits) {
		out[br] = branchLog(commits, br)
	}
	return out, nil
}

// Branches lists the lake's branch names, sorted: the keys of Logs.
func (l *Lake) Branches() ([]string, error) {
	logs, err := l.Logs()
	return sortedBranches(logs), err
}

// Head returns a branch's head commit, its newest frame in the
// journal; nil when the branch does not exist.
func (l *Lake) Head(branch string) (*Commit, error) {
	commits, _, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	return heads(commits)[branch], nil
}

// Log returns a branch's commits, newest first, by walking parent
// links from the head. The walk stops at a parent the journal no
// longer holds (compacted away) — history older than the compaction
// horizon is simply not listed. It is Logs' entry for branch.
func (l *Lake) Log(branch string) ([]*Commit, error) {
	logs, err := l.Logs()
	return logs[branch], err
}

// Resolve is the time-travel lookup: the newest commit on branch with
// Day <= asofDay, or the branch head when asofDay is negative. An
// unknown branch or an asofDay before the branch's first commit is an
// error naming what was asked.
func (l *Lake) Resolve(branch string, asofDay int) (*Commit, error) {
	commits, _, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	return resolve(commits, branch, asofDay)
}

// resolve is Resolve over one read of the journal.
func resolve(commits []*Commit, branch string, asofDay int) (*Commit, error) {
	log := branchLog(commits, branch)
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
// a branch when the journal holds a branch by that name, otherwise
// the unique branch whose head commit records Run == sel — so a
// client can say "seed-42" without knowing which branch the run
// landed on. An ambiguous run name (two branches, same run) is an
// error naming both. asofDay selects along the branch as in Resolve.
func (l *Lake) ResolveSelector(sel string, asofDay int) (*Commit, error) {
	commits, _, _, err := l.readJournal()
	if err != nil {
		return nil, err
	}
	hs := heads(commits)
	if hs[sel] != nil {
		return resolve(commits, sel, asofDay)
	}
	match := ""
	for _, br := range sortedBranches(hs) {
		if hs[br].Run == sel {
			if match != "" {
				return nil, fmt.Errorf("lake: run %q is ambiguous (on branches %q and %q); select by branch", sel, match, br)
			}
			match = br
		}
	}
	if match == "" {
		return nil, fmt.Errorf("lake: no such branch or run %q", sel)
	}
	return resolve(commits, match, asofDay)
}

// Compact is the lake's garbage collector: it rewrites the journal
// keeping only each branch's newest keep commits (keep <= 0 keeps
// every reachable commit), drops frames no branch's history reaches,
// and removes objects no kept commit references, such as the orphan
// of a commit that crashed before its frame. Branch heads are always
// kept, so a mount across a compaction never loses its head.
func (l *Lake) Compact(keep int) (droppedCommits, droppedObjects int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	commits, _, _, err := l.readJournal()
	if err != nil {
		return 0, 0, err
	}
	keepIDs := map[int64]bool{}
	for br := range heads(commits) {
		log := branchLog(commits, br)
		if keep > 0 && len(log) > keep {
			log = log[:keep]
		}
		for _, c := range log {
			keepIDs[c.ID] = true
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
		if err := checkpoint.WriteBytes(l.journalPath(), buf); err != nil {
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
