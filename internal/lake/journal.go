package lake

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
)

// The commit journal is the lake's single source of truth for commit
// history and branch heads: an append-only file of length-prefixed
// frames, each a JSON commit record sealed with its own SHA-256. A
// sealed frame is a commit, and a branch's newest one is its head.
// Appends are fsync'd, but a crash can still tear the final frame
// mid-write — so every frame carries its own integrity hash, the
// reader stops at the first invalid frame (treating everything before
// it as the journal), and the writer truncates that torn tail before
// its next append. A torn tail therefore costs at most the one commit
// that was being written, which never returned success, and no mount
// observes it.
//
// Wire format (integers big-endian):
//
//	magic   8 bytes  "MALLAKE\x01" (trailing byte = version)
//	frame   repeated:
//	        4 bytes  payload length
//	        payload  JSON-encoded Commit
//	        32 bytes SHA-256 over the payload
var journalMagic = [8]byte{'M', 'A', 'L', 'L', 'A', 'K', 'E', 0x01}

// maxFrame caps a single commit record; anything claiming more is
// corruption, not data.
const maxFrame = 1 << 20

// appendFrame serializes one commit as a journal frame.
func appendFrame(buf []byte, c *Commit) ([]byte, error) {
	payload, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("lake: encoding commit %d: %w", c.ID, err)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	return append(buf, sum[:]...), nil
}

// decodeJournal parses journal bytes into commits. validLen is the
// byte length of the longest valid prefix (magic included); torn
// reports whether trailing bytes past that prefix were discarded —
// the signature of a crash mid-append, repaired by the next writer.
// Corrupt-beyond-salvage journals (bad magic) are an error: that is
// not a torn tail but a file that was never a journal.
func decodeJournal(b []byte) (commits []*Commit, validLen int64, torn bool, err error) {
	if len(b) < len(journalMagic) || string(b[:len(journalMagic)]) != string(journalMagic[:]) {
		return nil, 0, false, fmt.Errorf("lake: bad journal magic (not a lake, or incompatible version)")
	}
	rest := b[len(journalMagic):]
	validLen = int64(len(journalMagic))
	for len(rest) > 0 {
		if len(rest) < 4 {
			return commits, validLen, true, nil
		}
		n := binary.BigEndian.Uint32(rest[:4])
		if n > maxFrame || uint64(len(rest)) < 4+uint64(n)+sha256.Size {
			return commits, validLen, true, nil
		}
		payload := rest[4 : 4+n]
		foot := rest[4+n : 4+n+sha256.Size]
		sum := sha256.Sum256(payload)
		if string(sum[:]) != string(foot) {
			return commits, validLen, true, nil
		}
		var c Commit
		if json.Unmarshal(payload, &c) != nil {
			return commits, validLen, true, nil
		}
		commits = append(commits, &c)
		frame := int64(4 + n + sha256.Size)
		validLen += frame
		rest = rest[frame:]
	}
	return commits, validLen, false, nil
}

// readJournal loads and parses the journal file.
func (l *Lake) readJournal() (commits []*Commit, validLen int64, torn bool, err error) {
	b, err := os.ReadFile(l.journalPath())
	if err != nil {
		return nil, 0, false, err
	}
	return decodeJournal(b)
}

// appendJournal durably appends one commit frame after the journal's
// valid prefix of validLen bytes, as readJournal measured it under
// l.mu: any torn tail from a previous crash is truncated away first,
// then the frame is written at the end and fsync'd. The journal file
// itself always exists (Open creates it with its magic), so a missing
// file here is an error, not a fresh lake.
func (l *Lake) appendJournal(c *Commit, validLen int64) error {
	frame, err := appendFrame(nil, c)
	if err != nil {
		return err
	}
	fh, err := os.OpenFile(l.journalPath(), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		fh.Close()
		return err
	}
	if err := fh.Truncate(validLen); err != nil {
		return abort(err)
	}
	if _, err := fh.WriteAt(frame, validLen); err != nil {
		return abort(err)
	}
	if err := fh.Sync(); err != nil {
		return abort(err)
	}
	return fh.Close()
}
