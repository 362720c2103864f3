// Package checkpoint is the durable-snapshot codec for the year-long
// study pipeline. A checkpoint file is a versioned, self-describing
// container of named sections (the study driver stores JSON blobs in
// them) framed with explicit lengths and sealed with a SHA-256
// integrity footer, so a truncated or bit-flipped snapshot is refused
// at load time instead of resuming a silently corrupt run.
//
// Wire format (all integers big-endian):
//
//	magic    8 bytes  "MALCKPT\x01" (the final byte is the version)
//	count    4 bytes  number of sections
//	section  repeated count times:
//	         2 bytes  name length
//	         name
//	         8 bytes  data length
//	         data
//	footer   32 bytes SHA-256 over every preceding byte
//
// Files are written atomically by WriteBytes, which internal/lake also
// uses for its objects and journal: the bytes go to a temp file in the
// destination directory and are os.Rename'd into place, so a crash
// mid-write can never leave a half-written day-NNN.ckpt to resume
// from (tools/vettime lints this package for exactly that pattern).
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// magic identifies a checkpoint file; the trailing byte is the format
// version and is bumped on any incompatible layout change.
var magic = [8]byte{'M', 'A', 'L', 'C', 'K', 'P', 'T', 0x01}

// Decode sanity caps: a snapshot carries a handful of named sections,
// so anything claiming more is corruption, not data.
const (
	maxSections = 1 << 10
	maxNameLen  = 1 << 12
)

// Section is one named payload inside a checkpoint file.
type Section struct {
	Name string
	Data []byte
}

// File is a decoded (or to-be-encoded) checkpoint: an ordered list of
// sections.
type File struct {
	Sections []Section

	// Sum is the SHA-256 integrity footer. Decode fills it in after
	// verification, so a read-side consumer (the serving layer) can
	// use it as a content-addressed generation id without hashing the
	// file again. Zero on a File that was built by hand and never
	// encoded.
	Sum [sha256.Size]byte
}

// SumHex is the integrity footer as lowercase hex — the snapshot's
// generation id on the read side.
func (f *File) SumHex() string { return hex.EncodeToString(f.Sum[:]) }

// Add appends a raw section.
func (f *File) Add(name string, data []byte) {
	f.Sections = append(f.Sections, Section{Name: name, Data: data})
}

// AddJSON marshals v and appends it as a section.
func (f *File) AddJSON(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding section %q: %w", name, err)
	}
	f.Add(name, b)
	return nil
}

// Section returns the named section's bytes.
func (f *File) Section(name string) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// JSON unmarshals the named section into v. A missing section is an
// error: every section the study writes is load-bearing on resume.
func (f *File) JSON(name string, v any) error {
	b, ok := f.Section(name)
	if !ok {
		return fmt.Errorf("checkpoint: section %q missing", name)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("checkpoint: decoding section %q: %w", name, err)
	}
	return nil
}

// Encode serializes the file, footer included.
func Encode(f *File) []byte {
	size := len(magic) + 4
	for _, s := range f.Sections {
		size += 2 + len(s.Name) + 8 + len(s.Data)
	}
	out := make([]byte, 0, size+sha256.Size)
	out = append(out, magic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(f.Sections)))
	for _, s := range f.Sections {
		out = binary.BigEndian.AppendUint16(out, uint16(len(s.Name)))
		out = append(out, s.Name...)
		out = binary.BigEndian.AppendUint64(out, uint64(len(s.Data)))
		out = append(out, s.Data...)
	}
	sum := sha256.Sum256(out)
	f.Sum = sum
	return append(out, sum[:]...)
}

// Decode parses b, verifying the magic, every length frame, and the
// integrity footer. It never panics on corrupt or truncated input —
// every read is bounds-checked against the remaining bytes (see
// FuzzCheckpointDecode).
func Decode(b []byte) (*File, error) {
	if len(b) < len(magic)+4+sha256.Size {
		return nil, fmt.Errorf("checkpoint: truncated: %d bytes", len(b))
	}
	body, foot := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(foot) {
		return nil, fmt.Errorf("checkpoint: integrity footer mismatch (corrupt or tampered snapshot)")
	}
	if string(body[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("checkpoint: bad magic (not a checkpoint, or incompatible version)")
	}
	rest := body[len(magic):]
	count := binary.BigEndian.Uint32(rest[:4])
	rest = rest[4:]
	if count > maxSections {
		return nil, fmt.Errorf("checkpoint: implausible section count %d", count)
	}
	f := &File{Sum: sum}
	for i := uint32(0); i < count; i++ {
		if len(rest) < 2 {
			return nil, fmt.Errorf("checkpoint: truncated section %d header", i)
		}
		nameLen := int(binary.BigEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if nameLen > maxNameLen || len(rest) < nameLen {
			return nil, fmt.Errorf("checkpoint: section %d name overruns file", i)
		}
		name := string(rest[:nameLen])
		rest = rest[nameLen:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("checkpoint: truncated section %q length", name)
		}
		dataLen := binary.BigEndian.Uint64(rest[:8])
		rest = rest[8:]
		if dataLen > uint64(len(rest)) {
			return nil, fmt.Errorf("checkpoint: section %q data overruns file", name)
		}
		f.Add(name, rest[:dataLen])
		rest = rest[dataLen:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes after last section", len(rest))
	}
	return f, nil
}

// WriteFile encodes f and writes it to path with WriteBytes.
func WriteFile(path string, f *File) error {
	return WriteBytes(path, Encode(f))
}

// WriteBytes writes data to path atomically and durably: the bytes go
// to a temp file in path's directory, are fsync'd to stable storage
// (Close alone does NOT flush the kernel page cache), and the temp
// file is os.Rename'd over path; the parent directory is then fsync'd
// so the rename itself survives a power loss. Readers therefore only
// ever see the old file or the whole new one — never an empty or
// vanished "committed" one. The temp file is chmod'd 0644 before the
// rename: os.CreateTemp creates 0600, which would stop a daemon
// running as a different user from mounting the snapshot it is asked
// to serve.
func WriteBytes(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
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
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a just-renamed entry durable:
// os.Rename updates the directory, and that update lives in the page
// cache until the directory itself is flushed.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// ReadFile loads and decodes the checkpoint at path.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

// DayPath names the checkpoint for study-day n inside dir.
func DayPath(dir string, day int) string {
	return filepath.Join(dir, fmt.Sprintf("day-%03d.ckpt", day))
}

// dayOf parses a day-NNN.ckpt base name; ok is false for anything
// else (temp files, strangers). The whole name must match — Sscanf
// would happily take "day-099.ckpt.tmp123".
func dayOf(name string) (int, bool) {
	digits, found := strings.CutPrefix(name, "day-")
	if !found {
		return 0, false
	}
	digits, found = strings.CutSuffix(digits, ".ckpt")
	if !found {
		return 0, false
	}
	day, err := strconv.Atoi(digits)
	if err != nil || day < 0 {
		return 0, false
	}
	return day, true
}

// Snapshot is a checkpoint found on disk by Latest, decoded and
// footer-verified. The embedded File gives section access; Path and
// Day locate it in the directory.
type Snapshot struct {
	*File
	Path string
	Day  int
}

// Latest returns the newest valid checkpoint in dir, fully decoded.
// A snapshot that fails to load — bit-flipped, truncated by a bad
// disk, or removed between the directory listing and the read — is
// skipped and the next-newest is tried, because an older good resume
// point always beats refusing to resume at all; skipped reports how
// many were passed over so the caller can log the fallback. snap is
// nil when dir holds no loadable checkpoint (including when the
// directory does not exist) — the caller then starts fresh.
func Latest(dir string) (snap *Snapshot, skipped int, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var days []int
	for _, e := range entries {
		if d, isCkpt := dayOf(e.Name()); isCkpt {
			days = append(days, d)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(days)))
	for _, d := range days {
		path := DayPath(dir, d)
		f, err := ReadFile(path)
		if err != nil {
			skipped++
			continue
		}
		return &Snapshot{File: f, Path: path, Day: d}, skipped, nil
	}
	return nil, skipped, nil
}

// Prune removes every checkpoint in dir older than keepDay, keeping
// the newest snapshot as the single resume point. Removal failures
// are reported but the newest checkpoint is never touched — and one
// stubborn entry does not shield the rest: every removable checkpoint
// is removed, and the failures come back joined into one error.
func Prune(dir string, keepDay int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var days []int
	for _, e := range entries {
		if d, isCkpt := dayOf(e.Name()); isCkpt && d < keepDay {
			days = append(days, d)
		}
	}
	sort.Ints(days)
	var errs []error
	for _, d := range days {
		if err := os.Remove(DayPath(dir, d)); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
