package checkpoint

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// LinkBytes places data at path atomically and durably, as WriteBytes
// does, but as a hard link of src, the open file data was just read
// and verified through, instead of a second copy. The link goes to a
// temp name in path's directory, os.SameFile checks that it names
// src's inode, the file is fsync'd (through src, now the same file),
// the temp name is os.Rename'd over path and the directory is fsync'd.
// path and src's file then share their blocks, so src must never be
// modified in place afterwards: damage to one is damage to both.
//
// LinkBytes falls back to WriteBytes(path, data) when the link cannot
// be made (path on another filesystem, EPERM), when it names another
// inode (src's name was replaced after src was opened), when src is
// not a regular file of mode 0644, so a placed file is always
// world-readable, and when src cannot be fsync'd (Windows refuses a
// read-only handle): a written copy is made durable on its own.
func LinkBytes(path string, src *os.File, data []byte) error {
	fi, err := src.Stat()
	if err != nil || fi.Mode() != 0o644 {
		return WriteBytes(path, data)
	}
	// The suffix only has to be unlikely to exist: a name that does
	// makes the link fail, and the bytes are written instead.
	tmp := path + ".tmp" + strconv.FormatUint(rand.Uint64(), 10)
	if err := os.Link(src.Name(), tmp); err != nil {
		return WriteBytes(path, data)
	}
	if linked, err := os.Lstat(tmp); err != nil || !os.SameFile(fi, linked) {
		os.Remove(tmp)
		return WriteBytes(path, data)
	}
	if err := src.Sync(); err != nil {
		os.Remove(tmp)
		return WriteBytes(path, data)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}
