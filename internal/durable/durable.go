// Package durable is the one place momosyn writes files crash-safely.
// Every record that must survive a crash — serve manifests, results and
// batch records, runctl checkpoints, cas entries, fleet state — is written
// through an FS, and every rename or link happens in this package, mostly
// in the two helpers below:
//
//   - WriteFileAtomic replaces a file: write+fsync a temp file, rename it
//     over the destination, fsync the directory.
//   - Publish creates a file exactly once: write+fsync a temp file, link it
//     to the destination (a lost race leaves the winner's bytes in place),
//     remove the temp, fsync the directory.
//
// OSFS.CreateExclusive links a synced temp file into place the same way,
// but reports a lost race, for claims that must know who won.
//
// After a crash the destination holds either its old bytes or the new
// ones, never a torn mix, and the directory entry cannot be lost to an
// unsynced directory. The fsyncdisc analyzer (docs/LINT.md) keeps every
// rename and link inside this package; tests swap OSFS for
// durable/chaosfs to inject faults into any writer.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// FS is the filesystem surface every durable writer runs on. Production
// uses OSFS; tests wrap it in chaosfs.FS to inject torn writes, short
// writes, ENOSPC, EIO, rename and link failures and crash points.
type FS interface {
	// MkdirAll creates a directory and its parents (nil if present).
	MkdirAll(path string) error
	// Mkdir creates one directory, failing if it already exists; it is the
	// atomic-exclusive primitive behind fleet-wide job-ID allocation.
	Mkdir(path string) error
	// ReadFile returns the file's contents.
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the names of the directory's entries.
	ReadDir(path string) ([]string, error)
	// WriteFile writes data to a (possibly new) file and syncs it. It is
	// NOT atomic: callers wanting crash-atomicity use WriteFileAtomic or
	// Publish.
	WriteFile(path string, data []byte) error
	// CreateExclusive atomically creates the file with its full, synced
	// content: a concurrent reader sees no file or all of it, never a
	// prefix. It fails with a fs.ErrExist-wrapped error when the path
	// already exists; exactly one concurrent caller can win.
	CreateExclusive(path string, data []byte) error
	// Rename atomically moves oldPath over newPath.
	Rename(oldPath, newPath string) error
	// Link creates newPath as a hard link to oldPath, failing with a
	// fs.ErrExist-wrapped error when newPath already exists.
	Link(oldPath, newPath string) error
	// Remove deletes the file.
	Remove(path string) error
	// SyncDir fsyncs a directory, making preceding creations, renames,
	// links and removals in it durable.
	SyncDir(path string) error
}

// OSFS is the real-filesystem implementation of FS.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// Mkdir implements FS.
func (OSFS) Mkdir(path string) error { return os.Mkdir(path, 0o755) }

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadDir implements FS.
func (OSFS) ReadDir(path string) ([]string, error) {
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

// WriteFile implements FS: write then fsync, so the data (though not
// necessarily the directory entry) is durable on return.
func (OSFS) WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CreateExclusive implements FS: the content is written and synced under
// a temp name, and the hard link that gives it its name is the exclusive
// create. A peer deciding whether a fresh lease is live therefore never
// reads one half written.
func (o OSFS) CreateExclusive(path string, data []byte) error {
	tmp := tempFor(path)
	defer os.Remove(tmp)
	if err := o.WriteFile(tmp, data); err != nil {
		return err
	}
	return os.Link(tmp, path)
}

// Rename implements FS.
func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// Link implements FS.
func (OSFS) Link(oldPath, newPath string) error { return os.Link(oldPath, newPath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// SyncDir implements FS.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// tmpSeq distinguishes concurrent temp files within one process; the pid
// in the name separates processes sharing a directory.
var tmpSeq atomic.Uint64

// tempFor returns a fresh hidden temp path beside path.
func tempFor(path string) string {
	return filepath.Join(filepath.Dir(path),
		fmt.Sprintf(".%s.tmp%d.%d", filepath.Base(path), os.Getpid(), tmpSeq.Add(1)))
}

// WriteFileAtomic writes data to path with full crash-atomicity on fsys: a
// synced temp file in the destination directory is renamed over path and
// the directory itself is then fsynced, so after a crash the path holds
// either the old bytes or the new bytes, never a torn mix, and the rename
// itself cannot be lost to an unsynced directory.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := tempFor(path)
	if err := fsys.WriteFile(tmp, data); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// Publish creates path with data exactly once on fsys: a synced temp file
// is hard-linked to path (a link never exposes partial content), the temp
// is removed and the directory fsynced. When path already exists the link
// loses the race and Publish still succeeds, leaving the existing bytes in
// place — callers publish content that is a function of the path, so the
// winner's bytes are the loser's.
func Publish(fsys FS, path string, data []byte) error {
	tmp := tempFor(path)
	if err := fsys.WriteFile(tmp, data); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Link(tmp, path); err != nil && !errors.Is(err, fs.ErrExist) {
		fsys.Remove(tmp)
		return err
	}
	// The temp is only a second name for the published bytes; failing to
	// remove it leaks a hidden file, not correctness.
	fsys.Remove(tmp)
	return fsys.SyncDir(filepath.Dir(path))
}
