// Package fsyncdisc is an analysistest-style fixture for the fsyncdisc
// analyzer; want expectations mark the expected findings.
package fsyncdisc

import (
	"os"

	"momosyn/internal/durable"
)

// renameInPlace replaces a file by hand: even a correct sequence belongs
// in durable.WriteFileAtomic.
func renameInPlace(tmp, dst string) error {
	return os.Rename(tmp, dst) // want "Rename outside internal/durable"
}

// linkInPlace publishes a file by hand.
func linkInPlace(tmp, dst string) error {
	if err := os.Link(tmp, dst); err != nil { // want "Link outside internal/durable"
		return err
	}
	return os.Remove(tmp)
}

// renameThroughFS renames through a durable.FS method.
func renameThroughFS(fsys durable.FS, tmp, dst string) error {
	if err := fsys.WriteFile(tmp, nil); err != nil {
		return err
	}
	return fsys.Rename(tmp, dst) // want "Rename outside internal/durable"
}

// linkThroughFS links through a durable.FS method.
func linkThroughFS(fsys durable.FS, tmp, dst string) error {
	return fsys.Link(tmp, dst) // want "Link outside internal/durable"
}

// writeDurably is the clean pattern: the durable helpers do the renaming
// and linking.
func writeDurably(fsys durable.FS, manifest, entry string, data []byte) error {
	if err := durable.WriteFileAtomic(fsys, manifest, data); err != nil {
		return err
	}
	return durable.Publish(fsys, entry, data)
}

// Rename takes one argument, so it is not a filesystem rename.
func (tag) Rename(name string) tag { return tag(name) }

type tag string

func retag(t tag) tag { return t.Rename("x") }

// reviewedRename is a reviewed exception.
func reviewedRename(tmp, dst string) error {
	//mmlint:ignore fsyncdisc fixture: a suppressed finding stays silent
	return os.Rename(tmp, dst)
}
