package durable_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
)

// journalOps returns the journaled operations as "op base" strings, with
// every temp file collapsed to "tmp", so tests can pin the exact order.
func journalOps(cfs *chaosfs.FS) []string {
	var ops []string
	for _, rec := range cfs.Journal() {
		base := filepath.Base(rec.Path)
		if strings.Contains(base, ".tmp") {
			base = "tmp"
		}
		ops = append(ops, string(rec.Op)+" "+base)
	}
	return ops
}

func wantOps(t *testing.T, cfs *chaosfs.FS, want ...string) {
	t.Helper()
	got := journalOps(cfs)
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("journal = %v, want %v", got, want)
	}
}

// noTemps fails when any temp file survived in dir.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestWriteFileAtomicOrder is the ordering proof for replacement writes:
// the synced temp file is renamed into place and only then is the parent
// directory fsynced, so a crash after the rename cannot lose the entry.
func TestWriteFileAtomicOrder(t *testing.T) {
	dir := t.TempDir()
	cfs := chaosfs.New(durable.OSFS{})
	path := filepath.Join(dir, "manifest.json")
	for _, body := range []string{"old", "new"} {
		cfs.Reset()
		if err := durable.WriteFileAtomic(cfs, path, []byte(body)); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
		wantOps(t, cfs, "write tmp", "rename manifest.json", "syncdir "+filepath.Base(dir))
		if got := readFile(t, path); got != body {
			t.Fatalf("content = %q, want %q", got, body)
		}
	}
	noTemps(t, dir)
}

// TestPublishOrder is the ordering proof for create-once writes: the synced
// temp file is linked into place, the temp removed, and the directory
// fsynced last.
func TestPublishOrder(t *testing.T) {
	dir := t.TempDir()
	cfs := chaosfs.New(durable.OSFS{})
	path := filepath.Join(dir, "entry.json")
	if err := durable.Publish(cfs, path, []byte("first")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	wantOps(t, cfs, "write tmp", "link entry.json", "remove tmp", "syncdir "+filepath.Base(dir))
	noTemps(t, dir)
}

// TestPublishLostRaceIsBenign pins the create-once contract: publishing
// over an existing path succeeds, keeps the winner's bytes and leaves no
// temp behind.
func TestPublishLostRaceIsBenign(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "entry.json")
	if err := durable.Publish(durable.OSFS{}, path, []byte("winner")); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if err := durable.Publish(durable.OSFS{}, path, []byte("loser")); err != nil {
		t.Fatalf("second Publish = %v, want nil (lost race is benign)", err)
	}
	if got := readFile(t, path); got != "winner" {
		t.Fatalf("content = %q, want the first publication", got)
	}
	noTemps(t, dir)
}

// TestFaultsLeaveDestinationIntact drives a failure into each step of both
// helpers: the destination must keep its previous bytes (or stay absent),
// the error must surface, and a failed step before the directory fsync
// must not leave a temp behind.
func TestFaultsLeaveDestinationIntact(t *testing.T) {
	enospc := chaosfs.Rule{Op: chaosfs.OpWrite, Kind: chaosfs.KindErr, Err: syscall.ENOSPC}
	torn := chaosfs.Rule{Op: chaosfs.OpWrite, Kind: chaosfs.KindTorn}
	cases := []struct {
		name    string
		publish bool
		rule    chaosfs.Rule
	}{
		{"atomic/enospc", false, enospc},
		{"atomic/torn", false, torn},
		{"atomic/rename", false, chaosfs.Rule{Op: chaosfs.OpRename, Kind: chaosfs.KindErr}},
		{"publish/enospc", true, enospc},
		{"publish/torn", true, torn},
		{"publish/link", true, chaosfs.Rule{Op: chaosfs.OpLink, Kind: chaosfs.KindErr}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			write := durable.WriteFileAtomic
			if tc.publish {
				write = durable.Publish
			} else if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
				t.Fatal(err)
			}
			cfs := chaosfs.New(durable.OSFS{})
			cfs.Inject(tc.rule)
			if err := write(cfs, path, []byte("new bytes")); err == nil {
				t.Fatal("faulted write reported success")
			}
			data, err := os.ReadFile(path)
			switch {
			case tc.publish && !errors.Is(err, os.ErrNotExist):
				t.Fatalf("failed publish left %q (err %v), want no file", data, err)
			case !tc.publish && !bytes.Equal(data, []byte("old")):
				t.Fatalf("failed replace left %q (err %v), want the old bytes", data, err)
			}
			noTemps(t, dir)
		})
	}
}
