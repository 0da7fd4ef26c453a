package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/fleet"
)

// manifest is the on-disk record of one job, written atomically on every
// state transition at the writer's lease epoch so a killed server (or a
// peer) can reconstruct the job. The resolved spec text is embedded:
// recovery never needs the spec directory the job was submitted against.
type manifest struct {
	ID       string     `json:"id"`
	Request  JobRequest `json:"request"`
	System   string     `json:"system,omitempty"`
	State    State      `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  time.Time  `json:"started,omitempty"`
	Finished time.Time  `json:"finished,omitempty"`
	// ResumedFrom records the checkpoint generation the last run continued
	// from, so restart semantics stay observable across restarts.
	ResumedFrom int `json:"resumed_from,omitempty"`
	// Attempts counts failed executions of this job so far; it is carried
	// through restarts and steals so a poison job exhausts its budget
	// fleet-wide, not per node. NotBefore (a pointer so the happy path
	// omits it — time.Time has no empty encoding) delays the next retry.
	// Both are absent for jobs that never failed.
	Attempts  int        `json:"attempts,omitempty"`
	NotBefore *time.Time `json:"not_before,omitempty"`
	// Node and Epoch record provenance: which node wrote this manifest
	// under which lease epoch (0: the submitter, before any claim). Legacy
	// single-node manifests carry neither.
	Node  string `json:"node,omitempty"`
	Epoch int    `json:"epoch,omitempty"`
	// Cached marks a job answered from the content-addressed result cache;
	// absent for jobs that ran.
	Cached bool `json:"cached,omitempty"`
}

// manifestRetry renders the job's retry fields for a manifest.
func manifestRetry(snap jobSnapshot) (int, *time.Time) {
	var nb *time.Time
	if !snap.NotBefore.IsZero() {
		t := snap.NotBefore
		nb = &t
	}
	return snap.Attempts, nb
}

// The single-node layout of earlier releases: each job in DataDir/jobs/<id>/ as
// manifest.json, result.json and job.ckpt, written without leases or
// epochs. Only the migration below still reads these names.
const (
	legacyManifest   = "manifest.json"
	legacyResult     = "result.json"
	legacyCheckpoint = "job.ckpt"
)

// migrateLegacy converts single-node job directories to the job store
// layout in place, once, when the server opens its data directory. The
// legacy files hold the very documents the store keeps, so each is
// republished unchanged under its epoch-0 name — the name a job has before
// any lease exists — next to a spec.json rebuilt from the manifest's
// request; then the legacy names go. A legacy running manifest stays
// running: the claim loop treats it like any orphaned run, counting the
// attempt that died and resuming from the checkpoint. A job whose manifest
// cannot be read is left in place and counted in serve.manifests_skipped.
// Batch records already live where the store keeps them (DataDir/batches).
func (s *Server) migrateLegacy() error {
	ids, err := s.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		dir := s.store.JobDir(id)
		data, err := s.cfg.FS.ReadFile(filepath.Join(dir, legacyManifest))
		if errors.Is(err, fs.ErrNotExist) {
			continue // not a legacy job
		}
		var m manifest
		if err == nil {
			err = decodeManifest(data, id, &m)
		}
		if err != nil {
			s.skipUnreadable(id, err)
			continue
		}
		if err := s.convertLegacy(id, dir, &m.Request, data); err != nil {
			return fmt.Errorf("convert legacy job %s: %w", id, err)
		}
	}
	return nil
}

// convertLegacy republishes one legacy job. Every write replaces, so a
// conversion cut short by a crash simply runs again at the next start; the
// manifest lands last and the legacy manifest goes last, so the job is
// never missing from both layouts.
func (s *Server) convertLegacy(id, dir string, req *JobRequest, man []byte) error {
	spec, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(s.cfg.FS, s.store.SpecPath(id), spec); err != nil {
		return err
	}
	legacy := []struct {
		name string
		kind fleet.Kind
	}{{legacyResult, fleet.KindResult}, {legacyCheckpoint, fleet.KindCheckpoint}}
	for _, f := range legacy {
		data, err := s.cfg.FS.ReadFile(filepath.Join(dir, f.name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err == nil {
			err = durable.WriteFileAtomic(s.cfg.FS, s.store.StatePath(id, f.kind, 0), data)
		}
		if err != nil {
			return err
		}
	}
	if err := durable.WriteFileAtomic(s.cfg.FS, s.store.StatePath(id, fleet.KindManifest, 0), man); err != nil {
		return err
	}
	for _, name := range []string{legacyResult, legacyCheckpoint, legacyManifest} {
		if err := s.cfg.FS.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return s.cfg.FS.SyncDir(dir)
}

// decodeManifest decodes and validates a manifest read from disk (external
// input) for the named job.
func decodeManifest(data []byte, id string, m *manifest) error {
	if err := json.Unmarshal(data, m); err != nil {
		return fmt.Errorf("corrupt manifest: %w", err)
	}
	if m.ID != id {
		return fmt.Errorf("corrupt manifest: names job %q", m.ID)
	}
	if !m.State.valid() {
		return fmt.Errorf("corrupt manifest: unknown state %q", m.State)
	}
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none recorded"
	}
	return s
}
