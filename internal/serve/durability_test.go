package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
	"momosyn/internal/serve"
)

var manifestRe = regexp.MustCompile(`manifest\.e[0-9]+\.json`)

// TestAdmissionDurability: admission fsyncs data/jobs right after creating
// the job directory, and a job whose queued manifest cannot be written is
// refused with a 500 and leaves no directory behind — a 202 must survive a
// restart.
func TestAdmissionDurability(t *testing.T) {
	dataDir := t.TempDir()
	jobsDir := filepath.Join(dataDir, "jobs")
	cfs := chaosfs.New(durable.OSFS{})
	a := newAPI(t, newServer(t, serve.Config{Workers: 1, DataDir: dataDir, FS: cfs}))
	spec := tinySpec(t)

	cfs.Reset()
	j := a.submit(quickJob(spec, 1))
	journal := cfs.Journal()
	mkdir := -1
	for i, rec := range journal {
		if rec.Op == chaosfs.OpMkdir && rec.Path == filepath.Join(jobsDir, j.ID) {
			mkdir = i
		}
	}
	if mkdir < 0 || mkdir+1 >= len(journal) {
		t.Fatalf("no mkdir of the job directory in %v", journal)
	}
	if next := journal[mkdir+1]; next.Op != chaosfs.OpSyncDir || next.Path != jobsDir {
		t.Fatalf("after mkdir %s the journal shows %s %s, want syncdir %s", j.ID, next.Op, next.Path, jobsDir)
	}

	cfs.Inject(chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindErr, Err: syscall.ENOSPC})
	var refused map[string]any
	if resp := a.do("POST", "/v1/jobs", quickJob(spec, 2), &refused); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit with an undurable manifest: status %d (%v), want 500", resp.StatusCode, refused)
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != j.ID {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("job directories after the refused submit = %v, want only %s", names, j.ID)
	}

	// The refused submission consumed nothing: the next one takes its ID.
	if next := a.submit(quickJob(spec, 2)); next.ID != "j000002" {
		t.Fatalf("resubmission got ID %s, want j000002", next.ID)
	}
}

// TestCacheHitManifestFailureRunsJob: a cache hit whose manifest cannot be
// written is discarded and the submission runs as a normal job.
func TestCacheHitManifestFailureRunsJob(t *testing.T) {
	dataDir, cacheDir := t.TempDir(), t.TempDir()
	cfs := chaosfs.New(durable.OSFS{})
	_, a := startServer(t, serve.Config{Workers: 1, DataDir: dataDir, CacheDir: cacheDir, FS: cfs})
	req := quickJob(tinySpec(t), 3)
	first := a.submit(req)
	a.await(first.ID, "done", stateIs(serve.StateDone))
	// The worker publishes the cache entry before revealing done, so the
	// resubmission below is a hit unless its manifest write fails.
	cfs.Inject(chaosfs.Rule{Op: chaosfs.OpWrite, Path: manifestRe, Kind: chaosfs.KindErr, Err: syscall.ENOSPC})
	second := a.submit(req)
	v := a.await(second.ID, "done", stateIs(serve.StateDone))
	if v.Cached {
		t.Fatal("a hit whose manifest failed was still served from the cache")
	}
	if metricValue(t, a, "serve.cache_hits") == 0 {
		t.Fatal("the resubmission never looked the cache entry up")
	}
}

// mutatingOnly hands reads straight to the real filesystem, so the chaos
// layer journals — and counts crash points over — only the operations that
// change the disk. A crash at a read leaves the same disk as a crash at the
// next mutating operation, so the sweep loses no crash state by it.
type mutatingOnly struct{ *chaosfs.FS }

func (mutatingOnly) ReadFile(path string) ([]byte, error)  { return durable.OSFS{}.ReadFile(path) }
func (mutatingOnly) ReadDir(path string) ([]string, error) { return durable.OSFS{}.ReadDir(path) }

// TestTerminalPersistCrashSweep crashes the filesystem at each operation of
// the worker's terminal persist (result, cache publish, manifest,
// checkpoint removal, lease release) and reopens the data directory, as
// after a kill -9. The job must come back done with a result that parses —
// either at once, or after the reopened server waits out the dead run's
// lease and runs it again — never done without a result.
func TestTerminalPersistCrashSweep(t *testing.T) {
	spec := tinySpec(t)
	const ttl = 200 * time.Millisecond
	// run executes one job over a chaos filesystem with crash armed at the
	// given mutating operation (0: no crash) and returns the journal. The
	// hour-long heartbeat keeps periodic scans and lease renewals out of
	// the journal, so the clean and the crashed runs line up operation by
	// operation.
	run := func(t *testing.T, dataDir string, crashAt int) (string, []chaosfs.Record) {
		t.Helper()
		cfs := chaosfs.New(durable.OSFS{})
		if crashAt > 0 {
			cfs.Inject(chaosfs.Rule{Countdown: crashAt, Kind: chaosfs.KindCrash, KeepBytes: -1})
		}
		s := newServer(t, serve.Config{Workers: 1, DataDir: dataDir,
			CacheDir: filepath.Join(dataDir, "cache"), FS: mutatingOnly{cfs},
			LeaseTTL: ttl, Heartbeat: time.Hour})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Start(ctx)
		a := newAPI(t, s)
		// The claim loop's first scan writes the node heartbeat; let it
		// finish before the job's own writes begin.
		eventually(t, "first scan", func() bool { return metricValue(t, a, "fleet.live_nodes") >= 1 })
		j := a.submit(quickJob(spec, 4))
		a.await(j.ID, "terminal", stateIs(serve.StateDone))
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := s.Shutdown(sctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		a.ts.Close()
		return j.ID, cfs.Journal()
	}
	shape := func(rec chaosfs.Record) string {
		base := filepath.Base(rec.Path)
		if i := strings.Index(base, ".tmp"); i >= 0 {
			base = base[:i]
		}
		return string(rec.Op) + " " + base
	}
	// label names the artifact an operation touches, for subtest names.
	label := func(rec chaosfs.Record) string {
		for _, art := range []string{"result", "manifest", "ckpt", "cache"} {
			if strings.Contains(rec.Path, art) {
				return art
			}
		}
		return "jobdir"
	}

	_, clean := run(t, t.TempDir(), 0)
	first := -1
	for i, rec := range clean {
		if strings.Contains(rec.Path, "result.e") {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatalf("no result write in the clean journal %v", clean)
	}
	for i := first; i < len(clean); i++ {
		t.Run(fmt.Sprintf("%02d-%s-%s", i-first, clean[i].Op, label(clean[i])), func(t *testing.T) {
			dataDir := t.TempDir()
			id, journal := run(t, dataDir, i+1)
			if len(journal) <= i || !journal[i].Faulted || shape(journal[i]) != shape(clean[i]) {
				t.Fatalf("crash landed off target: want %q at op %d, journal %v", shape(clean[i]), i, journal)
			}

			_, a := startServer(t, serve.Config{Workers: 1, DataDir: dataDir,
				CacheDir: filepath.Join(dataDir, "cache"), LeaseTTL: ttl, Heartbeat: 20 * time.Millisecond})
			a.await(id, "done", stateIs(serve.StateDone))
			var res serve.ResultView
			if resp := a.do("GET", "/v1/jobs/"+id+"/result", nil, &res); resp.StatusCode != http.StatusOK {
				t.Fatalf("recovered done job serves no result: status %d", resp.StatusCode)
			}
			results, _ := filepath.Glob(filepath.Join(dataDir, "jobs", id, "result.e*.json"))
			if len(results) == 0 {
				t.Fatal("recovered done job has no result document on disk")
			}
			for _, path := range results {
				if raw, err := os.ReadFile(path); err != nil || !json.Valid(raw) {
					t.Fatalf("result document %s does not parse (err %v): %q", filepath.Base(path), err, raw)
				}
			}
		})
	}
}
