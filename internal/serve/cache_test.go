package serve_test

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"momosyn/internal/obs"
	"momosyn/internal/serve"
)

// cacheServer boots a server with the result cache enabled,
// per-job run tracing on (so a synthesis that runs leaves a trace.jsonl
// with run_start) and lifecycle tracing captured into buf. The returned
// stop drains the server and flushes the buffered lifecycle sink — the
// trace buffer is only complete after calling it; stop is idempotent and
// also registered as a cleanup.
func cacheServer(t *testing.T, dataDir, cacheDir string, trace *bytes.Buffer) (*serve.Server, *api, func()) {
	t.Helper()
	var lifecycle *obs.Run
	if trace != nil {
		lifecycle = obs.NewRun(nil, obs.NewJSONLSink(trace))
	}
	s := newServer(t, serve.Config{
		Workers: 1, QueueDepth: 8,
		DataDir:   dataDir,
		CacheDir:  cacheDir,
		TraceJobs: true,
		Lifecycle: lifecycle,
	})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer scancel()
			_ = s.Shutdown(sctx)
			if lifecycle != nil {
				lifecycle.Close()
			}
		})
	}
	t.Cleanup(stop)
	return s, newAPI(t, s), stop
}

// TestCacheHitResubmission is the acceptance scenario: resubmitting a
// completed job returns a terminal certified job with ZERO synthesis work
// — no run trace (hence no run_start event), no queue time, cache_hits of
// exactly 1 — and semantically identical spec text (comments, whitespace)
// still hits, while changed options miss.
func TestCacheHitResubmission(t *testing.T) {
	spec := tinySpec(t)
	dataDir := t.TempDir()
	var trace bytes.Buffer
	_, a, stop := cacheServer(t, dataDir, t.TempDir(), &trace)

	first := a.submit(quickJob(spec, 7))
	a.await(first.ID, "done", stateIs(serve.StateDone))
	if first.Cached {
		t.Fatal("first submission claims to be cached")
	}
	if got := metricValue(t, a, "serve.cache_misses"); got != 1 {
		t.Fatalf("serve.cache_misses = %v, want 1", got)
	}
	// The first job ran for real: its trace (one file per lease epoch) has
	// a run_start event.
	traces, _ := filepath.Glob(filepath.Join(dataDir, "jobs", first.ID, "trace.e*.jsonl"))
	if len(traces) != 1 {
		t.Fatalf("first job left %d run traces %v, want 1", len(traces), traces)
	}
	firstTrace, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatalf("first job's run trace: %v", err)
	}
	if !strings.Contains(string(firstTrace), `"run_start"`) {
		t.Fatal("first job's trace has no run_start event; the zero-work check below would be vacuous")
	}
	var firstRes serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+first.ID+"/result", nil, &firstRes); resp.StatusCode != http.StatusOK {
		t.Fatalf("first result: status %d", resp.StatusCode)
	}
	if firstRes.Certification == nil || !firstRes.Certification.Certified {
		t.Fatal("first job finished without certification; nothing should have been cached")
	}

	// Resubmit the identical request: terminal at submission.
	second := a.submit(quickJob(spec, 7))
	if second.State != serve.StateDone || !second.Cached {
		t.Fatalf("resubmission = state %s cached %v, want done/cached", second.State, second.Cached)
	}
	if got := metricValue(t, a, "serve.cache_hits"); got != 1 {
		t.Fatalf("serve.cache_hits = %v, want 1", got)
	}
	// Zero synthesis work: the cached job owns no run trace at all.
	if traces, _ := filepath.Glob(filepath.Join(dataDir, "jobs", second.ID, "trace*")); len(traces) != 0 {
		t.Fatalf("cached job has run traces %v; it must never have run", traces)
	}
	var secondRes serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+second.ID+"/result", nil, &secondRes); resp.StatusCode != http.StatusOK {
		t.Fatalf("cached result: status %d", resp.StatusCode)
	}
	if secondRes.ID != second.ID || secondRes.State != serve.StateDone {
		t.Fatalf("cached result identifies as %s/%s, want %s/done", secondRes.ID, secondRes.State, second.ID)
	}
	if secondRes.AvgPower != firstRes.AvgPower || secondRes.Evaluations != firstRes.Evaluations {
		t.Fatalf("cached result diverges from the original: %v/%d vs %v/%d",
			secondRes.AvgPower, secondRes.Evaluations, firstRes.AvgPower, firstRes.Evaluations)
	}
	if secondRes.Certification == nil || !secondRes.Certification.Certified {
		t.Fatal("cached result lost its certification")
	}

	// A semantically identical textual variant of the spec also hits.
	mutated := "# resubmitted with cosmetic noise\n" + strings.ReplaceAll(spec, "\n", "\n\n") + "\n"
	req := quickJob(mutated, 7)
	third := a.submit(req)
	if third.State != serve.StateDone || !third.Cached {
		t.Fatalf("mutated-spec resubmission = state %s cached %v, want done/cached", third.State, third.Cached)
	}
	if got := metricValue(t, a, "serve.cache_hits"); got != 2 {
		t.Fatalf("serve.cache_hits = %v, want 2", got)
	}

	// A different seed is a different key: it must run for real.
	fourth := a.submit(quickJob(spec, 8))
	if fourth.Cached {
		t.Fatal("different seed served from cache")
	}
	a.await(fourth.ID, "done", stateIs(serve.StateDone))
	if got := metricValue(t, a, "serve.cache_misses"); got != 2 {
		t.Fatalf("serve.cache_misses = %v, want 2", got)
	}

	// The lifecycle stream records the cached admissions as `cached`
	// events, and the cached jobs produce no attempt events. The JSONL
	// sink buffers, so drain the server and flush it before reading.
	stop()
	events, err := obs.ReadEvents(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("lifecycle trace: %v", err)
	}
	for id, wantCached := range map[string]bool{first.ID: false, second.ID: true, third.ID: true} {
		var cached, attempts int
		for _, sp := range jobEvents(t, events, id) {
			switch sp.Event {
			case obs.JobCached:
				cached++
				if sp.State != string(serve.StateDone) {
					t.Errorf("job %s cached event enters %q, want done", id, sp.State)
				}
			case obs.JobAttempt:
				attempts++
			}
		}
		if wantCached && (cached != 1 || attempts != 0) {
			t.Errorf("job %s: %d cached / %d attempt events, want 1/0", id, cached, attempts)
		}
		if !wantCached && cached != 0 {
			t.Errorf("job %s: %d cached events, want 0", id, cached)
		}
	}

	// The cached job survives restarts as a done cached job: same server
	// data dir, fresh server.
	_, b, _ := cacheServer(t, dataDir, t.TempDir(), nil)
	recovered := b.status(second.ID)
	if recovered.State != serve.StateDone || !recovered.Cached {
		t.Fatalf("recovered cached job = state %s cached %v, want done/cached", recovered.State, recovered.Cached)
	}
}

// TestCacheCorruptionLive corrupts the live cache entry under a running
// server — structural byte flip and truncation — and proves each damaged
// entry is evicted and the job re-synthesized, never served.
func TestCacheCorruptionLive(t *testing.T) {
	spec := tinySpec(t)
	cacheDir := t.TempDir()
	_, a, _ := cacheServer(t, t.TempDir(), cacheDir, nil)

	first := a.submit(quickJob(spec, 9))
	a.await(first.ID, "done", stateIs(serve.StateDone))

	entry := findCacheEntry(t, cacheDir)
	pristine, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string][]byte{
		"byte-flip":  append([]byte("X"), pristine[1:]...),
		"truncation": pristine[:len(pristine)/2],
	}
	expectCorrupt := uint64(0)
	for name, damaged := range corruptions {
		if err := os.WriteFile(entry, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j := a.submit(quickJob(spec, 9))
		if j.Cached || j.State == serve.StateDone {
			t.Fatalf("%s: damaged entry was served (state %s cached %v)", name, j.State, j.Cached)
		}
		expectCorrupt++
		if got := metricValue(t, a, "serve.cache_corrupt"); got != float64(expectCorrupt) {
			t.Fatalf("%s: serve.cache_corrupt = %v, want %d", name, got, expectCorrupt)
		}
		// The re-run must complete and republish the entry...
		a.await(j.ID, "re-synthesized", stateIs(serve.StateDone))
		if _, err := os.Stat(entry); err != nil {
			t.Fatalf("%s: entry not republished after re-run: %v", name, err)
		}
		// ...and the republished entry serves the next resubmission.
		again := a.submit(quickJob(spec, 9))
		if !again.Cached {
			t.Fatalf("%s: resubmission after re-run missed the cache", name)
		}
	}
}

// findCacheEntry returns the single .json entry file in the cache dir.
func findCacheEntry(t *testing.T, cacheDir string) string {
	t.Helper()
	var entry string
	err := filepath.WalkDir(cacheDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			if entry != "" {
				t.Fatalf("multiple cache entries: %s and %s", entry, path)
			}
			entry = path
		}
		return err
	})
	if err != nil || entry == "" {
		t.Fatalf("no cache entry found under %s (err %v)", cacheDir, err)
	}
	return entry
}

// TestFleetCacheSharing proves the fleet-wide cache: with both nodes
// pointed at one cache directory, a result computed on node A is a
// terminal cache hit for the same submission on node B, with the result
// document served through the shared data directory.
func TestFleetCacheSharing(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)
	cacheDir := filepath.Join(dir, "cache")

	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1, CacheDir: cacheDir})
	first := a.submit(quickJob(spec, 21))
	a.await(first.ID, "done on nodeA", stateIs(serve.StateDone))

	_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 1, CacheDir: cacheDir})
	second := b.submit(quickJob(spec, 21))
	if second.State != serve.StateDone || !second.Cached {
		t.Fatalf("nodeB resubmission = state %s cached %v, want done/cached", second.State, second.Cached)
	}
	if got := metricValue(t, b, "serve.cache_hits"); got != 1 {
		t.Fatalf("nodeB serve.cache_hits = %v, want 1", got)
	}
	var res serve.ResultView
	if resp := b.do("GET", "/v1/jobs/"+second.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("cached fleet result: status %d", resp.StatusCode)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatal("cached fleet result lost its certification")
	}
	// Node A adopts the cached job from the shared directory as done.
	eventually(t, "nodeA adopts the cached job", func() bool {
		var v serve.StatusView
		if resp := a.do("GET", "/v1/jobs/"+second.ID, nil, &v); resp.StatusCode != http.StatusOK {
			return false
		}
		return v.State == serve.StateDone && v.Cached
	})
}

// TestCacheDisabledByDefault pins the opt-in contract: without CacheDir a
// server never caches, and identical resubmissions run twice.
func TestCacheDisabledByDefault(t *testing.T) {
	spec := tinySpec(t)
	s := newServer(t, serve.Config{Workers: 1, QueueDepth: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	a := newAPI(t, s)

	first := a.submit(quickJob(spec, 5))
	a.await(first.ID, "done", stateIs(serve.StateDone))
	second := a.submit(quickJob(spec, 5))
	if second.Cached || second.State == serve.StateDone {
		t.Fatalf("cache served without CacheDir: state %s cached %v", second.State, second.Cached)
	}
	a.await(second.ID, "done", stateIs(serve.StateDone))
	if got := metricValue(t, a, "serve.jobs_done"); got != 2 {
		t.Fatalf("serve.jobs_done = %v, want 2 (both ran)", got)
	}
}
