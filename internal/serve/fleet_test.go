package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"momosyn/internal/durable"
	"momosyn/internal/durable/chaosfs"
	"momosyn/internal/fleet"
	"momosyn/internal/obs"
	"momosyn/internal/runctl"
	"momosyn/internal/serve"
)

// fleetServer builds and starts one node of a fleet over dir.
func fleetServer(t *testing.T, dir, node string, cfg serve.Config) (*serve.Server, *api) {
	t.Helper()
	cfg.DataDir = dir
	cfg.NodeID = node
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	// Drain before t.TempDir cleanup removes the shared directory out from
	// under a still-running node.
	t.Cleanup(func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	})
	return s, newAPI(t, s)
}

// bareStore opens a raw fleet store on dir, impersonating a node outside
// any server (a dead or stale worker in the scenarios below).
func bareStore(t *testing.T, dir, node string, ttl time.Duration, now func() time.Time) *fleet.Store {
	t.Helper()
	st, err := fleet.Open(fleet.Config{
		Dir: dir, Node: node, TTL: ttl,
		Registry: obs.NewRegistry(), Now: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetTwoNodesCompleteJobs runs two nodes over one shared directory:
// jobs submitted to one node are visible on — and may be executed by —
// either, and every result is retrievable from both.
func TestFleetTwoNodesCompleteJobs(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 1})

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, a.submit(quickJob(spec, seed)).ID)
	}
	for _, id := range ids {
		v := a.await(id, "done", stateIs(serve.StateDone))
		if v.Node == "" {
			t.Errorf("job %s finished without node provenance", id)
		}
		// Both nodes serve the status and the certified result, whichever
		// of them ran the job.
		for name, n := range map[string]*api{"nodeA": a, "nodeB": b} {
			bv := n.await(id, "done on "+name, stateIs(serve.StateDone))
			if bv.Node != v.Node {
				t.Errorf("%s reports job %s on node %q, %q elsewhere", name, id, bv.Node, v.Node)
			}
			var res serve.ResultView
			if resp := n.do("GET", "/v1/jobs/"+id+"/result", nil, &res); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: result %s: status %d", name, id, resp.StatusCode)
			}
			if res.State != serve.StateDone || res.Certification == nil || !res.Certification.Certified {
				t.Fatalf("%s: result %s not certified: %+v", name, id, res.Certification)
			}
		}
	}

	// The structured readiness document carries the fleet section. Jobs
	// are claimed on submission, so they may all finish before nodeA's
	// next scan counts nodeB as live: wait for that scan.
	var ready serve.ReadyView
	eventually(t, "both nodes heartbeating", func() bool {
		if resp := a.do("GET", "/readyz", nil, &ready); resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz: status %d", resp.StatusCode)
		}
		return ready.Fleet != nil && ready.Fleet.LiveNodes >= 2
	})
	if ready.Status != "ready" || ready.Fleet.Node != "nodeA" {
		t.Fatalf("/readyz = %+v, want ready with fleet section for nodeA", ready)
	}
	// The fleet counters are exported through /metrics.
	if got := metricValue(t, a, "fleet.claims") + metricValue(t, b, "fleet.claims"); got < 3 {
		t.Fatalf("fleet.claims across nodes = %v, want >= 3", got)
	}
}

// TestFleetNodeLossRecovery simulates a worker that claimed a job, wrote a
// running manifest, and died without releasing: a live server must steal
// the lease after expiry and run the job to certified completion.
func TestFleetNodeLossRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)

	// The doomed node claims the job before any server exists.
	dead := bareStore(t, dir, "deadnode", 300*time.Millisecond, nil)
	id, err := dead.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(spec, 42)
	specDoc, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	man := func(state string) []byte {
		return []byte(fmt.Sprintf(`{"id":%q,"state":%q,"created":%q}`, id, state, time.Now().Format(time.RFC3339Nano)))
	}
	if err := dead.CreateJob(id, specDoc, man("queued")); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Write(fleet.KindManifest, man("running")); err != nil {
		t.Fatal(err)
	}
	// ...and is never heard from again.

	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	v := a.await(id, "recovered and done", stateIs(serve.StateDone))
	if v.Node != "nodeA" {
		t.Fatalf("recovered job ran on %q, want nodeA", v.Node)
	}
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+id+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("recovered job finished without certification: %+v", res.Certification)
	}
	if got := metricValue(t, a, "fleet.steals"); got < 1 {
		t.Fatalf("fleet.steals = %v, want >= 1 (the dead node's lease)", got)
	}
}

// TestFleetStaleHolderIsFenced reclaims a running job's lease out from
// under a live server (as a partition or long stall would): the server
// must fence itself — count it, stop writing — and, once the usurper
// releases, reclaim and finish the job. No write of the stale epoch may
// shadow the reclaimed state.
func TestFleetStaleHolderIsFenced(t *testing.T) {
	dir := t.TempDir()
	long := bigSpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})

	j := a.submit(longJob(long, 7))
	a.await(j.ID, "running", stateIs(serve.StateRunning))

	// The usurper's clock runs an hour ahead, so the held lease looks
	// long-expired to it — exactly what a node on the wrong side of a
	// partition concludes about a stalled peer.
	ahead := func() time.Time { return time.Now().Add(time.Hour) }
	thief := bareStore(t, dir, "thief", time.Minute, ahead)
	stolen, err := thief.Claim(j.ID)
	if err != nil {
		t.Fatalf("usurper claim: %v", err)
	}

	// The server notices at its next heartbeat: its renew is rejected by
	// the higher epoch and the job is abandoned without further writes.
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, a, "serve.jobs_fenced") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never fenced itself after losing its lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := metricValue(t, a, "fleet.fence_rejects"); got < 1 {
		t.Fatalf("fleet.fence_rejects = %v, want >= 1", got)
	}

	// The usurper walks away gracefully; the server reclaims the job and
	// the work continues (finished here by cancelling the long run).
	if err := stolen.Release(); err != nil {
		t.Fatalf("usurper release: %v", err)
	}
	a.await(j.ID, "reclaimed and running", stateIs(serve.StateRunning))
	if resp := a.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	v := a.await(j.ID, "cancelled", stateIs(serve.StateCancelled))
	if v.Node != "nodeA" {
		t.Fatalf("final manifest from node %q, want the reclaiming nodeA", v.Node)
	}
}

// TestFleetReadyzReportsAwaitingRecovery pins the degraded-state
// reporting: a job whose holder died shows up in /readyz as awaiting
// recovery while no worker is free to claim it.
func TestFleetReadyzReportsAwaitingRecovery(t *testing.T) {
	dir := t.TempDir()
	long := bigSpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})

	// The only worker is pinned down by a long job...
	j := a.submit(longJob(long, 1))
	a.await(j.ID, "running", stateIs(serve.StateRunning))

	// ...while a second job's holder dies mid-run.
	dead := bareStore(t, dir, "deadnode", 100*time.Millisecond, nil)
	id, err := dead.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(tinySpec(t), 2)
	specDoc, _ := json.Marshal(&req)
	manifest := fmt.Sprintf(`{"id":%q,"state":"queued"}`, id)
	if err := dead.CreateJob(id, specDoc, []byte(manifest)); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	running := fmt.Sprintf(`{"id":%q,"state":"running"}`, id)
	if err := lease.Write(fleet.KindManifest, []byte(running)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var ready serve.ReadyView
		if resp := a.do("GET", "/readyz", nil, &ready); resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz: status %d", resp.StatusCode)
		}
		if ready.Fleet != nil && ready.Fleet.JobsAwaitingRecovery >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never reported the orphaned job: %+v", ready)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Freeing the worker lets the node pick the orphan up and finish it.
	if resp := a.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	a.await(id, "orphan recovered", stateIs(serve.StateDone))
}

// TestFleetDurableCancel cancels a fleet job through a node that does NOT
// hold its lease: the durable cancel marker must reach the holder.
func TestFleetDurableCancel(t *testing.T) {
	dir := t.TempDir()
	long := bigSpec(t)
	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1})
	_, b := fleetServer(t, dir, "nodeB", serve.Config{Workers: 0, QueueDepth: 1})

	j := a.submit(longJob(long, 5))
	a.await(j.ID, "running", stateIs(serve.StateRunning))
	b.await(j.ID, "visible on the other node", stateIs(serve.StateRunning))

	if resp := b.do("DELETE", "/v1/jobs/"+j.ID, nil, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cross-node cancel: status %d", resp.StatusCode)
	}
	a.await(j.ID, "cancelled via the marker", stateIs(serve.StateCancelled))
}

// copyTree copies the directory tree at src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleNodeLayoutUnchanged pins the migration contract for data
// directories in the single-node layout of earlier releases
// (jobs/<id>/manifest.json, result.json and job.ckpt, plus
// batches/<id>.json). The committed fixture testdata/legacy-data holds one
// job in each state — done (j000001), cached-done (j000002), failed
// (j000003), quarantined (j000004), a batch child (j000005), running with a
// checkpoint when its server was killed (j000006), queued (j000007) — a
// damaged manifest (j000008) and one batch record. Opening it converts
// every job in place to the job store layout: finished jobs serve their
// result documents byte for byte, the killed run resumes from its
// checkpoint generation with the dead attempt counted, the queued job
// runs, the damaged job is counted and skipped, and the batch still
// answers. New IDs continue past the legacy ones.
func TestSingleNodeLayoutUnchanged(t *testing.T) {
	const fixture = "testdata/legacy-data"
	dataDir := t.TempDir()
	copyTree(t, fixture, dataDir)
	legacy := func(id, name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(fixture, "jobs", id, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ckpt, err := runctl.Load(filepath.Join(fixture, "jobs", "j000006", "job.ckpt"))
	if err != nil {
		t.Fatal(err)
	}

	_, a := startServer(t, serve.Config{Workers: 2, DataDir: dataDir,
		Heartbeat: 50 * time.Millisecond, LeaseTTL: time.Second})

	// The layout is converted: no legacy names remain on any readable job.
	for _, id := range []string{"j000001", "j000002", "j000003", "j000004", "j000005", "j000006", "j000007"} {
		for _, name := range []string{"manifest.json", "result.json", "job.ckpt"} {
			if _, err := os.Stat(filepath.Join(dataDir, "jobs", id, name)); !os.IsNotExist(err) {
				t.Errorf("job %s still has legacy %s (stat err %v)", id, name, err)
			}
		}
		if _, err := os.Stat(filepath.Join(dataDir, "jobs", id, "spec.json")); err != nil {
			t.Errorf("job %s has no spec document: %v", id, err)
		}
	}

	// Finished jobs keep their state and serve their result documents byte
	// for byte.
	for id, want := range map[string]serve.State{
		"j000001": serve.StateDone, "j000002": serve.StateDone, "j000003": serve.StateFailed,
		"j000004": serve.StateQuarantined, "j000005": serve.StateDone,
	} {
		if v := a.status(id); v.State != want {
			t.Fatalf("job %s is %s, want %s", id, v.State, want)
		}
		if want == serve.StateQuarantined {
			continue
		}
		resp, err := http.Get(a.ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: status %d, err %v", id, resp.StatusCode, err)
		}
		if !bytes.Equal(body, legacy(id, "result.json")) {
			t.Fatalf("result %s differs from its legacy result.json:\n%s", id, body)
		}
	}
	if v := a.status("j000002"); !v.Cached {
		t.Fatal("the cached-done job lost its cached mark")
	}

	// The run killed mid-flight resumes from its checkpoint generation; the
	// attempt that died with its server counts.
	v := a.await("j000006", "resumed", func(v serve.StatusView) bool {
		return v.State == serve.StateRunning && v.ResumedFrom > 0
	})
	if v.ResumedFrom != ckpt.Snapshot.Generation {
		t.Fatalf("resumed from generation %d, want the checkpoint's %d", v.ResumedFrom, ckpt.Snapshot.Generation)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (the run that died with its server)", v.Attempts)
	}

	// The queued job runs to a certified result.
	a.await("j000007", "done", stateIs(serve.StateDone))
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/j000007/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result j000007: status %d", resp.StatusCode)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("queued legacy job finished uncertified: %+v", res.Certification)
	}

	// The damaged job is counted once and neither listed nor served.
	if got := metricValue(t, a, "serve.manifests_skipped"); got != 1 {
		t.Fatalf("serve.manifests_skipped = %v, want 1", got)
	}
	var list serve.ListView
	a.do("GET", "/v1/jobs", nil, &list)
	if list.Total != 7 {
		t.Fatalf("listed %d jobs, want the 7 readable legacy jobs", list.Total)
	}
	if resp := a.do("GET", "/v1/jobs/j000008", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("damaged job: status %d, want 404", resp.StatusCode)
	}

	// The batch record answers from its old place.
	var batch serve.BatchStatusView
	if resp := a.do("GET", "/v1/batches/b000001", nil, &batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy batch: status %d", resp.StatusCode)
	}
	if batch.Cells != 1 || batch.Jobs != 1 || !batch.Complete {
		t.Fatalf("legacy batch = %+v, want one complete cell", batch)
	}

	// New IDs continue past the legacy ones.
	if j := a.submit(quickJob(tinySpec(t), 1)); j.ID != "j000009" {
		t.Fatalf("new job ID %s, want j000009", j.ID)
	}
	var nb serve.BatchSubmitView
	resp := a.do("POST", "/v1/batches", serve.BatchRequest{
		Specs: []serve.BatchSpecRef{{Spec: tinySpec(t)}}, Seeds: []int64{2}, Options: []serve.JobRequest{quickOption()},
	}, &nb)
	if resp.StatusCode != http.StatusAccepted || nb.ID != "b000002" {
		t.Fatalf("new batch: status %d ID %q, want 202 b000002", resp.StatusCode, nb.ID)
	}

	// Stop the endless resumed run.
	a.do("DELETE", "/v1/jobs/j000006", nil, nil)
	a.await("j000006", "cancelled", stateIs(serve.StateCancelled))
}

// TestClaimOnWake: with an hour between scans, a submission and a finished
// run still get their jobs claimed at once — the claim loop wakes on both.
// Two jobs on one worker: the first is claimed on submission, the second
// when the first run frees the slot.
func TestClaimOnWake(t *testing.T) {
	spec := tinySpec(t)
	_, a := startServer(t, serve.Config{Workers: 1, Heartbeat: time.Hour, LeaseTTL: 2 * time.Hour})
	// Let the scan at start-up pass first, so only a wake-up can claim.
	eventually(t, "first scan", func() bool { return metricValue(t, a, "fleet.live_nodes") >= 1 })
	start := time.Now()
	j1 := a.submit(quickJob(spec, 1))
	j2 := a.submit(quickJob(spec, 2))
	for _, id := range []string{j1.ID, j2.ID} {
		for a.status(id).State != serve.StateDone {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("job %s is %s after %v; the claim loop did not wake", id, a.status(id).State, time.Since(start))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestScanSkipsTerminalManifests: a terminal manifest is final, so the
// periodic scan must not read the manifests of finished jobs again.
func TestScanSkipsTerminalManifests(t *testing.T) {
	spec := tinySpec(t)
	dataDir := t.TempDir()
	cfs := chaosfs.New(durable.OSFS{})
	_, a := startServer(t, serve.Config{Workers: 1, DataDir: dataDir, FS: cfs,
		Heartbeat: 20 * time.Millisecond})
	j := a.submit(quickJob(spec, 1))
	a.await(j.ID, "done", stateIs(serve.StateDone))

	cfs.Reset()
	nodeFile := regexp.MustCompile(`nodes/.*\.json`)
	eventually(t, "three scans", func() bool { return cfs.Ops(chaosfs.OpRename, nodeFile) >= 3 })
	doneManifests := regexp.MustCompile(regexp.QuoteMeta(j.ID) + `/manifest\.e[0-9]+\.json$`)
	if n := cfs.Ops(chaosfs.OpRead, doneManifests); n != 0 {
		t.Fatalf("scans read the done job's manifest %d times, want 0", n)
	}
	if n := cfs.Ops(chaosfs.OpReadDir, nil); n == 0 {
		t.Fatal("no scan listed the store; the check above is vacuous")
	}
}

// TestUnreadableJobCounted: a job whose every manifest epoch is damaged is
// counted once in serve.manifests_skipped, named on /readyz, and neither
// listed nor served — however many scans pass over it.
func TestUnreadableJobCounted(t *testing.T) {
	dataDir := t.TempDir()
	st := bareStore(t, dataDir, "writer", time.Minute, nil)
	id, err := st.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	specDoc, err := json.Marshal(quickJob(tinySpec(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateJob(id, specDoc, []byte(`{"id":"`+id+`","state":`)); err != nil {
		t.Fatal(err)
	}
	lease, err := st.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Write(fleet.KindManifest, []byte(`{"id":"j999999","state":"queued"}`)); err != nil {
		t.Fatal(err)
	}

	cfs := chaosfs.New(durable.OSFS{})
	_, a := startServer(t, serve.Config{DataDir: dataDir, FS: cfs, Heartbeat: 20 * time.Millisecond})
	nodeFile := regexp.MustCompile(`nodes/.*\.json`)
	eventually(t, "three scans", func() bool { return cfs.Ops(chaosfs.OpRename, nodeFile) >= 3 })
	if got := metricValue(t, a, "serve.manifests_skipped"); got != 1 {
		t.Fatalf("serve.manifests_skipped = %v, want 1", got)
	}
	var ready serve.ReadyView
	a.do("GET", "/readyz", nil, &ready)
	if ready.Status != "degraded" || ready.ManifestsSkipped != 1 {
		t.Fatalf("readyz = %+v, want degraded with manifests_skipped 1", ready)
	}
	var list serve.ListView
	a.do("GET", "/v1/jobs", nil, &list)
	if list.Total != 0 {
		t.Fatalf("listed %d jobs, want none", list.Total)
	}
	if resp := a.do("GET", "/v1/jobs/"+id, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unreadable job: status %d, want 404", resp.StatusCode)
	}
}

// TestFleetPoisonJobQuarantined is the issue's acceptance drill: a job
// that fails every execution, submitted to a two-node fleet, must land in
// quarantined after exactly max-attempts executions fleet-wide — the
// budget rides the manifests, not any one node — while a healthy job
// submitted alongside it completes and certifies.
func TestFleetPoisonJobQuarantined(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)
	cfg := serve.Config{
		Workers: 1, MaxAttempts: 3, RetryBackoff: time.Millisecond,
		Failpoints: true,
	}
	_, a := fleetServer(t, dir, "nodeA", cfg)
	_, b := fleetServer(t, dir, "nodeB", cfg)

	poison := quickJob(spec, 31)
	poison.Failpoint = "panic"
	pj := a.submit(poison)
	good := a.submit(quickJob(spec, 32))

	gv := a.await(good.ID, "healthy job done", stateIs(serve.StateDone))
	var res serve.ResultView
	if resp := a.do("GET", "/v1/jobs/"+good.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy result: status %d", resp.StatusCode)
	}
	if res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("healthy job on node %q finished uncertified: %+v", gv.Node, res.Certification)
	}

	pv := a.await(pj.ID, "quarantined", stateIs(serve.StateQuarantined))
	if pv.Attempts != 3 {
		t.Fatalf("attempts = %d, want exactly the fleet-wide budget of 3", pv.Attempts)
	}
	sum := func(name string) float64 { return metricValue(t, a, name) + metricValue(t, b, name) }
	eventually(t, "serve.jobs_quarantined across nodes = 1", func() bool {
		return sum("serve.jobs_quarantined") == 1
	})
	// 3 poison executions + 1 healthy one.
	if got := sum("serve.attempts_total"); got != 4 {
		t.Fatalf("serve.attempts_total across nodes = %v, want 4 (the poison budget plus the healthy run)", got)
	}

	// Never reclaimed: several claim-loop scans later, no node has started
	// a fourth execution and the state is unchanged on both.
	time.Sleep(300 * time.Millisecond)
	if got := sum("serve.attempts_total"); got != 4 {
		t.Fatalf("quarantined job re-executed: attempts_total = %v", got)
	}
	for name, n := range map[string]*api{"nodeA": a, "nodeB": b} {
		if v := n.await(pj.ID, "quarantined on "+name, stateIs(serve.StateQuarantined)); v.Attempts != 3 {
			t.Fatalf("%s: attempts = %d, want 3", name, v.Attempts)
		}
	}
}

// TestFleetStealHonoursBudget: stealing a dead node's running job consumes
// the attempt that died with it — and a job whose budget that exhausts is
// quarantined at claim time, without the thief running it even once. The
// spec is healthy (it would succeed if executed), so a quarantined outcome
// proves the claim path enforced the budget rather than the synthesis
// failing.
func TestFleetStealHonoursBudget(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec(t)

	// The doomed node is two failures deep into a third attempt when it
	// dies without releasing the lease.
	dead := bareStore(t, dir, "deadnode", 300*time.Millisecond, nil)
	id, err := dead.NewJobID()
	if err != nil {
		t.Fatal(err)
	}
	req := quickJob(spec, 33)
	specDoc, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	man := []byte(fmt.Sprintf(`{"id":%q,"state":"running","created":%q,"attempts":2,"error":"synthesis panicked"}`,
		id, time.Now().Format(time.RFC3339Nano)))
	if err := dead.CreateJob(id, specDoc, man); err != nil {
		t.Fatal(err)
	}
	lease, err := dead.Claim(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := lease.Write(fleet.KindManifest, man); err != nil {
		t.Fatal(err)
	}
	// ...and is never heard from again.

	_, a := fleetServer(t, dir, "nodeA", serve.Config{Workers: 1, MaxAttempts: 3})
	v := a.await(id, "quarantined at claim", stateIs(serve.StateQuarantined))
	if v.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (the death consumed the last one)", v.Attempts)
	}
	if !strings.Contains(v.Error, "died with its node") || !strings.Contains(v.Error, "synthesis panicked") {
		t.Fatalf("quarantine cause lost the history: %q", v.Error)
	}
	eventually(t, "serve.jobs_quarantined = 1", func() bool {
		return metricValue(t, a, "serve.jobs_quarantined") == 1
	})
	if got := metricValue(t, a, "serve.attempts_total"); got != 0 {
		t.Fatalf("serve.attempts_total = %v, want 0 (the thief never ran it)", got)
	}
}
