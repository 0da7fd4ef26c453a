// Process-level fleet torture tests: real mmserved processes sharing one
// data directory, killed with SIGKILL mid-generation or stalled with
// SIGSTOP past their lease TTL. Every job must still reach a certified
// terminal state exactly once, and a resurrected stale node must fence
// itself instead of clobbering reclaimed work. Run with -short to skip.
package momosyn_test

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"momosyn/internal/serve"
)

// fetchMetric reads one counter or gauge from a node's /metrics endpoint.
func fetchMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics decode: %v", err)
	}
	if v, ok := snap.Counters[name]; ok {
		return v
	}
	return snap.Gauges[name]
}

// TestFleetKillNineTorture is the node-loss drill: two nodes share a data
// directory, four jobs go in, and one node is SIGKILLed while running.
// The survivor must recover every orphaned job from its checkpoint and
// finish all four — no job lost, no job completed twice.
func TestFleetKillNineTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet torture test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join(work, "inst.spec")
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)
	specText, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleetDir := filepath.Join(work, "fleet")

	fleetArgs := func(node string) []string {
		return []string{
			"-node-id", node,
			"-lease-ttl", "1s", "-heartbeat", "100ms",
			"-workers", "2", "-checkpoint-every", "2",
		}
	}
	victim, victimBase := startServed(t, bin, fleetDir, fleetArgs("victim")...)
	_, survivorBase := startServed(t, bin, fleetDir, fleetArgs("survivor")...)
	cv := servedClient(t, victimBase)
	cs := servedClient(t, survivorBase)
	ctx, cancel := context.WithTimeout(context.Background(), 240*time.Second)
	defer cancel()

	// Four jobs sized to run for a few seconds each: long enough to die
	// mid-run, short enough to finish afterwards.
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		sub, err := cv.Submit(ctx, serve.JobRequest{
			Spec: string(specText),
			Seed: seed,
			GA:   serve.GAParams{PopSize: 32, MaxGenerations: 1500, Stagnation: 1500},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		ids = append(ids, sub.ID)
	}

	// Wait for a job to be demonstrably mid-run on the victim, then murder
	// the process — no drain, no checkpoint flush, nothing.
	var midRun string
	deadline := time.Now().Add(60 * time.Second)
	for midRun == "" {
		if time.Now().After(deadline) {
			t.Fatal("no job reached mid-run on the victim")
		}
		for _, id := range ids {
			v, err := cv.Status(ctx, id)
			if err != nil {
				t.Fatalf("status %s: %v", id, err)
			}
			if v.State == serve.StateRunning && v.Node == "victim" &&
				v.Progress != nil && v.Progress.Generation >= 3 {
				midRun = id
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	t.Logf("killed victim while job %s was mid-run", midRun)

	// The survivor steals the orphaned leases and finishes everything.
	for _, id := range ids {
		v, err := cs.WaitTerminal(ctx, id, 50*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s never finished after the kill: %v", id, err)
		}
		if v.State != serve.StateDone {
			t.Fatalf("job %s ended %s (%s), want done", id, v.State, v.Error)
		}
		raw, err := cs.Result(ctx, id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		var res struct {
			Feasible      bool `json:"feasible"`
			Certification *struct {
				Certified bool `json:"certified"`
			} `json:"certification"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("result %s decode: %v", id, err)
		}
		if res.Certification == nil || !res.Certification.Certified {
			t.Fatalf("job %s finished without certification", id)
		}
	}

	// The job that died mid-run must have migrated to the survivor.
	v, err := cs.Status(ctx, midRun)
	if err != nil {
		t.Fatal(err)
	}
	if v.Node != "survivor" {
		t.Fatalf("mid-run job %s finished on node %q, want the survivor", midRun, v.Node)
	}
	if got := fetchMetric(t, survivorBase, "fleet.steals"); got < 1 {
		t.Fatalf("survivor fleet.steals = %v, want >= 1", got)
	}

	// Exactly-once: every job has exactly one committed result file — a
	// second one would mean two nodes both ran it to completion.
	for _, id := range ids {
		results, err := filepath.Glob(filepath.Join(fleetDir, "jobs", id, "result.e*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("job %s has %d committed results %v, want exactly 1", id, len(results), results)
		}
	}
}

// TestFleetStalledNodeFences is the partition drill: a node is SIGSTOPped
// past its lease TTL while running a job, a peer reclaims the work, and
// the stalled node — once SIGCONTed, a textbook resurrected stale holder —
// must fence itself: reject counters move, and the reclaimed job's state
// stays owned by the peer.
func TestFleetStalledNodeFences(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet fencing test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join(work, "inst.spec")
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)
	specText, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	fleetDir := filepath.Join(work, "fleet")

	fleetArgs := func(node string) []string {
		return []string{
			"-node-id", node,
			"-lease-ttl", "500ms", "-heartbeat", "100ms", "-workers", "1",
		}
	}
	procA, baseA := startServed(t, bin, fleetDir, fleetArgs("nodeA")...)
	procB, baseB := startServed(t, bin, fleetDir, fleetArgs("nodeB")...)
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	// One long job; either node may win the claim race, so the roles —
	// which process gets stalled, which one is the healthy peer — are
	// assigned after the fact.
	sub, err := servedClient(t, baseA).Submit(ctx, serve.JobRequest{
		Spec: string(specText),
		Seed: 3,
		GA:   serve.GAParams{PopSize: 48, MaxGenerations: 1_000_000, Stagnation: 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var owner string
	deadline := time.Now().Add(60 * time.Second)
	for owner == "" {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		v, err := servedClient(t, baseA).Status(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == serve.StateRunning {
			owner = v.Node
		}
		time.Sleep(10 * time.Millisecond)
	}
	stalled, stalledBase, peerName := procA, baseA, "nodeB"
	peerBase := baseB
	if owner == "nodeB" {
		stalled, stalledBase, peerName = procB, baseB, "nodeA"
		peerBase = baseA
	}
	cPeer := servedClient(t, peerBase)

	// Freeze the owner well past its lease TTL, let the peer steal the
	// job, then thaw the owner.
	if err := stalled.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("peer never stole the stalled node's lease")
		}
		v, err := cPeer.Status(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == serve.StateRunning && v.Node == peerName {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := stalled.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}

	// The resurrected node's next fenced operation must be rejected.
	deadline = time.Now().Add(60 * time.Second)
	for fetchMetric(t, stalledBase, "fleet.fence_rejects") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled node never recorded a fence rejection after SIGCONT")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := fetchMetric(t, stalledBase, "serve.jobs_fenced"); got < 1 {
		t.Fatalf("stalled node serve.jobs_fenced = %v, want >= 1", got)
	}

	// The job still belongs to the peer and finishes under it.
	if resp, err := http.NewRequestWithContext(ctx, http.MethodDelete, peerBase+"/v1/jobs/"+sub.ID, nil); err == nil {
		if r, derr := http.DefaultClient.Do(resp); derr == nil {
			r.Body.Close()
		}
	}
	v, err := cPeer.WaitTerminal(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != serve.StateCancelled {
		t.Fatalf("job ended %s, want cancelled", v.State)
	}
	if v.Node != peerName {
		t.Fatalf("final state written by %q, want the peer %q that reclaimed it", v.Node, peerName)
	}

	// Safety net for the exactly-once invariant here too: the stale
	// node's epoch wrote no terminal result.
	if results, _ := filepath.Glob(filepath.Join(fleetDir, "jobs", sub.ID, "result.e*.json")); len(results) > 1 {
		t.Fatalf("job %s has %d committed results %v, want at most 1", sub.ID, len(results), results)
	}
}
