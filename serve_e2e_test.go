// End-to-end test of the mmserved process: boot the real binary on a free
// port, drive the HTTP job API through the backoff client, and verify that
// SIGTERM drains the server cleanly with exit status 0. Run with -short to
// skip.
package momosyn_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"momosyn/internal/serve"
)

// startServed boots mmserved on a kernel-assigned port and returns the
// running process plus the base URL scraped from its stdout announcement.
func startServed(t *testing.T, bin, dataDir string, extraArgs ...string) (*exec.Cmd, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-drain", "30s"}, extraArgs...)
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	cmd := exec.Command(filepath.Join(bin, "mmserved"), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			t.Logf("mmserved stderr:\n%s", stderr.String())
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("mmserved announced nothing: %v\nstderr: %s", err, stderr.String())
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected announcement %q", line)
	}
	return cmd, strings.TrimSpace(line[i+len(marker):])
}

// servedClient builds the retrying API client the e2e tests submit
// through: transient 429/503 answers and connection hiccups back off and
// retry instead of relying on fixed sleeps.
func servedClient(t *testing.T, base string) *serve.Client {
	t.Helper()
	return &serve.Client{
		BaseURL:        base,
		BaseDelay:      20 * time.Millisecond,
		MaxDelay:       time.Second,
		RequestTimeout: 10 * time.Second,
		Logf:           t.Logf,
	}
}

func TestServedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("mmserved end-to-end test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()

	// A small specification the server can synthesise in well under a
	// second.
	spec := filepath.Join(work, "inst.spec")
	run(t, bin, "mmgen", "-seed", "5", "-o", spec)
	specText, err := os.ReadFile(spec)
	if err != nil {
		t.Fatal(err)
	}

	dataDir := filepath.Join(work, "data")
	cmd, base := startServed(t, bin, dataDir, "-workers", "2")
	client := servedClient(t, base)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Liveness first: the announcement races ahead of the listener only if
	// something is broken, but check rather than assume.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Submit one quick job and poll it to certified completion.
	sub, err := client.Submit(ctx, serve.JobRequest{
		Spec: string(specText),
		Seed: 1,
		GA:   serve.GAParams{PopSize: 16, MaxGenerations: 40, Stagnation: 15},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := client.WaitTerminal(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	raw, err := client.Result(ctx, sub.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res struct {
		Feasible      bool `json:"feasible"`
		Certification *struct {
			Certified bool `json:"certified"`
		} `json:"certification"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if !res.Feasible || res.Certification == nil || !res.Certification.Certified {
		t.Fatalf("result not certified feasible: %+v", res)
	}

	// Start a long-running job so the drain has something to interrupt,
	// wait until it runs, then SIGTERM the server: it must exit 0 within
	// the drain window.
	long, err := client.Submit(ctx, serve.JobRequest{
		Spec: string(specText),
		Seed: 2,
		GA:   serve.GAParams{PopSize: 48, MaxGenerations: 1_000_000, Stagnation: 1_000_000},
	})
	if err != nil {
		t.Fatalf("submit long job: %v", err)
	}
	for {
		v, err := client.Status(ctx, long.ID)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if v.State == serve.StateRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("mmserved exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("mmserved did not exit within 60s of SIGTERM")
	}

	// The interrupted job's state on disk must be resumable (queued, its
	// lease released), with a checkpoint next to it. Each job's state is
	// its newest manifest epoch.
	jobs, _ := filepath.Glob(filepath.Join(dataDir, "jobs", "*"))
	if len(jobs) != 2 {
		t.Fatalf("found %d jobs, want 2", len(jobs))
	}
	states := map[string]int{}
	for _, dir := range jobs {
		manifests, _ := filepath.Glob(filepath.Join(dir, "manifest.e*.json"))
		if len(manifests) == 0 {
			t.Fatalf("job %s has no manifest", filepath.Base(dir))
		}
		sort.Strings(manifests)
		data, err := os.ReadFile(manifests[len(manifests)-1])
		if err != nil {
			t.Fatal(err)
		}
		var man struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		states[man.State]++
		// Every lease, the drained job's included, was let go: a restart
		// claims at once instead of waiting out the TTL.
		leases, _ := filepath.Glob(filepath.Join(dir, "lease.e*"))
		sort.Strings(leases)
		if len(leases) > 0 {
			lease, err := os.ReadFile(leases[len(leases)-1])
			if err != nil || !strings.Contains(string(lease), `"released":true`) {
				t.Fatalf("job %s lease not released after the drain: %s (err %v)", filepath.Base(dir), lease, err)
			}
		}
	}
	if states["done"] != 1 || states["queued"] != 1 {
		t.Fatalf("persisted states %v, want one done and one queued", states)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dataDir, "jobs", "*", "job.e*.ckpt")); len(ckpts) != 1 {
		t.Fatalf("found %d checkpoints, want 1 (the interrupted job's)", len(ckpts))
	}
}

// TestOneAnswerEveryFrontEnd pins that a run is named by its spec, seed
// and options alone: mul1 at seed 1 with the default GA budget gives the
// same p̄, bit for bit, through plain mmsynth, checkpointed mmsynth and an
// mmserved job that sets no GA parameters.
func TestOneAnswerEveryFrontEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("front-end agreement test skipped in -short mode")
	}
	bin := buildTools(t)
	work := t.TempDir()
	spec := filepath.Join("specs", "mul1.spec")

	// mmsynth prints p̄ rounded; its run trace carries the exact value.
	synthPower := func(name string, extra ...string) float64 {
		trace := filepath.Join(work, name+".jsonl")
		run(t, bin, "mmsynth", append([]string{"-spec", spec, "-seed", "1", "-trace", trace}, extra...)...)
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var end struct {
			Ev  string `json:"ev"`
			End struct {
				AvgPower float64 `json:"avg_power"`
			} `json:"end"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &end); err != nil || end.Ev != "run_end" {
			t.Fatalf("%s: last trace line is not a run_end event (%v): %s", name, err, lines[len(lines)-1])
		}
		return end.End.AvgPower
	}
	plain := synthPower("plain")
	checkpointed := synthPower("checkpointed", "-checkpoint", filepath.Join(work, "run.ckpt"))

	cmd, base := startServed(t, bin, filepath.Join(work, "data"), "-specs", "specs", "-workers", "1")
	client := servedClient(t, base)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sub, err := client.Submit(ctx, serve.JobRequest{SpecName: "mul1", Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final, err := client.WaitTerminal(ctx, sub.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	raw, err := client.Result(ctx, sub.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res struct {
		AvgPower float64 `json:"avg_power"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("mmserved exited non-zero after SIGTERM: %v", err)
	}

	if plain <= 0 || math.Float64bits(checkpointed) != math.Float64bits(plain) ||
		math.Float64bits(res.AvgPower) != math.Float64bits(plain) {
		t.Fatalf("p̄ differs across front ends: mmsynth %v, mmsynth -checkpoint %v, mmserved %v",
			plain, checkpointed, res.AvgPower)
	}
}
