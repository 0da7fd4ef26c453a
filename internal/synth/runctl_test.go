package synth

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/runctl"
)

// widerSystem builds a single-mode system with a 12-locus genome (~4096
// mappings), large enough that mid-run interruption lands between
// generations rather than inside population initialisation.
func widerSystem(t *testing.T) *model.System {
	t.Helper()
	b := model.NewBuilder("runctltest")
	b.AddPE(model.PE{Name: "cpu", Class: model.GPP, Vmax: 3.3, Vt: 0.8, StaticPower: 1e-4})
	b.AddPE(model.PE{Name: "hw", Class: model.ASIC, Vmax: 3.3, Vt: 0.8, Area: 400, StaticPower: 5e-4})
	b.AddCL(model.CL{Name: "bus", BytesPerSec: 1e6, StaticPower: 1e-5}, "cpu", "hw")
	for i := 0; i < 12; i++ {
		b.AddType(fmt.Sprintf("t%d", i),
			model.ImplSpec{PE: "cpu", Time: float64(3+i%4) * 1e-3, Power: float64(1+i%3) * 1e-3},
			model.ImplSpec{PE: "hw", Time: float64(1+i%2) * 1e-3, Power: float64(i%4+1) * 0.2e-3, Area: 20 + i*5},
		)
	}
	b.BeginMode("m0", 1, 1)
	for i := 0; i < 12; i++ {
		b.AddTask(fmt.Sprintf("x%d", i), fmt.Sprintf("t%d", i), 0)
	}
	for i := 1; i < 12; i++ {
		b.AddEdge(fmt.Sprintf("x%d", i-1), fmt.Sprintf("x%d", i), 100)
	}
	sys, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runOpts is the shared configuration of the run-control tests: small
// population, no stagnation stop, so runs are long enough to interrupt.
func runOpts(checkpoint string) Options {
	return Options{
		UseDVS:         true,
		Seed:           17,
		GA:             ga.Config{PopSize: 16, MaxGenerations: 40, Stagnation: 100},
		CheckpointPath: checkpoint,
	}
}

// TestResumeMatchesUninterrupted is the acceptance test of the
// checkpoint/resume design: a run killed partway and resumed from its
// checkpoint must converge to exactly the same final implementation as a
// plain uninterrupted run with the same seed.
func TestResumeMatchesUninterrupted(t *testing.T) {
	sys := widerSystem(t)
	dir := t.TempDir()

	// Reference: a plain run, uninterrupted and never checkpointed. Every
	// run draws from the same random stream, so checkpointing must not
	// change the answer either.
	ref, err := Synthesize(sys, runOpts(""))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Partial {
		t.Fatalf("reference run unexpectedly partial: %s", ref.GA.Reason)
	}

	// Interrupted: cancel mid-run from inside the evaluation hook, as a
	// SIGINT would. The closing checkpoint captures the stop state.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := runOpts(filepath.Join(dir, "killed.ckpt"))
	killed.CheckpointEvery = 3
	killed.Context = ctx
	evals := 0
	killed.evalHook = func([]int) {
		evals++
		if evals == 60 {
			cancel()
		}
	}
	part, err := Synthesize(sys, killed)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Partial || part.GA.Reason != "canceled" {
		t.Fatalf("interrupted run: partial=%v reason=%q", part.Partial, part.GA.Reason)
	}
	if part.Best == nil {
		t.Fatal("interrupted run must report a best-so-far implementation")
	}
	if part.GA.Generations == 0 || part.GA.Generations >= ref.GA.Generations {
		t.Fatalf("interrupted after %d generations, reference ran %d — want a mid-run stop",
			part.GA.Generations, ref.GA.Generations)
	}

	// Resumed: same spec, seed and options, restarted from the checkpoint.
	resumed := runOpts(filepath.Join(dir, "killed.ckpt"))
	resumed.CheckpointEvery = 3
	resumed.Resume = true
	got, err := Synthesize(sys, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatalf("resumed run unexpectedly partial: %s", got.GA.Reason)
	}
	if got.GA.BestFitness != ref.GA.BestFitness {
		t.Errorf("resumed best fitness %v, uninterrupted %v", got.GA.BestFitness, ref.GA.BestFitness)
	}
	if got.Best.AvgPower != ref.Best.AvgPower {
		t.Errorf("resumed average power %v, uninterrupted %v", got.Best.AvgPower, ref.Best.AvgPower)
	}
	if got.GA.Generations != ref.GA.Generations || got.GA.Evaluations != ref.GA.Evaluations {
		t.Errorf("resumed ran %d gens / %d evals, uninterrupted %d / %d",
			got.GA.Generations, got.GA.Evaluations, ref.GA.Generations, ref.GA.Evaluations)
	}
	if len(got.GA.History) != len(ref.GA.History) {
		t.Fatalf("resumed history %d entries, uninterrupted %d", len(got.GA.History), len(ref.GA.History))
	}
	for i := range ref.GA.History {
		if got.GA.History[i] != ref.GA.History[i] {
			t.Fatalf("history diverges at generation %d: %v != %v", i+1, got.GA.History[i], ref.GA.History[i])
		}
	}
	for k := range ref.GA.Best {
		if got.GA.Best[k] != ref.GA.Best[k] {
			t.Fatalf("best genome differs at locus %d: %v vs %v", k, got.GA.Best, ref.GA.Best)
		}
	}
}

func TestDeadlineReturnsPartialBestSoFar(t *testing.T) {
	sys := testSystem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts := Options{Seed: 3, GA: ga.Config{PopSize: 12, MaxGenerations: 50}, Context: ctx}
	res, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.GA.Reason != "deadline exceeded" {
		t.Fatalf("partial=%v reason=%q, want deadline exceeded", res.Partial, res.GA.Reason)
	}
	if res.Best == nil {
		t.Fatal("deadline-bounded run must return the best of the initial population")
	}
	if res.Best.AvgPower <= 0 {
		t.Errorf("best-so-far not evaluated: %+v", res.Best)
	}
}

func TestPanicInFitnessIsContained(t *testing.T) {
	sys := testSystem(t)
	opts := Options{Seed: 5, GA: ga.Config{PopSize: 16, MaxGenerations: 30, Stagnation: 100}}
	poisoned := func(g []int) bool { return g[0] == 1 && g[2] == 1 }
	opts.evalHook = func(g []int) {
		if poisoned(g) {
			panic("injected evaluation fault")
		}
	}
	res, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("contained faults must not abort the run: %s", res.GA.Reason)
	}
	if len(res.Faults) == 0 {
		t.Fatal("injected panics were not recorded")
	}
	for _, f := range res.Faults {
		if !poisoned(f.Genome) {
			t.Errorf("fault recorded for a healthy genome: %+v", f.Genome)
		}
		if f.Attempts != 2 || !strings.Contains(f.Err, "injected evaluation fault") {
			t.Errorf("fault = attempts %d, err %q", f.Attempts, f.Err)
		}
	}
	if res.Best == nil || poisoned(res.GA.Best) {
		t.Errorf("best genome must avoid the poisoned region: %v", res.GA.Best)
	}
	if math.IsInf(res.GA.BestFitness, 1) {
		t.Error("run converged onto an infeasible best despite healthy genomes existing")
	}
}

func TestFaultBudgetAbortsCleanly(t *testing.T) {
	sys := testSystem(t)
	opts := Options{
		Seed:        7,
		GA:          ga.Config{PopSize: 16, MaxGenerations: 50, Stagnation: 100},
		FaultBudget: 2,
	}
	opts.evalHook = func([]int) { panic("everything is broken") }
	res, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !strings.Contains(res.GA.Reason, "fault budget exceeded") {
		t.Fatalf("partial=%v reason=%q, want fault-budget abort", res.Partial, res.GA.Reason)
	}
	if len(res.Faults) <= 2 {
		t.Errorf("faults = %d, want more than the budget", len(res.Faults))
	}
	// The closing report still works: the final evaluation bypasses the
	// hook, so even a fully poisoned run yields a diagnosable result.
	if res.Best == nil {
		t.Error("fault-budget abort must still report a best-so-far candidate")
	}
}

func TestCacheCountersAccounting(t *testing.T) {
	sys := testSystem(t)
	opts := Options{Seed: 9, GA: ga.Config{PopSize: 16, MaxGenerations: 30, Stagnation: 100}}
	uncached := 0
	opts.evalHook = func([]int) { uncached++ }
	res, err := Synthesize(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cache
	if c.Misses != uint64(uncached) {
		t.Errorf("misses = %d, hook saw %d uncached evaluations", c.Misses, uncached)
	}
	if c.Hits == 0 {
		t.Error("a 16-genome search space must produce cache hits")
	}
	if c.Entries != int(c.Misses) || c.Evictions != 0 {
		t.Errorf("entries = %d, misses = %d, evictions = %d: cache accounting broken",
			c.Entries, c.Misses, c.Evictions)
	}
	if c.Capacity != FitnessCacheCap {
		t.Errorf("capacity = %d, want %d", c.Capacity, FitnessCacheCap)
	}
	if total := c.Hits + c.Misses; uint64(res.GA.Evaluations) != total {
		t.Errorf("GA evaluations %d != cache lookups %d", res.GA.Evaluations, total)
	}
	if r := c.HitRate(); r <= 0 || r >= 1 {
		t.Errorf("hit rate = %v, want within (0,1)", r)
	}
}

func TestResumeValidation(t *testing.T) {
	sys := testSystem(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "v.ckpt")
	opts := runOpts(path)
	opts.GA.MaxGenerations = 4
	opts.CheckpointEvery = 2
	if _, err := Synthesize(sys, opts); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"different seed", func(o *Options) { o.Seed = 99 }, "seed"},
		{"different options", func(o *Options) { o.UseDVS = false }, "options"},
		{"missing file", func(o *Options) { o.CheckpointPath = filepath.Join(dir, "gone.ckpt") }, "checkpoint"},
	}
	for _, tc := range cases {
		o := opts
		o.Resume = true
		tc.mutate(&o)
		_, err := Synthesize(sys, o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	o := opts
	o.Resume = true
	o.CheckpointPath = ""
	if _, err := Synthesize(sys, o); err == nil {
		t.Error("Resume without CheckpointPath must fail")
	}
}

// TestResumeRefusesOldDefaultBudget pins that the fingerprint names the GA
// budget a run resolved to: a checkpoint of a zero-budget run written when
// the fingerprint kept the raw zeros (and the engine defaulted to another
// population size) is refused, while the same checkpoint fingerprinted with
// the resolved budget resumes.
func TestResumeRefusesOldDefaultBudget(t *testing.T) {
	sys := testSystem(t)
	path := filepath.Join(t.TempDir(), "z.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Seed: 11, CheckpointPath: path, CheckpointEvery: 1, Context: ctx}
	opts.evalHook = func([]int) { cancel() }
	if _, err := Synthesize(sys, opts); err != nil {
		t.Fatal(err)
	}
	cp, err := runctl.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resolved := fmt.Sprintf("ga=%+v", opts.GA.ResolveBudget())
	if !strings.Contains(cp.Fingerprint, resolved) {
		t.Fatalf("fingerprint %q does not name the resolved budget %q", cp.Fingerprint, resolved)
	}
	cp.Fingerprint = strings.Replace(cp.Fingerprint, resolved, fmt.Sprintf("ga=%+v", opts.GA), 1)
	if err := runctl.Save(path, cp); err != nil {
		t.Fatal(err)
	}

	resume := Options{Seed: 11, CheckpointPath: path, Resume: true}
	if _, err := Synthesize(sys, resume); err == nil || !strings.Contains(err.Error(), "options") {
		t.Fatalf("zero-budget checkpoint with a raw fingerprint resumed: err = %v", err)
	}
	cp.Fingerprint = resume.fingerprint()
	if err := runctl.Save(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(sys, resume); err != nil {
		t.Fatalf("checkpoint with the resolved fingerprint refused: %v", err)
	}
}

func TestResumeRejectsDifferentSystem(t *testing.T) {
	sys := testSystem(t)
	path := filepath.Join(t.TempDir(), "s.ckpt")
	opts := runOpts(path)
	opts.GA.MaxGenerations = 2
	opts.CheckpointEvery = 1
	if _, err := Synthesize(sys, opts); err != nil {
		t.Fatal(err)
	}
	other := testSystem(t)
	other.App.Name = "othersys"
	opts.Resume = true
	if _, err := Synthesize(other, opts); err == nil || !strings.Contains(err.Error(), "othersys") {
		t.Errorf("resume across systems accepted: %v", err)
	}
}
