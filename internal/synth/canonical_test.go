package synth

import (
	"context"
	"testing"

	"momosyn/internal/ga"
)

// TestCanonicalOptions pins the keying contract: trajectory-shaping fields
// move the canonical bytes, runtime plumbing and spelled-out defaults do not.
func TestCanonicalOptions(t *testing.T) {
	base := Options{Seed: 42, UseDVS: true, GA: ga.Config{PopSize: 32}}
	want := string(CanonicalOptions(base))
	if want == "" {
		t.Fatal("canonical options are empty")
	}

	runtime := base
	runtime.Context = context.Background()
	runtime.CheckpointPath = "/tmp/cp.json"
	runtime.CheckpointEvery = 3
	runtime.Resume = true
	runtime.FaultBudget = 7
	if got := string(CanonicalOptions(runtime)); got != want {
		t.Fatalf("runtime plumbing changed the canonical options:\n--- want\n%s\n--- got\n%s", want, got)
	}

	// A field left zero keys the same as its spelled-out default: both run
	// identically, so they must share one cache entry.
	for name, spell := range map[string]func(*Options){
		"weights":   func(o *Options) { o.Weights = DefaultWeights() },
		"ga_budget": func(o *Options) { o.GA = ga.Config{PopSize: 64, MaxGenerations: 300, Stagnation: 80} },
	} {
		zero := Options{Seed: 42}
		spelled := zero
		spell(&spelled)
		if a, b := string(CanonicalOptions(zero)), string(CanonicalOptions(spelled)); a != b {
			t.Errorf("%s: zero and default key differently:\n--- zero\n%s\n--- default\n%s", name, a, b)
		}
	}

	for name, mutate := range map[string]func(*Options){
		"seed":        func(o *Options) { o.Seed = 43 },
		"dvs":         func(o *Options) { o.UseDVS = false },
		"neglect":     func(o *Options) { o.NeglectProbabilities = true },
		"refine":      func(o *Options) { o.RefineIterations = 5 },
		"stall":       func(o *Options) { o.StallWindow = 9 },
		"certify":     func(o *Options) { o.Certify = true },
		"weights":     func(o *Options) { o.Weights.Area = 1.25 },
		"ga_pop":      func(o *Options) { o.GA.PopSize = 64 },
		"ga_maxgen":   func(o *Options) { o.GA.MaxGenerations = 10 },
		"ga_mutation": func(o *Options) { o.GA.MutationRate = 0.125 },
	} {
		opts := base
		mutate(&opts)
		if got := string(CanonicalOptions(opts)); got == want {
			t.Errorf("%s: trajectory-shaping change left canonical options unchanged", name)
		}
	}
}
