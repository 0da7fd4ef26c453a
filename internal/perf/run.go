package perf

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
)

// Spec is one named specification to measure.
type Spec struct {
	Name string
	Sys  *model.System
}

// ResolveSpecs turns the -specs argument of `mmperf run` into systems:
// "muls" expands to the whole mul1–mul12 suite, "mulN" to one generated
// benchmark, "smartphone" to the real-life example, and anything else is
// read as a specification file path.
func ResolveSpecs(names []string) ([]Spec, error) {
	var out []Spec
	for _, name := range names {
		switch {
		case name == "muls":
			for i := 1; i <= bench.NumMuls; i++ {
				sys, err := bench.MulSystem(i)
				if err != nil {
					return nil, err
				}
				out = append(out, Spec{Name: fmt.Sprintf("mul%d", i), Sys: sys})
			}
		case name == "smartphone":
			sys, err := bench.SmartPhone()
			if err != nil {
				return nil, err
			}
			out = append(out, Spec{Name: name, Sys: sys})
		case len(name) > 3 && name[:3] == "mul" && name[3] >= '0' && name[3] <= '9':
			var i int
			if _, err := fmt.Sscanf(name, "mul%d", &i); err != nil {
				return nil, fmt.Errorf("perf: bad mul spec %q", name)
			}
			sys, err := bench.MulSystem(i)
			if err != nil {
				return nil, err
			}
			out = append(out, Spec{Name: name, Sys: sys})
		default:
			f, err := os.Open(name)
			if err != nil {
				return nil, fmt.Errorf("perf: spec: %w", err)
			}
			sys, err := specio.Read(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("perf: spec %s: %w", name, err)
			}
			out = append(out, Spec{Name: name, Sys: sys})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perf: no specs to measure")
	}
	return out, nil
}

// RunOptions tunes a trajectory measurement.
type RunOptions struct {
	// Reps is the number of measured repetitions per spec (default 3);
	// the diff's robust statistics live off these.
	Reps int
	// Warmups is the number of unmeasured warm-up runs per spec (default
	// 1), absorbing first-touch effects (page faults, branch predictors,
	// lazily built tables).
	Warmups int
	// Seed is the base seed; repetition r of every spec runs at
	// Seed + r*7919, matching the bench harness protocol.
	Seed int64
	// DVS enables voltage scaling during the measured syntheses.
	DVS bool
	// GA tunes the engine; fields left zero take the engine defaults.
	GA ga.Config
	// Context interrupts the measurement between repetitions.
	Context context.Context
	// Progress, when non-nil, receives a one-line heartbeat per finished
	// spec.
	Progress io.Writer
	// Dir anchors the git-commit lookup for the environment fingerprint
	// ("" = working directory).
	Dir string
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if o.Warmups < 0 {
		o.Warmups = 0
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Run measures every spec Reps times (after Warmups unmeasured runs) and
// assembles the trajectory artifact. Runs are strictly sequential — the
// point is stable wall-clock numbers, not throughput — and every
// repetition is instrumented with a private obs run so the per-phase
// breakdown lands in the artifact.
func Run(specs []Spec, opt RunOptions) (*Artifact, error) {
	opt = opt.withDefaults()
	budget := opt.GA.ResolveBudget()
	art := &Artifact{
		Schema: Schema,
		Env:    CurrentEnv(opt.Dir),
		Config: RunConfig{
			Reps: opt.Reps, Warmups: opt.Warmups, Seed: opt.Seed, DVS: opt.DVS,
			PopSize: budget.PopSize, MaxGens: budget.MaxGenerations, Stagnation: budget.Stagnation,
		},
	}
	for _, sp := range specs {
		sr := SpecResult{Name: sp.Name, Modes: len(sp.Sys.App.Modes)}
		for _, m := range sp.Sys.App.Modes {
			sr.Tasks += len(m.Graph.Tasks)
		}
		started := time.Now()
		for r := 0; r < opt.Warmups+opt.Reps; r++ {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("perf: interrupted: %w", context.Cause(opt.Context))
			}
			seed := opt.Seed + int64(r)*7919
			rep, err := measureOnce(sp.Sys, seed, opt)
			if err != nil {
				return nil, fmt.Errorf("perf: %s (seed %d): %w", sp.Name, seed, err)
			}
			if r >= opt.Warmups {
				sr.Reps = append(sr.Reps, rep)
			}
		}
		art.Specs = append(art.Specs, sr)
		if opt.Progress != nil {
			med := medianInt64(wallTimes(sr.Reps))
			fmt.Fprintf(opt.Progress, "perf: %-12s %d reps in %s, median wall %s\n",
				sp.Name, len(sr.Reps), time.Since(started).Round(time.Millisecond),
				time.Duration(med).Round(time.Millisecond))
		}
	}
	return art, art.Validate()
}

// measureOnce runs one instrumented synthesis and extracts the sample.
func measureOnce(sys *model.System, seed int64, opt RunOptions) (Rep, error) {
	// A metrics-only obs run: active (so synth populates Result.Timings)
	// but with no trace sink, so instrumentation cost stays at clock reads.
	run := obs.NewRun(obs.NewRegistry(), nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	started := time.Now()
	res, err := synth.Synthesize(sys, synth.Options{
		UseDVS:  opt.DVS,
		GA:      opt.GA,
		Seed:    seed,
		Context: opt.Context,
		Obs:     run,
	})
	wall := time.Since(started)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Rep{}, err
	}
	if res.Partial {
		return Rep{}, fmt.Errorf("interrupted mid-run (%s)", res.GA.Reason)
	}
	rep := Rep{
		Seed:         seed,
		WallNs:       wall.Nanoseconds(),
		Evaluations:  res.GA.Evaluations,
		Generations:  res.GA.Generations,
		CacheHitRate: res.Cache.HitRate(),
		Allocs:       after.Mallocs - before.Mallocs,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		Phases: PhaseNs{
			Mobility:  res.Timings.Mobility.Nanoseconds(),
			CoreAlloc: res.Timings.CoreAlloc.Nanoseconds(),
			ListSched: res.Timings.ListSched.Nanoseconds(),
			CommMap:   res.Timings.CommMap.Nanoseconds(),
			DVS:       res.Timings.DVS.Nanoseconds(),
			Refine:    res.Timings.Refine.Nanoseconds(),
		},
	}
	if s := wall.Seconds(); s > 0 {
		rep.EvalsPerSec = float64(res.GA.Evaluations) / s
	}
	if rep.WallNs <= 0 {
		rep.WallNs = 1 // clock granularity floor; Validate requires > 0
	}
	return rep, nil
}

func wallTimes(reps []Rep) []int64 {
	out := make([]int64, len(reps))
	for i, r := range reps {
		out[i] = r.WallNs
	}
	return out
}
