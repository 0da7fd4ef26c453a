package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"momosyn/internal/bench"
	"momosyn/internal/ga"
	"momosyn/internal/model"
	"momosyn/internal/obs"
	"momosyn/internal/specio"
	"momosyn/internal/synth"
	"momosyn/internal/verify"
)

// paperGA is the GA protocol of the paper's tables, passed explicitly so
// that a change of the engine's defaults cannot move the sweeps.
var paperGA = ga.Config{PopSize: 64, MaxGenerations: 300, Stagnation: 80}

// warmGA and warmSeed fix the warm-up synthesis of set-up, so that set-up
// does the same work whatever the workload seed.
var warmGA = ga.Config{PopSize: 16, MaxGenerations: 40, Stagnation: 40}

const warmSeed = 1

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

// sweepPlan is one sweep workload: which specifications, with DVS or not.
type sweepPlan struct {
	specs []string
	dvs   bool
}

var (
	mulSweep = sweepPlan{specs: []string{
		"mul1", "mul2", "mul3", "mul4", "mul5", "mul6",
		"mul7", "mul8", "mul9", "mul10", "mul11", "mul12",
	}}
	dvsSweep = sweepPlan{specs: []string{"smartphone", "mul1", "mul2", "mul3", "mul5", "mul6", "mul9"}, dvs: true}
)

// synthesis is one item of a sweep: a specification and its GA seed.
type synthesis struct {
	spec string
	sys  *model.System
	seed int64
}

// record is the behaviour of one synthesis, the unit of the fingerprint.
type record struct {
	Spec        string `json:"spec"`
	Seed        int64  `json:"seed"`
	DVS         bool   `json:"dvs"`
	PowerBits   string `json:"power_bits"`
	Feasible    bool   `json:"feasible"`
	Evaluations int    `json:"evaluations"`
	Generations int    `json:"generations"`
	// pw is the final Eq. 1 average power in watts, PowerBits in full.
	pw float64
}

func newRecord(spec string, seed int64, useDVS bool, power float64, feasible bool, evals, gens int) record {
	return record{
		Spec: spec, Seed: seed, DVS: useDVS,
		PowerBits: fmt.Sprintf("%016x", math.Float64bits(power)),
		Feasible:  feasible, Evaluations: evals, Generations: gens,
		pw: power,
	}
}

// readSpecs parses the named specifications from the checkout's specs
// directory, timing each specio.Read.
func (b *harness) readSpecs(names []string) ([]*model.System, []float64, error) {
	systems := make([]*model.System, len(names))
	var readMs []float64
	for i, name := range names {
		f, err := os.Open(filepath.Join(b.root, "specs", name+".spec"))
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		sys, err := specio.Read(f)
		readMs = append(readMs, float64(time.Since(start))/float64(time.Millisecond))
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("spec %s: %w", name, err)
		}
		if err := sys.Validate(); err != nil {
			return nil, nil, fmt.Errorf("spec %s: %w", name, err)
		}
		systems[i] = sys
	}
	return systems, readMs, nil
}

// checkFigure2 evaluates the two mappings of the paper's Figure 2 and
// checks the published probability-weighted energies to four decimals.
func (b *harness) checkFigure2() error {
	sys, err := bench.Figure2System()
	if err != nil {
		return err
	}
	ev := synth.NewEvaluator(sys, false)
	evB, err := ev.Evaluate(bench.Figure2MappingB(sys))
	if err != nil {
		return err
	}
	evC, err := ev.Evaluate(bench.Figure2MappingC(sys))
	if err != nil {
		return err
	}
	gotB, gotC := evB.AvgPower*1e3, evC.AvgPower*1e3
	b.rep.check(fmt.Sprintf("%.4f", gotB) == "26.7158" && fmt.Sprintf("%.4f", gotC) == "15.7423",
		"figure 2: got %.4f / %.4f mWs, want 26.7158 / 15.7423", gotB, gotC)
	return nil
}

// sweepSetup loads the specifications, checks Figure 2 and runs a warm-up
// synthesis. It returns the systems in plan order.
func (b *harness) sweepSetup(plan sweepPlan) ([]*model.System, []float64, error) {
	systems, readMs, err := b.readSpecs(plan.specs)
	if err != nil {
		return nil, nil, err
	}
	if err := b.checkFigure2(); err != nil {
		return nil, nil, err
	}
	res, err := synth.Synthesize(systems[0], synth.Options{UseDVS: plan.dvs, GA: warmGA, Seed: warmSeed})
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	b.rep.check(!res.Partial, "warm-up synthesis was interrupted")
	return systems, readMs, nil
}

// passSeconds is roughly how long one seed of every specification of a
// sweep takes on a 2-CPU machine. The spec×seed list of an untraced run
// holds seconds/passSeconds seeds per specification, at least one.
const passSeconds = 10

// sweepItems derives the sweep's spec×seed list from the workload seed:
// round r synthesises every specification once with a fresh GA seed.
func sweepItems(plan sweepPlan, systems []*model.System, seed int64, rounds int) []synthesis {
	rng := rand.New(rand.NewSource(seed))
	var items []synthesis
	for r := 0; r < rounds; r++ {
		for i, name := range plan.specs {
			items = append(items, synthesis{spec: name, sys: systems[i], seed: rng.Int63n(1 << 31)})
		}
	}
	return items
}

// synthOutcome is one synthesis of a pass.
type synthOutcome struct {
	rec  record
	res  *synth.Result
	wall time.Duration
	cpu  time.Duration
	// peak is the process's peak resident memory during the synthesis, MB.
	peak float64
}

// runPass synthesises every item once, in order, and certifies each
// result. With a tracer every synthesis is instrumented (a metrics-only
// obs run, so Result.Timings carries the phase breakdown) and spanned;
// with a speed reference one reference sample precedes each synthesis.
func (b *harness) runPass(plan sweepPlan, items []synthesis, tr *tracer, sp *speedRef) ([]synthOutcome, error) {
	out := make([]synthOutcome, len(items))
	for i, it := range items {
		trace := fmt.Sprintf("synthesis-%d-%s", i, it.spec)
		opts := synth.Options{UseDVS: plan.dvs, GA: paperGA, Seed: it.seed}
		if tr != nil {
			opts.Obs = obs.NewRun(obs.NewRegistry(), nil)
		}
		resetPeakRSS()
		if err := sp.sample(1); err != nil {
			return nil, err
		}
		root := tr.begin(trace, 0, "synthesis")
		id := tr.begin(trace, root, "synth.Synthesize")
		start, startCPU := time.Now(), cpuTime()
		res, err := synth.Synthesize(it.sys, opts)
		wall, cpu := time.Since(start), cpuTime()-startCPU
		tr.end(id)
		peak := peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", it.spec, it.seed, err)
		}
		id = tr.begin(trace, root, "verify.CertifyEvaluation")
		cert := synth.CertifyEvaluation(it.sys, res.Best, nil, verify.Options{})
		tr.end(id)
		tr.end(root)
		b.rep.check(!res.Partial && cert.Certified(),
			"%s seed %d: partial=%v certification: %v", it.spec, it.seed, res.Partial, cert)
		out[i] = synthOutcome{
			rec: newRecord(it.spec, it.seed, plan.dvs, res.Best.AvgPower, res.Best.Feasible(),
				res.GA.Evaluations, res.GA.Generations),
			res:  res,
			wall: wall,
			cpu:  cpu,
			peak: peak,
		}
	}
	return out, nil
}

// sweep runs a sweep workload: set-up, then one pass over the spec×seed
// list. A traced run uses one seed per specification and makes the pass
// twice, untraced and then traced, which must agree bit for bit.
func (b *harness) sweep(plan sweepPlan) error {
	var setupS, readMs []float64
	var systems []*model.System
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		sys, specMs, err := b.sweepSetup(plan)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		systems, readMs = sys, append(readMs, specMs...)
	}
	b.rep.set("setup_s", median(setupS), len(setupS), "median")
	b.rep.set("specio.read_ms", median(readMs), len(readMs), "median")
	rounds := int(b.seconds / (passSeconds * time.Second))
	if rounds < 1 || b.traced {
		rounds = 1
	}
	items := sweepItems(plan, systems, b.seed, rounds)

	var sp *speedRef
	if !b.traced {
		var err error
		if sp, err = startSpeedRef(); err != nil {
			return err
		}
		defer sp.stop()
	}
	pass, err := b.runPass(plan, items, nil, sp)
	if err != nil {
		return err
	}
	var records []record
	var powers, peaks []float64
	var sweep, cpu time.Duration
	evals, gens := 0, 0
	for _, o := range pass {
		records = append(records, o.rec)
		powers = append(powers, o.rec.pw*1e3)
		sweep += o.wall
		cpu += o.cpu
		peaks = append(peaks, o.peak)
		evals += o.rec.Evaluations
		gens += o.rec.Generations
	}
	b.fingerprint(records, evals, gens, 0, 0)

	n := len(items)
	b.rep.set("sweep_s", sweep.Seconds(), n, fmt.Sprintf("wall of %d syntheses", n))
	b.rep.set("jobs_per_s", float64(n)/sweep.Seconds(), n, "syntheses per wall second")
	if !b.traced {
		v, note := sp.scaledCPU(cpu, fmt.Sprintf("%d syntheses", n))
		b.rep.set("cpu_s", v, n, note)
		b.rep.set("mean_power_mw", mean(powers), n, "mean final p̄")
		// Each synthesis starts from a settled heap, so its peak is its own;
		// the median over the syntheses keeps one garbage-collection
		// overshoot from setting the figure.
		b.rep.set("peak_rss_mb", median(peaks), n, "median per-synthesis peak")
		return nil
	}

	tr := &tracer{}
	traced, err := b.runPass(plan, items, tr, nil)
	if err != nil {
		return err
	}
	var tracedWall time.Duration
	for i, o := range traced {
		tracedWall += o.wall
		b.rep.check(o.rec == pass[i].rec, "traced %s differs from untraced: %+v vs %+v", items[i].spec, o.rec, pass[i].rec)
	}
	b.rep.set("obs.trace_overhead_pct", 100*(tracedWall.Seconds()-sweep.Seconds())/sweep.Seconds(), 2, "traced vs untraced pass")
	b.layerSynthMetrics(traced)

	pr := newProber(tr, b.rep, b.seed)
	for i, o := range traced {
		trace := fmt.Sprintf("synthesis-%d-%s", i, items[i].spec)
		if err := pr.probe(trace, 0, items[i].sys, o.res.Best.Mapping, plan.dvs); err != nil {
			return err
		}
	}
	pr.report()
	return b.writeTrace(tr, nil)
}

// layerSynthMetrics derives the synth, phase and ga metrics from the
// instrumented results of a traced pass.
func (b *harness) layerSynthMetrics(pass []synthOutcome) {
	var t obs.Timings
	var elapsed time.Duration
	var hits, lookups uint64
	evals, gens := 0, 0
	for _, o := range pass {
		t.Add(o.res.Timings)
		elapsed += o.res.Elapsed
		hits += o.res.Cache.Hits
		lookups += o.res.Cache.Hits + o.res.Cache.Misses
		evals += o.res.GA.Evaluations
		gens += o.res.GA.Generations
	}
	n := len(pass)
	share := func(d time.Duration) float64 { return d.Seconds() / elapsed.Seconds() }
	b.rep.set("phase.mobility_share", share(t.Mobility), n, "of GA wall")
	b.rep.set("phase.core_alloc_share", share(t.CoreAlloc), n, "of GA wall")
	b.rep.set("phase.list_sched_share", share(t.ListSched), n, "of GA wall")
	b.rep.set("phase.comm_map_share", share(t.CommMap), n, "of GA wall, inside list_sched")
	b.rep.set("phase.dvs_share", share(t.DVS), n, "of GA wall")
	b.rep.set("ga.self_share", share(elapsed-t.Total()), n, "GA wall minus phases")
	b.rep.set("ga.generations", float64(gens), n, "")
	b.rep.set("synth.evaluations", float64(evals), n, "fitness lookups")
	b.rep.set("synth.evals_per_s", float64(evals)/elapsed.Seconds(), n, "")
	if lookups > 0 {
		b.rep.set("synth.cache_hit_rate", float64(hits)/float64(lookups), int(lookups), "fitness-cache hits per lookup")
	}
}
