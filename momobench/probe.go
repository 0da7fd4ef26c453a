package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"momosyn/internal/dvs"
	"momosyn/internal/model"
	"momosyn/internal/sched"
	"momosyn/internal/synth"
	"momosyn/internal/verify"
)

// probeNeighbours is the number of single-locus neighbours probed around
// each synthesis's best mapping.
const probeNeighbours = 16

// prober times the inner-loop layers one call at a time on mappings that
// look like late-GA offspring: a synthesis's final best mapping and its
// single-locus neighbours. Each call is a span under the synthesis's
// trace; the per-layer metrics are medians over those spans.
type prober struct {
	tr  *tracer
	rep *report
	rng *rand.Rand

	// Heap allocation totals over the untimed Evaluate replays.
	allocs, bytes uint64
	evals         int
}

func newProber(tr *tracer, rep *report, seed int64) *prober {
	return &prober{tr: tr, rep: rep, rng: rand.New(rand.NewSource(seed))}
}

// probeSet returns best plus probeNeighbours mappings that each differ
// from it at one randomly chosen locus.
func (p *prober) probeSet(sys *model.System, best model.Mapping) ([]model.Mapping, error) {
	codec, err := synth.NewCodec(sys)
	if err != nil {
		return nil, err
	}
	base := codec.Encode(best)
	set := []model.Mapping{codec.Decode(base)}
	for tries := 0; len(set) <= probeNeighbours && tries < 64*probeNeighbours; tries++ {
		k := p.rng.Intn(codec.Len())
		cands := codec.CandidatesAt(k)
		if len(cands) < 2 {
			continue
		}
		pe := cands[p.rng.Intn(len(cands))]
		if pe == codec.PEAt(base, k) {
			continue
		}
		g := append([]int(nil), base...)
		if codec.SetPE(g, k, pe) {
			set = append(set, codec.Decode(g))
		}
	}
	return set, nil
}

// probe runs the layer calls of one evaluation on every mapping of the
// probe set — ComputeMobility, AllocateCores, then ListSchedule and (with
// DVS) ScaleWith per mode, then Evaluate and CertifyEvaluation — each
// inside its own span, and checks that every evaluation certifies.
func (p *prober) probe(trace string, parent int, sys *model.System, best model.Mapping, useDVS bool) error {
	set, err := p.probeSet(sys, best)
	if err != nil {
		return err
	}
	eval := synth.NewEvaluator(sys, useDVS)
	evalSpan := "synth.Evaluate"
	if useDVS {
		evalSpan = "synth.EvaluateDVS"
	}
	nModes := len(sys.App.Modes)
	for _, m := range set {
		root := p.tr.begin(trace, parent, "probe")
		mob := make([]*sched.Mobility, nModes)
		for mode := 0; mode < nModes; mode++ {
			id := p.tr.begin(trace, root, "sched.ComputeMobility")
			mob[mode], err = sched.ComputeMobility(sys, model.ModeID(mode), m)
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("probe mobility: %w", err)
			}
		}
		id := p.tr.begin(trace, root, "synth.AllocateCores")
		alloc := synth.AllocateCores(sys, m, mob)
		p.tr.end(id)
		for mode := 0; mode < nModes; mode++ {
			id := p.tr.begin(trace, root, "sched.ListSchedule")
			sc, err := sched.ListSchedule(sys, model.ModeID(mode), m, alloc, mob[mode])
			p.tr.end(id)
			if err != nil {
				return fmt.Errorf("probe list schedule: %w", err)
			}
			if useDVS {
				id := p.tr.begin(trace, root, "dvs.ScaleWith")
				dvs.ScaleWith(sys, sc, dvs.Config{})
				p.tr.end(id)
			}
		}
		id = p.tr.begin(trace, root, evalSpan)
		ev, err := eval.Evaluate(m)
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("probe evaluate: %w", err)
		}
		id = p.tr.begin(trace, root, "verify.CertifyEvaluation")
		cert := synth.CertifyEvaluation(sys, ev, nil, verify.Options{})
		p.tr.end(id)
		p.rep.check(cert.Certified(), "%s: probe evaluation not certified: %v", trace, cert)
		p.tr.end(root)
	}
	// Allocation counts come from an untimed replay of Evaluate over the
	// same set: reading the heap statistics stops the world, so it stays
	// out of the timed spans.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range set {
		if _, err := eval.Evaluate(m); err != nil {
			return fmt.Errorf("probe evaluate: %w", err)
		}
	}
	runtime.ReadMemStats(&after)
	p.allocs += after.Mallocs - before.Mallocs
	p.bytes += after.TotalAlloc - before.TotalAlloc
	p.evals += len(set)
	return nil
}

// report sets the per-layer metrics measured by the probes.
func (p *prober) report() {
	layer := func(name, spanName string, unit time.Duration) {
		d := p.tr.durations(spanName, unit)
		p.rep.set(name, median(d), len(d), "median")
	}
	layer("synth.evaluate_us", "synth.Evaluate", time.Microsecond)
	layer("synth.evaluate_dvs_us", "synth.EvaluateDVS", time.Microsecond)
	layer("synth.alloc_cores_us", "synth.AllocateCores", time.Microsecond)
	layer("sched.mobility_us", "sched.ComputeMobility", time.Microsecond)
	layer("sched.list_us", "sched.ListSchedule", time.Microsecond)
	layer("dvs.scale_us", "dvs.ScaleWith", time.Microsecond)
	layer("verify.certify_ms", "verify.CertifyEvaluation", time.Millisecond)
	if p.evals > 0 {
		n := float64(p.evals)
		p.rep.set("synth.allocs_per_eval", float64(p.allocs)/n, p.evals, "mean")
		p.rep.set("synth.bytes_per_eval", float64(p.bytes)/n, p.evals, "mean")
	}
}
