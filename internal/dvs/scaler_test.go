package dvs

import (
	"math"
	"math/rand"
	"testing"

	"momosyn/internal/gen"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// cores grants the same number of core instances to every hardware type,
// so hardware tasks run in parallel and the Fig. 5 segments overlap.
type cores int

func (c cores) Instances(model.ModeID, model.PEID, model.TaskTypeID) int { return int(c) }

func cloneSchedule(sc *sched.Schedule) *sched.Schedule {
	cp := *sc
	cp.Tasks = append([]sched.TaskSlot(nil), sc.Tasks...)
	cp.Comms = append([]sched.CommSlot(nil), sc.Comms...)
	return &cp
}

// sameBits reports the first field in which two scaled schedules differ
// bit for bit, or "" when they agree.
func sameBits(a, b *sched.Schedule) string {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.Makespan, b.Makespan) {
		return "Makespan"
	}
	for i := range a.Tasks {
		x, y := a.Tasks[i], b.Tasks[i]
		switch {
		case !eq(x.Start, y.Start):
			return "task Start"
		case !eq(x.Finish, y.Finish):
			return "task Finish"
		case x.VoltIdx != y.VoltIdx:
			return "task VoltIdx"
		case !eq(x.Energy, y.Energy):
			return "task Energy"
		}
	}
	for i := range a.Comms {
		x, y := a.Comms[i], b.Comms[i]
		if !eq(x.Start, y.Start) || !eq(x.Finish, y.Finish) {
			return "comm Start/Finish"
		}
	}
	return ""
}

// randomMapping draws a uniformly random valid mapping.
func randomMapping(sys *model.System, rng *rand.Rand) model.Mapping {
	m := model.NewMapping(sys.App)
	for mi, mode := range sys.App.Modes {
		for ti, task := range mode.Graph.Tasks {
			cands := sys.CandidatePEs(task.Type)
			m[mi][ti] = cands[rng.Intn(len(cands))]
		}
	}
	return m
}

// TestScalerMatchesReference is the differential test of Scaler.Scale
// against the original map-based implementation in reference_test.go: over
// generated systems, random mappings, one to three core instances and both
// Config settings, one Scaler reused across systems of different sizes
// must reproduce the reference's return value and every scaled time,
// voltage index and energy bit for bit.
func TestScalerMatchesReference(t *testing.T) {
	var z Scaler
	var cases, scaled, segmented int
	for seed := int64(1); seed <= 12; seed++ {
		p := gen.NewParams(seed)
		// Every other system gets ample slack and DVS on every PE, so most
		// schedules are feasible and hardware segments appear.
		if seed%2 == 0 {
			p.DVSProb, p.Laxity = 1, 1.5
		}
		sys, err := gen.Generate(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		for k := 0; k < 6; k++ {
			mapping := randomMapping(sys, rng)
			alloc := cores(1 + k%3)
			for m := range sys.App.Modes {
				sc, err := sched.ListSchedule(sys, model.ModeID(m), mapping, alloc, nil)
				if err != nil {
					t.Fatalf("seed %d map %d mode %d: %v", seed, k, m, err)
				}
				for _, cfg := range []Config{{}, {SoftwareOnly: true}} {
					want, got := cloneSchedule(sc), cloneSchedule(sc)
					wantChanged := refScaleWith(sys, want, cfg)
					gotChanged := z.Scale(sys, got, cfg)
					cases++
					if gotChanged != wantChanged {
						t.Fatalf("seed %d map %d mode %d %+v: Scale returned %v, reference %v",
							seed, k, m, cfg, gotChanged, wantChanged)
					}
					if diff := sameBits(want, got); diff != "" {
						t.Fatalf("seed %d map %d mode %d %+v: %s differs from the reference",
							seed, k, m, cfg, diff)
					}
					if gotChanged {
						scaled++
						if !cfg.SoftwareOnly && len(z.segs) > 0 {
							segmented++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d scaled, %d through hardware segments", cases, scaled, segmented)
	// The comparison must have exercised real scaling, hardware segments
	// included, not only the early exits.
	if scaled < cases/4 || segmented == 0 {
		t.Errorf("weak coverage: %d of %d cases scaled, %d through hardware segments", scaled, cases, segmented)
	}
}

// TestScalerReuseAcrossSizes scales a large schedule, a small one, then
// the large one again with one Scaler: buffers left over from a larger
// graph must not leak into a smaller one, nor the reverse.
func TestScalerReuseAcrossSizes(t *testing.T) {
	p := gen.NewParams(4)
	p.DVSProb, p.Laxity, p.MinTasks = 1, 1.5, 28
	big, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	small := hwDVSSystem(t, 50e-3)
	smallMap := model.NewMapping(small.App)
	smallMap[0][0], smallMap[0][1], smallMap[0][2] = 1, 1, 0
	bigSched, err := sched.ListSchedule(big, 0, randomMapping(big, rand.New(rand.NewSource(7))), cores(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	smallSched, err := sched.ListSchedule(small, 0, smallMap, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var z Scaler
	for i, c := range []struct {
		sys *model.System
		sc  *sched.Schedule
	}{{big, bigSched}, {small, smallSched}, {big, bigSched}, {small, smallSched}} {
		want, got := cloneSchedule(c.sc), cloneSchedule(c.sc)
		wantChanged := refScaleWith(c.sys, want, Config{})
		if gotChanged := z.Scale(c.sys, got, Config{}); gotChanged != wantChanged {
			t.Fatalf("call %d: Scale returned %v, reference %v", i, gotChanged, wantChanged)
		}
		if diff := sameBits(want, got); diff != "" {
			t.Fatalf("call %d: %s differs from the reference", i, diff)
		}
	}
}

// TestTransformPowerSumOrder pins the segment power to one bit pattern:
// the sum over the active tasks in ascending task-ID order. With three
// concurrent cores a sum in any other order rounds differently.
func TestTransformPowerSumOrder(t *testing.T) {
	slots := []sched.TaskSlot{
		{Task: 2, Core: 2, Start: 0, Finish: 1, Power: 0.3},
		{Task: 0, Core: 0, Start: 0, Finish: 1, Power: 0.1},
		{Task: 1, Core: 1, Start: 0, Finish: 1, Power: 0.2},
	}
	// Summed at run time: a constant expression would be exact.
	sum := 0.0
	for _, p := range []float64{0.1, 0.2, 0.3} {
		sum += p
	}
	want := math.Float64bits(sum)
	for i := 0; i < 200; i++ {
		segs := Transform(slots)
		if len(segs) != 1 {
			t.Fatalf("got %d segments, want 1", len(segs))
		}
		if got := math.Float64bits(segs[0].Power); got != want {
			t.Fatalf("call %d: power %v (%#x), want the ascending-task-ID sum %v (%#x)",
				i, segs[0].Power, got, math.Float64frombits(want), want)
		}
	}
}
