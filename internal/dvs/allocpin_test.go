package dvs

import (
	"testing"

	"momosyn/internal/allocpin"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Sinks defeat dead-code elimination of the measured calls.
var (
	sinkF float64
	sinkI int
	sinkB bool
)

// TestAllocPins proves every //mm:noalloc function in this package runs
// with zero allocations on realistic inputs (see internal/allocpin). The
// Scaler.Scale pin covers the whole voltage selection — graph build,
// Fig. 5 segments, greedy loop and write-back — on a software-DVS and a
// hardware-DVS schedule, each restored to its unscaled state first. The
// leaf pins below it carry no annotation; they keep the greedy's inner
// steps allocation-free on their own, so a regression points at its step.
func TestAllocPins(t *testing.T) {
	swSys := dvsSystem(t, 0.1)
	sw, err := sched.ListSchedule(swSys, 0, mapAll(swSys, 0), sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	hwSys := hwDVSSystem(t, 50e-3)
	m := model.NewMapping(hwSys.App)
	m[0][0], m[0][1], m[0][2] = 1, 1, 0
	hw, err := sched.ListSchedule(hwSys, 0, m, sched.SingleCores{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	swOrig, hwOrig := cloneSchedule(sw), cloneSchedule(hw)
	var z Scaler
	scale := func(sys *model.System, sc, orig *sched.Schedule) bool {
		copy(sc.Tasks, orig.Tasks)
		copy(sc.Comms, orig.Comms)
		return z.Scale(sys, sc, Config{})
	}
	// Warm-up grows the scaler's buffers; both schedules must really scale,
	// the hardware one through segments.
	if !scale(swSys, sw, swOrig) {
		t.Fatal("software schedule must scale")
	}
	if !scale(hwSys, hw, hwOrig) || len(z.segs) == 0 {
		t.Fatal("hardware schedule must scale through Fig. 5 segments")
	}
	seg := Segment{Start: 1e-3, End: 4e-3}

	allocpin.Verify(t, ".", []allocpin.Pin{
		{Name: "Segment.Duration", Body: func() { sinkF = seg.Duration() }},
		{Name: "Scaler.Scale", Body: func() {
			sinkB = scale(swSys, sw, swOrig)
			sinkB = scale(hwSys, hw, hwOrig)
		}},
	})

	pe := swSys.Arch.PEs[0]
	leafPin(t, "maxLevel", func() { sinkI = maxLevel(pe) })
	rebuild := func() bool {
		copy(sw.Tasks, swOrig.Tasks)
		copy(sw.Comms, swOrig.Comms)
		return z.build(swSys, sw, Config{})
	}
	if !rebuild() || !z.greedy() {
		t.Fatal("the unscaled software graph must take voltage moves")
	}
	// Each run rebuilds the unscaled graph, so every run performs all
	// voltage moves rather than only re-checking the fixed point.
	leafPin(t, "greedyScale", func() {
		sinkB = rebuild()
		sinkB = z.greedy()
	})
	// The graph left by the last greedy run stays current for timestamp.
	leafPin(t, "timestamp", func() { z.timestamp() })
}

// leafPin proves one inner step of the voltage selection allocates nothing
// once the scaler's buffers have grown.
func leafPin(t *testing.T, name string, body func()) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		if avg := testing.AllocsPerRun(100, body); avg != 0 {
			t.Errorf("%s allocates %.1f times per run; want 0", name, avg)
		}
	})
}
