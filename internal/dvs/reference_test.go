package dvs

// This file keeps the voltage selection as it was before Scaler replaced
// it: the map-based constraint-graph builder, the greedy loop that
// recomputes every candidate move on every step, and the trailing
// re-timestamp in writeBack. It is the reference of the differential test
// in scaler_test.go and is compiled only into the package's tests. The one
// intended difference from the original is in refTransform: the segment
// power is summed in ascending task-ID order instead of map order, which
// is what Transform does too.

import (
	"math"
	"sort"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// refTransform folds the (possibly parallel) executions of the given task
// slots — all on one hardware PE — into the sequential virtual-task chain
// of paper Fig. 5. Slots must have strictly positive durations; empty gaps
// between executions produce no segment.
func refTransform(slots []sched.TaskSlot) []Segment {
	type ev struct {
		t     float64
		delta int // +1 start, -1 end
		slot  int
	}
	var evs []ev
	for i := range slots {
		evs = append(evs, ev{slots[i].Start, +1, i}, ev{slots[i].Finish, -1, i})
	}
	sort.Slice(evs, func(i, j int) bool {
		switch {
		case evs[i].t < evs[j].t:
			return true
		case evs[j].t < evs[i].t:
			return false
		}
		// Ends before starts so zero-length overlaps do not merge segments.
		return evs[i].delta < evs[j].delta
	})
	active := make(map[int]bool)
	var segs []Segment
	prev := math.Inf(-1)
	for _, e := range evs {
		if len(active) > 0 && e.t > prev {
			seg := Segment{Start: prev, End: e.t}
			var on []int
			for si := range active {
				on = append(on, si)
			}
			sort.Slice(on, func(i, j int) bool { return slots[on[i]].Task < slots[on[j]].Task })
			for _, si := range on {
				seg.Power += slots[si].Power
				seg.Active = append(seg.Active, slots[si].Task)
			}
			segs = append(segs, seg)
		}
		if e.delta > 0 {
			active[e.slot] = true
		} else {
			delete(active, e.slot)
		}
		prev = e.t
	}
	return segs
}

// node is one activity of the scaling constraint graph.
type refNode struct {
	// dur is the current (possibly stretched) duration; nom the duration at
	// nominal voltage.
	dur, nom float64
	power    float64
	pe       *model.PE // nil for communications
	level    int       // current voltage level index (into pe.Levels)
	deadline float64   // +Inf when unconstrained
	scalable bool

	preds, succs []int32

	start, finish, lf float64

	// Bookkeeping to write results back to the schedule.
	task  model.TaskID // valid when kind == rkTask
	edge  model.EdgeID // valid when kind == rkComm
	segPE model.PEID   // valid when kind == rkSeg
	seg   Segment      // valid when kind == rkSeg
	kind  refKind
}

type refKind uint8

const (
	rkTask refKind = iota
	rkComm
	rkSeg
)

// graph is the scaling constraint graph of one mode.
type refGraph struct {
	nodes []refNode
	order []int32 // topological order
	// startOf/endOf map a task to the node carrying its start/finish
	// (identical for plain tasks, first/last segment for DVS hardware).
	startOf, endOf []int32
}

// Config tunes voltage selection. The zero value is the paper's full
// refScaleWith is Scale with explicit configuration.
func refScaleWith(s *model.System, sc *sched.Schedule, cfg Config) bool {
	if sc.Unroutable > 0 || sc.Lateness(s) > 1e-9 {
		return false
	}
	g := refBuildGraph(s, sc, cfg)
	if g == nil {
		return false
	}
	changed := refGreedyScale(g)
	refWriteBack(s, sc, g)
	return changed
}

// refBuildGraph assembles the constraint graph: task/segment/communication
// nodes, precedence edges via communications, and resource-order chains for
// software PEs, hardware core instances, DVS hardware segments and CLs.
// Returns nil when the graph has no scalable node.
func refBuildGraph(s *model.System, sc *sched.Schedule, cfg Config) *refGraph {
	mode := s.App.Mode(sc.Mode)
	tg := mode.Graph
	n := len(tg.Tasks)
	g := &refGraph{
		startOf: make([]int32, n),
		endOf:   make([]int32, n),
	}
	for i := range g.startOf {
		g.startOf[i] = -1
		g.endOf[i] = -1
	}

	anyScalable := false
	// Group hardware-DVS slots per PE; emit plain nodes for the rest.
	hwSlots := make(map[model.PEID][]sched.TaskSlot)
	for ti := range sc.Tasks {
		slot := sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if pe.Class.IsHardware() && pe.Scalable() && !cfg.SoftwareOnly {
			hwSlots[pe.ID] = append(hwSlots[pe.ID], slot)
			continue
		}
		scal := pe.Scalable() && pe.Class.IsSoftware()
		if scal {
			anyScalable = true
		}
		id := int32(len(g.nodes))
		g.nodes = append(g.nodes, refNode{
			kind:     rkTask,
			task:     slot.Task,
			dur:      slot.NomTime,
			nom:      slot.NomTime,
			power:    slot.Power,
			pe:       pe,
			level:    refMaxLevel(pe),
			deadline: tg.Task(slot.Task).EffectiveDeadline(mode.Period),
			scalable: scal,
		})
		g.startOf[slot.Task] = id
		g.endOf[slot.Task] = id
	}
	// Segment nodes for DVS hardware PEs (Fig. 5 transformation).
	var hwPEs []model.PEID
	for pe := range hwSlots {
		hwPEs = append(hwPEs, pe)
	}
	sort.Slice(hwPEs, func(i, j int) bool { return hwPEs[i] < hwPEs[j] })
	for _, peID := range hwPEs {
		pe := s.Arch.PE(peID)
		slots := hwSlots[peID]
		segs := refTransform(slots)
		anyScalable = anyScalable || len(segs) > 0
		lastSeg := make(map[model.TaskID]int32)
		var prev int32 = -1
		for _, seg := range segs {
			id := int32(len(g.nodes))
			g.nodes = append(g.nodes, refNode{
				kind:     rkSeg,
				segPE:    peID,
				seg:      seg,
				dur:      seg.Duration(),
				nom:      seg.Duration(),
				power:    seg.Power,
				pe:       pe,
				level:    refMaxLevel(pe),
				deadline: math.Inf(1),
				scalable: true,
			})
			if prev >= 0 {
				refAddEdge(g, prev, id)
			}
			prev = id
			for _, t := range seg.Active {
				if g.startOf[t] < 0 {
					g.startOf[t] = id
				}
				lastSeg[t] = id
			}
		}
		// Deadlines attach to the segment in which each task finishes.
		for t, id := range lastSeg {
			g.endOf[t] = id
			d := tg.Task(t).EffectiveDeadline(mode.Period)
			if d < g.nodes[id].deadline {
				g.nodes[id].deadline = d
			}
		}
	}
	if !anyScalable {
		return nil
	}

	// Communication nodes and precedence edges.
	clChains := make(map[model.CLID][]int32)
	type commRef struct {
		node  int32
		start float64
	}
	clSlots := make(map[model.CLID][]commRef)
	for ei := range sc.Comms {
		cs := sc.Comms[ei]
		e := tg.Edge(model.EdgeID(ei))
		src, dst := g.endOf[e.Src], g.startOf[e.Dst]
		if cs.Routed && cs.CL != model.NoCL && cs.Time > 0 {
			id := int32(len(g.nodes))
			g.nodes = append(g.nodes, refNode{
				kind:     rkComm,
				edge:     model.EdgeID(ei),
				dur:      cs.Time,
				nom:      cs.Time,
				power:    cs.Power,
				deadline: math.Inf(1),
			})
			refAddEdge(g, src, id)
			refAddEdge(g, id, dst)
			clSlots[cs.CL] = append(clSlots[cs.CL], commRef{id, cs.Start})
		} else {
			refAddEdge(g, src, dst)
		}
	}
	for cl, refs := range clSlots {
		sort.Slice(refs, func(i, j int) bool {
			switch {
			case refs[i].start < refs[j].start:
				return true
			case refs[j].start < refs[i].start:
				return false
			}
			return refs[i].node < refs[j].node
		})
		for _, r := range refs {
			clChains[cl] = append(clChains[cl], r.node)
		}
		chain := clChains[cl]
		for i := 1; i < len(chain); i++ {
			refAddEdge(g, chain[i-1], chain[i])
		}
	}

	// Resource chains for software PEs and non-DVS hardware core instances.
	type resKey struct {
		pe   model.PEID
		tt   model.TaskTypeID
		core int
	}
	chains := make(map[resKey][]int32)
	var keys []resKey
	for ti := range sc.Tasks {
		slot := sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if pe.Class.IsHardware() && pe.Scalable() && !cfg.SoftwareOnly {
			continue // ordering enforced by the segment chain
		}
		var k resKey
		if pe.Class.IsHardware() {
			k = resKey{slot.PE, tg.Task(slot.Task).Type, slot.Core}
		} else {
			k = resKey{slot.PE, -1, -1}
		}
		if _, ok := chains[k]; !ok {
			keys = append(keys, k)
		}
		chains[k] = append(chains[k], g.startOf[slot.Task])
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.pe != b.pe {
			return a.pe < b.pe
		}
		if a.tt != b.tt {
			return a.tt < b.tt
		}
		return a.core < b.core
	})
	for _, k := range keys {
		chain := chains[k]
		sort.Slice(chain, func(i, j int) bool {
			a, b := chain[i], chain[j]
			sa := sc.Tasks[g.nodes[a].task].Start
			sb := sc.Tasks[g.nodes[b].task].Start
			switch {
			case sa < sb:
				return true
			case sb < sa:
				return false
			}
			return a < b
		})
		for i := 1; i < len(chain); i++ {
			refAddEdge(g, chain[i-1], chain[i])
		}
	}

	if !refTopoSort(g) {
		return nil
	}
	return g
}

// refMaxLevel returns the top voltage-level index of the PE, or -1 when the
// PE does not support DVS.
func refMaxLevel(pe *model.PE) int {
	if !pe.DVS {
		return -1
	}
	return len(pe.Levels) - 1
}

func refAddEdge(g *refGraph, from, to int32) {
	if from < 0 || to < 0 || from == to {
		return
	}
	g.nodes[from].succs = append(g.nodes[from].succs, to)
	g.nodes[to].preds = append(g.nodes[to].preds, from)
}

// refTopoSort fills g.order (Kahn); returns false on a cycle, which indicates
// an internal inconsistency and disables scaling.
func refTopoSort(g *refGraph) bool {
	n := len(g.nodes)
	indeg := make([]int, n)
	for i := range g.nodes {
		for range g.nodes[i].preds {
			indeg[i]++
		}
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	g.order = g.order[:0]
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.order = append(g.order, v)
		for _, w := range g.nodes[v].succs {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return len(g.order) == n
}

// refTimestamp runs the forward (earliest start/finish) and backward (latest
// finish) passes over the current durations.
func refTimestamp(g *refGraph) {
	for _, v := range g.order {
		nd := &g.nodes[v]
		st := 0.0
		for _, p := range nd.preds {
			if f := g.nodes[p].finish; f > st {
				st = f
			}
		}
		nd.start = st
		nd.finish = st + nd.dur
	}
	for i := len(g.order) - 1; i >= 0; i-- {
		v := g.order[i]
		nd := &g.nodes[v]
		lf := nd.deadline
		for _, s := range nd.succs {
			sn := &g.nodes[s]
			if v2 := sn.lf - sn.dur; v2 < lf {
				lf = v2
			}
		}
		nd.lf = lf
	}
}

// refGreedyScale repeatedly applies the single voltage-step move with the
// best energy-saving per added delay until no feasible move remains.
func refGreedyScale(g *refGraph) bool {
	changed := false
	for {
		refTimestamp(g)
		best := -1
		bestRatio := 0.0
		var bestDur float64
		for i := range g.nodes {
			nd := &g.nodes[i]
			if !nd.scalable || nd.level <= 0 || nd.nom <= 0 {
				continue
			}
			pe := nd.pe
			vCur := pe.Levels[nd.level]
			vNext := pe.Levels[nd.level-1]
			newDur := energy.ScaledTime(nd.nom, vNext, pe.Vmax, pe.Vt)
			dt := newDur - nd.dur
			if dt <= 0 {
				continue
			}
			slack := nd.lf - nd.finish
			if dt > slack+1e-12 {
				continue
			}
			gain := energy.EnergySaving(nd.power, nd.nom, vCur, vNext, pe.Vmax)
			if gain <= 0 {
				continue
			}
			if r := gain / dt; r > bestRatio {
				bestRatio = r
				best = i
				bestDur = newDur
			}
		}
		if best < 0 {
			return changed
		}
		g.nodes[best].level--
		g.nodes[best].dur = bestDur
		changed = true
	}
}

// refWriteBack transfers the scaled timing, voltages and energies from the
// constraint graph into the schedule slots.
func refWriteBack(s *model.System, sc *sched.Schedule, g *refGraph) {
	refTimestamp(g)
	// Per-task accumulation for segmented hardware tasks.
	type acc struct {
		start, finish float64
		energyJ       float64
		minLevel      int
		seen          bool
	}
	accs := make(map[model.TaskID]*acc)
	makespan := 0.0
	for i := range g.nodes {
		nd := &g.nodes[i]
		if nd.finish > makespan {
			makespan = nd.finish
		}
		switch nd.kind {
		case rkTask:
			slot := &sc.Tasks[nd.task]
			slot.Start = nd.start
			slot.Finish = nd.finish
			if nd.pe.DVS {
				slot.VoltIdx = nd.level
				slot.Energy = energy.TaskEnergy(nd.power, nd.nom, nd.pe.Levels[nd.level], nd.pe.Vmax)
			} else {
				slot.Energy = nd.power * nd.nom
			}
		case rkComm:
			slot := &sc.Comms[nd.edge]
			slot.Start = nd.start
			slot.Finish = nd.finish
		case rkSeg:
			v := nd.pe.Levels[nd.level]
			r := v / nd.pe.Vmax
			for _, t := range nd.seg.Active {
				a := accs[t]
				if a == nil {
					a = &acc{start: nd.start, minLevel: nd.level}
					accs[t] = a
				}
				if !a.seen {
					a.start = nd.start
					a.seen = true
				} else if nd.start < a.start {
					a.start = nd.start
				}
				if nd.finish > a.finish {
					a.finish = nd.finish
				}
				if nd.level < a.minLevel {
					a.minLevel = nd.level
				}
				// Energy share of this task within the segment: its own
				// nominal power over the segment's nominal length, scaled
				// by the segment's voltage ratio squared.
				a.energyJ += sc.Tasks[t].Power * nd.nom * r * r
			}
		}
	}
	for t, a := range accs {
		slot := &sc.Tasks[t]
		slot.Start = a.start
		slot.Finish = a.finish
		slot.VoltIdx = a.minLevel
		slot.Energy = a.energyJ
	}
	sc.Makespan = makespan
}
