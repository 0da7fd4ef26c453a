// Package dvs implements dynamic voltage scaling for multi-mode schedules:
// a greedy steepest-descent slack-distribution heuristic over a constraint
// graph of scheduled activities, in the spirit of the PV-DVS technique of
// Schmitz/Al-Hashimi (ISSS'01) that the DATE 2003 paper extends.
//
// The package also implements the paper's section 4.2 transformation
// (Fig. 5): on a DVS-enabled hardware component all cores share one supply
// voltage, so the potentially parallel core executions are folded into an
// equivalent chain of sequential virtual tasks (segments); voltages are
// then selected per segment exactly as for software tasks.
package dvs

import (
	"cmp"
	"math"
	"slices"

	"momosyn/internal/energy"
	"momosyn/internal/model"
	"momosyn/internal/sched"
)

// Segment is one virtual task of the hardware-core DVS transformation: a
// maximal time interval during which the set of executing cores of one
// hardware PE is constant and non-empty.
type Segment struct {
	Start, End float64
	// Power is the summed nominal dynamic power of the active cores.
	Power float64
	// Active lists the tasks executing during the segment.
	Active []model.TaskID
}

// Duration returns the nominal length of the segment.
//
//mm:noalloc
func (s Segment) Duration() float64 { return s.End - s.Start }

// Transform folds the (possibly parallel) executions of the given task
// slots — all on one hardware PE — into the sequential virtual-task chain
// of paper Fig. 5. Slots must have strictly positive durations; empty gaps
// between executions produce no segment. A segment lists its active tasks,
// and sums their powers, in ascending task-ID order.
func Transform(slots []sched.TaskSlot) []Segment {
	var z Scaler
	z.segment(slots)
	var segs []Segment
	for _, sg := range z.segs {
		segs = append(segs, Segment{
			Start:  sg.start,
			End:    sg.end,
			Power:  sg.power,
			Active: z.segTasks[sg.lo:sg.hi:sg.hi],
		})
	}
	return segs
}

// span is a Segment held in a Scaler's buffers: its active tasks are
// segTasks[lo:hi].
type span struct {
	start, end, power float64
	lo, hi            int32
}

// event is the start (delta +1) or end (delta -1) of one slot in the
// segment sweep.
type event struct {
	t     float64
	delta int32
	slot  int32
}

// cmpEvent orders events by time, ends before starts so zero-length
// overlaps do not merge segments, then by slot.
func cmpEvent(a, b event) int {
	switch {
	case a.t < b.t:
		return -1
	case b.t < a.t:
		return 1
	case a.delta != b.delta:
		return cmp.Compare(a.delta, b.delta)
	}
	return cmp.Compare(a.slot, b.slot)
}

// segment appends the Fig. 5 segments of slots, all on one hardware PE, to
// z.segs and their active tasks to z.segTasks.
func (z *Scaler) segment(slots []sched.TaskSlot) {
	z.evs = z.evs[:0]
	for i := range slots {
		//mm:alloc-ok grows on first use; later calls reuse the capacity
		z.evs = append(z.evs, event{slots[i].Start, +1, int32(i)}, event{slots[i].Finish, -1, int32(i)})
	}
	slices.SortFunc(z.evs, cmpEvent)
	// z.on holds the active slots in ascending task-ID order.
	z.on = z.on[:0]
	prev := math.Inf(-1)
	for _, e := range z.evs {
		if len(z.on) > 0 && e.t > prev {
			sg := span{start: prev, end: e.t, lo: int32(len(z.segTasks))}
			for _, si := range z.on {
				sg.power += slots[si].Power
				//mm:alloc-ok grows on first use; later calls reuse the capacity
				z.segTasks = append(z.segTasks, slots[si].Task)
			}
			sg.hi = int32(len(z.segTasks))
			//mm:alloc-ok grows on first use; later calls reuse the capacity
			z.segs = append(z.segs, sg)
		}
		if e.delta > 0 {
			i := len(z.on)
			for i > 0 && slots[z.on[i-1]].Task > slots[e.slot].Task {
				i--
			}
			z.on = slices.Insert(z.on, i, e.slot)
		} else if i := slices.Index(z.on, e.slot); i >= 0 {
			z.on = slices.Delete(z.on, i, i+1)
		}
		prev = e.t
	}
}

// node is one activity of the scaling constraint graph.
type node struct {
	// dur is the current (possibly stretched) duration; nom the duration at
	// nominal voltage.
	dur, nom float64
	power    float64
	deadline float64 // +Inf when unconstrained

	start, finish, lf float64

	// The node's next voltage step, cached until its level drops: the
	// duration one level down, the delay it adds, and its energy saving
	// per added delay.
	nextDur, dt, ratio float64

	pe       *model.PE // nil for communications
	level    int       // current voltage level index (into pe.Levels)
	scalable bool
	kind     nodeKind
	// ref is the task ID (nkTask), edge ID (nkComm) or index into
	// Scaler.segs (nkSeg) the node writes back to.
	ref int32
}

type nodeKind uint8

const (
	nkTask nodeKind = iota
	nkComm
	nkSeg
)

// nextMove caches the node's next voltage step and reports whether the
// step lowers energy at a positive added delay. Whether the delay fits the
// node's slack is checked per greedy step.
func (nd *node) nextMove() bool {
	if !nd.scalable || nd.level <= 0 || nd.nom <= 0 {
		return false
	}
	pe := nd.pe
	vCur := pe.Levels[nd.level]
	vNext := pe.Levels[nd.level-1]
	nd.nextDur = energy.ScaledTime(nd.nom, vNext, pe.Vmax, pe.Vt)
	nd.dt = nd.nextDur - nd.dur
	if nd.dt <= 0 {
		return false
	}
	gain := energy.EnergySaving(nd.power, nd.nom, vCur, vNext, pe.Vmax)
	if gain <= 0 {
		return false
	}
	nd.ratio = gain / nd.dt
	return true
}

// edge is one precedence constraint of the constraint graph.
type edge struct{ from, to int32 }

// chainRef places one node on an ordered resource: a communication link
// (cl >= 0), a software PE (tt and core -1) or a hardware core instance.
// Nodes with the same resource key are chained in (start, node) order.
type chainRef struct {
	cl    model.CLID
	pe    model.PEID
	tt    model.TaskTypeID
	core  int
	start float64
	node  int32
}

func (r chainRef) sameResource(o chainRef) bool {
	return r.cl == o.cl && r.pe == o.pe && r.tt == o.tt && r.core == o.core
}

func cmpChainRef(a, b chainRef) int {
	switch {
	case a.cl != b.cl:
		return cmp.Compare(a.cl, b.cl)
	case a.pe != b.pe:
		return cmp.Compare(a.pe, b.pe)
	case a.tt != b.tt:
		return cmp.Compare(a.tt, b.tt)
	case a.core != b.core:
		return cmp.Compare(a.core, b.core)
	case a.start < b.start:
		return -1
	case b.start < a.start:
		return 1
	}
	return cmp.Compare(a.node, b.node)
}

// acc accumulates a segmented hardware task's timing and energy over the
// segments it is active in.
type acc struct {
	start, finish float64
	energyJ       float64
	minLevel      int
	seen          bool
}

// Config tunes voltage selection. The zero value is the paper's full
// technique.
type Config struct {
	// SoftwareOnly restricts scaling to software processors, disabling the
	// Fig. 5 hardware-core transformation. This reproduces the prior-work
	// DVS of [10]/[11] that the paper extends, and is used by the ablation
	// experiments.
	SoftwareOnly bool
}

// Scale selects supply voltages for all scalable activities of the
// schedule, minimising dynamic energy while preserving every deadline and
// the schedule's activity orders. The schedule's slots are updated in
// place (times, voltage indices, energies). It returns true when at least
// one activity was slowed down.
//
// Infeasible schedules (unroutable communications or deadline violations)
// are left untouched: there is no slack to distribute.
func Scale(s *model.System, sc *sched.Schedule) bool {
	return ScaleWith(s, sc, Config{})
}

// ScaleWith is Scale with explicit configuration. Callers that scale many
// schedules should keep a Scaler instead.
func ScaleWith(s *model.System, sc *sched.Schedule, cfg Config) bool {
	var z Scaler
	return z.Scale(s, sc, cfg)
}

// Scaler performs ScaleWith in buffers it keeps between calls, so once they
// have grown to the largest mode seen, scaling allocates nothing. The zero
// value is ready to use. A Scaler must not be used concurrently.
type Scaler struct {
	// The constraint graph: nodes, the precedence edges, and the edges
	// packed per node (preds[predOff[v]:predOff[v+1]], likewise succs).
	nodes            []node
	edges            []edge
	predOff, succOff []int32
	preds, succs     []int32
	order            []int32 // topological order
	indeg            []int32
	// startOf/endOf map a task to the node carrying its start/finish
	// (identical for plain tasks, first/last segment for DVS hardware).
	startOf, endOf []int32
	// cand lists, ascending, the nodes whose cached next move is valid.
	cand []int32

	// Fig. 5 transformation scratch.
	slots    []sched.TaskSlot
	evs      []event
	on       []int32
	segs     []span
	segTasks []model.TaskID

	refs []chainRef
	accs []acc
}

// Scale is ScaleWith in the scaler's buffers.
//
//mm:noalloc
func (z *Scaler) Scale(s *model.System, sc *sched.Schedule, cfg Config) bool {
	if sc.Unroutable > 0 || sc.Lateness(s) > 1e-9 {
		return false
	}
	if !z.build(s, sc, cfg) {
		return false
	}
	changed := z.greedy()
	z.writeBack(sc)
	return changed
}

// hwDVS reports whether the PE's tasks are scaled through the Fig. 5
// segment chain.
func hwDVS(pe *model.PE, cfg Config) bool {
	return pe.Class.IsHardware() && pe.Scalable() && !cfg.SoftwareOnly
}

// build assembles the constraint graph: task/segment/communication nodes,
// precedence edges via communications, and resource-order chains for
// software PEs, hardware core instances, DVS hardware segments and CLs.
// Node indices decide greedy ties, so nodes come in a fixed order: plain
// tasks in schedule order, segments by ascending PE, communications in
// edge order. Returns false when the graph has no scalable node or is
// cyclic.
func (z *Scaler) build(s *model.System, sc *sched.Schedule, cfg Config) bool {
	mode := s.App.Mode(sc.Mode)
	tg := mode.Graph
	n := len(tg.Tasks)
	z.nodes, z.edges, z.refs = z.nodes[:0], z.edges[:0], z.refs[:0]
	z.segs, z.segTasks = z.segs[:0], z.segTasks[:0]
	z.startOf = fill(z.startOf, n, -1)
	z.endOf = fill(z.endOf, n, -1)

	anyScalable := false
	// Plain nodes for everything but DVS hardware.
	for ti := range sc.Tasks {
		slot := &sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if hwDVS(pe, cfg) {
			continue
		}
		scal := pe.Scalable() && pe.Class.IsSoftware()
		anyScalable = anyScalable || scal
		id := z.addNode(node{
			kind:     nkTask,
			ref:      int32(slot.Task),
			dur:      slot.NomTime,
			nom:      slot.NomTime,
			power:    slot.Power,
			pe:       pe,
			level:    maxLevel(pe),
			deadline: tg.Task(slot.Task).EffectiveDeadline(mode.Period),
			scalable: scal,
		})
		z.startOf[slot.Task] = id
		z.endOf[slot.Task] = id
	}
	// Segment nodes for DVS hardware PEs (Fig. 5 transformation), by
	// ascending PE.
	for _, pe := range s.Arch.PEs {
		if !hwDVS(pe, cfg) {
			continue
		}
		z.slots = z.slots[:0]
		for ti := range sc.Tasks {
			if sc.Tasks[ti].PE == pe.ID {
				//mm:alloc-ok grows on first use; later calls reuse the capacity
				z.slots = append(z.slots, sc.Tasks[ti])
			}
		}
		first := len(z.segs)
		z.segment(z.slots)
		anyScalable = anyScalable || len(z.segs) > first
		var prev int32 = -1
		for si := first; si < len(z.segs); si++ {
			sg := z.segs[si]
			id := z.addNode(node{
				kind:     nkSeg,
				ref:      int32(si),
				dur:      sg.end - sg.start,
				nom:      sg.end - sg.start,
				power:    sg.power,
				pe:       pe,
				level:    maxLevel(pe),
				deadline: math.Inf(1),
				scalable: true,
			})
			z.addEdge(prev, id)
			prev = id
			for _, t := range z.segTasks[sg.lo:sg.hi] {
				if z.startOf[t] < 0 {
					z.startOf[t] = id
				}
				z.endOf[t] = id
			}
		}
		// Deadlines attach to the segment in which each task finishes.
		for k := range z.slots {
			t := z.slots[k].Task
			id := z.endOf[t]
			if id < 0 {
				continue
			}
			if d := tg.Task(t).EffectiveDeadline(mode.Period); d < z.nodes[id].deadline {
				z.nodes[id].deadline = d
			}
		}
	}
	if !anyScalable {
		return false
	}

	// Communication nodes and precedence edges.
	for ei := range sc.Comms {
		cs := &sc.Comms[ei]
		e := tg.Edge(model.EdgeID(ei))
		src, dst := z.endOf[e.Src], z.startOf[e.Dst]
		if cs.Routed && cs.CL != model.NoCL && cs.Time > 0 {
			id := z.addNode(node{
				kind:     nkComm,
				ref:      int32(ei),
				dur:      cs.Time,
				nom:      cs.Time,
				power:    cs.Power,
				deadline: math.Inf(1),
			})
			z.addEdge(src, id)
			z.addEdge(id, dst)
			//mm:alloc-ok grows on first use; later calls reuse the capacity
			z.refs = append(z.refs, chainRef{cl: cs.CL, pe: model.NoPE, tt: -1, core: -1, start: cs.Start, node: id})
		} else {
			z.addEdge(src, dst)
		}
	}

	// Resource chains for CLs, software PEs and non-DVS hardware core
	// instances; DVS hardware is ordered by its segment chain.
	for ti := range sc.Tasks {
		slot := &sc.Tasks[ti]
		pe := s.Arch.PE(slot.PE)
		if hwDVS(pe, cfg) {
			continue
		}
		r := chainRef{cl: model.NoCL, pe: slot.PE, tt: -1, core: -1, start: slot.Start, node: z.startOf[slot.Task]}
		if pe.Class.IsHardware() {
			r.tt, r.core = tg.Task(slot.Task).Type, slot.Core
		}
		//mm:alloc-ok grows on first use; later calls reuse the capacity
		z.refs = append(z.refs, r)
	}
	slices.SortFunc(z.refs, cmpChainRef)
	for i := 1; i < len(z.refs); i++ {
		if z.refs[i].sameResource(z.refs[i-1]) {
			z.addEdge(z.refs[i-1].node, z.refs[i].node)
		}
	}
	return z.link()
}

// maxLevel returns the top voltage-level index of the PE, or -1 when the
// PE does not support DVS.
func maxLevel(pe *model.PE) int {
	if !pe.DVS {
		return -1
	}
	return len(pe.Levels) - 1
}

func (z *Scaler) addNode(nd node) int32 {
	//mm:alloc-ok grows on first use; later calls reuse the capacity
	z.nodes = append(z.nodes, nd)
	return int32(len(z.nodes) - 1)
}

func (z *Scaler) addEdge(from, to int32) {
	if from < 0 || to < 0 || from == to {
		return
	}
	//mm:alloc-ok grows on first use; later calls reuse the capacity
	z.edges = append(z.edges, edge{from, to})
}

// link packs the edges into the per-node pred/succ ranges and fills
// z.order (Kahn); it returns false on a cycle, which indicates an internal
// inconsistency and disables scaling.
func (z *Scaler) link() bool {
	n := len(z.nodes)
	// Count each node's degree, take inclusive prefix sums (the end of its
	// range), then place every edge by decrementing: the offsets finish at
	// the start of each range, and off[n] is the edge count.
	z.predOff = fill(z.predOff, n+1, 0)
	z.succOff = fill(z.succOff, n+1, 0)
	for _, e := range z.edges {
		z.predOff[e.to]++
		z.succOff[e.from]++
	}
	for v := 1; v <= n; v++ {
		z.predOff[v] += z.predOff[v-1]
		z.succOff[v] += z.succOff[v-1]
	}
	z.preds = resize(z.preds, len(z.edges))
	z.succs = resize(z.succs, len(z.edges))
	for _, e := range z.edges {
		z.predOff[e.to]--
		z.preds[z.predOff[e.to]] = e.from
		z.succOff[e.from]--
		z.succs[z.succOff[e.from]] = e.to
	}

	z.indeg = resize(z.indeg, n)
	z.order = resize(z.order, n)
	tail := 0
	for v := 0; v < n; v++ {
		z.indeg[v] = z.predOff[v+1] - z.predOff[v]
		if z.indeg[v] == 0 {
			z.order[tail] = int32(v)
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		v := z.order[head]
		for _, w := range z.succs[z.succOff[v]:z.succOff[v+1]] {
			z.indeg[w]--
			if z.indeg[w] == 0 {
				z.order[tail] = w
				tail++
			}
		}
	}
	return tail == n
}

// timestamp runs the forward (earliest start/finish) and backward (latest
// finish) passes over the current durations.
func (z *Scaler) timestamp() {
	nodes := z.nodes
	for _, v := range z.order {
		nd := &nodes[v]
		st := 0.0
		for _, p := range z.preds[z.predOff[v]:z.predOff[v+1]] {
			if f := nodes[p].finish; f > st {
				st = f
			}
		}
		nd.start = st
		nd.finish = st + nd.dur
	}
	for i := len(z.order) - 1; i >= 0; i-- {
		v := z.order[i]
		nd := &nodes[v]
		lf := nd.deadline
		for _, s := range z.succs[z.succOff[v]:z.succOff[v+1]] {
			sn := &nodes[s]
			if v2 := sn.lf - sn.dur; v2 < lf {
				lf = v2
			}
		}
		nd.lf = lf
	}
}

// greedy repeatedly applies the single voltage-step move with the best
// energy-saving per added delay until no feasible move remains. Ties go to
// the lowest node index. It leaves the timestamps current.
func (z *Scaler) greedy() bool {
	z.cand = z.cand[:0]
	for i := range z.nodes {
		if z.nodes[i].nextMove() {
			//mm:alloc-ok grows on first use; later calls reuse the capacity
			z.cand = append(z.cand, int32(i))
		}
	}
	changed := false
	for {
		z.timestamp()
		best := -1
		bestRatio := 0.0
		for k, i := range z.cand {
			nd := &z.nodes[i]
			if slack := nd.lf - nd.finish; nd.dt > slack+1e-12 {
				continue
			}
			if nd.ratio > bestRatio {
				bestRatio = nd.ratio
				best = k
			}
		}
		if best < 0 {
			return changed
		}
		nd := &z.nodes[z.cand[best]]
		nd.level--
		nd.dur = nd.nextDur
		changed = true
		if !nd.nextMove() {
			z.cand = slices.Delete(z.cand, best, best+1)
		}
	}
}

// writeBack transfers the scaled timing, voltages and energies from the
// constraint graph into the schedule slots.
func (z *Scaler) writeBack(sc *sched.Schedule) {
	z.accs = fill(z.accs, len(sc.Tasks), acc{})
	makespan := 0.0
	for i := range z.nodes {
		nd := &z.nodes[i]
		if nd.finish > makespan {
			makespan = nd.finish
		}
		switch nd.kind {
		case nkTask:
			slot := &sc.Tasks[nd.ref]
			slot.Start = nd.start
			slot.Finish = nd.finish
			if nd.pe.DVS {
				slot.VoltIdx = nd.level
				slot.Energy = energy.TaskEnergy(nd.power, nd.nom, nd.pe.Levels[nd.level], nd.pe.Vmax)
			} else {
				slot.Energy = nd.power * nd.nom
			}
		case nkComm:
			slot := &sc.Comms[nd.ref]
			slot.Start = nd.start
			slot.Finish = nd.finish
		case nkSeg:
			v := nd.pe.Levels[nd.level]
			r := v / nd.pe.Vmax
			sg := z.segs[nd.ref]
			for _, t := range z.segTasks[sg.lo:sg.hi] {
				a := &z.accs[t]
				if !a.seen {
					*a = acc{start: nd.start, minLevel: nd.level, seen: true}
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
	for t := range z.accs {
		if a := &z.accs[t]; a.seen {
			slot := &sc.Tasks[t]
			slot.Start = a.start
			slot.Finish = a.finish
			slot.VoltIdx = a.minLevel
			slot.Energy = a.energyJ
		}
	}
	sc.Makespan = makespan
}

// resize returns buf with length n, reusing its capacity; the contents are
// unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		//mm:alloc-ok grows on first use; later calls reuse the capacity
		return make([]T, n)
	}
	return buf[:n]
}

// fill returns buf with length n and every element set to v, reusing its
// capacity.
func fill[T any](buf []T, n int, v T) []T {
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}
