package sim

import (
	"solarsched/internal/nvp"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// PeriodOutcome summarizes one simulated period on a single capacitor —
// the quantities the offline optimizer of §4.2 needs: the misses, the
// executed-task set te_{i,j}(n) (eq. (17)), and the super-capacitor energy
// consumed E^c_{i,j} (eq. (15), negative when the period charged the
// capacitor on net).
type PeriodOutcome struct {
	Missed      int
	Executed    []bool  // te: tasks that ran at least one slot
	CapConsumed float64 // usable-energy drop of the capacitor (J)
	FinalV      float64
	Delivered   float64 // J delivered to the NVPs
	Harvested   float64 // J of solar input over the period
}

// RunPeriodOnCap simulates one period in isolation: the given capacitor is
// the storage, powers are the slot solar powers, allowed masks the task set
// (nil = all), and policy picks the slot-level execution order. The
// capacitor is mutated; pass a clone to explore hypotheticals. Leakage is
// applied to the capacitor each slot, matching the full engine. The policy
// sees a SlotView whose Cap and Bank are nil.
func RunPeriodOnCap(cap *supercap.Capacitor, powers []float64, g *task.Graph,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {
	return NewPeriodSim(g).Run(cap, powers, allowed, policy, dt, directEff)
}

// PeriodSim is RunPeriodOnCap for callers that simulate many periods of
// one graph, on one capacitor (Run) or on many at once (RunLanes). It
// keeps its task states and the slot step's scratch between calls, so a
// warm run allocates nothing. A PeriodSim serves one goroutine at a time.
type PeriodSim struct {
	g    *task.Graph
	step slotStep

	// branches is the pool of task sides; a run uses the first nb.
	branches []branch
	nb       int

	lane  []int32         // lane i's branch
	start []float64       // lane i's usable energy at the period start
	out   []PeriodOutcome // RunLanes' result
	one   [1]supercap.Capacitor

	// due marks, for periods of len(due) slots of dueDt seconds, the
	// slots at whose end a deadline falls due (dueSlots).
	due   []bool
	dueDt float64
}

// branch is the task side of the lanes whose brown-out trims have agreed
// at every slot so far: one task state, its executed mask, and the
// current slot's runnable list, prefix loads, trim and load.
type branch struct {
	ts       *nvp.Set
	executed []bool
	run      []int     // the slot's pre-trim runnable list, a buffer of ts
	loads    []float64 // its prefix loads, as carried reads them
	trim     int       // how many tasks of run the branch's lanes power; -1 until its first lane
	from     int       // the branch this one forked from this slot; -1 if none
	load     float64   // the slot's load power after Run
	missed   int
}

// NewPeriodSim returns a period simulator for a validated graph.
func NewPeriodSim(g *task.Graph) *PeriodSim {
	return &PeriodSim{g: g}
}

// Run simulates one period on cap exactly as RunPeriodOnCap does: it is
// RunLanes with one lane. The outcome's Executed mask is the simulator's
// buffer, valid until the next run.
func (p *PeriodSim) Run(cap *supercap.Capacitor, powers []float64,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {
	p.one[0] = *cap
	out := p.RunLanes(p.one[:], powers, allowed, policy, dt, directEff)[0]
	*cap = p.one[0]
	return out
}

// RunLanes simulates one period on every capacitor of caps at once, one
// lane per capacitor, under the same slot powers, allowed mask, policy, dt
// and direct efficiency: caps[i] ends the period where Run(&caps[i], ...)
// would leave it, and the i-th outcome is what that Run would return, bit
// for bit.
//
// The task side of a slot — the policy, the allowed filter,
// FilterRunnable, nvp.Set.Run and CheckDeadlines — runs once per branch,
// a group of lanes whose brown-out trims have agreed at every slot so far.
// The capacitor side — the trim check (carried), settleEnergy and Leak —
// runs lane after lane, so independent lanes overlap in the CPU. This is
// exact because planner-local policies never see the store (SlotView.Cap
// is nil): the trim count is the only way a capacitor reaches the tasks,
// so lanes with equal trims share readiness, order, executed set and
// misses, and each lane runs exactly the operations of a one-capacitor
// run, in the same order. A lane whose trim differs from its branch's
// moves to a new branch, forked from the branch's state before that
// slot's Run.
//
// The outcomes are the simulator's buffer and their Executed masks its
// branches' buffers; both are valid until the next run.
func (p *PeriodSim) RunLanes(caps []supercap.Capacitor, powers []float64,
	allowed []bool, policy SlotPolicy, dt, directEff float64) []PeriodOutcome {

	out := p.lanes(len(caps))
	p.nb = 0
	if len(caps) == 0 {
		return out
	}
	root := p.newBranch()
	root.ts.ResetPeriod()
	clear(root.executed)
	for i := range caps {
		p.lane[i] = 0
		p.start[i] = caps[i].UsableEnergy()
		out[i] = PeriodOutcome{}
	}
	harvested := 0.0
	due := p.dueSlots(len(powers), dt)
	sv := &p.step.view
	for slot, solarW := range powers {
		// The task side up to the trim, once per branch.
		live := p.nb
		for bi := 0; bi < live; bi++ {
			b := &p.branches[bi]
			*sv = SlotView{
				Slot: slot, SolarPower: solarW, Tasks: b.ts,
				DirectEff: directEff,
			}
			sv.Base.SlotSeconds = dt
			sv.Base.SlotsPerPeriod = len(powers)
			b.run = b.ts.FilterRunnable(p.step.filterAllowed(policy(sv), allowed))
			b.loads = prefixLoads(b.loads, b.ts.G, b.run)
			b.trim, b.from = -1, -1
		}
		// The trim, lane by lane; a lane that disagrees with its
		// branch's first lane moves to a fork.
		directCap := solarW * directEff
		for i := range caps {
			bi := int(p.lane[i])
			b := &p.branches[bi]
			k := carried(&caps[i], b.loads, directCap, dt)
			if b.trim < 0 {
				b.trim = k
			} else if k != b.trim {
				p.lane[i] = int32(p.fork(bi, k, live))
			}
		}
		// The task side's run, once per branch, forks included.
		for bi := 0; bi < p.nb; bi++ {
			b := &p.branches[bi]
			ran := b.run[:b.trim]
			if ranHook != nil {
				ranHook(b.ts, ran)
			}
			b.load = b.ts.Run(ran, dt)
			for _, n := range ran {
				b.executed[n] = true
			}
		}
		// The capacitor side's settle and leak, lane by lane.
		for i := range caps {
			st := SlotStats{LoadPower: p.branches[p.lane[i]].load}
			settleEnergy(&caps[i], &st, solarW, dt, directEff)
			out[i].Delivered += st.LoadPower * dt
			caps[i].Leak(dt)
		}
		harvested += solarW * dt
		if due[slot] {
			for bi := 0; bi < p.nb; bi++ {
				p.branches[bi].ts.CheckDeadlines(float64(slot+1) * dt)
			}
		}
	}
	for bi := 0; bi < p.nb; bi++ {
		p.branches[bi].missed = p.branches[bi].ts.Misses()
	}
	for i := range caps {
		b := &p.branches[p.lane[i]]
		o := &out[i]
		o.Missed = b.missed
		o.Executed = b.executed
		o.CapConsumed = p.start[i] - caps[i].UsableEnergy()
		o.FinalV = caps[i].V
		o.Harvested = harvested
	}
	return out
}

// Branches returns how many branches the last run took: 1 when every
// lane trimmed alike at every slot, at most one per lane.
func (p *PeriodSim) Branches() int { return p.nb }

// dueSlots marks the slots of an n-slot period at whose end some task's
// deadline first falls due, by CheckDeadlines' own test. Only there can
// CheckDeadlines change a task: before, its deadline is ahead; after, the
// task has either missed or finished, and a finished task never runs
// again. Skipping the call at every other slot therefore changes nothing.
// The marks are kept for the next run of the same slot count and length.
func (p *PeriodSim) dueSlots(n int, dt float64) []bool {
	if len(p.due) == n && p.dueDt == dt {
		return p.due
	}
	if cap(p.due) < n {
		p.due = make([]bool, n)
	}
	due := p.due[:n]
	clear(due)
	for _, t := range p.g.Tasks {
		for slot := range due {
			if t.Deadline <= float64(slot+1)*dt+1e-9 {
				due[slot] = true
				break
			}
		}
	}
	p.due, p.dueDt = due, dt
	return due
}

// lanes sizes the per-lane scratch for n lanes and returns the outcomes.
func (p *PeriodSim) lanes(n int) []PeriodOutcome {
	if cap(p.out) < n {
		p.out = make([]PeriodOutcome, n)
		p.lane = make([]int32, n)
		p.start = make([]float64, n)
	}
	p.lane, p.start = p.lane[:n], p.start[:n]
	p.out = p.out[:n]
	return p.out
}

// newBranch takes the next branch of the pool, growing the pool on first
// use. It may move the pool: pointers into it taken before are stale.
func (p *PeriodSim) newBranch() *branch {
	if p.nb == len(p.branches) {
		p.branches = append(p.branches, branch{
			ts:       nvp.MustNewSet(p.g),
			executed: make([]bool, p.g.N()),
			loads:    make([]float64, 0, p.g.NumNVPs+1),
		})
	}
	p.nb++
	return &p.branches[p.nb-1]
}

// fork returns the branch that the lanes of branch from whose trim is k
// move to in this slot, making it on first use: a copy of from's task
// state, executed mask and runnable list as they were before this slot's
// Run. The slot's forks sit at index live and above.
func (p *PeriodSim) fork(from, k, live int) int {
	for bi := live; bi < p.nb; bi++ {
		if b := &p.branches[bi]; b.from == from && b.trim == k {
			return bi
		}
	}
	child := p.newBranch()
	parent := &p.branches[from]
	child.run = child.ts.CopyFrom(parent.ts)
	copy(child.executed, parent.executed)
	child.trim, child.from = k, from
	return p.nb - 1
}
