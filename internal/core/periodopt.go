package core

import (
	"fmt"
	"sort"

	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// maxSubsetTasks bounds the graphs the period optimizer accepts: it
// enumerates up to 2^N task subsets. PlanConfig.Validate enforces it.
const maxSubsetTasks = 16

// ClosedSubsets enumerates every dependence-closed task subset of g as a
// boolean mask: a subset is closed when each member's predecessors are all
// members (constraint (7) makes any other subset wasteful — a dependent
// whose predecessor is excluded can never run). The full and empty sets are
// always included. Masks are returned in ascending popcount order.
func ClosedSubsets(g *task.Graph) [][]bool {
	n := g.N()
	if n > maxSubsetTasks {
		panic(fmt.Sprintf("core: ClosedSubsets limited to %d tasks", maxSubsetTasks))
	}
	var out [][]bool
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, e := range g.Edges {
			if m&(1<<uint(e.To)) != 0 && m&(1<<uint(e.From)) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		mask := make([]bool, n)
		for i := 0; i < n; i++ {
			mask[i] = m&(1<<uint(i)) != 0
		}
		out = append(out, mask)
	}
	sort.SliceStable(out, func(a, b int) bool {
		return popcount(out[a]) < popcount(out[b])
	})
	return out
}

func popcount(mask []bool) int {
	c := 0
	for _, b := range mask {
		if b {
			c++
		}
	}
	return c
}

// Option is one entry of the paper's LUT (eq. (13)): a feasible period
// outcome for a given capacitor, start voltage and solar profile — the
// executed-task set te, the pattern index α, the misses it costs and the
// capacitor energy it consumes.
type Option struct {
	Misses int
	// Te is the allowed (and thus executed-intent) task set. The masks
	// are the LUT's closed subsets, shared read-only across its entries:
	// never modify one in place.
	Te          []bool
	Alpha       float64 // eq. (18) index for the fine-grained stage choice
	CapConsumed float64 // E^c of eq. (15); negative = net charge
	FinalV      float64
}

// PeriodOptions simulates every dependence-closed subset of pc.Graph over
// one period (slot powers `powers`) on a capacitor of capC farads starting
// at voltage v0, using the §5.2 fine-grained stage selected by each
// subset's α. It returns the Pareto frontier: for each achievable miss
// count the option with the highest final voltage (equivalently the lowest
// consumed energy), sorted by misses ascending.
//
// This is the inner optimization of §4.2 (eqs. (15)–(17)); with N ≤ 8 tasks
// the 2^N enumeration is exact — the paper's O(2^(N·Ns)) search collapsed
// by the observation that within a period only the task *set* matters once
// the fine-grained stage is fixed. PeriodOptions builds its scratch for one
// call; a LUT keeps it across builds and builds a solar profile's entries
// together, one capacitor lane per entry.
func PeriodOptions(capC, v0 float64, powers []float64, pc PlanConfig) []Option {
	return newPeriodSolver(pc).frontier(capC, v0, powers)
}

// periodSolver is PeriodOptions over scratch that outlives one call, for
// many start states at once: the graph's closed subsets, one instance of
// each fine-grained stage, one period simulator, and per lane (start
// state) a capacitor and the best option of each miss count. Once warm, a
// call allocates only the frontiers it returns. It serves one goroutine at
// a time.
type periodSolver struct {
	pc      PlanConfig
	subsets [][]bool
	fine    finePolicies
	sim     *sim.PeriodSim

	caps   []supercap.Capacitor // one per lane
	starts []laneStart          // frontier's one lane
	outs   [][]Option           // frontier's one result

	// Lane i's first option with the highest final voltage per miss
	// count, at best[i*(N+1)+m], and whether that count occurred (later:
	// whether it is kept).
	best  []Option
	found []bool

	mLanes, mBranches *obs.Counter
}

// laneStart is one start state of a solver run: a capacitor of c farads
// at v volts.
type laneStart struct{ c, v float64 }

func newPeriodSolver(pc PlanConfig) *periodSolver {
	g := pc.Graph
	ps := &periodSolver{
		pc:      pc,
		subsets: ClosedSubsets(g),
		fine:    newFinePolicies(g),
		sim:     sim.NewPeriodSim(g),
		starts:  make([]laneStart, 1),
		outs:    make([][]Option, 1),
	}
	ps.setObserver(pc.Observer)
	return ps
}

// setObserver resolves the solver's counters against reg (nil disables
// them).
func (ps *periodSolver) setObserver(reg *obs.Registry) {
	ps.mLanes = reg.Counter("core_period_lanes_total")
	ps.mBranches = reg.Counter("core_period_branches_total")
}

// frontier is PeriodOptions on the solver's scratch: frontiers with one
// lane.
func (ps *periodSolver) frontier(capC, v0 float64, powers []float64) []Option {
	ps.starts[0] = laneStart{capC, v0}
	ps.frontiers(ps.starts, powers, ps.outs)
	return ps.outs[0]
}

// frontiers sets out[i] to PeriodOptions' frontier for start state
// starts[i] under powers. It simulates each closed subset once, with one
// capacitor lane per start state (sim.PeriodSim.RunLanes), and carves
// every frontier from one allocation.
func (ps *periodSolver) frontiers(starts []laneStart, powers []float64, out [][]Option) {
	pc := ps.pc
	g := pc.Graph
	dt := pc.Base.SlotSeconds
	harvest := 0.0
	for _, p := range powers {
		harvest += p
	}
	harvest *= dt

	M := g.N() + 1
	caps, best, found := ps.lanes(len(starts))
	clear(found)
	branches := 0
	for _, te := range ps.subsets {
		alpha := Alpha(g, te, harvest)
		// Assign the fields, not the struct, so each lane keeps its
		// curve memo: η_cycle(C) is then taken once per lane, not per
		// subset.
		for i, s := range starts {
			caps[i].C, caps[i].V, caps[i].P = s.c, s.v, pc.Params
		}
		outs := ps.sim.RunLanes(caps, powers, te, ps.fine.pick(alpha, pc.Delta), dt, pc.DirectEff)
		branches += ps.sim.Branches()
		for i := range outs {
			o := &outs[i]
			k := i*M + o.Missed
			if !found[k] || o.FinalV > best[k].FinalV {
				best[k] = Option{
					Misses:      o.Missed,
					Te:          te,
					Alpha:       alpha,
					CapConsumed: o.CapConsumed,
					FinalV:      o.FinalV,
				}
				found[k] = true
			}
		}
	}
	ps.mLanes.Add(float64(len(ps.subsets) * len(starts)))
	ps.mBranches.Add(float64(branches))

	// Pareto cut per lane, by misses ascending: an option with more
	// misses must buy strictly more final energy to be worth keeping.
	kept := 0
	for i := range starts {
		bestV := -1.0
		for k := i * M; k < (i+1)*M; k++ {
			if found[k] && best[k].FinalV > bestV {
				bestV = best[k].FinalV
				kept++
			} else {
				found[k] = false
			}
		}
	}
	options := make([]Option, 0, kept)
	for i := range starts {
		n := len(options)
		for k := i * M; k < (i+1)*M; k++ {
			if found[k] {
				options = append(options, best[k])
			}
		}
		out[i] = options[n:len(options):len(options)]
	}
}

// lanes returns the solver's per-lane scratch sized for n lanes.
func (ps *periodSolver) lanes(n int) ([]supercap.Capacitor, []Option, []bool) {
	M := ps.pc.Graph.N() + 1
	if len(ps.caps) < n {
		ps.caps = make([]supercap.Capacitor, n)
		ps.best = make([]Option, n*M)
		ps.found = make([]bool, n*M)
	}
	return ps.caps[:n], ps.best[:n*M], ps.found[:n*M]
}
