package core

import (
	"fmt"
	"math"
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
// call; a LUT keeps it across builds and replays each subset's recorded
// task trajectory across the start voltages and capacitors it asks for.
func PeriodOptions(capC, v0 float64, powers []float64, pc PlanConfig) []Option {
	return newPeriodSolver(pc).frontier(capC, v0, powers)
}

// periodSolver is PeriodOptions over scratch that outlives one call: the
// graph's closed subsets, one instance of each fine-grained stage, one
// capacitor, one period simulator and (withTraces) one recorded trajectory
// per subset. Once warm, a call allocates only the returned frontier. It
// serves one goroutine at a time.
type periodSolver struct {
	pc      PlanConfig
	subsets [][]bool
	fine    finePolicies
	cap     supercap.Capacitor
	sim     *sim.PeriodSim

	// traces[i] is subset i's task trajectory under the slot powers in
	// powers, recorded at some earlier capacitor and start voltage. A
	// build replays it and simulates the subset in full only when its
	// brown-out trim differs (sim.PeriodTrace). Nil without withTraces.
	traces []sim.PeriodTrace
	powers []float64

	// Per miss count: the first option with the highest final voltage,
	// and whether that count occurred (later: whether it is kept).
	best  []Option
	found []bool

	mReplays, mFull *obs.Counter
}

// maxTraceLoads bounds the prefix loads a solver's traces may hold (8 MiB):
// a graph near maxSubsetTasks with few dependences has tens of thousands
// of closed subsets, and its solver then simulates every subset in full.
const maxTraceLoads = 1 << 20

func newPeriodSolver(pc PlanConfig) *periodSolver {
	g := pc.Graph
	ps := &periodSolver{
		pc:      pc,
		subsets: ClosedSubsets(g),
		fine:    newFinePolicies(g),
		sim:     sim.NewPeriodSim(g),
		best:    make([]Option, g.N()+1),
		found:   make([]bool, g.N()+1),
	}
	ps.setObserver(pc.Observer)
	return ps
}

// withTraces gives the solver one trace per subset, unless they would
// exceed maxTraceLoads. PeriodOptions goes without: one build simulates
// each subset once, so its traces would be storage never replayed.
func (ps *periodSolver) withTraces() *periodSolver {
	g, slots := ps.pc.Graph, ps.pc.Base.SlotsPerPeriod
	if len(ps.subsets)*slots*(g.NumNVPs+1) <= maxTraceLoads {
		ps.traces = sim.NewPeriodTraces(g, len(ps.subsets), slots)
		ps.powers = make([]float64, 0, slots)
	}
	return ps
}

// setObserver resolves the solver's counters against reg (nil disables
// them).
func (ps *periodSolver) setObserver(reg *obs.Registry) {
	ps.mReplays = reg.Counter("core_period_sims_total", obs.L("path", "replay"))
	ps.mFull = reg.Counter("core_period_sims_total", obs.L("path", "full"))
}

// frontier is PeriodOptions on the solver's scratch.
func (ps *periodSolver) frontier(capC, v0 float64, powers []float64) []Option {
	pc := ps.pc
	g := pc.Graph
	dt := pc.Base.SlotSeconds
	harvest := 0.0
	for _, p := range powers {
		harvest += p
	}
	harvest *= dt
	ps.usePowers(powers)

	best, found := ps.best, ps.found
	for m := range found {
		found[m] = false
	}
	replays := 0
	for i, te := range ps.subsets {
		alpha := Alpha(g, te, harvest)
		var tr *sim.PeriodTrace
		if ps.traces != nil {
			tr = &ps.traces[i]
		}
		out, ok := tr.Replay(ps.resetCap(capC, v0), powers, dt, pc.DirectEff)
		if ok {
			replays++
		} else {
			out = ps.sim.Record(tr, ps.resetCap(capC, v0), powers, te, ps.fine.pick(alpha, pc.Delta), dt, pc.DirectEff)
		}
		if m := out.Missed; !found[m] || out.FinalV > best[m].FinalV {
			best[m] = Option{
				Misses:      m,
				Te:          te,
				Alpha:       alpha,
				CapConsumed: out.CapConsumed,
				FinalV:      out.FinalV,
			}
			found[m] = true
		}
	}
	ps.mReplays.Add(float64(replays))
	ps.mFull.Add(float64(len(ps.subsets) - replays))

	// Pareto cut, by misses ascending: an option with more misses must buy
	// strictly more final energy to be worth keeping.
	kept, bestV := 0, -1.0
	for m := range best {
		if found[m] && best[m].FinalV > bestV {
			bestV = best[m].FinalV
			kept++
		} else {
			found[m] = false
		}
	}
	options := make([]Option, 0, kept)
	for m := range best {
		if found[m] {
			options = append(options, best[m])
		}
	}
	return options
}

// resetCap puts the solver's capacitor at capC farads and v0 volts. It
// assigns the fields, not the struct, so the capacitor keeps its curve
// memo: η_cycle(capC) is then taken once per capacitor, not per subset.
func (ps *periodSolver) resetCap(capC, v0 float64) *supercap.Capacitor {
	ps.cap.C, ps.cap.V, ps.cap.P = capC, v0, ps.pc.Params
	return &ps.cap
}

// usePowers makes powers the traces' slot powers. A trajectory holds only
// for the exact powers it was recorded under, so every trace is forgotten
// when powers differ from the last build's in any bit.
func (ps *periodSolver) usePowers(powers []float64) {
	if ps.traces == nil {
		return
	}
	if len(powers) == len(ps.powers) {
		same := true
		for i, p := range powers {
			if math.Float64bits(p) != math.Float64bits(ps.powers[i]) {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	ps.powers = append(ps.powers[:0], powers...)
	for i := range ps.traces {
		ps.traces[i].Forget()
	}
}
