// Package nvp tracks the execution state of a task period on the node's
// nonvolatile processors. NVPs (ferroelectric flip-flop processors, the
// paper's refs [13, 14]) retain state across power interruptions with
// microsecond wake-up, so in this model a task can be suspended at any slot
// boundary at zero cost and resumed later — exactly the preemption model of
// §3.1. The Set type maintains the paper's S'_{i,j,m}(n) remaining-time
// variables, dependence readiness, one-task-per-NVP exclusivity and
// deadline-miss bookkeeping (the θ step function of eq. (5)).
//
// Readiness is a mask test: for graphs of up to task.MaskTasks tasks the
// set keeps a bit mask of the tasks with work remaining, so "every
// predecessor has finished" is one AND of that mask with the task's
// predecessor mask (task.Graph.PredMasks). Larger graphs walk the
// predecessor list.
package nvp

import (
	"fmt"

	"solarsched/internal/task"
)

// Set is the per-period execution state of a task graph on its NVPs.
// Tasks in one period are independent of other periods (§3.1), so the set
// is reset at every period boundary.
type Set struct {
	G *task.Graph

	remaining []float64 // S'_n, seconds of execution left
	missed    []bool    // θ fired: deadline passed with work remaining

	// pending has bit n set while remaining[n] > 0; predMask is the
	// graph's PredMasks, nil above task.MaskTasks tasks (pending then
	// goes unread).
	pending  uint64
	predMask []uint64

	// Scratch the per-slot calls reuse, so stepping a period allocates
	// nothing: FilterRunnable's NVP occupancy and result, and
	// CheckDeadlines' result.
	busy     []bool
	runnable []int
	newly    []int
}

// NewSet returns a fresh execution state with every task's full execution
// time remaining. It returns an error — not a panic — on degenerate input
// (nil graph, no NVPs, or a task bound to an NVP outside the graph's
// range): a fault-injecting simulator must survive bad configs.
func NewSet(g *task.Graph) (*Set, error) {
	if g == nil {
		return nil, fmt.Errorf("nvp: nil graph")
	}
	if g.NumNVPs <= 0 {
		return nil, fmt.Errorf("nvp: graph %q has %d NVPs", g.Name, g.NumNVPs)
	}
	for n, t := range g.Tasks {
		if t.NVP < 0 || t.NVP >= g.NumNVPs {
			return nil, fmt.Errorf("nvp: task %d bound to NVP %d of %d", n, t.NVP, g.NumNVPs)
		}
	}
	s := newSet(g, make([]float64, g.N()), make([]bool, g.N()))
	s.ResetPeriod()
	return s, nil
}

// newSet returns a set over the given state slices with fresh scratch.
func newSet(g *task.Graph, remaining []float64, missed []bool) *Set {
	s := &Set{
		G:         g,
		remaining: remaining,
		missed:    missed,
		predMask:  g.PredMasks(),
		busy:      make([]bool, g.NumNVPs),
		runnable:  make([]int, 0, g.N()),
		newly:     make([]int, 0, g.N()),
	}
	s.trackAll()
	return s
}

// track sets task n's pending bit from its remaining time. Shifting by 64
// or more gives 0, so tasks beyond the mask leave pending alone.
func (s *Set) track(n int) {
	if s.remaining[n] > 0 {
		s.pending |= 1 << n
	} else {
		s.pending &^= 1 << n
	}
}

// trackAll rebuilds pending from every remaining time.
func (s *Set) trackAll() {
	s.pending = 0
	for n := range s.remaining {
		s.track(n)
	}
}

// MustNewSet is NewSet for call sites whose graph is already validated
// (planner-local simulations on engine-checked configs); it panics on the
// errors NewSet would return.
func MustNewSet(g *task.Graph) *Set {
	s, err := NewSet(g)
	if err != nil {
		panic(err)
	}
	return s
}

// ResetPeriod starts a new period: all remaining times return to S_n and
// miss flags clear.
func (s *Set) ResetPeriod() {
	for i, t := range s.G.Tasks {
		s.remaining[i] = t.ExecTime
		s.missed[i] = false
	}
	s.trackAll()
}

// Remaining returns S'_n for task n.
func (s *Set) Remaining(n int) float64 { return s.remaining[n] }

// Done reports whether task n has completed this period.
func (s *Set) Done(n int) bool { return s.remaining[n] <= 0 }

// Missed reports whether task n has missed its deadline this period.
func (s *Set) Missed(n int) bool { return s.missed[n] }

// Ready reports whether task n can execute now: not finished, not aborted
// by a deadline miss, and all dependence predecessors completed
// (constraint (7): τ_l starts only when every τ_n with W_{n,l}=1 is done).
func (s *Set) Ready(n int) bool {
	if s.remaining[n] <= 0 || s.missed[n] {
		return false
	}
	if s.predMask == nil {
		return s.predecessorsDone(n)
	}
	return s.predMask[n]&s.pending == 0
}

// predecessorsDone is Ready's predecessor test for graphs above the mask
// size.
func (s *Set) predecessorsDone(n int) bool {
	for _, p := range s.G.Predecessors(n) {
		if s.remaining[p] > 0 {
			return false
		}
	}
	return true
}

// FilterRunnable takes a priority-ordered candidate list and returns the
// subset that can legally run in one slot: ready tasks only, at most one
// per NVP (constraint (9)), first candidate per NVP wins. The result
// preserves the input order. It is a buffer of the set, valid until the
// next FilterRunnable call; order may be that buffer itself.
func (s *Set) FilterRunnable(order []int) []int {
	busy := s.busy
	for k := range busy {
		busy[k] = false
	}
	out := s.runnable[:0]
	for _, n := range order {
		if n < 0 || n >= s.G.N() {
			panic(fmt.Sprintf("nvp: task id %d out of range", n))
		}
		if !s.Ready(n) {
			continue
		}
		k := s.G.Tasks[n].NVP
		if busy[k] {
			continue
		}
		busy[k] = true
		out = append(out, n)
	}
	s.runnable = out
	return out
}

// Run executes the given tasks for dt seconds each, decrementing their
// remaining times (eq. (4)). Callers must pass a list already filtered by
// FilterRunnable. It returns the total load power (W) of the slot.
func (s *Set) Run(selected []int, dt float64) (loadPower float64) {
	for _, n := range selected {
		s.remaining[n] -= dt
		if s.remaining[n] < 0 {
			s.remaining[n] = 0
		}
		s.track(n)
		loadPower += s.G.Tasks[n].Power
	}
	return loadPower
}

// RunScaled executes the given tasks at per-task DVFS speeds f ∈ (0, 1]:
// task n advances speeds[i]·dt seconds of work while drawing
// P_n·speeds[i]^powerExp watts — the voltage-frequency scaling model of the
// DVFS extension (see internal/dvfs). It returns the total load power (W).
func (s *Set) RunScaled(selected []int, speeds []float64, powerExp, dt float64) (loadPower float64) {
	if len(selected) != len(speeds) {
		panic(fmt.Sprintf("nvp: %d tasks but %d speeds", len(selected), len(speeds)))
	}
	for i, n := range selected {
		f := speeds[i]
		if f <= 0 || f > 1 {
			panic(fmt.Sprintf("nvp: speed %v out of (0,1]", f))
		}
		s.remaining[n] -= f * dt
		if s.remaining[n] < 0 {
			s.remaining[n] = 0
		}
		s.track(n)
		loadPower += s.G.Tasks[n].Power * pow(f, powerExp)
	}
	return loadPower
}

// pow is a small positive-base power helper (avoids importing math for one
// call site on a hot path; speeds are in (0,1], exponents small).
func pow(base, exp float64) float64 {
	switch exp {
	case 1:
		return base
	case 2:
		return base * base
	case 3:
		return base * base * base
	}
	// Rare path: integer-ish exponents only in practice.
	out := 1.0
	for i := 0; i < int(exp); i++ {
		out *= base
	}
	return out
}

// CheckDeadlines fires the θ function at a slot boundary: every task whose
// deadline is at or before elapsed seconds into the period and that still
// has work remaining is marked missed (and aborted). It returns the tasks
// newly missed at this boundary, in a buffer of the set that is valid until
// the next CheckDeadlines call.
func (s *Set) CheckDeadlines(elapsed float64) []int {
	newly := s.newly[:0]
	for n, t := range s.G.Tasks {
		if !s.missed[n] && s.remaining[n] > 0 && t.Deadline <= elapsed+1e-9 {
			s.missed[n] = true
			newly = append(newly, n)
		}
	}
	s.newly = newly
	return newly
}

// Misses returns the number of tasks that have missed their deadline this
// period so far.
func (s *Set) Misses() int {
	c := 0
	for _, m := range s.missed {
		if m {
			c++
		}
	}
	return c
}

// PendingEnergy returns the energy (J) still required to finish every task
// that is neither done nor missed — a lower bound on what the rest of the
// period must supply for a zero-miss finish.
func (s *Set) PendingEnergy() float64 {
	sum := 0.0
	for n, t := range s.G.Tasks {
		if s.remaining[n] > 0 && !s.missed[n] {
			sum += s.remaining[n] * t.Power
		}
	}
	return sum
}

// CopyFrom makes s's execution state — remaining times, miss flags and
// the last FilterRunnable result — a copy of src's, without allocating,
// and returns s's copy of that runnable list. src must be a set of the
// same graph.
func (s *Set) CopyFrom(src *Set) []int {
	copy(s.remaining, src.remaining)
	copy(s.missed, src.missed)
	s.pending = src.pending
	s.runnable = append(s.runnable[:0], src.runnable...)
	return s.runnable
}

// Clone returns an independent copy of the execution state (for planners).
func (s *Set) Clone() *Set {
	return newSet(s.G, append([]float64(nil), s.remaining...), append([]bool(nil), s.missed...))
}
