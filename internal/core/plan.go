package core

import (
	"fmt"

	"solarsched/internal/supercap"
)

// Decision is one period's planned action: the active capacitor, the task
// set to execute and the pattern index driving the fine-grained stage.
type Decision struct {
	CapIdx int
	Te     []bool
	Alpha  float64
	// PredictedMisses is the miss count the plan expects for this period.
	PredictedMisses int
}

// PlanResult carries a horizon plan and its bookkeeping.
type PlanResult struct {
	Decisions       []Decision
	PredictedMisses int
	// Expansions counts DP option evaluations — the complexity measure
	// reported in Figure 10(a).
	Expansions int
}

// PlanHorizon runs the simplified long-term optimization of §4.2 as a
// backward dynamic program over the given periods. powers[t] holds the slot
// powers of the t-th planned period; startPeriodOfDay is the period-of-day
// index of t = 0 (capacitor switches are only allowed at day boundaries,
// matching the per-day C_{h,i} variable); the plan starts with capacitor
// startCap at voltage startV.
//
// The DP state is (active capacitor, quantized usable energy); the per-state
// actions are the LUT's Pareto options (eq. (13)). The objective minimizes
// total misses (eq. (12)), breaking ties toward more final stored energy.
func PlanHorizon(l *LUT, powers [][]float64, startPeriodOfDay, startCap int, startV float64) PlanResult {
	sw := l.mSolve.Start()
	res := planHorizon(l, powers, startPeriodOfDay, startCap, startV)
	sw.Stop()
	l.mExpand.Add(float64(res.Expansions))
	return res
}

func planHorizon(l *LUT, powers [][]float64, startPeriodOfDay, startCap int, startV float64) PlanResult {
	pc := l.Config()
	T := len(powers)
	H := len(pc.Capacitances)
	B := pc.VBuckets
	if T == 0 {
		return PlanResult{}
	}
	for t, p := range powers {
		if len(p) != pc.Base.SlotsPerPeriod {
			panic(fmt.Sprintf("core: period %d has %d slots, want %d", t, len(p), pc.Base.SlotsPerPeriod))
		}
	}
	if startCap < 0 || startCap >= H {
		panic(fmt.Sprintf("core: startCap %d out of [0,%d)", startCap, H))
	}

	const energyTie = 1e-4 // reward per terminal bucket, < any miss
	idx := func(c, b int) int { return c*B + b }

	// value[t] is the cost-to-go at the start of period t; choices[t] the
	// action that achieves it. Both live in the LUT's plan scratch, as do
	// the interned profile ids hoisted out of the DP's inner loops. Every
	// id is interned before the DP takes its first entry pointer.
	sc := l.plan.size(T, H*B)
	value, choices, ids := sc.value, sc.choices, sc.ids
	for c := 0; c < H; c++ {
		for b := 0; b < B; b++ {
			value[T][idx(c, b)] = -energyTie * float64(b)
		}
	}
	for t := range powers {
		ids[t] = l.profileID(powers[t])
	}

	expansions := 0
	for t := T - 1; t >= 0; t-- {
		boundary := (startPeriodOfDay+t)%pc.Base.PeriodsPerDay == 0
		for c := 0; c < H; c++ {
			for b := 0; b < B; b++ {
				bestVal := 0.0
				bestChoice := choice{cap: -1}
				consider := func(c2, b2 int) {
					e := l.entry(ids[t], c2, b2, powers[t], true)
					cost := value[t+1][c2*B : (c2+1)*B]
					for oi := range e.opts {
						expansions++
						v := float64(e.opts[oi].Misses) + cost[e.next[oi]]
						if bestChoice.cap < 0 || v < bestVal {
							bestVal = v
							bestChoice = choice{cap: c2, opt: oi}
						}
					}
				}
				consider(c, b)
				if boundary {
					for c2 := 0; c2 < H; c2++ {
						if c2 == c {
							continue
						}
						consider(c2, l.transferTo(c, b, c2))
					}
				}
				value[t][idx(c, b)] = bestVal
				choices[t][idx(c, b)] = bestChoice
			}
		}
	}

	// Forward reconstruction. The first period is re-optimized at the
	// *exact* start voltage (not the bucket center): the receding-horizon
	// schedulers take only this first decision, so quantization pessimism
	// here would compound run-long.
	res := PlanResult{Decisions: make([]Decision, T), Expansions: expansions}
	first := bestExactFirst(l, powers[0], (startPeriodOfDay)%pc.Base.PeriodsPerDay == 0,
		startCap, startV, value[1], idx, &res.Expansions)
	res.Decisions[0] = Decision{
		CapIdx: first.cap, Te: first.opt.Te, Alpha: first.opt.Alpha,
		PredictedMisses: first.opt.Misses,
	}
	res.PredictedMisses += first.opt.Misses
	c := first.cap
	b := l.BucketOf(c, first.opt.FinalV)
	for t := 1; t < T; t++ {
		ch := choices[t][idx(c, b)]
		if ch.cap != c {
			b = l.transferTo(c, b, ch.cap)
			c = ch.cap
		}
		e := l.entry(ids[t], c, b, powers[t], true)
		o := e.opts[ch.opt]
		res.Decisions[t] = Decision{
			CapIdx: c, Te: o.Te, Alpha: o.Alpha, PredictedMisses: o.Misses,
		}
		res.PredictedMisses += o.Misses
		b = e.next[ch.opt]
	}
	return res
}

// choice is a DP action: the capacitor after the (possible) boundary
// switch and the index of the option taken there.
type choice struct{ cap, opt int }

// planScratch holds PlanHorizon's tables between calls: a warm call of no
// more periods than an earlier one allocates only its decisions and the
// first period's exact frontiers.
type planScratch struct {
	value   [][]float64 // T+1 rows of H·B cost-to-go values
	choices [][]choice  // T rows of H·B actions
	ids     []int       // per period interned profile id
	cells   []float64   // value's storage
	acts    []choice    // choices' storage
}

// size returns the scratch resized for T periods of n states.
func (s *planScratch) size(T, n int) *planScratch {
	if cap(s.cells) < (T+1)*n {
		s.cells = make([]float64, (T+1)*n)
		s.acts = make([]choice, T*n)
	}
	s.value = s.value[:0]
	for t := 0; t <= T; t++ {
		s.value = append(s.value, s.cells[t*n:(t+1)*n])
	}
	s.choices = s.choices[:0]
	for t := 0; t < T; t++ {
		s.choices = append(s.choices, s.acts[t*n:(t+1)*n])
	}
	if cap(s.ids) < T {
		s.ids = make([]int, T)
	}
	s.ids = s.ids[:T]
	return s
}

type firstChoice struct {
	cap int
	opt Option
}

// bestExactFirst picks the first-period action by simulating the Pareto
// options at the true start voltage and scoring them against the DP
// cost-to-go. When the first period is a day boundary, capacitor switches
// (with migration of the exact stored energy) are considered too.
func bestExactFirst(l *LUT, powers []float64, boundary bool, startCap int, startV float64,
	next []float64, idx func(int, int) int, expansions *int) firstChoice {

	pc := l.Config()
	best := firstChoice{cap: -1}
	bestVal := 0.0
	consider := func(c int, v float64) {
		opts := l.solver.frontier(pc.Capacitances[c], v, powers)
		for _, o := range opts {
			*expansions++
			val := float64(o.Misses) + next[idx(c, l.BucketOf(c, o.FinalV))]
			if best.cap < 0 || val < bestVal {
				bestVal = val
				best = firstChoice{cap: c, opt: o}
			}
		}
	}
	consider(startCap, startV)
	if boundary {
		src := supercap.New(pc.Capacitances[startCap], pc.Params)
		src.V = startV
		for c2 := range pc.Capacitances {
			if c2 == startCap {
				continue
			}
			dst := supercap.New(pc.Capacitances[c2], pc.Params)
			s := src.Clone()
			dst.Charge(s.Discharge(s.Deliverable()))
			consider(c2, dst.V)
		}
	}
	return best
}
