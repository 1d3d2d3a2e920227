// Package sched implements the baseline scheduling algorithms the paper
// compares against, plus the slot-level policies shared with the proposed
// scheduler's fine-grained stage:
//
//   - ASAP: run every ready task as early as possible (used by the offline
//     capacitor-sizing step, §4.1);
//   - InterLSA: an up-to-date WCMA-based lazy scheduling algorithm, the
//     paper's "Inter-task" baseline [3] — per-period admission driven by a
//     WCMA solar forecast, whole-task lazy execution;
//   - IntraMatch: a slot-granularity load-matching scheduler, the paper's
//     "Intra-task" baseline [9] — matches the instantaneous load to the
//     solar supply, preempting at every slot.
//
// Both baselines optimize the current period only; neither migrates energy
// across capacitors. That locality is exactly what the paper's long-term
// scheduler improves on.
package sched

import (
	"sort"

	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// EffectiveDeadlines returns D'_n = min(D_n, min over successors l of
// D'_l − S_l): the latest completion time of τ_n that still leaves every
// transitive successor enough room to meet its own deadline. Lazy
// schedulers must use D' (not D) or they starve dependence chains.
func EffectiveDeadlines(g *task.Graph) []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic("sched: " + err.Error())
	}
	eff := make([]float64, g.N())
	for i, t := range g.Tasks {
		eff[i] = t.Deadline
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		for _, l := range g.Successors(n) {
			if cand := eff[l] - g.Tasks[l].ExecTime; cand < eff[n] {
				eff[n] = cand
			}
		}
	}
	return eff
}

// byDeadline returns the task indices sorted by the given deadlines
// (earliest first), stable in task ID.
func byDeadline(deadlines []float64) []int {
	order := make([]int, len(deadlines))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return deadlines[order[a]] < deadlines[order[b]]
	})
	return order
}

// urgent reports whether task n must run in the current slot to still meet
// its effective deadline: waiting one more slot would make its remaining
// execution time overrun D'_n.
func urgent(v *sim.SlotView, n int, eff []float64) bool {
	dt := v.Base.SlotSeconds
	return v.Elapsed()+dt+v.Tasks.Remaining(n) > eff[n]+1e-9
}

// ASAP runs every ready task as early as possible in earliest-deadline
// order. It is the schedule the capacitor-sizing step of §4.1 uses to
// derive the daily energy-migration pattern.
type ASAP struct {
	g     *task.Graph
	order []int
}

// NewASAP returns an ASAP scheduler for the graph.
func NewASAP(g *task.Graph) *ASAP {
	eff := EffectiveDeadlines(g)
	return &ASAP{g: g, order: byDeadline(eff)}
}

// Name implements sim.Scheduler.
func (s *ASAP) Name() string { return "asap" }

// BeginPeriod implements sim.Scheduler.
func (s *ASAP) BeginPeriod(*sim.PeriodView) sim.PeriodPlan { return sim.KeepCap }

// Slot implements sim.Scheduler.
func (s *ASAP) Slot(*sim.SlotView) []int { return s.order }

// Policy returns the ASAP slot policy for planner-local simulations.
func (s *ASAP) Policy() sim.SlotPolicy {
	return func(*sim.SlotView) []int { return s.order }
}

// InterLSA is the paper's Inter-task baseline [3]: a lazy scheduling
// algorithm steered by a WCMA solar forecast.
//
// At each period boundary it predicts the period's harvest with WCMA and
// admits tasks in earliest-deadline order until the predicted energy budget
// (forecast harvest through the direct channel plus the deliverable energy
// of the active capacitor) is exhausted — the "best DMR in the present
// period" objective the paper ascribes to prior work. Within the period it
// executes admitted tasks lazily and non-preemptively in spirit: a task
// runs when it must (its effective latest start time has arrived) or when
// running it is free (the current solar surplus covers it directly),
// maximizing present-period energy utilization.
type InterLSA struct {
	g         *task.Graph
	eff       []float64
	edf       []int
	pred      solar.Predictor
	directEff float64
	admitted  []bool
	out       []int // Slot's result buffer

	// Admission telemetry (nil-safe instruments): how many tasks each
	// period admitted or rejected, and the WCMA forecast's absolute error
	// against the harvest that actually arrived.
	lastForecast  float64
	haveForecast  bool
	mAdmitted     *obs.Counter
	mRejected     *obs.Counter
	mForecastErrJ *obs.Histogram
}

// SetObserver implements sim.Observable. A nil registry is ignored.
func (s *InterLSA) SetObserver(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mAdmitted = reg.Counter("sched_admitted_tasks_total", obs.L("scheduler", "inter-task-lsa"))
	s.mRejected = reg.Counter("sched_rejected_tasks_total", obs.L("scheduler", "inter-task-lsa"))
	s.mForecastErrJ = reg.Histogram("sched_forecast_abs_error_joules", obs.ExpBuckets(0.125, 2, 14))
}

// NewInterLSA returns the Inter-task baseline for the graph over the given
// time base. directEff must match the engine's direct-channel efficiency.
func NewInterLSA(g *task.Graph, tb solar.TimeBase, directEff float64) *InterLSA {
	return NewInterLSAWithPredictor(g, directEff, solar.NewWCMA(0.5, 4, 3, tb.PeriodsPerDay))
}

// NewInterLSAWithPredictor builds the baseline around an arbitrary solar
// predictor (used by the predictor ablation study; the paper's version is
// WCMA).
func NewInterLSAWithPredictor(g *task.Graph, directEff float64, pred solar.Predictor) *InterLSA {
	eff := EffectiveDeadlines(g)
	return &InterLSA{
		g:         g,
		eff:       eff,
		edf:       byDeadline(eff),
		pred:      pred,
		directEff: directEff,
		admitted:  make([]bool, g.N()),
		out:       make([]int, 0, g.N()),
	}
}

// Name implements sim.Scheduler.
func (s *InterLSA) Name() string { return "inter-task-lsa/" + s.pred.Name() }

// BeginPeriod implements sim.Scheduler.
func (s *InterLSA) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	// Feed the forecaster with the completed period.
	prev := v.Period - 1
	if prev < 0 {
		prev += v.Base.PeriodsPerDay
	}
	if !(v.Day == 0 && v.Period == 0) {
		s.pred.Observe(v.Day, prev, v.LastPeriodEnergy)
		if s.haveForecast && s.mForecastErrJ != nil {
			err := s.lastForecast - v.LastPeriodEnergy
			if err < 0 {
				err = -err
			}
			s.mForecastErrJ.Observe(err)
		}
	}
	forecast := s.pred.Predict(v.Day, v.Period)
	s.lastForecast, s.haveForecast = forecast, true

	// Admission: earliest (effective) deadline first until the energy
	// budget runs out. A task is only admissible if all its predecessors
	// were admitted.
	budget := forecast*s.directEff + v.Bank.Active().Deliverable()
	for i := range s.admitted {
		s.admitted[i] = false
	}
	for _, n := range s.edf {
		ok := true
		for _, p := range s.g.Predecessors(n) {
			if !s.admitted[p] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := s.g.Tasks[n].Energy()
		if cost <= budget {
			s.admitted[n] = true
			budget -= cost
		}
	}
	if s.mAdmitted != nil {
		in := 0
		for _, a := range s.admitted {
			if a {
				in++
			}
		}
		s.mAdmitted.Add(float64(in))
		s.mRejected.Add(float64(len(s.admitted) - in))
	}
	// The admission mask itself is the plan's Allowed: nothing rewrites
	// it before the next BeginPeriod.
	return sim.PeriodPlan{SwitchTo: -1, Allowed: s.admitted}
}

// Slot implements sim.Scheduler: urgent admitted tasks first (they may draw
// the capacitor), then lazy tasks only as far as the current solar surplus
// carries them for free.
func (s *InterLSA) Slot(v *sim.SlotView) []int {
	out := s.out[:0]
	load := 0.0
	for _, n := range s.edf {
		if !s.admitted[n] || !v.Tasks.Ready(n) {
			continue
		}
		if urgent(v, n, s.eff) {
			out = append(out, n)
			load += s.g.Tasks[n].Power
		}
	}
	avail := v.SolarPower * v.DirectEff
	for _, n := range s.edf {
		if !s.admitted[n] || !v.Tasks.Ready(n) || contains(out, n) {
			continue
		}
		if p := s.g.Tasks[n].Power; load+p <= avail+1e-12 {
			out = append(out, n)
			load += p
		}
	}
	s.out = out
	return out
}

// IntraMatch is the paper's Intra-task baseline [9]: fine-grained load
// matching at slot granularity. At every slot it packs ready tasks so the
// total load tracks the instantaneous solar supply (largest-fitting-power
// first, maximizing direct-use energy), forcing tasks whose effective
// latest start time has arrived even when that draws the capacitor.
type IntraMatch struct {
	g   *task.Graph
	eff []float64
	edf []int

	// Slot scratch: the returned task list and the NVP occupancy.
	out  []int
	busy []bool
}

// NewIntraMatch returns the Intra-task baseline for the graph.
func NewIntraMatch(g *task.Graph) *IntraMatch {
	eff := EffectiveDeadlines(g)
	return &IntraMatch{
		g: g, eff: eff, edf: byDeadline(eff),
		out:  make([]int, 0, g.N()),
		busy: make([]bool, g.NumNVPs),
	}
}

// Name implements sim.Scheduler.
func (s *IntraMatch) Name() string { return "intra-task-match" }

// BeginPeriod implements sim.Scheduler.
func (s *IntraMatch) BeginPeriod(*sim.PeriodView) sim.PeriodPlan { return sim.KeepCap }

// Slot implements sim.Scheduler.
func (s *IntraMatch) Slot(v *sim.SlotView) []int {
	out := s.out[:0]
	load := 0.0
	// Urgent tasks run regardless of supply.
	for _, n := range s.edf {
		if v.Tasks.Ready(n) && urgent(v, n, s.eff) {
			out = append(out, n)
			load += s.g.Tasks[n].Power
		}
	}
	// Fill toward the solar supply with the largest fitting powers:
	// best direct-use of the harvest (the load-matching objective).
	avail := v.SolarPower * v.DirectEff
	busy := s.busy
	for k := range busy {
		busy[k] = false
	}
	for _, n := range out {
		busy[s.g.Tasks[n].NVP] = true
	}
	for load < avail {
		best := -1
		for _, n := range s.edf {
			if contains(out, n) || !v.Tasks.Ready(n) || busy[s.g.Tasks[n].NVP] {
				continue
			}
			p := s.g.Tasks[n].Power
			if load+p > avail+1e-12 {
				continue
			}
			if best < 0 || p > s.g.Tasks[best].Power {
				best = n
			}
		}
		if best < 0 {
			break
		}
		out = append(out, best)
		load += s.g.Tasks[best].Power
		busy[s.g.Tasks[best].NVP] = true
	}
	s.out = out
	return out
}

// Policy returns the load-matching slot policy, reusable as the
// fine-grained stage of other schedulers (§5.2 uses it when |1−α| ≤ δ).
// It shares the scheduler's slot scratch.
func (s *IntraMatch) Policy() sim.SlotPolicy { return s.Slot }

// LazyPolicy returns InterLSA's slot behavior (ignoring admission) as a
// standalone policy: urgent tasks plus free direct-solar execution. The
// proposed scheduler uses it as the inter-task fine-grained stage when
// |1−α| > δ (§5.2).
func LazyPolicy(g *task.Graph, directEff float64) sim.SlotPolicy {
	eff := EffectiveDeadlines(g)
	edf := byDeadline(eff)
	return func(v *sim.SlotView) []int {
		out := make([]int, 0, g.N())
		load := 0.0
		for _, n := range edf {
			if v.Tasks.Ready(n) && urgent(v, n, eff) {
				out = append(out, n)
				load += g.Tasks[n].Power
			}
		}
		avail := v.SolarPower * directEff
		for _, n := range edf {
			if contains(out, n) || !v.Tasks.Ready(n) {
				continue
			}
			if p := g.Tasks[n].Power; load+p <= avail+1e-12 {
				out = append(out, n)
				load += p
			}
		}
		return out
	}
}

// EDFPolicy returns the plain earliest-effective-deadline-first policy.
func EDFPolicy(g *task.Graph) sim.SlotPolicy {
	edf := byDeadline(EffectiveDeadlines(g))
	return func(*sim.SlotView) []int { return edf }
}

// CheapestFirstPolicy orders tasks by remaining energy cost ascending:
// with a fixed energy store, finishing cheap tasks first maximizes the
// number of deadlines met. Urgent ready tasks jump the queue; ties fall to
// the earlier effective deadline D', then to the lower task index. The
// proposed scheduler's planner uses it for night periods.
//
// The list holds the ready tasks only: the engine filters a slot's list
// for readiness anyway, and a stable sort of the ready tasks leaves them
// in the relative order a sort of every task gives them, so the runnable
// list is the same.
func CheapestFirstPolicy(g *task.Graph) sim.SlotPolicy {
	eff := EffectiveDeadlines(g)
	order := make([]int, 0, g.N())
	keys := make([]cheapKey, g.N())
	return func(v *sim.SlotView) []int {
		order = order[:0]
		for n := range keys {
			if !v.Tasks.Ready(n) {
				continue
			}
			keys[n] = cheapKey{
				urgent: urgent(v, n, eff),
				cost:   v.Tasks.Remaining(n) * g.Tasks[n].Power,
				eff:    eff[n],
			}
			// Stable insertion sort: task n moves only past strictly
			// later keys, so equal keys stay in index order.
			order = append(order, n)
			j := len(order) - 1
			for ; j > 0 && keys[n].before(keys[order[j-1]]); j-- {
				order[j] = order[j-1]
			}
			order[j] = n
		}
		return order
	}
}

// cheapKey is one task's CheapestFirstPolicy sort key for a slot.
type cheapKey struct {
	urgent bool    // ready and out of slack: runs first
	cost   float64 // remaining energy S'_n·P_n (J)
	eff    float64 // effective deadline D'_n
}

func (a cheapKey) before(b cheapKey) bool {
	if a.urgent != b.urgent {
		return a.urgent
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.eff < b.eff
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
