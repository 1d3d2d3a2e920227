package core

import (
	"fmt"

	"solarsched/internal/sim"
	"solarsched/internal/solar"
)

// Optimal is the static optimal scheduler of §4.2: the long-term DP run
// once over the *true* solar trace, then replayed. The paper uses it both
// as the upper bound ("Optimal" in Figures 8 and 9) and as the source of
// ANN training samples.
type Optimal struct {
	pc        PlanConfig
	lut       *LUT
	plan      PlanResult
	fine      finePolicies
	decisions []Decision
}

// NewOptimal plans the whole trace. The trace's time base must match the
// configuration's.
func NewOptimal(pc PlanConfig, tr *solar.Trace) (*Optimal, error) {
	plan, entries, err := PlanTrace(pc, tr)
	if err != nil {
		return nil, err
	}
	return NewOptimalFromPlan(pc, tr, plan, entries)
}

// PlanTrace runs the long-term DP of §4.2 over the whole trace and returns
// the plan plus the minimum-energy LUT entries materialized while solving
// it. Both are plain data (JSON-serializable), so a batch runner can compute
// them once per configuration and replay them into any number of Optimal
// instances via NewOptimalFromPlan.
func PlanTrace(pc PlanConfig, tr *solar.Trace) (PlanResult, []LUTEntry, error) {
	if err := pc.Validate(); err != nil {
		return PlanResult{}, nil, err
	}
	if tr.Base != pc.Base {
		return PlanResult{}, nil, fmt.Errorf("core: trace base %+v != config base %+v", tr.Base, pc.Base)
	}
	lut := NewLUT(pc)
	powers := make([][]float64, tr.Base.TotalPeriods())
	for d := 0; d < tr.Base.Days; d++ {
		for p := 0; p < tr.Base.PeriodsPerDay; p++ {
			powers[tr.Base.PeriodIndex(d, p)] = tr.PeriodPowers(d, p)
		}
	}
	plan := PlanHorizon(lut, powers, 0, 0, pc.Params.VLow)
	return plan, lut.SnapshotEntries(), nil
}

// NewOptimalFromPlan wraps a precomputed plan as the replay scheduler
// without re-running the DP. entries may be nil; when given, they warm the
// instance's LUT so its statistics match a freshly planned one. Each call
// builds a private LUT — the returned scheduler shares no mutable state
// with its siblings and is safe to run concurrently with them.
func NewOptimalFromPlan(pc PlanConfig, tr *solar.Trace, plan PlanResult, entries []LUTEntry) (*Optimal, error) {
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	if tr.Base != pc.Base {
		return nil, fmt.Errorf("core: trace base %+v != config base %+v", tr.Base, pc.Base)
	}
	if got, want := len(plan.Decisions), tr.Base.TotalPeriods(); got != want {
		return nil, fmt.Errorf("core: plan covers %d periods, trace has %d", got, want)
	}
	lut := NewLUT(pc)
	if entries != nil {
		if err := lut.RestoreEntries(entries); err != nil {
			return nil, fmt.Errorf("core: optimal plan: %w", err)
		}
	}
	return &Optimal{
		pc: pc, lut: lut, plan: plan, decisions: plan.Decisions,
		fine: newFinePolicies(pc.Graph),
	}, nil
}

// Name implements sim.Scheduler.
func (o *Optimal) Name() string { return "optimal" }

// Plan exposes the DP result (decisions, predicted misses, expansions).
func (o *Optimal) Plan() PlanResult { return o.plan }

// LUT exposes the lookup table built during planning (for statistics and
// for reuse as ANN training material).
func (o *Optimal) LUT() *LUT { return o.lut }

// Decision returns the planned decision of a flat period index.
func (o *Optimal) Decision(flat int) Decision { return o.decisions[flat] }

// BeginPeriod implements sim.Scheduler: replay the planned capacitor and
// task set for this period.
func (o *Optimal) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	d := o.decisions[v.Base.PeriodIndex(v.Day, v.Period)]
	return sim.PeriodPlan{SwitchTo: d.CapIdx, Migrate: true, Allowed: d.Te}
}

// Slot implements sim.Scheduler.
func (o *Optimal) Slot(v *sim.SlotView) []int {
	d := o.decisions[v.Base.PeriodIndex(v.Day, v.Period)]
	return o.fine.pick(d.Alpha, o.pc.Delta)(v)
}
