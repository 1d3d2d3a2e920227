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
// applied to the capacitor each slot, matching the full engine.
func RunPeriodOnCap(cap *supercap.Capacitor, powers []float64, g *task.Graph,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {
	return NewPeriodSim(g).Run(cap, powers, allowed, policy, dt, directEff)
}

// PeriodSim is RunPeriodOnCap for callers that simulate many periods of
// one graph: it keeps the task state and the slot step's scratch between
// calls, so a warm Run allocates nothing. A PeriodSim serves one goroutine
// at a time.
type PeriodSim struct {
	ts       *nvp.Set
	step     slotStep
	executed []bool
}

// NewPeriodSim returns a period simulator for a validated graph.
func NewPeriodSim(g *task.Graph) *PeriodSim {
	return &PeriodSim{ts: nvp.MustNewSet(g), executed: make([]bool, g.N())}
}

// Run simulates one period exactly as RunPeriodOnCap does. The outcome's
// Executed mask is the simulator's buffer, valid until the next Run.
func (p *PeriodSim) Run(cap *supercap.Capacitor, powers []float64,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {

	ts := p.ts
	ts.ResetPeriod()
	for n := range p.executed {
		p.executed[n] = false
	}
	out := PeriodOutcome{Executed: p.executed}
	startUsable := cap.UsableEnergy()
	sv := &p.step.view
	for slot, solarW := range powers {
		*sv = SlotView{
			Slot: slot, SolarPower: solarW, Cap: cap, Tasks: ts,
			DirectEff: directEff,
		}
		sv.Base.SlotSeconds = dt
		sv.Base.SlotsPerPeriod = len(powers)
		st := p.step.exec(cap, ts, policy(sv), allowed, solarW, dt, directEff)
		for _, n := range st.Ran {
			out.Executed[n] = true
		}
		out.Delivered += st.LoadPower * dt
		out.Harvested += solarW * dt
		cap.Leak(dt)
		ts.CheckDeadlines(float64(slot+1) * dt)
	}
	out.Missed = ts.Misses()
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out
}
