package sim

import (
	"solarsched/internal/nvp"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// runPeriodReference is the plain one-capacitor period loop that
// PeriodSim.RunLanes replaced, kept as the reference: every lane of a lane
// run must reproduce it bit for bit. It drives the engine's slot step
// (slotStep.exec) on a fresh task state.
func runPeriodReference(cap *supercap.Capacitor, powers []float64, g *task.Graph,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {

	ts := nvp.MustNewSet(g)
	out := PeriodOutcome{Executed: make([]bool, g.N())}
	startUsable := cap.UsableEnergy()
	var step slotStep
	sv := &step.view
	for slot, solarW := range powers {
		*sv = SlotView{
			Slot: slot, SolarPower: solarW, Tasks: ts,
			DirectEff: directEff,
		}
		sv.Base.SlotSeconds = dt
		sv.Base.SlotsPerPeriod = len(powers)
		st := step.exec(cap, ts, policy(sv), allowed, solarW, dt, directEff)
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
