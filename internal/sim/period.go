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
	return p.Record(nil, cap, powers, allowed, policy, dt, directEff)
}

// Record is Run that also records the period's task trajectory into tr
// (nil records nothing), so tr.Replay can answer the same period on
// another capacitor or start voltage.
func (p *PeriodSim) Record(tr *PeriodTrace, cap *supercap.Capacitor, powers []float64,
	allowed []bool, policy SlotPolicy, dt, directEff float64) PeriodOutcome {

	ts := p.ts
	ts.ResetPeriod()
	for n := range p.executed {
		p.executed[n] = false
	}
	out := PeriodOutcome{Executed: p.executed}
	startUsable := cap.UsableEnergy()
	tr.reset()
	sv := &p.step.view
	for slot, solarW := range powers {
		*sv = SlotView{
			Slot: slot, SolarPower: solarW, Tasks: ts,
			DirectEff: directEff,
		}
		sv.Base.SlotSeconds = dt
		sv.Base.SlotsPerPeriod = len(powers)
		st := p.step.exec(cap, ts, policy(sv), allowed, solarW, dt, directEff)
		tr.addSlot(p.step.loads, len(st.Ran))
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
	tr.finish(out)
	return out
}

// PeriodTrace is the task trajectory of one recorded period: per slot, the
// prefix loads of the runnable list in priority order and how many of its
// tasks ran, plus the period's misses and executed set.
//
// Given the slot powers, the allowed mask, the policy, dt and the direct
// efficiency, a period's trajectory depends on the capacitor only through
// the brown-out trim: planner-local policies see no store (SlotView.Cap is
// nil), so readiness, order, runnable lists and misses follow from the
// trim counts alone. Replay therefore re-runs only the capacitor's side of
// the period — the trim check, settleEnergy and leakage — and gives up at
// the first slot whose trim differs from the recording.
type PeriodTrace struct {
	loads    []float64 // every slot's prefix loads, back to back
	slots    []slotTrace
	executed []bool
	missed   int
	valid    bool
}

// slotTrace is one recorded slot: where its prefix loads start, the
// runnable list's length and how many of its leading tasks ran.
type slotTrace struct{ off, runnable, ran int32 }

// NewPeriodTraces returns n empty traces for periods of g of up to slots
// slots, carved from one allocation per field: a runnable list holds at
// most one task per NVP, so a slot keeps at most NumNVPs+1 loads. A trace
// recording a longer period grows on its own; so does a zero PeriodTrace.
func NewPeriodTraces(g *task.Graph, n, slots int) []PeriodTrace {
	per := slots * (g.NumNVPs + 1)
	loads := make([]float64, n*per)
	recs := make([]slotTrace, n*slots)
	executed := make([]bool, n*g.N())
	traces := make([]PeriodTrace, n)
	for i := range traces {
		traces[i] = PeriodTrace{
			loads:    loads[i*per : i*per : (i+1)*per],
			slots:    recs[i*slots : i*slots : (i+1)*slots],
			executed: executed[i*g.N() : (i+1)*g.N() : (i+1)*g.N()],
		}
	}
	return traces
}

// Forget empties the trace: Replay fails until the next recording.
func (tr *PeriodTrace) Forget() { tr.valid = false }

func (tr *PeriodTrace) reset() {
	if tr == nil {
		return
	}
	tr.valid = false
	tr.loads = tr.loads[:0]
	tr.slots = tr.slots[:0]
}

func (tr *PeriodTrace) addSlot(loads []float64, ran int) {
	if tr == nil {
		return
	}
	tr.slots = append(tr.slots, slotTrace{
		off: int32(len(tr.loads)), runnable: int32(len(loads) - 1), ran: int32(ran),
	})
	tr.loads = append(tr.loads, loads...)
}

func (tr *PeriodTrace) finish(out PeriodOutcome) {
	if tr == nil {
		return
	}
	tr.executed = append(tr.executed[:0], out.Executed...)
	tr.missed = out.Missed
	tr.valid = true
}

// Replay answers the recorded period on cap (a nil trace answers
// nothing): it returns exactly what
// PeriodSim.Run would return for the recording's powers, allowed mask,
// policy, dt and direct efficiency, and true — or false at the first slot
// whose brown-out trim on cap differs from the recording, with cap left
// partly advanced. The caller keeps those inputs equal to the recording's;
// Replay checks only that the period has as many slots. The outcome's
// Executed mask is the trace's buffer, valid until its next recording.
func (tr *PeriodTrace) Replay(cap *supercap.Capacitor, powers []float64, dt, directEff float64) (PeriodOutcome, bool) {
	if tr == nil || !tr.valid || len(powers) != len(tr.slots) {
		return PeriodOutcome{}, false
	}
	out := PeriodOutcome{Executed: tr.executed, Missed: tr.missed}
	startUsable := cap.UsableEnergy()
	for slot, solarW := range powers {
		rec := tr.slots[slot]
		loads := tr.loads[rec.off : rec.off+rec.runnable+1]
		if carried(cap, loads, solarW*directEff, dt) != int(rec.ran) {
			return PeriodOutcome{}, false
		}
		st := SlotStats{LoadPower: loads[rec.ran]}
		settleEnergy(cap, &st, solarW, dt, directEff)
		out.Delivered += st.LoadPower * dt
		out.Harvested += solarW * dt
		cap.Leak(dt)
	}
	out.CapConsumed = startUsable - cap.UsableEnergy()
	out.FinalV = cap.V
	return out, true
}
