package sim_test

import (
	"testing"

	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func samePeriodOutcome(a, b sim.PeriodOutcome) bool {
	if a.Missed != b.Missed || a.CapConsumed != b.CapConsumed || a.FinalV != b.FinalV ||
		a.Delivered != b.Delivered || a.Harvested != b.Harvested || len(a.Executed) != len(b.Executed) {
		return false
	}
	for n := range a.Executed {
		if a.Executed[n] != b.Executed[n] {
			return false
		}
	}
	return true
}

// A replayed period is the recorded trajectory re-run on another
// capacitor: wherever Replay answers, it must answer exactly what a full
// simulation on that capacitor returns, and it must refuse wherever the
// brown-out trim differs.
func TestPeriodTraceReplayMatchesRun(t *testing.T) {
	g := task.WAM()
	p := supercap.DefaultParams()
	powers := make([]float64, 30)
	for i := range powers {
		powers[i] = 0.003 * float64(i%5) // the store carries load in the dark slots
	}
	for name, policy := range map[string]sim.SlotPolicy{
		"cheapest": sched.CheapestFirstPolicy(g),
		"intra":    sched.NewIntraMatch(g).Policy(),
	} {
		ps := sim.NewPeriodSim(g)
		traces := sim.NewPeriodTraces(g, 1, len(powers))
		tr := &traces[0]
		rec := supercap.Capacitor{C: 50, V: p.VHigh, P: p}
		ps.Record(tr, &rec, powers, nil, policy, 60, 0.95)

		replays, refusals := 0, 0
		for _, c := range []float64{2, 10, 50} {
			for i := 0; i <= 40; i++ {
				v := p.VLow + (p.VHigh-p.VLow)*float64(i)/40
				full := supercap.Capacitor{C: c, V: v, P: p}
				want := ps.Run(&full, powers, nil, policy, 60, 0.95)
				want.Executed = append([]bool(nil), want.Executed...)
				re := supercap.Capacitor{C: c, V: v, P: p}
				got, ok := tr.Replay(&re, powers, 60, 0.95)
				if !ok {
					refusals++
					continue
				}
				replays++
				if !samePeriodOutcome(got, want) {
					t.Fatalf("%s C=%g V=%g: replay %+v, full simulation %+v", name, c, v, got, want)
				}
			}
		}
		t.Logf("%s: %d replays, %d refusals", name, replays, refusals)
		if replays == 0 || refusals == 0 {
			t.Errorf("%s: %d replays and %d refusals; the draws must exercise both", name, replays, refusals)
		}

		// A period of another length is never replayed.
		short := supercap.Capacitor{C: 10, V: 1.6, P: p}
		if _, ok := tr.Replay(&short, powers[:20], 60, 0.95); ok {
			t.Errorf("%s: replayed a 30-slot trace over 20 slots", name)
		}
		tr.Forget()
		if _, ok := tr.Replay(&short, powers, 60, 0.95); ok {
			t.Errorf("%s: replayed a forgotten trace", name)
		}
	}
}

// Recording must not change the simulation, and a zero PeriodTrace grows
// its own storage.
func TestPeriodSimRecordMatchesRun(t *testing.T) {
	g := task.ECG()
	p := supercap.DefaultParams()
	policy := sched.CheapestFirstPolicy(g)
	powers := make([]float64, 30)
	for i := range powers {
		powers[i] = 0.01 * float64(i%3)
	}
	ps := sim.NewPeriodSim(g)
	var tr sim.PeriodTrace
	a, b := supercap.Capacitor{C: 5, V: 1.2, P: p}, supercap.Capacitor{C: 5, V: 1.2, P: p}
	got := ps.Record(&tr, &a, powers, nil, policy, 60, 0.95)
	got.Executed = append([]bool(nil), got.Executed...)
	want := sim.RunPeriodOnCap(&b, powers, g, nil, policy, 60, 0.95)
	if !samePeriodOutcome(got, want) {
		t.Fatalf("recorded %+v, plain run %+v", got, want)
	}
	c := supercap.Capacitor{C: 5, V: 1.2, P: p}
	replayed, ok := tr.Replay(&c, powers, 60, 0.95)
	if !ok || !samePeriodOutcome(replayed, want) {
		t.Fatalf("replay on the recording capacitor: ok=%v %+v, want %+v", ok, replayed, want)
	}
}

// Planner-local simulations hide the store from the policy: a trace is
// replayed on other capacitors, which is exact only while the policy
// cannot read the one it was recorded on.
func TestPlannerLocalPolicySeesNoStore(t *testing.T) {
	g := task.SHM()
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(5)
	slots := 0
	policy := func(v *sim.SlotView) []int {
		if v.Cap != nil || v.Bank != nil {
			t.Fatalf("slot %d: planner-local policy sees Cap=%v Bank=%v", v.Slot, v.Cap, v.Bank)
		}
		slots++
		return edfOrder(g)
	}
	sim.RunPeriodOnCap(cap, make([]float64, 30), g, nil, policy, 60, 0.95)
	if slots != 30 {
		t.Fatalf("policy called %d times, want 30", slots)
	}
}
