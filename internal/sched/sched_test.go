package sched

import (
	"context"
	"math"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func smallBase(days int) solar.TimeBase {
	return solar.TimeBase{Days: days, PeriodsPerDay: 4, SlotsPerPeriod: 30, SlotSeconds: 60}
}

func constTrace(tb solar.TimeBase, w float64) *solar.Trace {
	tr := solar.NewTrace(tb)
	for i := range tr.Power {
		tr.Power[i] = w
	}
	return tr
}

func run(t *testing.T, tr *solar.Trace, g *task.Graph, s sim.Scheduler) *sim.Result {
	t.Helper()
	e, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{10}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEffectiveDeadlinesChain(t *testing.T) {
	// a(S=100,D=1800) -> b(S=200,D=1000): a must finish by 800.
	tasks := []task.Task{
		{ID: 0, Name: "a", ExecTime: 100, Power: 0.01, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 200, Power: 0.01, Deadline: 1000, NVP: 1},
	}
	g := task.NewGraph("chain", tasks, []task.Edge{{From: 0, To: 1}}, 2)
	eff := EffectiveDeadlines(g)
	if eff[0] != 800 {
		t.Fatalf("eff[0] = %v, want 800", eff[0])
	}
	if eff[1] != 1000 {
		t.Fatalf("eff[1] = %v, want 1000", eff[1])
	}
}

func TestEffectiveDeadlinesNeverExceedOwn(t *testing.T) {
	for _, g := range task.AllBenchmarks() {
		eff := EffectiveDeadlines(g)
		for i, tk := range g.Tasks {
			if eff[i] > tk.Deadline {
				t.Fatalf("%s/%s: eff %v > deadline %v", g.Name, tk.Name, eff[i], tk.Deadline)
			}
			if eff[i] < tk.ExecTime {
				t.Fatalf("%s/%s: eff %v < exec time %v (infeasible)", g.Name, tk.Name, eff[i], tk.ExecTime)
			}
		}
	}
}

func TestASAPMeetsAllWithAbundantSolar(t *testing.T) {
	for _, g := range task.AllBenchmarks() {
		res := run(t, constTrace(smallBase(1), 1.0), g, NewASAP(g))
		if res.DMR() != 0 {
			t.Errorf("%s: ASAP DMR = %v with abundant solar", g.Name, res.DMR())
		}
	}
}

func TestAllSchedulersDMRInRange(t *testing.T) {
	tb := solar.DefaultTimeBase(2)
	tr := solar.RepresentativeDays(tb).SliceDays(0, 2)
	for _, g := range task.AllBenchmarks() {
		for _, s := range []sim.Scheduler{
			NewASAP(g),
			NewInterLSA(g, tb, sim.DefaultDirectEff),
			NewIntraMatch(g),
		} {
			res := run(t, tr, g, s)
			if d := res.DMR(); d < 0 || d > 1 {
				t.Errorf("%s/%s: DMR = %v", g.Name, s.Name(), d)
			}
		}
	}
}

func TestInterLSAAdmissionRespectsDependence(t *testing.T) {
	// Tiny budget: only the cheapest root tasks are admitted; a dependent
	// task must never be admitted without its predecessor.
	g := task.WAM()
	tb := smallBase(1)
	s := NewInterLSA(g, tb, 0.95)
	bank := supercap.MustNewBank([]float64{10}, supercap.DefaultParams())
	pv := &sim.PeriodView{Day: 0, Period: 0, Base: tb, Graph: g, Bank: bank}
	plan := s.BeginPeriod(pv)
	if plan.Allowed == nil {
		t.Fatal("InterLSA returned nil Allowed")
	}
	for _, e := range g.Edges {
		if plan.Allowed[e.To] && !plan.Allowed[e.From] {
			t.Fatalf("task %d admitted without predecessor %d", e.To, e.From)
		}
	}
}

func TestInterLSAAdmitsMoreWithMoreEnergy(t *testing.T) {
	g := task.WAM()
	tb := smallBase(1)
	count := func(charge float64) int {
		s := NewInterLSA(g, tb, 0.95)
		bank := supercap.MustNewBank([]float64{50}, supercap.DefaultParams())
		bank.Active().Charge(charge)
		// Provide a bright observed history so WCMA forecasts something.
		pv := &sim.PeriodView{Day: 1, Period: 1, Base: tb, Graph: g, Bank: bank, LastPeriodEnergy: 0}
		plan := s.BeginPeriod(pv)
		n := 0
		for _, a := range plan.Allowed {
			if a {
				n++
			}
		}
		return n
	}
	if count(0) > count(200) {
		t.Fatalf("admission shrank with more stored energy: %d vs %d", count(0), count(200))
	}
	if count(200) == 0 {
		t.Fatal("no tasks admitted despite a full capacitor")
	}
}

func TestLazySlotIdleWhenNoUrgencyNoSun(t *testing.T) {
	// Early in the period, in darkness, with slack before every deadline,
	// the lazy scheduler should run nothing (it waits for sun or urgency).
	g := task.ECG()
	s := NewInterLSA(g, smallBase(1), 0.95)
	for i := range s.admitted {
		s.admitted[i] = true
	}
	ts := nvp.MustNewSet(g)
	v := &sim.SlotView{
		Slot: 0, SolarPower: 0, Tasks: ts, DirectEff: 0.95,
		Cap: supercap.New(10, supercap.DefaultParams()),
	}
	v.Base = smallBase(1)
	if got := s.Slot(v); len(got) != 0 {
		t.Fatalf("lazy scheduler ran %v with no sun and no urgency", got)
	}
}

func TestLazySlotForcesUrgentTask(t *testing.T) {
	g := task.ECG()
	s := NewInterLSA(g, smallBase(1), 0.95)
	for i := range s.admitted {
		s.admitted[i] = true
	}
	ts := nvp.MustNewSet(g)
	// lpf: S=120, effective deadline at most 420. At slot 4 (t=240s),
	// 240+60+120=420 → not yet urgent by strict >. At slot 5 (t=300),
	// 300+60+120 = 480 > eff → urgent.
	v := &sim.SlotView{Slot: 5, SolarPower: 0, Tasks: ts, DirectEff: 0.95,
		Cap: supercap.New(10, supercap.DefaultParams())}
	v.Base = smallBase(1)
	got := s.Slot(v)
	found := false
	for _, n := range got {
		if n == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("urgent lpf not scheduled: %v", got)
	}
}

func TestIntraMatchTracksSupply(t *testing.T) {
	g := task.WAM()
	s := NewIntraMatch(g)
	ts := nvp.MustNewSet(g)
	mk := func(sun float64) float64 {
		v := &sim.SlotView{Slot: 0, SolarPower: sun, Tasks: ts, DirectEff: 1.0,
			Cap: supercap.New(10, supercap.DefaultParams())}
		v.Base = smallBase(1)
		load := 0.0
		for _, n := range ts.FilterRunnable(s.Slot(v)) {
			load += g.Tasks[n].Power
		}
		return load
	}
	low := mk(0.02)
	high := mk(0.12)
	if low > 0.02+1e-9 {
		t.Fatalf("load %v exceeds low supply 0.02", low)
	}
	if high <= low {
		t.Fatalf("load did not grow with supply: %v vs %v", low, high)
	}
}

func TestIntraMatchRunsNothingInDarkSlack(t *testing.T) {
	g := task.WAM()
	s := NewIntraMatch(g)
	ts := nvp.MustNewSet(g)
	v := &sim.SlotView{Slot: 0, SolarPower: 0, Tasks: ts, DirectEff: 0.95,
		Cap: supercap.New(10, supercap.DefaultParams())}
	v.Base = smallBase(1)
	if got := s.Slot(v); len(got) != 0 {
		t.Fatalf("intra-match ran %v in darkness with slack", got)
	}
}

func TestBaselinesHaveHighUtilizationOnSunnyDay(t *testing.T) {
	tb := solar.DefaultTimeBase(1)
	tr := solar.RepresentativeDays(tb).SliceDays(0, 1)
	g := task.WAM()
	for _, s := range []sim.Scheduler{NewInterLSA(g, tb, sim.DefaultDirectEff), NewIntraMatch(g)} {
		res := run(t, tr, g, s)
		if u := res.EnergyUtilization(); u < 0.10 {
			t.Errorf("%s: utilization %v suspiciously low on a sunny day", s.Name(), u)
		}
	}
}

func TestCheapestFirstPolicyOrdering(t *testing.T) {
	g := task.WAM()
	ts := nvp.MustNewSet(g)
	v := &sim.SlotView{Slot: 0, SolarPower: 0, Tasks: ts, DirectEff: 0.95,
		Cap: supercap.New(10, supercap.DefaultParams())}
	v.Base = smallBase(1)
	order := CheapestFirstPolicy(g)(v)
	ready := 0
	for n := 0; n < g.N(); n++ {
		if ts.Ready(n) {
			ready++
		}
	}
	if len(order) != ready {
		t.Fatalf("order length %d, want the %d ready tasks", len(order), ready)
	}
	// With no urgency at slot 0, energies must be non-decreasing.
	prev := -1.0
	for _, n := range order {
		e := g.Tasks[n].Energy()
		if prev > e+1e-12 {
			t.Fatalf("cheapest-first violated: %v after %v", e, prev)
		}
		prev = e
	}
}

func TestEDFPolicyOrdering(t *testing.T) {
	g := task.ECG()
	order := EDFPolicy(g)(nil)
	eff := EffectiveDeadlines(g)
	for i := 1; i < len(order); i++ {
		if eff[order[i-1]] > eff[order[i]] {
			t.Fatalf("EDF order violated at %d", i)
		}
	}
}

func TestLazyPolicyMatchesInterLSABehavior(t *testing.T) {
	g := task.ECG()
	pol := LazyPolicy(g, 0.95)
	ts := nvp.MustNewSet(g)
	dark := &sim.SlotView{Slot: 0, SolarPower: 0, Tasks: ts, DirectEff: 0.95,
		Cap: supercap.New(10, supercap.DefaultParams())}
	dark.Base = smallBase(1)
	if got := pol(dark); len(got) != 0 {
		t.Fatalf("lazy policy ran %v in dark slack", got)
	}
	bright := &sim.SlotView{Slot: 0, SolarPower: 1.0, Tasks: ts, DirectEff: 0.95,
		Cap: supercap.New(10, supercap.DefaultParams())}
	bright.Base = smallBase(1)
	if got := pol(bright); len(got) == 0 {
		t.Fatal("lazy policy idle under bright sun")
	}
}

// The motivating comparison of Figure 1: on a day+night cycle with a finite
// store, a greedy present-period scheduler must do no better at night than
// during the day.
func TestGreedySchedulersStruggleAtNight(t *testing.T) {
	tb := solar.DefaultTimeBase(1)
	tr := solar.RepresentativeDays(tb).SliceDays(0, 1) // sunny day
	g := task.WAM()
	res := run(t, tr, g, NewIntraMatch(g))
	// Day periods 16..31 (08:00–16:00) vs night periods 0..11 and 40..47.
	day, night := 0.0, 0.0
	for p := 16; p < 32; p++ {
		day += res.PeriodDMR(p)
	}
	day /= 16
	for p := 0; p < 12; p++ {
		night += res.PeriodDMR(p)
	}
	for p := 40; p < 48; p++ {
		night += res.PeriodDMR(p)
	}
	night /= 20
	if !(night > day) {
		t.Fatalf("expected worse night DMR: day=%v night=%v", day, night)
	}
	if math.IsNaN(day) || math.IsNaN(night) {
		t.Fatal("NaN DMR")
	}
}
