package sim_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// greedyEDF runs every ready task as early as possible, earliest deadline
// first — an ASAP baseline sufficient to exercise the engine.
type greedyEDF struct{}

func (greedyEDF) Name() string                               { return "greedy-edf" }
func (greedyEDF) BeginPeriod(*sim.PeriodView) sim.PeriodPlan { return sim.KeepCap }
func (greedyEDF) Slot(v *sim.SlotView) []int {
	return edfOrder(v.Tasks.G)
}

func edfOrder(g *task.Graph) []int {
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Tasks[order[a]].Deadline < g.Tasks[order[b]].Deadline
	})
	return order
}

// capSwitcher switches (optionally migrating) to a fixed capacitor on day 1.
type capSwitcher struct {
	to      int
	migrate bool
}

func (capSwitcher) Name() string { return "cap-switcher" }
func (c capSwitcher) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	if v.Day == 1 && v.Period == 0 {
		return sim.PeriodPlan{SwitchTo: c.to, Migrate: c.migrate}
	}
	return sim.KeepCap
}
func (c capSwitcher) Slot(v *sim.SlotView) []int { return edfOrder(v.Tasks.G) }

func constTrace(tb solar.TimeBase, w float64) *solar.Trace {
	tr := solar.NewTrace(tb)
	for i := range tr.Power {
		tr.Power[i] = w
	}
	return tr
}

func smallBase(days int) solar.TimeBase {
	return solar.TimeBase{Days: days, PeriodsPerDay: 4, SlotsPerPeriod: 30, SlotSeconds: 60}
}

func mustEngine(t *testing.T, cfg sim.Config) *sim.Engine {
	t.Helper()
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	tb := smallBase(1)
	tr := constTrace(tb, 0.05)
	g := task.WAM()
	bad := []sim.Config{
		{Trace: nil, Graph: g, Capacitances: []float64{10}},
		{Trace: tr, Graph: nil, Capacitances: []float64{10}},
		{Trace: tr, Graph: g, Capacitances: nil},
		{Trace: tr, Graph: g, Capacitances: []float64{-1}},
		{Trace: tr, Graph: g, Capacitances: []float64{10}, DirectEff: 1.5},
	}
	for i, cfg := range bad {
		if _, err := sim.New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{10}}); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewRejectsInfeasibleGraph(t *testing.T) {
	tb := smallBase(1)
	tr := constTrace(tb, 0.05)
	tasks := []task.Task{{ID: 0, Name: "x", ExecTime: 9999, Power: 0.01, Deadline: 1800, NVP: 0}}
	g := task.NewGraph("bad", tasks, nil, 1)
	if _, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{10}}); err == nil {
		t.Fatal("infeasible graph accepted")
	}
}

func TestAbundantSolarZeroDMR(t *testing.T) {
	tb := smallBase(2)
	// 1 W dwarfs any benchmark's concurrent power.
	e := mustEngine(t, sim.Config{Trace: constTrace(tb, 1.0), Graph: task.WAM(), Capacitances: []float64{10}})
	res, err := e.Run(context.Background(), greedyEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DMR() != 0 {
		t.Fatalf("DMR = %v with abundant solar", res.DMR())
	}
	if res.MissedTasks() != 0 || res.TotalTasks() != 2*4*8 {
		t.Fatalf("tasks: %d/%d", res.MissedTasks(), res.TotalTasks())
	}
}

func TestDarknessFullDMR(t *testing.T) {
	tb := smallBase(1)
	e := mustEngine(t, sim.Config{Trace: constTrace(tb, 0), Graph: task.WAM(), Capacitances: []float64{10}})
	res, err := e.Run(context.Background(), greedyEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DMR() != 1 {
		t.Fatalf("DMR = %v in total darkness (empty capacitor)", res.DMR())
	}
	if res.Delivered != 0 {
		t.Fatalf("Delivered = %v with no energy", res.Delivered)
	}
}

func TestEnergyLedgerConsistency(t *testing.T) {
	tb := smallBase(3)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 4})
	e := mustEngine(t, sim.Config{Trace: tr, Graph: task.WAM(), Capacitances: []float64{10, 50}})
	res, err := e.Run(context.Background(), greedyEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Harvested <= 0 {
		t.Fatal("nothing harvested")
	}
	// The node can never deliver more than it harvested.
	if res.Delivered > res.Harvested {
		t.Fatalf("delivered %v > harvested %v", res.Delivered, res.Harvested)
	}
	// Storage path consistency: what was drawn out can't exceed what was
	// stored in.
	if res.DrawnOut > res.StoredIn+1e-9 {
		t.Fatalf("drawn %v > stored %v", res.DrawnOut, res.StoredIn)
	}
	if res.StoreLoss < 0 || res.Leaked < -1e-9 {
		t.Fatalf("negative losses: store=%v leak=%v", res.StoreLoss, res.Leaked)
	}
	if u := res.EnergyUtilization(); u < 0 || u > 1 {
		t.Fatalf("utilization %v out of [0,1]", u)
	}
}

func TestBrownoutTrimsLowestPriority(t *testing.T) {
	// Two tasks on different NVPs; solar supports exactly one of them and
	// the capacitor is empty: the engine must trim the tail of the order.
	tasks := []task.Task{
		{ID: 0, Name: "hi", ExecTime: 60, Power: 0.010, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "lo", ExecTime: 60, Power: 0.010, Deadline: 1800, NVP: 1},
	}
	g := task.NewGraph("pair", tasks, nil, 2)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams()) // starts empty
	st := sim.ExecSlot(cap, ts, []int{0, 1}, 0.012, 60, 1.0)
	if len(st.Ran) != 1 || st.Ran[0] != 0 {
		t.Fatalf("Ran = %v, want [0]", st.Ran)
	}
	if ts.Remaining(0) != 0 || ts.Remaining(1) != 60 {
		t.Fatalf("remaining = %v, %v", ts.Remaining(0), ts.Remaining(1))
	}
}

func TestExecSlotUsesCapacitorForDeficit(t *testing.T) {
	tasks := []task.Task{{ID: 0, Name: "x", ExecTime: 60, Power: 0.020, Deadline: 1800, NVP: 0}}
	g := task.NewGraph("one", tasks, nil, 1)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(10)                                    // plenty
	st := sim.ExecSlot(cap, ts, []int{0}, 0, 60, 1.0) // no solar at all
	if len(st.Ran) != 1 {
		t.Fatalf("task did not run from storage: %v", st.Ran)
	}
	wantDraw := 0.020 * 60
	if math.Abs(st.DrawnOut-wantDraw) > 1e-9 {
		t.Fatalf("DrawnOut = %v, want %v", st.DrawnOut, wantDraw)
	}
}

func TestExecSlotStoresSurplus(t *testing.T) {
	g := task.NewGraph("idle", []task.Task{{ID: 0, Name: "x", ExecTime: 60, Power: 0.01, Deadline: 1800, NVP: 0}}, nil, 1)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	st := sim.ExecSlot(cap, ts, nil, 0.05, 60, 0.95) // nothing scheduled
	if st.SurplusOffered != 0.05*60 {
		t.Fatalf("SurplusOffered = %v", st.SurplusOffered)
	}
	if st.Stored <= 0 || st.Stored >= st.SurplusOffered {
		t.Fatalf("Stored = %v of %v offered", st.Stored, st.SurplusOffered)
	}
	if cap.UsableEnergy() <= 0 {
		t.Fatal("capacitor did not gain energy")
	}
}

func TestPeriodPlanAllowedMasksTasks(t *testing.T) {
	tb := smallBase(1)
	e := mustEngine(t, sim.Config{Trace: constTrace(tb, 1.0), Graph: task.WAM(), Capacitances: []float64{10}})
	res, err := e.Run(context.Background(), maskAll{})
	if err != nil {
		t.Fatal(err)
	}
	// With every task masked off, everything misses even in bright light.
	if res.DMR() != 1 {
		t.Fatalf("DMR = %v with all tasks masked", res.DMR())
	}
	if res.Delivered != 0 {
		t.Fatalf("Delivered = %v with all tasks masked", res.Delivered)
	}
}

type maskAll struct{}

func (maskAll) Name() string { return "mask-all" }
func (maskAll) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	return sim.PeriodPlan{SwitchTo: -1, Allowed: make([]bool, v.Graph.N())}
}
func (maskAll) Slot(v *sim.SlotView) []int { return edfOrder(v.Tasks.G) }

func TestCapSwitchCountsAndMigrates(t *testing.T) {
	tb := smallBase(2)
	tr := constTrace(tb, 0.08)
	run := func(s sim.Scheduler) *sim.Result {
		e := mustEngine(t, sim.Config{Trace: tr, Graph: task.ECG(), Capacitances: []float64{10, 50}})
		res, err := e.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(capSwitcher{to: 1, migrate: false})
	if plain.CapSwitches != 1 {
		t.Fatalf("CapSwitches = %d, want 1", plain.CapSwitches)
	}
	if plain.MigrationLoss != 0 {
		t.Fatalf("MigrationLoss = %v without migration", plain.MigrationLoss)
	}
	migrated := run(capSwitcher{to: 1, migrate: true})
	if migrated.MigrationLoss <= 0 {
		t.Fatalf("MigrationLoss = %v, want positive", migrated.MigrationLoss)
	}
}

func TestSchedulerSwitchOutOfRangeErrors(t *testing.T) {
	tb := smallBase(2)
	e := mustEngine(t, sim.Config{Trace: constTrace(tb, 0.08), Graph: task.ECG(), Capacitances: []float64{10}})
	if _, err := e.Run(context.Background(), capSwitcher{to: 7}); err == nil {
		t.Fatal("out-of-range capacitor switch accepted")
	}
}

func TestResultAggregation(t *testing.T) {
	tb := smallBase(2)
	// Day 0 bright, day 1 dark: DMR must differ by day.
	tr := solar.NewTrace(tb)
	for p := 0; p < tb.PeriodsPerDay; p++ {
		for s := 0; s < tb.SlotsPerPeriod; s++ {
			tr.Set(0, p, s, 1.0)
		}
	}
	e := mustEngine(t, sim.Config{Trace: tr, Graph: task.ECG(), Capacitances: []float64{1}})
	res, err := e.Run(context.Background(), greedyEDF{})
	if err != nil {
		t.Fatal(err)
	}
	if d0 := res.DayDMR(0); d0 != 0 {
		t.Fatalf("bright day DMR = %v", d0)
	}
	if d1 := res.DayDMR(1); d1 <= 0.5 {
		t.Fatalf("dark day DMR = %v, want high", d1)
	}
	if got := res.RangeDMR(0, 2); math.Abs(got-(res.DayDMR(0)+res.DayDMR(1))/2) > 1e-9 {
		t.Fatalf("RangeDMR = %v inconsistent", got)
	}
	if len(res.PeriodMisses) != tb.TotalPeriods() {
		t.Fatalf("period count = %d", len(res.PeriodMisses))
	}
	if res.PeriodDMR(0) != 0 {
		t.Fatalf("first period DMR = %v", res.PeriodDMR(0))
	}
}

func TestRunPeriodOnCapBasics(t *testing.T) {
	g := task.ECG()
	p := supercap.DefaultParams()
	powers := make([]float64, 30)
	for i := range powers {
		powers[i] = 0.08
	}
	policy := func(v *sim.SlotView) []int { return edfOrder(g) }

	cap := supercap.New(10, p)
	cap.Charge(20)
	out := sim.RunPeriodOnCap(cap, powers, g, nil, policy, 60, 0.95)
	if out.Missed != 0 {
		t.Fatalf("missed %d with bright solar", out.Missed)
	}
	for i, ex := range out.Executed {
		if !ex {
			t.Fatalf("task %d not executed", i)
		}
	}
	if out.Harvested != 0.08*60*30 {
		t.Fatalf("Harvested = %v", out.Harvested)
	}

	// In darkness with an empty capacitor everything misses and the
	// capacitor only loses (leak) energy.
	empty := supercap.New(10, p)
	dark := sim.RunPeriodOnCap(empty, make([]float64, 30), g, nil, policy, 60, 0.95)
	if dark.Missed != g.N() {
		t.Fatalf("dark missed = %d, want %d", dark.Missed, g.N())
	}
	if dark.Delivered != 0 {
		t.Fatalf("dark delivered = %v", dark.Delivered)
	}
}

// A PeriodSim reused across periods must answer each one exactly as a
// fresh RunPeriodOnCap does: no task progress, miss flag, executed mark or
// filter scratch may leak from the previous period.
func TestPeriodSimReuseMatchesFresh(t *testing.T) {
	g := task.ECG()
	p := supercap.DefaultParams()
	policy := func(v *sim.SlotView) []int { return edfOrder(g) }
	bright, dim := make([]float64, 30), make([]float64, 30)
	for i := range bright {
		bright[i] = 0.08
		dim[i] = 0.002 * float64(i%4)
	}
	firstHalf := make([]bool, g.N())
	for n := range firstHalf {
		firstHalf[n] = n < g.N()/2
	}
	ps := sim.NewPeriodSim(g)
	for i, c := range []struct {
		charge  float64
		powers  []float64
		allowed []bool
	}{
		{20, bright, nil},
		{0, make([]float64, 30), nil},
		{2, dim, firstHalf},
		{20, bright, nil},
		{0.5, dim, nil},
	} {
		a, b := supercap.New(10, p), supercap.New(10, p)
		a.Charge(c.charge)
		b.Charge(c.charge)
		got := ps.Run(a, c.powers, c.allowed, policy, 60, 0.95)
		want := sim.RunPeriodOnCap(b, c.powers, g, c.allowed, policy, 60, 0.95)
		if got.Missed != want.Missed || got.CapConsumed != want.CapConsumed || got.FinalV != want.FinalV ||
			got.Delivered != want.Delivered || got.Harvested != want.Harvested {
			t.Fatalf("period %d: reused %+v, fresh %+v", i, got, want)
		}
		for n := range want.Executed {
			if got.Executed[n] != want.Executed[n] {
				t.Fatalf("period %d: reused executed %v, fresh %v", i, got.Executed, want.Executed)
			}
		}
	}
}

func TestRunPeriodOnCapConsumedSign(t *testing.T) {
	g := task.ECG()
	p := supercap.DefaultParams()
	policy := func(v *sim.SlotView) []int { return edfOrder(g) }

	// Charged capacitor + darkness: running tasks must consume capacitor
	// energy (positive CapConsumed).
	cap := supercap.New(50, p)
	cap.Charge(60)
	out := sim.RunPeriodOnCap(cap, make([]float64, 30), g, nil, policy, 60, 0.95)
	if out.CapConsumed <= 0 {
		t.Fatalf("CapConsumed = %v, want positive in darkness", out.CapConsumed)
	}

	// Bright sun and no allowed tasks: the capacitor charges on net.
	cap2 := supercap.New(50, p)
	bright := make([]float64, 30)
	for i := range bright {
		bright[i] = 0.09
	}
	none := make([]bool, g.N())
	out2 := sim.RunPeriodOnCap(cap2, bright, g, none, policy, 60, 0.95)
	if out2.CapConsumed >= 0 {
		t.Fatalf("CapConsumed = %v, want negative (net charge)", out2.CapConsumed)
	}
}

func TestAllowedMaskLimitsExecutedSet(t *testing.T) {
	g := task.ECG()
	p := supercap.DefaultParams()
	policy := func(v *sim.SlotView) []int { return edfOrder(g) }
	bright := make([]float64, 30)
	for i := range bright {
		bright[i] = 0.2
	}
	allowed := make([]bool, g.N())
	allowed[0] = true // only the root lpf task
	cap := supercap.New(10, p)
	out := sim.RunPeriodOnCap(cap, bright, g, allowed, policy, 60, 0.95)
	if !out.Executed[0] {
		t.Fatal("allowed task not executed")
	}
	for i := 1; i < g.N(); i++ {
		if out.Executed[i] {
			t.Fatalf("masked task %d executed", i)
		}
	}
	if out.Missed != g.N()-1 {
		t.Fatalf("Missed = %d, want %d", out.Missed, g.N()-1)
	}
}

func BenchmarkEngineDayWAM(b *testing.B) {
	tb := solar.DefaultTimeBase(1)
	tr := solar.RepresentativeDays(tb).SliceDays(0, 1)
	e, err := sim.New(sim.Config{Trace: tr, Graph: task.WAM(), Capacitances: []float64{10}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), greedyEDF{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEngineDayAllocsPerPeriod(t *testing.T) {
	tb := solar.DefaultTimeBase(1)
	tr := solar.RepresentativeDays(tb).SliceDays(0, 1)
	g := task.WAM()
	e := mustEngine(t, sim.Config{Trace: tr, Graph: g, Capacitances: []float64{25}})
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := e.Run(context.Background(), sched.NewIntraMatch(g)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per day, %.2f per period", allocs, allocs/float64(tb.PeriodsPerDay))
	if per := allocs / float64(tb.PeriodsPerDay); per > 10 {
		t.Errorf("one WAM day allocates %.0f times, %.1f per period; want at most 10 per period", allocs, per)
	}
}
