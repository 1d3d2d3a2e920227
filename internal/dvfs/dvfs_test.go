package dvfs

import (
	"context"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/rng"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func smallBase(days int) solar.TimeBase {
	return solar.TimeBase{Days: days, PeriodsPerDay: 4, SlotsPerPeriod: 30, SlotSeconds: 60}
}

func TestLevelFor(t *testing.T) {
	cases := map[float64]float64{
		0.0: 0.25, 0.2: 0.25, 0.25: 0.25, 0.3: 0.5,
		0.6: 0.75, 0.76: 1.0, 1.0: 1.0, 1.5: 1.0,
	}
	for need, want := range cases {
		if got := levelFor(need); got != want {
			t.Errorf("levelFor(%v) = %v, want %v", need, got, want)
		}
	}
}

func TestSlotPacesWithSlack(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(20)
	v := &sim.SlotView{Slot: 0, SolarPower: 0, Tasks: ts, Cap: cap, DirectEff: 0.95}
	v.Base = smallBase(1)
	order := s.Slot(v)
	if len(order) == 0 {
		t.Fatal("paced scheduler offered nothing at slot 0")
	}
	speeds := s.Speeds(v, order)
	// At slot 0 every task has generous slack: everything should be paced
	// below full speed.
	for i, f := range speeds {
		if f >= 1 {
			t.Fatalf("task %d at full speed despite slack (speeds %v)", order[i], speeds)
		}
	}
}

func TestSlotUrgentRunsFullSpeed(t *testing.T) {
	// lpf: S=240, effective deadline 480 − downstream chains. At a slot
	// where remaining/slack > 0.75, the pace must be 1.0.
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(20)
	// lpf's effective deadline: its own 480 shrinks through the chain; at
	// slot 1 (t=60) remaining 240 with eff deadline 480-240-... compute via
	// the schedule itself: find the slot where lpf's pace saturates.
	for slot := 0; slot < 8; slot++ {
		v := &sim.SlotView{Slot: slot, SolarPower: 0, Tasks: ts, Cap: cap, DirectEff: 0.95}
		v.Base = smallBase(1)
		order := s.Slot(v)
		speeds := s.Speeds(v, order)
		for i, n := range order {
			if n == 0 && speeds[i] == 1.0 {
				return // saturated before the deadline: pass
			}
		}
		_ = speeds
	}
	t.Fatal("lpf never reached full speed while starving")
}

func TestBoostWhenCapacitorFull(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(1e6) // slam to V_H
	v := &sim.SlotView{Slot: 0, SolarPower: 0.2, Tasks: ts, Cap: cap, DirectEff: 0.95}
	v.Base = smallBase(1)
	order := s.Slot(v)
	for _, f := range s.Speeds(v, order) {
		if f != 1 {
			t.Fatalf("no boost despite full capacitor: %v", f)
		}
	}
}

func TestSpeedsDefaultsToFull(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	v := &sim.SlotView{}
	speeds := s.Speeds(v, []int{0, 3})
	for _, f := range speeds {
		if f != 1 {
			t.Fatalf("unplanned task speed %v, want 1", f)
		}
	}
}

func TestRunScaledEnergyAdvantage(t *testing.T) {
	// Physics check: half speed does the same work in twice the time for a
	// quarter of the energy.
	g := task.NewGraph("one", []task.Task{
		{ID: 0, Name: "x", ExecTime: 120, Power: 0.040, Deadline: 1800, NVP: 0},
	}, nil, 1)
	full := nvp.MustNewSet(g)
	pFull := full.RunScaled([]int{0}, []float64{1}, sim.DVFSPowerExponent, 60)
	half := nvp.MustNewSet(g)
	pHalf := half.RunScaled([]int{0}, []float64{0.5}, sim.DVFSPowerExponent, 60)
	if full.Remaining(0) != 60 || half.Remaining(0) != 90 {
		t.Fatalf("progress wrong: full %v, half %v", full.Remaining(0), half.Remaining(0))
	}
	// Energy per unit work: full = P·dt per dt work; half = P/8·dt per dt/2
	// work → ratio 4.
	perWorkFull := pFull * 60 / 60
	perWorkHalf := pHalf * 60 / 30
	if ratio := perWorkFull / perWorkHalf; ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("energy-per-work ratio %v, want ~4", ratio)
	}
}

// End to end: on the four representative days the DVFS scheduler must not
// be worse than the plain intra-task matcher — pacing stretches the store.
func TestLoadTuneBeatsIntraMatch(t *testing.T) {
	tb := solar.DefaultTimeBase(4)
	tr := solar.RepresentativeDays(tb)
	for _, g := range []*task.Graph{task.ECG(), task.WAM()} {
		runDMR := func(s sim.Scheduler) float64 {
			eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{25}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			return res.DMR()
		}
		intra := runDMR(sched.NewIntraMatch(g))
		tuned := runDMR(NewLoadTune(g))
		if tuned > intra+0.01 {
			t.Errorf("%s: DVFS %.3f worse than intra-task %.3f", g.Name, tuned, intra)
		}
	}
}

func TestExecSlotDVFSTrimsWithSpeeds(t *testing.T) {
	tasks := []task.Task{
		{ID: 0, Name: "hi", ExecTime: 300, Power: 0.020, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "lo", ExecTime: 300, Power: 0.020, Deadline: 1800, NVP: 1},
	}
	g := task.NewGraph("pair", tasks, nil, 2)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams()) // empty
	// Solar supports exactly one full-speed task.
	st := sim.ExecSlotDVFS(cap, ts, []int{0, 1},
		func(run []int) []float64 {
			out := make([]float64, len(run))
			for i := range out {
				out[i] = 1
			}
			return out
		}, 0.021, 60, 1.0)
	if len(st.Ran) != 1 {
		t.Fatalf("ran %v, want 1 task", st.Ran)
	}
	// At quarter speed both fit (2 × 0.020·(1/64) ≪ 0.021).
	ts2 := nvp.MustNewSet(g)
	st2 := sim.ExecSlotDVFS(cap, ts2, []int{0, 1},
		func(run []int) []float64 {
			out := make([]float64, len(run))
			for i := range out {
				out[i] = 0.25
			}
			return out
		}, 0.021, 60, 1.0)
	if len(st2.Ran) != 2 {
		t.Fatalf("paced ran %v, want both tasks", st2.Ran)
	}
	if ts2.Remaining(0) != 300-15 {
		t.Fatalf("paced progress %v, want 15s", 300-ts2.Remaining(0))
	}
}

// mapLoadTune is LoadTune as it was before its slot buffers: a fresh
// result slice per Slot and Speeds call and a cleared map of planned
// speeds. The differential test holds the buffered scheduler to it.
type mapLoadTune struct {
	g       *task.Graph
	eff     []float64
	edf     []int
	planned map[int]float64
}

func newMapLoadTune(g *task.Graph) *mapLoadTune {
	eff := sched.EffectiveDeadlines(g)
	return &mapLoadTune{g: g, eff: eff, edf: edfOrder(eff), planned: make(map[int]float64)}
}

func (s *mapLoadTune) Slot(v *sim.SlotView) []int {
	for k := range s.planned {
		delete(s.planned, k)
	}
	now := v.Elapsed()
	boost := v.Cap != nil && v.Cap.UsableEnergy() > 0.95*v.Cap.CapacityEnergy()
	out := make([]int, 0, s.g.N())
	for _, n := range s.edf {
		if !v.Tasks.Ready(n) {
			continue
		}
		slack := s.eff[n] - now
		if slack <= 0 {
			continue
		}
		need := v.Tasks.Remaining(n) / slack
		if need > 1 {
			need = 1
		}
		f := levelFor(need)
		if boost {
			f = 1
		}
		if now+v.Tasks.Remaining(n)/f > s.eff[n]+1e-9 && f < 1 {
			f = 1
		}
		s.planned[n] = f
		out = append(out, n)
	}
	return out
}

func (s *mapLoadTune) Speeds(_ *sim.SlotView, selected []int) []float64 {
	speeds := make([]float64, len(selected))
	for i, n := range selected {
		f, ok := s.planned[n]
		if !ok {
			f = 1
		}
		speeds[i] = f
	}
	return speeds
}

// Over seeded task states, slot times and charge levels, the buffered
// scheduler offers the same tasks in the same order at the same speeds as
// the map version — also for selections holding unplanned and
// out-of-range task ids.
func TestLoadTuneMatchesMapVersion(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 400; trial++ {
		g := []*task.Graph{task.ECG(), task.WAM(), task.SHM(), task.RandomCase(1)}[trial%4]
		tb := solar.DefaultTimeBase(1)
		got, want := NewLoadTune(g), newMapLoadTune(g)
		ts := nvp.MustNewSet(g)
		cap := supercap.New(src.Range(1, 60), supercap.DefaultParams())
		v := &sim.SlotView{Tasks: ts, Cap: cap, DirectEff: 0.95, Base: tb}
		for slot := 0; slot < tb.SlotsPerPeriod; slot++ {
			v.Slot = slot
			cap.V = src.Range(cap.P.VLow, cap.P.VHigh)
			if src.Bool(0.2) {
				cap.V = cap.P.VHigh
			}
			order := got.Slot(v)
			ref := want.Slot(v)
			if !equalInts(order, ref) {
				t.Fatalf("trial %d slot %d: Slot = %v, want %v", trial, slot, order, ref)
			}
			selected := append([]int(nil), order...)
			if src.Bool(0.3) {
				selected = append(selected, src.Intn(g.N()), g.N()+src.Intn(3), -1)
			}
			sp, refSp := got.Speeds(v, selected), want.Speeds(v, selected)
			if len(sp) != len(refSp) {
				t.Fatalf("trial %d slot %d: %d speeds, want %d", trial, slot, len(sp), len(refSp))
			}
			for i := range sp {
				if sp[i] != refSp[i] {
					t.Fatalf("trial %d slot %d: speed of task %d = %v, want %v", trial, slot, selected[i], sp[i], refSp[i])
				}
			}
			run := ts.FilterRunnable(order)
			ts.RunScaled(run, sp[:len(run)], sim.DVFSPowerExponent, tb.SlotSeconds*src.Range(0.5, 3))
			ts.CheckDeadlines(float64(slot+1) * tb.SlotSeconds)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A warm Slot plus Speeds allocates nothing: the sweep's DVFS runs call
// both on every slot.
func TestLoadTuneSlotAllocFree(t *testing.T) {
	g := task.ECG()
	s := NewLoadTune(g)
	ts := nvp.MustNewSet(g)
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(20)
	v := &sim.SlotView{Tasks: ts, Cap: cap, DirectEff: 0.95, Base: smallBase(1)}
	if len(s.Slot(v)) == 0 {
		t.Fatal("nothing offered at slot 0")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Speeds(v, s.Slot(v))
	})
	if allocs != 0 {
		t.Fatalf("warm Slot+Speeds allocates %v times", allocs)
	}
}
