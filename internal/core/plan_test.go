package core

import (
	"math"
	"testing"

	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func TestPlanHorizonEmpty(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	res := PlanHorizon(l, nil, 0, 0, pc.Params.VLow)
	if len(res.Decisions) != 0 || res.PredictedMisses != 0 || res.Expansions != 0 {
		t.Fatalf("empty horizon produced %+v", res)
	}
}

func TestPlanHorizonPanicsOnBadStart(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	powers := [][]float64{make([]float64, pc.Base.SlotsPerPeriod)}
	defer func() {
		if recover() == nil {
			t.Fatal("bad startCap accepted")
		}
	}()
	PlanHorizon(l, powers, 0, 99, pc.Params.VLow)
}

func TestPlanHorizonPanicsOnBadSlotCount(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	defer func() {
		if recover() == nil {
			t.Fatal("short period accepted")
		}
	}()
	PlanHorizon(l, [][]float64{{0.1, 0.2}}, 0, 0, pc.Params.VLow)
}

func TestPlanHorizonSwitchesCapAtBoundaryWhenBeneficial(t *testing.T) {
	// A tiny first capacitor and a large second one, with a bright day then
	// darkness: the plan should migrate to a capacitor that can actually
	// hold the surplus at the day boundary (period 0).
	g := task.ECG()
	pc, tr := testConfig(g, 2)
	pc.Capacitances = []float64{0.5, 50}
	l := NewLUT(pc)
	powers := make([][]float64, pc.Base.PeriodsPerDay)
	for p := range powers {
		powers[p] = tr.PeriodPowers(0, p)
	}
	res := PlanHorizon(l, powers, 0, 0, pc.Params.VLow)
	switched := false
	for _, d := range res.Decisions {
		if d.CapIdx == 1 {
			switched = true
			break
		}
	}
	if !switched {
		t.Fatal("plan never used the large capacitor despite daylight surplus")
	}
}

func TestPlanHorizonPredictedMatchesDecisions(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	powers := make([][]float64, 6)
	for p := range powers {
		powers[p] = tr.PeriodPowers(0, 20+p)
	}
	res := PlanHorizon(l, powers, 20, 0, 2.0)
	sum := 0
	for _, d := range res.Decisions {
		sum += d.PredictedMisses
	}
	if sum != res.PredictedMisses {
		t.Fatalf("per-decision misses %d != total %d", sum, res.PredictedMisses)
	}
}

// PlanHorizon's DP must reach the optimum of the discretized problem. On
// instances small enough to enumerate — 2–3 periods, 2 capacitors, 4–6
// buckets, a day boundary inside the window — every option sequence the
// same LUT offers is scored, starting with the exact-voltage frontiers of
// the first period, and the DP's plan must reach the best objective: the
// fewest misses, then the highest terminal bucket.
func TestPlanHorizonMatchesBruteForce(t *testing.T) {
	const energyTie = 1e-4 // planHorizon's terminal reward per bucket
	tr := solar.RepresentativeDays(solar.DefaultTimeBase(1))
	for _, c := range []struct {
		g          *task.Graph
		buckets    int
		periods    []int // trace periods of day 0 to plan over
		startOfDay int
		startCap   int
		startV     float64
	}{
		{task.ECG(), 4, []int{16, 30, 32}, 1, 0, 1.8},
		{task.SHM(), 6, []int{18, 30}, 0, 1, 2.4},
		{task.WAM(), 5, []int{18, 28, 30}, 1, 1, 1.0},
		{task.RandomCase(1), 4, []int{16, 32}, 0, 0, 2.9},
	} {
		pc := DefaultPlanConfig(c.g, solar.TimeBase{Days: 1, PeriodsPerDay: 2, SlotsPerPeriod: 30, SlotSeconds: 60},
			[]float64{3, 30})
		pc.VBuckets = c.buckets
		l := NewLUT(pc)
		powers := make([][]float64, len(c.periods))
		for t, p := range c.periods {
			powers[t] = tr.PeriodPowers(0, p)
		}
		T := len(powers)
		boundary := func(t int) bool { return (c.startOfDay+t)%pc.Base.PeriodsPerDay == 0 }
		res := PlanHorizon(l, powers, c.startOfDay, c.startCap, c.startV)

		// The first period runs at the exact start voltage, or at the
		// exactly migrated voltage after a boundary switch.
		startVOn := func(to int) float64 {
			if to == c.startCap {
				return c.startV
			}
			src := supercap.Capacitor{C: pc.Capacitances[c.startCap], V: c.startV, P: pc.Params}
			dst := supercap.Capacitor{C: pc.Capacitances[to], V: pc.Params.VLow, P: pc.Params}
			dst.Charge(src.Discharge(src.Deliverable()))
			return dst.V
		}
		firstCaps := []int{c.startCap}
		if boundary(0) {
			firstCaps = []int{0, 1}
		}

		best, bestMisses, sequences := math.Inf(1), -1, 0
		var walk func(t, cap, b, misses int)
		walk = func(t, cap, b, misses int) {
			if t == T {
				sequences++
				if obj := float64(misses) - energyTie*float64(b); obj < best {
					best, bestMisses = obj, misses
				}
				return
			}
			for c2 := range pc.Capacitances {
				if c2 != cap && !boundary(t) {
					continue
				}
				b2 := b
				if c2 != cap {
					b2, _ = l.TransferBucket(cap, b, c2)
				}
				for _, o := range l.Options(c2, b2, powers[t]) {
					walk(t+1, c2, l.BucketOf(c2, o.FinalV), misses+o.Misses)
				}
			}
		}
		for _, c0 := range firstCaps {
			for _, o := range l.solver.frontier(pc.Capacitances[c0], startVOn(c0), powers[0]) {
				walk(1, c0, l.BucketOf(c0, o.FinalV), o.Misses)
			}
		}

		// Score the DP's plan along the same transitions. Options on one
		// frontier have distinct miss counts, so a decision names its
		// option by PredictedMisses.
		pick := func(opts []Option, d Decision) Option {
			for _, o := range opts {
				if o.Misses == d.PredictedMisses && sameMask(o.Te, d.Te) && o.Alpha == d.Alpha {
					return o
				}
			}
			t.Fatalf("%s: decision %+v is not on its frontier %+v", c.g.Name, d, opts)
			return Option{}
		}
		cap := res.Decisions[0].CapIdx
		o := pick(l.solver.frontier(pc.Capacitances[cap], startVOn(cap), powers[0]), res.Decisions[0])
		b := l.BucketOf(cap, o.FinalV)
		for k := 1; k < T; k++ {
			d := res.Decisions[k]
			if d.CapIdx != cap {
				if !boundary(k) {
					t.Fatalf("%s: plan switches capacitor at period %d, not a day boundary", c.g.Name, k)
				}
				b, _ = l.TransferBucket(cap, b, d.CapIdx)
				cap = d.CapIdx
			}
			o = pick(l.Options(cap, b, powers[k]), d)
			b = l.BucketOf(cap, o.FinalV)
		}
		got := float64(res.PredictedMisses) - energyTie*float64(b)
		t.Logf("%s: %d sequences, best objective %v, DP %v", c.g.Name, sequences, best, got)
		if res.PredictedMisses != bestMisses || math.Abs(got-best) > 1e-9 {
			t.Errorf("%s: DP plan scores %v with %d misses; brute force finds %v with %d",
				c.g.Name, got, res.PredictedMisses, best, bestMisses)
		}
	}
}

// The DP's tables, profile keys and transfer buckets live in the LUT: a
// warm PlanHorizon allocates only its decisions and the first period's
// exact frontiers, however many periods it plans.
func TestWarmPlanHorizonAllocsDoNotGrowWithPeriods(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	allocs := func(periods int) float64 {
		l := NewLUT(pc)
		powers := make([][]float64, periods)
		for t := range powers {
			powers[t] = tr.PeriodPowers(t/pc.Base.PeriodsPerDay, t%pc.Base.PeriodsPerDay)
		}
		PlanHorizon(l, powers, 0, 0, 2.0) // builds every entry and the scratch
		builds := l.Builds
		n := testing.AllocsPerRun(5, func() { PlanHorizon(l, powers, 0, 0, 2.0) })
		if l.Builds != builds {
			t.Fatalf("%d periods: a repeated plan built %d entries", periods, l.Builds-builds)
		}
		return n
	}
	short, long := allocs(24), allocs(96)
	t.Logf("allocations per warm PlanHorizon: %.0f over 24 periods, %.0f over 96", short, long)
	if long > short {
		t.Errorf("a warm PlanHorizon allocates %.0f times over 96 periods, %.0f over 24", long, short)
	}
}
