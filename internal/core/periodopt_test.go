package core

import (
	"sort"
	"testing"

	"solarsched/internal/obs"
	"solarsched/internal/rng"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// periodOptionsReference is PeriodOptions built the simple way: a fresh
// FinePolicy per subset, RunPeriodOnCap on a fresh capacitor and a
// map-based Pareto cut. PeriodOptions and the LUT's reused scratch must
// reproduce it bit for bit.
func periodOptionsReference(capC, v0 float64, powers []float64, pc PlanConfig) []Option {
	g := pc.Graph
	dt := pc.Base.SlotSeconds
	harvest := 0.0
	for _, p := range powers {
		harvest += p
	}
	harvest *= dt
	var options []Option
	for _, te := range ClosedSubsets(g) {
		alpha := Alpha(g, te, harvest)
		c := supercap.New(capC, pc.Params)
		c.V = v0
		out := sim.RunPeriodOnCap(c, powers, g, te, FinePolicy(g, alpha, pc.Delta), dt, pc.DirectEff)
		options = append(options, Option{
			Misses: out.Missed, Te: te, Alpha: alpha,
			CapConsumed: out.CapConsumed, FinalV: out.FinalV,
		})
	}
	bestAt := map[int]Option{}
	for _, o := range options {
		if cur, ok := bestAt[o.Misses]; !ok || o.FinalV > cur.FinalV {
			bestAt[o.Misses] = o
		}
	}
	misses := make([]int, 0, len(bestAt))
	for m := range bestAt {
		misses = append(misses, m)
	}
	sort.Ints(misses)
	var out []Option
	bestV := -1.0
	for _, m := range misses {
		if o := bestAt[m]; o.FinalV > bestV {
			out = append(out, o)
			bestV = o.FinalV
		}
	}
	return out
}

func sameOptions(a, b []Option) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Misses != y.Misses || x.Alpha != y.Alpha || x.CapConsumed != y.CapConsumed ||
			x.FinalV != y.FinalV || len(x.Te) != len(y.Te) {
			return false
		}
		for n := range x.Te {
			if x.Te[n] != y.Te[n] {
				return false
			}
		}
	}
	return true
}

func TestPeriodOptionsMatchReference(t *testing.T) {
	tb := solar.DefaultTimeBase(3)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 17})
	r := rng.New(4242)
	for _, g := range []*task.Graph{task.WAM(), task.ECG(), task.SHM(), task.RandomCase(1)} {
		pc := DefaultPlanConfig(g, tb, []float64{2, 10, 50})
		lut := NewLUT(pc)
		frontiers := 0
		for i := 0; i < 12; i++ {
			capC := pc.Capacitances[r.Intn(len(pc.Capacitances))]
			v0 := r.Range(pc.Params.VLow, pc.Params.VHigh)
			if i%4 == 0 {
				v0 = pc.Params.VLow // empty store: the night rationing case
			}
			powers := tr.PeriodPowers(r.Intn(tb.Days), r.Intn(tb.PeriodsPerDay))
			want := periodOptionsReference(capC, v0, powers, pc)
			if got := PeriodOptions(capC, v0, powers, pc); !sameOptions(got, want) {
				t.Fatalf("%s draw %d: PeriodOptions %+v, reference %+v", g.Name, i, got, want)
			}
			// The LUT's solver keeps its scratch across calls.
			if got := lut.solver.frontier(capC, v0, powers); !sameOptions(got, want) {
				t.Fatalf("%s draw %d: LUT frontier %+v, reference %+v", g.Name, i, got, want)
			}
			frontiers += len(want)
		}
		if frontiers <= 12 {
			t.Errorf("%s: every frontier has a single option; the draws do not exercise the Pareto cut", g.Name)
		}
	}
}

// chainGraph is a feasible n-task dependence chain on one NVP.
func chainGraph(n int) *task.Graph {
	tasks := make([]task.Task, n)
	edges := make([]task.Edge, 0, n-1)
	for i := range tasks {
		tasks[i] = task.Task{ID: i, ExecTime: 60, Power: 1e-3, Deadline: 1800}
		if i > 0 {
			edges = append(edges, task.Edge{From: i - 1, To: i})
		}
	}
	return task.NewGraph("chain", tasks, edges, 1)
}

func TestPlanConfigRejectsGraphAboveSubsetLimit(t *testing.T) {
	tb := solar.DefaultTimeBase(1)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 3})
	pc := DefaultPlanConfig(chainGraph(maxSubsetTasks+1), tb, []float64{5, 40})
	if err := pc.Graph.Validate(tb.PeriodSeconds()); err != nil {
		t.Fatalf("chain graph invalid on its own: %v", err)
	}
	if err := pc.Validate(); err == nil {
		t.Error("Validate accepted a 17-task graph")
	}
	if _, err := NewClairvoyant(pc, tr, teacherHours); err == nil {
		t.Error("NewClairvoyant accepted a 17-task graph")
	}
	if _, _, err := Train(pc, tr, DefaultTrainOptions()); err == nil {
		t.Error("Train accepted a 17-task graph")
	}

	// A graph at the limit still validates.
	pc.Graph = chainGraph(maxSubsetTasks)
	if err := pc.Validate(); err != nil {
		t.Errorf("Validate rejected a %d-task graph: %v", maxSubsetTasks, err)
	}
}

func TestWarmLUTBuildAllocsDoNotGrowWithSlots(t *testing.T) {
	allocs := func(slots int) float64 {
		tb := solar.TimeBase{Days: 1, PeriodsPerDay: 48, SlotsPerPeriod: slots, SlotSeconds: 1800 / float64(slots)}
		pc := DefaultPlanConfig(task.WAM(), tb, []float64{2, 10, 50})
		pc.VBuckets = 64
		l := NewLUT(pc)
		powers := make([]float64, slots)
		for i := range powers {
			powers[i] = 0.004 * float64(i%5)
		}
		key := l.ProfileKey(powers)
		bucket := 0
		// Every call lands in a new voltage bucket, so each one builds.
		n := testing.AllocsPerRun(40, func() {
			l.OptionsByKey(key, 1, bucket, powers)
			bucket++
		})
		if l.Builds != bucket {
			t.Fatalf("%d slots: %d builds for %d lookups", slots, l.Builds, bucket)
		}
		return n
	}
	short, long := allocs(15), allocs(120)
	t.Logf("allocations per LUT build: %.0f at 15 slots, %.0f at 120 slots", short, long)
	if long > short {
		t.Errorf("a LUT build allocates %.0f times at 120 slots per period, %.0f at 15", long, short)
	}
	if short > 2 {
		t.Errorf("a warm LUT build allocates %.0f times, want the frontier and the table's amortized growth only", short)
	}
}

// checkFrontier asserts the Pareto-frontier invariants of eq. (13): misses
// and final voltages both strictly ascending (each extra miss buys more
// stored energy), every te one of the graph's closed subsets, and every α
// the pattern index of its te under the period's harvest.
func checkFrontier(t *testing.T, g *task.Graph, closed [][]bool, harvest float64, opts []Option) {
	t.Helper()
	if len(opts) == 0 {
		t.Fatal("empty frontier")
	}
	for i, o := range opts {
		if i > 0 && (o.Misses <= opts[i-1].Misses || o.FinalV <= opts[i-1].FinalV) {
			t.Fatalf("option %d (%d misses, %v V) does not dominate-free follow option %d (%d misses, %v V)",
				i, o.Misses, o.FinalV, i-1, opts[i-1].Misses, opts[i-1].FinalV)
		}
		isClosed := false
		for _, te := range closed {
			if sameMask(te, o.Te) {
				isClosed = true
				break
			}
		}
		if !isClosed {
			t.Fatalf("option %d: te %v is not a closed subset", i, o.Te)
		}
		if a := Alpha(g, o.Te, harvest); o.Alpha != a {
			t.Fatalf("option %d: alpha %v, Alpha(te) = %v", i, o.Alpha, a)
		}
	}
}

func sameMask(a, b []bool) bool {
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

// PlanHorizon's DP builds a solar profile's entries as one block, one
// capacitor lane per entry. Every entry of a block must equal the plain
// reference bit for bit — whether the DP built the whole block, or
// RestoreEntries filled part of it and a later build completed it — and
// the table must count each entry at its first lookup, not when its block
// was built.
func TestBlockBuildsMatchReference(t *testing.T) {
	tb := solar.DefaultTimeBase(2)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 29})
	for _, c := range []struct {
		g      *task.Graph
		period int // a morning period: the store carries part of the load
	}{
		{task.WAM(), 17}, {task.ECG(), 16}, {task.SHM(), 17}, {task.RandomCase(1), 18},
	} {
		g := c.g
		pc := DefaultPlanConfig(g, tb, []float64{2, 10, 50})
		reg := obs.NewRegistry()
		pc.Observer = reg
		powers := tr.PeriodPowers(0, c.period)
		harvest := 0.0
		for _, p := range powers {
			harvest += p
		}
		harvest *= pc.Base.SlotSeconds
		closed := ClosedSubsets(g)
		H, B := len(pc.Capacitances), pc.VBuckets

		l := NewLUT(pc)
		want := make([][]Option, H*B)
		for capIdx, capC := range pc.Capacitances {
			for b := 0; b < B; b++ {
				want[capIdx*B+b] = periodOptionsReference(capC, l.BucketV(capIdx, b), powers, pc)
			}
		}
		id := l.profileID(powers)
		checkBlock := func(l *LUT, what string) {
			t.Helper()
			for i := range want {
				e := &l.entries[id*H*B+i]
				if !e.built {
					t.Fatalf("%s %s: entry (%d,%d) not built", g.Name, what, i/B, i%B)
				}
				if !sameOptions(e.opts, want[i]) {
					t.Fatalf("%s %s: entry (%d,%d) %+v, reference %+v", g.Name, what, i/B, i%B, e.opts, want[i])
				}
				checkFrontier(t, g, closed, harvest, e.opts)
				for k, o := range e.opts {
					if e.next[k] != l.BucketOf(i/B, o.FinalV) {
						t.Fatalf("%s %s: entry (%d,%d) option %d next bucket %d, want %d",
							g.Name, what, i/B, i%B, k, e.next[k], l.BucketOf(i/B, o.FinalV))
					}
				}
			}
		}
		counts := func(l *LUT, reg *obs.Registry, builds, lookups, size int, what string) {
			t.Helper()
			hits := reg.Counter("core_lut_hits_total").Value()
			misses := reg.Counter("core_lut_misses_total").Value()
			if l.Builds != builds || l.Lookups != lookups || l.Size() != size || len(l.SnapshotEntries()) != size ||
				misses != float64(builds) || hits != float64(lookups-builds) {
				t.Fatalf("%s %s: Builds %d Lookups %d Size %d snapshot %d misses %v hits %v; want %d builds of %d lookups, size %d",
					g.Name, what, l.Builds, l.Lookups, l.Size(), len(l.SnapshotEntries()), misses, hits, builds, lookups, size)
			}
		}

		// A one-period plan off a day boundary builds the profile's
		// block at its first lookup and looks up every entry once; its
		// only other lane run is the first period's exact frontier.
		PlanHorizon(l, [][]float64{powers}, 3, 0, pc.Params.VLow)
		counts(l, reg, H*B, H*B, H*B, "plan")
		checkBlock(l, "plan")
		if lanes := reg.Counter("core_period_lanes_total").Value(); lanes != float64(len(closed)*(H*B+1)) {
			t.Fatalf("%s: the plan ran %v lanes, want %d subsets x (%d entries + the exact first period)",
				g.Name, lanes, len(closed), H*B)
		}

		// One DP lookup builds the whole block but counts one entry.
		reg1 := obs.NewRegistry()
		pc.Observer = reg1
		l1 := NewLUT(pc)
		if id1 := l1.profileID(powers); id1 != id {
			t.Fatalf("%s: profile id %d in a fresh table, %d before", g.Name, id1, id)
		}
		l1.entry(id, 1, B/2, powers, true)
		counts(l1, reg1, 1, 1, 1, "first lookup")
		checkBlock(l1, "block build")
		l1.entry(id, 1, B/2, powers, true)
		counts(l1, reg1, 1, 2, 1, "repeated lookup")
		l1.entry(id, 0, 0, powers, true)
		counts(l1, reg1, 2, 3, 2, "second entry")
		if lanes := reg1.Counter("core_period_lanes_total").Value(); lanes != float64(len(closed)*H*B) {
			t.Fatalf("%s: three lookups ran %v lanes, want one block build of %d subsets x %d entries",
				g.Name, lanes, len(closed), H*B)
		}

		// A block restored in part builds only its missing entries.
		snap := l.SnapshotEntries()
		var part []LUTEntry
		for i, e := range snap {
			if i%3 != 0 {
				part = append(part, e)
			}
		}
		reg2 := obs.NewRegistry()
		pc.Observer = reg2
		l2 := NewLUT(pc)
		if err := l2.RestoreEntries(part); err != nil {
			t.Fatal(err)
		}
		counts(l2, reg2, 0, 0, len(part), "restored")
		id2 := l2.profileID(powers)
		if id2 != id {
			t.Fatalf("%s: profile id %d in a fresh table, %d before", g.Name, id2, id)
		}
		missing := H*B - len(part)
		l2.entry(id, snap[0].CapIdx, snap[0].VBucket, powers, true) // not restored
		counts(l2, reg2, 1, 1, len(part)+1, "restored, first missing lookup")
		if lanes := reg2.Counter("core_period_lanes_total").Value(); lanes != float64(len(closed)*missing) {
			t.Fatalf("%s: completing a block with %d missing entries ran %v lanes, want %d",
				g.Name, missing, lanes, len(closed)*missing)
		}
		checkBlock(l2, "completed block")
		t.Logf("%s: %d subsets, block of %d entries, %v branches for %v lanes",
			g.Name, len(closed), H*B, reg.Counter("core_period_branches_total").Value(),
			reg.Counter("core_period_lanes_total").Value())
	}
}
