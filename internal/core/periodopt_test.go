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

// The LUT's solver replays each subset's recorded trajectory across the
// start voltages and capacitors of a build sequence. Whatever order the DP
// asks in, every frontier must equal the plain reference bit for bit, and
// the sequence must take both paths: replays, and full simulations beyond
// the first recording of each subset (divergences).
func TestReplayedFrontiersMatchReference(t *testing.T) {
	tb := solar.DefaultTimeBase(2)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 29})
	r := rng.New(77)
	for _, c := range []struct {
		g      *task.Graph
		period int // a morning period: the store carries part of the load
	}{
		{task.WAM(), 17}, {task.ECG(), 16}, {task.SHM(), 17}, {task.RandomCase(1), 18},
	} {
		g := c.g
		reg := obs.NewRegistry()
		pc := DefaultPlanConfig(g, tb, []float64{2, 10, 50})
		pc.Observer = reg
		powers := tr.PeriodPowers(0, c.period)
		harvest := 0.0
		for _, p := range powers {
			harvest += p
		}
		harvest *= pc.Base.SlotSeconds
		closed := ClosedSubsets(g)

		type query struct{ capC, v0 float64 }
		var queries []query
		l := NewLUT(pc)
		for capIdx, capC := range pc.Capacitances {
			vs := []float64{pc.Params.VLow, pc.Params.VHigh}
			for b := 0; b < pc.VBuckets; b++ {
				vs = append(vs, l.BucketV(capIdx, b))
			}
			for i := 0; i < 8; i++ {
				vs = append(vs, r.Range(pc.Params.VLow, pc.Params.VHigh))
			}
			sort.Float64s(vs)
			for _, v := range vs {
				queries = append(queries, query{capC, v})
			}
		}
		want := make([][]Option, len(queries))
		for i, q := range queries {
			want[i] = periodOptionsReference(q.capC, q.v0, powers, pc)
			checkFrontier(t, g, closed, harvest, want[i])
		}
		shuffled := make([]int, len(queries))
		for i := range shuffled {
			shuffled[i] = i
		}
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		ascending := make([]int, len(queries))
		for i := range ascending {
			ascending[i] = i
		}
		for name, order := range map[string][]int{"ascending": ascending, "shuffled": shuffled} {
			ps := newPeriodSolver(pc).withTraces()
			for _, i := range order {
				q := queries[i]
				got := ps.frontier(q.capC, q.v0, powers)
				if !sameOptions(got, want[i]) {
					t.Fatalf("%s %s C=%g V=%v: frontier %+v, reference %+v", g.Name, name, q.capC, q.v0, got, want[i])
				}
				checkFrontier(t, g, closed, harvest, got)
			}
		}
		replays := reg.Counter("core_period_sims_total", obs.L("path", "replay")).Value()
		full := reg.Counter("core_period_sims_total", obs.L("path", "full")).Value()
		t.Logf("%s: %d queries, %v replays, %v full simulations over %d subsets",
			g.Name, len(queries), replays, full, len(closed))
		if replays == 0 || full <= float64(2*len(closed)) {
			t.Errorf("%s: %v replays and %v full simulations; the queries must exercise replay and divergence",
				g.Name, replays, full)
		}
	}
}
