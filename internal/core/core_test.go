package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"solarsched/internal/rng"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

func testConfig(g *task.Graph, days int) (PlanConfig, *solar.Trace) {
	tb := solar.DefaultTimeBase(days)
	tr := solar.RepresentativeDays(tb).SliceDays(0, days)
	pc := DefaultPlanConfig(g, tr.Base, []float64{2, 10, 50})
	return pc, tr
}

func TestDefaultPlanConfigValid(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanConfigValidateRejects(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	bad := pc
	bad.Graph = nil
	if bad.Validate() == nil {
		t.Error("nil graph accepted")
	}
	bad = pc
	bad.Capacitances = nil
	if bad.Validate() == nil {
		t.Error("empty bank accepted")
	}
	bad = pc
	bad.VBuckets = 1
	if bad.Validate() == nil {
		t.Error("VBuckets=1 accepted")
	}
	bad = pc
	bad.DirectEff = 2
	if bad.Validate() == nil {
		t.Error("DirectEff=2 accepted")
	}
}

func TestClosedSubsetsChain(t *testing.T) {
	// Chain a->b->c: closed subsets are {}, {a}, {ab}, {abc} = 4.
	tasks := []task.Task{
		{ID: 0, Name: "a", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 60, Power: 0.01, Deadline: 1200, NVP: 0},
		{ID: 2, Name: "c", ExecTime: 60, Power: 0.01, Deadline: 1800, NVP: 0},
	}
	g := task.NewGraph("chain3", tasks, []task.Edge{{From: 0, To: 1}, {From: 1, To: 2}}, 1)
	subsets := ClosedSubsets(g)
	if len(subsets) != 4 {
		t.Fatalf("chain closed subsets = %d, want 4", len(subsets))
	}
}

func TestClosedSubsetsNoEdges(t *testing.T) {
	g := task.NewGraph("free", []task.Task{
		{ID: 0, Name: "a", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0},
	}, nil, 1)
	if got := len(ClosedSubsets(g)); got != 4 {
		t.Fatalf("free closed subsets = %d, want 4", got)
	}
}

// Property: every returned subset is closed, for all benchmarks.
func TestClosedSubsetsClosureProperty(t *testing.T) {
	for _, g := range task.AllBenchmarks() {
		for _, mask := range ClosedSubsets(g) {
			for _, e := range g.Edges {
				if mask[e.To] && !mask[e.From] {
					t.Fatalf("%s: subset %v not closed under edge %v", g.Name, mask, e)
				}
			}
		}
	}
}

func TestAlpha(t *testing.T) {
	g := task.ECG()
	all := make([]bool, g.N())
	for i := range all {
		all[i] = true
	}
	if a := Alpha(g, all, g.PeriodEnergy()); math.Abs(a-1) > 1e-9 {
		t.Fatalf("alpha at exact balance = %v", a)
	}
	if a := Alpha(g, all, 0); a < 10 {
		t.Fatalf("alpha with no harvest = %v, want large", a)
	}
	none := make([]bool, g.N())
	if a := Alpha(g, none, 0); a != 1 {
		t.Fatalf("alpha with nothing selected and no harvest = %v", a)
	}
	if a := Alpha(g, all, 2*g.PeriodEnergy()); math.Abs(a-0.5) > 1e-9 {
		t.Fatalf("alpha at half load = %v", a)
	}
}

func TestFinePolicySelection(t *testing.T) {
	g := task.ECG()
	// α far from 1 → inter stage (cheapest first); α near 1 → intra match.
	// The two stages behave differently under bright sun at slot 0: intra
	// match fills toward supply, cheapest-first returns all tasks ordered.
	inter := FinePolicy(g, 50, 0.25)
	intra := FinePolicy(g, 1.0, 0.25)
	if inter == nil || intra == nil {
		t.Fatal("nil policy")
	}
}

func TestPeriodOptionsBrightDay(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	powers := make([]float64, pc.Base.SlotsPerPeriod)
	for i := range powers {
		powers[i] = 0.2 // plenty
	}
	opts := PeriodOptions(50, 2.5, powers, pc)
	if len(opts) == 0 {
		t.Fatal("no options")
	}
	if opts[0].Misses != 0 {
		t.Fatalf("best option misses %d under bright sun", opts[0].Misses)
	}
	// Pareto: misses ascending, final voltage ascending.
	for i := 1; i < len(opts); i++ {
		if opts[i].Misses <= opts[i-1].Misses {
			t.Fatalf("misses not ascending: %v", opts)
		}
		if opts[i].FinalV <= opts[i-1].FinalV {
			t.Fatalf("final voltage not ascending with misses")
		}
	}
}

func TestPeriodOptionsDarkEmptyCap(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	powers := make([]float64, pc.Base.SlotsPerPeriod)
	opts := PeriodOptions(50, pc.Params.VLow, powers, pc)
	if len(opts) != 1 {
		t.Fatalf("dark+empty should collapse to one option, got %d", len(opts))
	}
	if opts[0].Misses != pc.Graph.N() {
		t.Fatalf("dark+empty misses = %d, want %d", opts[0].Misses, pc.Graph.N())
	}
}

func TestPeriodOptionsDarkChargedCapTradeoff(t *testing.T) {
	// With a charged capacitor in darkness there must be more than one
	// Pareto point: spending more energy buys fewer misses.
	pc, _ := testConfig(task.WAM(), 2)
	powers := make([]float64, pc.Base.SlotsPerPeriod)
	opts := PeriodOptions(50, 2.6, powers, pc)
	if len(opts) < 2 {
		t.Fatalf("expected a misses/energy tradeoff, got %d options", len(opts))
	}
	if opts[0].Misses >= opts[len(opts)-1].Misses {
		t.Fatal("tradeoff not ordered")
	}
	// Fewer misses must consume more capacitor energy.
	if opts[0].CapConsumed <= opts[len(opts)-1].CapConsumed {
		t.Fatalf("fewest-miss option consumed %v, most-miss %v",
			opts[0].CapConsumed, opts[len(opts)-1].CapConsumed)
	}
}

func TestLUTCachingAndKeys(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	dark := make([]float64, pc.Base.SlotsPerPeriod)
	if l.ProfileKey(dark) != "dark" {
		t.Fatalf("dark key = %q", l.ProfileKey(dark))
	}
	bright := tr.PeriodPowers(0, 24)
	a := l.Options(1, 3, bright)
	builds := l.Builds
	b := l.Options(1, 3, bright)
	if l.Builds != builds {
		t.Fatal("second lookup rebuilt the entry")
	}
	if len(a) != len(b) {
		t.Fatal("cache returned different options")
	}
	if l.Size() == 0 || l.Lookups != 2 {
		t.Fatalf("size=%d lookups=%d", l.Size(), l.Lookups)
	}
}

func TestLUTBucketRoundTrip(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	for capIdx := range pc.Capacitances {
		for b := 0; b < pc.VBuckets; b++ {
			v := l.BucketV(capIdx, b)
			if got := l.BucketOf(capIdx, v); got != b {
				t.Fatalf("bucket roundtrip cap=%d: %d -> V=%v -> %d", capIdx, b, v, got)
			}
		}
		// Extremes clamp.
		if l.BucketOf(capIdx, pc.Params.VLow) != 0 {
			t.Fatal("VLow not bucket 0")
		}
		if l.BucketOf(capIdx, pc.Params.VHigh) != pc.VBuckets-1 {
			t.Fatal("VHigh not top bucket")
		}
	}
}

func TestLUTTransferLoses(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	b2, lost := l.TransferBucket(2, pc.VBuckets-1, 0)
	if lost <= 0 {
		t.Fatalf("transfer lost %v, want positive", lost)
	}
	if b2 < 0 || b2 >= pc.VBuckets {
		t.Fatalf("destination bucket %d", b2)
	}
	// Transferring from an empty capacitor loses nothing and arrives empty.
	b0, lost0 := l.TransferBucket(0, 0, 1)
	if b0 != 0 || lost0 > l.BucketV(0, 0) {
		t.Fatalf("empty transfer: bucket=%d lost=%v", b0, lost0)
	}
}

func TestPlanHorizonBrightPlansZeroMisses(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	bright := make([]float64, pc.Base.SlotsPerPeriod)
	for i := range bright {
		bright[i] = 0.2
	}
	powers := [][]float64{bright, bright, bright}
	res := PlanHorizon(l, powers, 0, 0, pc.Params.VLow)
	if res.PredictedMisses != 0 {
		t.Fatalf("predicted misses = %d under bright sun", res.PredictedMisses)
	}
	if res.Expansions <= 0 {
		t.Fatal("no expansions counted")
	}
	if len(res.Decisions) != 3 {
		t.Fatalf("decisions = %d", len(res.Decisions))
	}
}

func TestPlanHorizonDeterministic(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	mk := func() PlanResult {
		l := NewLUT(pc)
		powers := make([][]float64, 8)
		for i := range powers {
			powers[i] = tr.PeriodPowers(0, 20+i)
		}
		return PlanHorizon(l, powers, 20, 0, pc.Params.VLow)
	}
	a, b := mk(), mk()
	if a.PredictedMisses != b.PredictedMisses || a.Expansions != b.Expansions {
		t.Fatal("planning not deterministic")
	}
	for i := range a.Decisions {
		if a.Decisions[i].CapIdx != b.Decisions[i].CapIdx {
			t.Fatal("decisions differ")
		}
	}
}

func TestPlanHorizonSavesForNight(t *testing.T) {
	// Bright morning period then two dark periods: the plan must not burn
	// everything early — total predicted misses should be below worst case.
	pc, _ := testConfig(task.ECG(), 2)
	l := NewLUT(pc)
	bright := make([]float64, pc.Base.SlotsPerPeriod)
	for i := range bright {
		bright[i] = 0.09
	}
	dark := make([]float64, pc.Base.SlotsPerPeriod)
	res := PlanHorizon(l, [][]float64{bright, dark, dark}, 0, 2, pc.Params.VLow)
	worst := 3 * pc.Graph.N()
	if res.PredictedMisses >= worst {
		t.Fatalf("plan predicted %d misses of worst %d — no energy migration", res.PredictedMisses, worst)
	}
}

func TestOptimalStaticRuns(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	opt, err := NewOptimal(pc, tr)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(sim.Config{Trace: tr, Graph: pc.Graph, Capacitances: pc.Capacitances})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.DMR(); d < 0 || d > 1 {
		t.Fatalf("DMR = %v", d)
	}
	if opt.LUT().Size() == 0 {
		t.Fatal("planning built no LUT entries")
	}
	if len(opt.Plan().Decisions) != tr.Base.TotalPeriods() {
		t.Fatal("plan length mismatch")
	}
}

func TestOptimalRejectsMismatchedBase(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	other := solar.RepresentativeDays(solar.DefaultTimeBase(4))
	if _, err := NewOptimal(pc, other); err == nil {
		t.Fatal("mismatched trace base accepted")
	}
}

func TestClairvoyantBeatsBaselines(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	eng, err := sim.New(sim.Config{Trace: tr, Graph: pc.Graph, Capacitances: pc.Capacitances})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewClairvoyant(pc, tr, 48)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := eng.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := eng.Run(context.Background(), sched.NewInterLSA(pc.Graph, pc.Base, pc.DirectEff))
	if err != nil {
		t.Fatal(err)
	}
	intra, err := eng.Run(context.Background(), sched.NewIntraMatch(pc.Graph))
	if err != nil {
		t.Fatal(err)
	}
	if optRes.DMR() > inter.DMR()+1e-9 || optRes.DMR() > intra.DMR()+1e-9 {
		t.Fatalf("optimal DMR %.3f worse than baselines (%.3f, %.3f)",
			optRes.DMR(), inter.DMR(), intra.DMR())
	}
	if opt.Replans != tr.Base.TotalPeriods() {
		t.Fatalf("replans = %d", opt.Replans)
	}
	if opt.Expansions <= 0 {
		t.Fatal("no expansions")
	}
}

func TestNoisyHorizonNoBetterThanClairvoyant(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	eng, _ := sim.New(sim.Config{Trace: tr, Graph: pc.Graph, Capacitances: pc.Capacitances})
	clair, _ := NewClairvoyant(pc, tr, 24)
	clairRes, err := eng.Run(context.Background(), clair)
	if err != nil {
		t.Fatal(err)
	}
	fc := solar.NewHorizonForecast(tr, 9)
	fc.Sigma0, fc.SigmaPerDay = 0.3, 1.0 // deliberately bad forecasts
	noisy, _ := NewHorizon(pc, fc, 24)
	noisyRes, err := eng.Run(context.Background(), noisy)
	if err != nil {
		t.Fatal(err)
	}
	if noisyRes.DMR()+1e-9 < clairRes.DMR() {
		t.Fatalf("noisy forecast DMR %.3f beat clairvoyant %.3f", noisyRes.DMR(), clairRes.DMR())
	}
}

func TestFeaturesShapeAndBounds(t *testing.T) {
	pc, tr := testConfig(task.ECG(), 2)
	prev := tr.PeriodPowers(0, 24)
	x := Features(prev, []float64{1.5, 2.0, 2.8}, 0.4, 10, 48, pc.Params)
	if len(x) != FeatureDim(3) {
		t.Fatalf("dim = %d, want %d", len(x), FeatureDim(3))
	}
	for i, v := range x {
		if math.IsNaN(v) || v < -0.1 || v > 2.0 {
			t.Fatalf("feature %d = %v out of expected range", i, v)
		}
	}
	// Nil previous powers (first period) leaves the solar bins at zero.
	x0 := Features(nil, []float64{1.0}, 0, 0, 48, pc.Params)
	for i := 0; i < solarBins; i++ {
		if x0[i] != 0 {
			t.Fatalf("first-period solar bin %d = %v", i, x0[i])
		}
	}
}

func TestAlphaTargetRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		a := src.Range(0, 3)
		back := alphaFromOutput(alphaToTarget(a))
		want := a
		if want > 2 {
			want = 2
		}
		return math.Abs(back-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnderPredecessors(t *testing.T) {
	g := task.ECG() // lpf->hpf1->hpf2->{qrs,fft}, qrs->aes
	te := make([]bool, g.N())
	te[5] = true // aes only
	got := closeUnderPredecessors(g, topoOrder(g), te)
	// aes needs qrs needs hpf2 needs hpf1 needs lpf.
	for _, n := range []int{0, 1, 2, 3, 5} {
		if !got[n] {
			t.Fatalf("predecessor %d not pulled in: %v", n, got)
		}
	}
	if got[4] {
		t.Fatal("unrelated fft pulled in")
	}
}

func TestProposedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	g := task.ECG()
	trainTb := solar.DefaultTimeBase(6)
	trainTr := solar.MustGenerate(solar.GenConfig{Base: trainTb, Seed: 321})
	pcTrain := DefaultPlanConfig(g, trainTb, []float64{2, 10, 50})
	opt := DefaultTrainOptions()
	opt.Fine.Epochs = 40 // keep the test quick
	prop, err := TrainProposed(pcTrain, trainTr, opt)
	if err != nil {
		t.Fatal(err)
	}

	pc, tr := testConfig(g, 2)
	eval, err := NewProposed(pc, prop.net)
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: pc.Capacitances})
	res, err := eng.Run(context.Background(), eval)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.DMR(); d <= 0 || d >= 1 {
		t.Fatalf("proposed DMR = %v implausible", d)
	}
	// It must not be worse than the weakest baseline by a wide margin.
	intra, _ := eng.Run(context.Background(), sched.NewIntraMatch(g))
	if res.DMR() > intra.DMR()+0.10 {
		t.Fatalf("proposed DMR %.3f far worse than intra baseline %.3f", res.DMR(), intra.DMR())
	}
}

func TestNewProposedRejectsMismatchedNet(t *testing.T) {
	pc, _ := testConfig(task.ECG(), 2)
	trainTb := solar.DefaultTimeBase(2)
	trainTr := solar.MustGenerate(solar.GenConfig{Base: trainTb, Seed: 1})
	pcOther := DefaultPlanConfig(task.WAM(), trainTb, pc.Capacitances)
	opt := DefaultTrainOptions()
	opt.Fine.Epochs = 1
	net, _, err := Train(pcOther, trainTr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProposed(pc, net); err == nil {
		t.Fatal("WAM-shaped network accepted for ECG config")
	}
}

func TestCollectSamplesShape(t *testing.T) {
	g := task.SHM()
	tb := solar.DefaultTimeBase(2)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 5})
	pc := DefaultPlanConfig(g, tb, []float64{5, 40})
	inputs, targets, err := CollectSamples(pc, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != tb.TotalPeriods() || len(targets) != len(inputs) {
		t.Fatalf("samples: %d inputs, %d targets, want %d", len(inputs), len(targets), tb.TotalPeriods())
	}
	for i := range targets {
		if targets[i].Cap < 0 || targets[i].Cap >= 2 {
			t.Fatalf("target cap %d out of range", targets[i].Cap)
		}
		if len(targets[i].Te) != g.N() {
			t.Fatalf("target te length %d", len(targets[i].Te))
		}
		if len(inputs[i]) != FeatureDim(2) {
			t.Fatalf("input dim %d", len(inputs[i]))
		}
	}
}
