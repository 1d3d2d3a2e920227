package learn

import (
	"context"
	"testing"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/solar"
)

// testCache is shared across the package's tests so the offline stages
// (sizing, DP teacher, DBN training) run once per configuration.
var testCache = fleet.NewCache(nil)

// testTrain is the cheap offline spec every learn test shares (and the
// same one the serve package's tests use, so the artifact cache could be
// shared across packages too).
var testTrain = fleet.TrainSpec{Days: 2, Seed: 777, DayOfYear: 80, FineEpochs: 10}

// testPlanNet resolves the shared quick plan + base network.
func testPlanNet(t testing.TB) (core.PlanConfig, *ann.Network) {
	t.Helper()
	pc, net, err := fleet.NetworkFor(context.Background(), testCache, nil, "wam", 2, testTrain)
	if err != nil {
		t.Fatal(err)
	}
	return pc, net
}

// driftedTrace is the "climate moved" scenario: the base network trained
// on spring (day-of-year 80); the field sees deep winter at half power —
// scarce enough that the stale policy misses deadlines.
func driftedTrace(t *testing.T, days int) *solar.Trace {
	t.Helper()
	tr, err := solar.Generate(solar.GenConfig{
		Base:           solar.DefaultTimeBase(days),
		Seed:           4242,
		DayOfYearStart: 355,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Power {
		tr.Power[i] *= 0.45
	}
	return tr
}

// telemetryFrom synthesizes the serving-layer records a daemon would have
// accumulated while answering decides under the given climate: one record
// per period carrying that period's slot powers and the (ramping, when
// missing > 0) realized DMR.
func telemetryFrom(key string, tr *solar.Trace, missing float64) []Record {
	var recs []Record
	seq := uint64(0)
	acc := 0.0
	for d := 0; d < tr.Base.Days; d++ {
		for p := 0; p < tr.Base.PeriodsPerDay; p++ {
			seq++
			acc += missing / float64(tr.Base.Days*tr.Base.PeriodsPerDay)
			powers := append([]float64(nil), tr.PeriodPowers(d, p)...)
			recs = append(recs, Record{
				Seq: seq, Key: key, Tenant: "t0",
				PrevPowers: powers, Voltages: []float64{3.0, 1.2},
				AccDMR: acc, PeriodOfDay: p, ActiveCap: 0,
			})
		}
	}
	return recs
}

// TestReconstructTrace: telemetry records concatenate back into the trace
// they were cut from, bit for bit, keeping whole days only.
func TestReconstructTrace(t *testing.T) {
	tr := driftedTrace(t, 2)
	recs := telemetryFrom("k", tr, 0)
	// A malformed record (cold start, no powers) and a partial extra day
	// must both be ignored.
	recs = append(recs, Record{Seq: 9999, Key: "k"})
	got := ReconstructTrace(tr.Base, recs)
	if got == nil || got.Base.Days != 2 {
		t.Fatalf("reconstructed %d days, want 2", daysOf(got))
	}
	for i, p := range got.Power {
		if p != tr.Power[i] {
			t.Fatalf("power[%d] = %g, want %g", i, p, tr.Power[i])
		}
	}
	// Fewer than one whole day → nil.
	if tr2 := ReconstructTrace(tr.Base, recs[:tr.Base.PeriodsPerDay-1]); tr2 != nil {
		t.Fatalf("partial day reconstructed as %d days", tr2.Base.Days)
	}
}

// TestContinuousLearningPromotesUnderDrift is the subsystem's end-to-end
// acceptance path: drifted-solar telemetry flows in, the trainer
// fine-tunes a candidate on DP labels over the observed climate, the
// candidate beats the incumbent's realized DMR on a held-out drifted day,
// and the gate promotes it automatically. /v1/decide-level serving of the
// promoted model is covered in the serve package.
func TestContinuousLearningPromotesUnderDrift(t *testing.T) {
	obsReg := obs.NewRegistry()
	loop, err := Open(Config{
		Dir:      t.TempDir(),
		Registry: obsReg,
		Cache:    testCache,
		Trainer: TrainerConfig{
			FineEpochs:     25,
			MinImprovement: 0.02,
			AutoPromote:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start(context.Background())
	defer loop.Close()

	pc, baseNet := testPlanNet(t)
	key := Key("wam", 2, testTrain)

	// Three drifted days of telemetry: two to train on, one held out for
	// the gate's canary A/B.
	drift := driftedTrace(t, 3)
	for _, rec := range telemetryFrom(key, drift, 0.3) {
		loop.RecordDecision(key, rec.Tenant,
			LineageSpec{Graph: "wam", H: 2, Train: testTrain},
			core.DecideRequest{
				PrevPowers: rec.PrevPowers, Voltages: rec.Voltages,
				AccumulatedDMR: rec.AccDMR, PeriodOfDay: rec.PeriodOfDay,
				ActiveCap: rec.ActiveCap,
			},
			core.OnlineDecision{}, "")
	}

	rep, err := loop.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 1 {
		t.Fatalf("cycle produced %d candidates (skipped: %v), want 1", len(rep.Candidates), rep.Skipped)
	}
	cand := rep.Candidates[0]
	t.Logf("candidate v%d: loss %.5f, canary DMR %.4f vs incumbent %.4f (%s)",
		cand.Version, cand.Loss, cand.CandidateDMR, cand.IncumbentDMR, cand.Reason)
	if cand.IncumbentDMR <= 0 {
		t.Fatalf("drift scenario too mild: incumbent DMR %.4f on the drifted canary", cand.IncumbentDMR)
	}
	if !cand.Promoted {
		t.Fatalf("candidate not promoted: %s", cand.Reason)
	}
	if cand.CandidateDMR >= cand.IncumbentDMR {
		t.Fatalf("promoted candidate does not beat incumbent: %.4f vs %.4f", cand.CandidateDMR, cand.IncumbentDMR)
	}

	// The promoted model overrides serving, with provenance chaining back
	// to the base weights.
	net, info, ok := loop.ServingOverride(key)
	if !ok || net == nil {
		t.Fatal("no serving override after promotion")
	}
	if info.Version != cand.Version || info.State != StateServing {
		t.Fatalf("serving %+v, want promoted v%d", info, cand.Version)
	}
	baseDigest, _, _ := WeightsDigest(baseNet)
	if info.Provenance.Parent != baseDigest {
		t.Fatalf("provenance parent %.12s, want base %.12s", info.Provenance.Parent, baseDigest)
	}

	// Next cycle trains on top of the promoted model (parent chain).
	drift2 := driftedTrace(t, 3)
	for _, rec := range telemetryFrom(key, drift2, 0.1) {
		loop.RecordDecision(key, rec.Tenant, LineageSpec{Graph: "wam", H: 2, Train: testTrain},
			core.DecideRequest{PrevPowers: rec.PrevPowers, Voltages: rec.Voltages,
				AccumulatedDMR: rec.AccDMR, PeriodOfDay: rec.PeriodOfDay},
			core.OnlineDecision{}, info.Digest)
	}
	rep2, err := loop.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Candidates) != 1 {
		t.Fatalf("second cycle produced %d candidates (skipped: %v)", len(rep2.Candidates), rep2.Skipped)
	}
	v2, _, err := loop.ModelRegistry().Get(rep2.Candidates[0].Version)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Provenance.ParentVersion != info.Version {
		t.Fatalf("second candidate's parent version %d, want %d", v2.Provenance.ParentVersion, info.Version)
	}
	_ = pc
}

// TestGateHoldsWithoutDrift: telemetry from the same climate the incumbent
// trained on must not dethrone it — the candidate cannot beat it by the
// required margin, the gate holds, and serving stays on the base network.
// The margin is set above the run-to-run noise of this quick-training
// scale (~0.005 DMR); the drifted scenario clears it by an order of
// magnitude, the driftless one cannot.
func TestGateHoldsWithoutDrift(t *testing.T) {
	obsReg := obs.NewRegistry()
	loop, err := Open(Config{
		Dir:      t.TempDir(),
		Registry: obsReg,
		Cache:    testCache,
		Trainer: TrainerConfig{
			FineEpochs:     25,
			MinImprovement: 0.02,
			AutoPromote:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start(context.Background())
	defer loop.Close()

	key := Key("wam", 2, testTrain)
	// The training climate itself: spring, full power, no misses observed.
	same, err := solar.Generate(solar.GenConfig{
		Base:           solar.DefaultTimeBase(3),
		Seed:           testTrain.Seed,
		DayOfYearStart: testTrain.DayOfYear,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range telemetryFrom(key, same, 0) {
		loop.RecordDecision(key, rec.Tenant, LineageSpec{Graph: "wam", H: 2, Train: testTrain},
			core.DecideRequest{PrevPowers: rec.PrevPowers, Voltages: rec.Voltages,
				AccumulatedDMR: rec.AccDMR, PeriodOfDay: rec.PeriodOfDay},
			core.OnlineDecision{}, "")
	}
	rep, err := loop.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 1 {
		t.Fatalf("cycle produced %d candidates (skipped: %v), want 1", len(rep.Candidates), rep.Skipped)
	}
	cand := rep.Candidates[0]
	t.Logf("held candidate v%d: canary DMR %.4f vs incumbent %.4f (%s)",
		cand.Version, cand.CandidateDMR, cand.IncumbentDMR, cand.Reason)
	if cand.Promoted {
		t.Fatalf("gate promoted without improvement: %+v", cand)
	}
	if _, _, ok := loop.ServingOverride(key); ok {
		t.Fatal("serving override installed though the gate held")
	}
	if v := obsReg.Counter("learn_gate_holds_total").Value(); v != 1 {
		t.Fatalf("gate-hold counter = %v, want 1", v)
	}
}

// TestShadowGatedPromotion: with ShadowMinDecisions set, a sim-gate-passing
// candidate waits for live shadow evidence and promotes on a later cycle.
func TestShadowGatedPromotion(t *testing.T) {
	loop, err := Open(Config{
		Dir:      t.TempDir(),
		Registry: obs.NewRegistry(),
		Cache:    testCache,
		Trainer: TrainerConfig{
			FineEpochs:         25,
			AutoPromote:        true,
			ShadowMinDecisions: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	loop.Start(context.Background())
	defer loop.Close()

	key := Key("wam", 2, testTrain)
	drift := driftedTrace(t, 3)
	for _, rec := range telemetryFrom(key, drift, 0.3) {
		loop.RecordDecision(key, rec.Tenant, LineageSpec{Graph: "wam", H: 2, Train: testTrain},
			core.DecideRequest{PrevPowers: rec.PrevPowers, Voltages: rec.Voltages,
				AccumulatedDMR: rec.AccDMR, PeriodOfDay: rec.PeriodOfDay},
			core.OnlineDecision{}, "")
	}
	rep, err := loop.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 1 || rep.Candidates[0].Promoted {
		t.Fatalf("candidate should be awaiting shadow decisions: %+v (skipped %v)", rep.Candidates, rep.Skipped)
	}
	if _, _, ok := loop.ServingOverride(key); ok {
		t.Fatal("promoted before shadow evidence")
	}

	// Live decides now shadow-score the candidate.
	pc, baseNet := testPlanNet(t)
	req := core.DecideRequest{Voltages: []float64{3.0, 1.2}, PeriodOfDay: 0, ActiveCap: 0}
	served, err := core.Decide(pc, baseNet, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		loop.RecordDecision(key, "t0", LineageSpec{Graph: "wam", H: 2, Train: testTrain}, req, served, "")
	}
	waitShadow(t, loop.Shadow(), key, 3)

	// The settling cycle needs no fresh telemetry.
	rep2, err := loop.RunCycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Candidates) != 1 || !rep2.Candidates[0].Promoted {
		t.Fatalf("pending candidate not promoted after shadow evidence: %+v (skipped %v)", rep2.Candidates, rep2.Skipped)
	}
	if _, info, ok := loop.ServingOverride(key); !ok || info.Version != rep.Candidates[0].Version {
		t.Fatalf("serving %+v, want v%d", info, rep.Candidates[0].Version)
	}
}
