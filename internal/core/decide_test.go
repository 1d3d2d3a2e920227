package core

import (
	"math"
	"testing"

	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// decideFixture trains one small network for the Decide tests.
func decideFixture(t testing.TB) (PlanConfig, *Proposed) {
	t.Helper()
	g := task.WAM()
	tb := solar.DefaultTimeBase(2)
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 321})
	pc := DefaultPlanConfig(g, tb, []float64{2, 10, 50})
	opt := DefaultTrainOptions()
	opt.Fine.Epochs = 20
	prop, err := TrainProposed(pc, tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pc, prop
}

// TestDecide: the stateless inference returns a structurally valid
// decision — in-range capacitor, predecessor-closed task set, α in [0,2],
// and an E_th verdict consistent with the reported energies — and is
// deterministic for equal inputs.
func TestDecide(t *testing.T) {
	pc, prop := decideFixture(t)
	voltages := []float64{1.2, 2.4, 2.9}
	prev := make([]float64, pc.Base.SlotsPerPeriod)
	for i := range prev {
		prev[i] = 0.03
	}
	req := DecideRequest{
		PrevPowers:     prev,
		Voltages:       voltages,
		AccumulatedDMR: 0.05,
		PeriodOfDay:    17,
		ActiveCap:      0,
	}

	d, err := Decide(pc, prop.net, req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cap < 0 || d.Cap >= len(pc.Capacitances) {
		t.Fatalf("cap = %d outside bank of %d", d.Cap, len(pc.Capacitances))
	}
	if d.Alpha < 0 || d.Alpha > 2 {
		t.Fatalf("alpha = %g outside [0,2]", d.Alpha)
	}
	if len(d.Te) != pc.Graph.N() {
		t.Fatalf("te has %d entries, want %d", len(d.Te), pc.Graph.N())
	}
	for n := 0; n < pc.Graph.N(); n++ {
		if !d.Te[n] {
			continue
		}
		for _, p := range pc.Graph.Predecessors(n) {
			if !d.Te[p] {
				t.Fatalf("te not closed under predecessors: %d selected, predecessor %d not", n, p)
			}
		}
	}
	if d.Switch != (d.Cap != 0 && d.UsableJoules < d.EThJoules) {
		t.Fatalf("switch verdict %v inconsistent with cap=%d usable=%g eth=%g",
			d.Switch, d.Cap, d.UsableJoules, d.EThJoules)
	}
	if d.Switch && !d.Migrate {
		t.Fatal("permitted switch must migrate the residual energy")
	}

	d2, err := Decide(pc, prop.net, req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cap != d2.Cap || d.Alpha != d2.Alpha || d.Switch != d2.Switch {
		t.Fatalf("Decide not deterministic: %+v vs %+v", d, d2)
	}
}

// TestDecideEthGate: a full active capacitor vetoes switching no
// matter what the network says; a drained one permits it whenever the
// network prefers another capacitor.
func TestDecideEthGate(t *testing.T) {
	pc, prop := decideFixture(t)

	full := []float64{pc.Params.VHigh, pc.Params.VHigh, pc.Params.VHigh}
	d, err := Decide(pc, prop.net, DecideRequest{Voltages: full})
	if err != nil {
		t.Fatal(err)
	}
	if d.Switch {
		t.Fatalf("switch permitted with a full active capacitor (usable %g >= eth %g)",
			d.UsableJoules, d.EThJoules)
	}

	drained := []float64{pc.Params.VLow, pc.Params.VHigh, pc.Params.VHigh}
	d, err = Decide(pc, prop.net, DecideRequest{Voltages: drained})
	if err != nil {
		t.Fatal(err)
	}
	if d.Cap != 0 && !d.Switch {
		t.Fatalf("switch vetoed with a drained active capacitor (usable %g < eth %g)",
			d.UsableJoules, d.EThJoules)
	}
}

// TestDecideValidation: malformed requests fail loudly instead of
// feeding garbage into the network — both via Decide and via the
// standalone DecideRequest.Validate the serving layer uses.
func TestDecideValidation(t *testing.T) {
	pc, prop := decideFixture(t)
	ok := []float64{1.5, 1.5, 1.5}
	cases := map[string]DecideRequest{
		"wrong voltage count": {Voltages: []float64{1.5}},
		"active out of range": {Voltages: ok, ActiveCap: 7},
		"period out of range": {Voltages: ok, PeriodOfDay: -1},
		"unphysical voltage":  {Voltages: []float64{99, 1.5, 1.5}},
		"NaN voltage":         {Voltages: []float64{math.NaN(), 1.5, 1.5}},
		"negative DMR":        {Voltages: ok, AccumulatedDMR: -7},
		"DMR above one":       {Voltages: ok, AccumulatedDMR: 1e308},
		"NaN DMR":             {Voltages: ok, AccumulatedDMR: math.NaN()},
		"huge power":          {Voltages: ok, PrevPowers: []float64{0.02, 1e308}},
		"negative power":      {Voltages: ok, PrevPowers: []float64{-1e-3}},
		"infinite power":      {Voltages: ok, PrevPowers: []float64{math.Inf(1)}},
		"NaN power":           {Voltages: ok, PrevPowers: []float64{math.NaN()}},
	}
	for name, req := range cases {
		if _, err := Decide(pc, prop.net, req); err == nil {
			t.Errorf("%s: Decide returned no error", name)
		}
		if err := req.Validate(pc, prop.net); err == nil {
			t.Errorf("%s: Validate returned no error", name)
		}
	}
	edge := []DecideRequest{
		{Voltages: ok},
		{Voltages: ok, AccumulatedDMR: 1, PrevPowers: []float64{0, maxSlotPower}},
	}
	for _, req := range edge {
		if err := req.Validate(pc, prop.net); err != nil {
			t.Errorf("valid request %+v rejected: %v", req, err)
		}
	}
}

// BenchmarkDecide is one stateless period-boundary inference, the unit
// /v1/decide serves: features, DBN forward pass, predecessor closure and
// the E_th/δ rules.
func BenchmarkDecide(b *testing.B) {
	pc, prop := decideFixture(b)
	prev := make([]float64, pc.Base.SlotsPerPeriod)
	for i := range prev {
		prev[i] = 0.03
	}
	req := DecideRequest{
		PrevPowers:     prev,
		Voltages:       []float64{1.2, 2.4, 2.9},
		AccumulatedDMR: 0.02,
		PeriodOfDay:    pc.Base.PeriodsPerDay / 2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decide(pc, prop.net, req); err != nil {
			b.Fatal(err)
		}
	}
}
