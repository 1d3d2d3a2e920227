package fault

import (
	"math"
	"testing"

	"solarsched/internal/ann"
	"solarsched/internal/mat"
	"solarsched/internal/supercap"
)

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if err := Reference().Validate(); err != nil {
		t.Fatalf("reference config rejected: %v", err)
	}
	bad := []Config{
		{OutageProb: 1.5},
		{OutageProb: -0.1},
		{SolarDropProb: 2},
		{VoltDropProb: math.NaN()},
		{SwitchDropProb: -1},
		{DBNCorruptProb: 1.01},
		{SolarNoise: -0.1},
		{VoltNoise: math.NaN()},
		{VoltQuantStep: -0.01},
		{LeakGrowth: -0.5},
		{CapFade: 1},
		{CapFade: -0.1},
		{EffFade: 1.2},
		{OutageSlots: -3},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestEnabledAndNilInjector(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config enabled")
	}
	if (Config{Seed: 42, OutageSlots: 5}).Enabled() {
		t.Fatal("seed/outage-slots alone must not enable faults")
	}
	if !Reference().Enabled() {
		t.Fatal("reference config disabled")
	}
	if inj := NewInjector(Config{Seed: 42}); inj != nil {
		t.Fatal("disabled config produced a non-nil injector")
	}

	// Every method must be a no-op on the nil injector.
	var inj *Injector
	if inj.DeadSlot() || inj.DropSwitch() || inj.SensorFaults() {
		t.Fatal("nil injector injected a fault")
	}
	if got := inj.ObserveSolar(0.123); got != 0.123 {
		t.Fatalf("nil ObserveSolar changed reading: %v", got)
	}
	b := supercap.MustNewBank([]float64{10}, supercap.DefaultParams())
	if got := inj.ObserveBank(b); got != b {
		t.Fatal("nil ObserveBank did not return the bank itself")
	}
	o := ann.Output{CapProbs: mat.NewVector(2), Alpha: 0.5, Te: mat.NewVector(3)}
	if got := inj.CorruptDBN(o); got.Alpha != 0.5 {
		t.Fatal("nil CorruptDBN changed the output")
	}
	inj.AgeDay(b) // must not panic
	if inj.Counts() != (Counts{}) {
		t.Fatal("nil injector counted faults")
	}
}

func TestScale(t *testing.T) {
	ref := Reference()
	ref.Seed = 7

	off := ref.Scale(0)
	if off.Enabled() {
		t.Fatalf("Scale(0) still enabled: %+v", off)
	}
	if off.Seed != 7 || off.OutageSlots != ref.OutageSlots {
		t.Fatal("Scale(0) lost seed or outage length")
	}

	big := ref.Scale(1e5)
	if err := big.Validate(); err != nil {
		t.Fatalf("huge scale not clamped to valid: %v", err)
	}
	if big.OutageProb != 1 || big.SwitchDropProb != 1 || big.DBNCorruptProb != 1 {
		t.Fatalf("probabilities not clamped at 1: %+v", big)
	}
	if big.CapFade != 0.99 || big.EffFade != 0.99 {
		t.Fatalf("fades not clamped below 1: %+v", big)
	}

	half := ref.Scale(0.5)
	if half.OutageProb != ref.OutageProb*0.5 || half.SolarNoise != ref.SolarNoise*0.5 {
		t.Fatalf("Scale(0.5) not linear: %+v", half)
	}
}

func TestParseSpec(t *testing.T) {
	if cfg, err := ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
	if cfg, err := ParseSpec("1"); err != nil || cfg != Reference() {
		t.Fatalf("unit intensity != reference: cfg=%+v err=%v", cfg, err)
	}
	cfg, err := ParseSpec(" outage=0.01, volt-noise=0.05 ,dbn=0.1 ")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.OutageProb != 0.01 || cfg.VoltNoise != 0.05 || cfg.DBNCorruptProb != 0.1 {
		t.Fatalf("key=value spec misparsed: %+v", cfg)
	}
	if cfg.SolarNoise != 0 {
		t.Fatalf("unset key got a value: %+v", cfg)
	}
	for _, bad := range []string{
		"-1", "nan", "2e7", // bad intensities
		"bogus=1", "outage", "outage=x", "outage=2", "cap-fade=1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := Reference().Scale(3)
	cfg.Seed = 11
	draw := func() []bool {
		inj := NewInjector(cfg)
		out := make([]bool, 0, 3000)
		for i := 0; i < 1000; i++ {
			out = append(out, inj.DeadSlot(), inj.DropSwitch(), inj.ObserveSolar(0.1) == 0)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// Per-class stream independence: turning a second fault class on must not
// change the first class's draws.
func TestFaultClassStreamsIndependent(t *testing.T) {
	solo := Config{Seed: 3, SolarDropProb: 0.3}
	both := solo
	both.OutageProb = 0.5
	both.SwitchDropProb = 0.5
	a, b := NewInjector(solo), NewInjector(both)
	for i := 0; i < 2000; i++ {
		// Interleave other-class draws on b only; the solar stream must
		// still match a's exactly.
		b.DeadSlot()
		b.DropSwitch()
		if (a.ObserveSolar(1) == 0) != (b.ObserveSolar(1) == 0) {
			t.Fatalf("solar stream perturbed by other classes at draw %d", i)
		}
	}
}

func TestOutageDuration(t *testing.T) {
	inj := NewInjector(Config{Seed: 5, OutageProb: 0.02, OutageSlots: 5})
	run := 0
	for i := 0; i < 20000; i++ {
		if inj.DeadSlot() {
			run++
			continue
		}
		if run > 0 && run%5 != 0 {
			t.Fatalf("outage run of %d slots, want a multiple of 5", run)
		}
		run = 0
	}
	c := inj.Counts()
	if c.Outages == 0 {
		t.Fatal("no outages in 20000 slots at p=0.02")
	}
	if c.DeadSlots != c.Outages*5 {
		t.Fatalf("DeadSlots = %d, want %d outages x 5", c.DeadSlots, c.Outages)
	}
}

func TestObserveSolarNeverNegative(t *testing.T) {
	inj := NewInjector(Config{Seed: 9, SolarNoise: 2})
	for i := 0; i < 5000; i++ {
		if w := inj.ObserveSolar(0.05); w < 0 {
			t.Fatalf("negative solar reading %v", w)
		}
	}
}

func TestObserveBankCorruptsCopyOnly(t *testing.T) {
	p := supercap.DefaultParams()
	b := supercap.MustNewBank([]float64{10, 20}, p)
	b.Caps[0].V = 1.234567
	b.Caps[1].V = 2.345678

	inj := NewInjector(Config{Seed: 2, VoltQuantStep: 0.1})
	obs := inj.ObserveBank(b)
	if obs == b {
		t.Fatal("observation shim returned the ground-truth bank")
	}
	if b.Caps[0].V != 1.234567 || b.Caps[1].V != 2.345678 {
		t.Fatal("ground-truth voltages mutated")
	}
	for i, c := range obs.Caps {
		q := math.Round(c.V/0.1) * 0.1
		if math.Abs(c.V-q) > 1e-12 {
			t.Fatalf("cap %d: observed %v not on the 0.1 V grid", i, c.V)
		}
	}
}

// observeBankRef is ObserveBank as it was before the in-place refresh: a
// fresh deep copy per observation, corrupted by the same draws.
func observeBankRef(inj *Injector, b *supercap.Bank) *supercap.Bank {
	out := b.Clone()
	if len(inj.lastVolts) < len(out.Caps) {
		inj.lastVolts = append(inj.lastVolts, make([]float64, len(out.Caps)-len(inj.lastVolts))...)
		inj.haveVolts = append(inj.haveVolts, make([]bool, len(out.Caps)-len(inj.haveVolts))...)
	}
	for i, c := range out.Caps {
		c.V = inj.observeVolt(i, c.V)
	}
	return out
}

// TestObserveBankRefreshesInPlace checks that the observation shim hands
// out one injector-owned bank, refreshed on every call without
// allocating, whose readings match a fresh copy's draw for draw.
func TestObserveBankRefreshesInPlace(t *testing.T) {
	cfg := Reference()
	cfg.Seed = 11
	got, want := NewInjector(cfg), NewInjector(cfg)
	b := supercap.MustNewBank([]float64{2, 10, 50}, supercap.DefaultParams())
	first := got.ObserveBank(b)
	want.ObserveBank(b)
	for slot := 0; slot < 500; slot++ {
		b.Caps[slot%3].V = 1 + float64(slot%17)/10
		if slot%50 == 0 {
			b.SwitchTo(slot / 50 % 3)
		}
		o, r := got.ObserveBank(b), observeBankRef(want, b)
		if o != first {
			t.Fatalf("slot %d: ObserveBank handed out a new bank", slot)
		}
		if o.ActiveIndex() != r.ActiveIndex() {
			t.Fatalf("slot %d: active %d, want %d", slot, o.ActiveIndex(), r.ActiveIndex())
		}
		for i := range o.Caps {
			if math.Float64bits(o.Caps[i].V) != math.Float64bits(r.Caps[i].V) || o.Caps[i].C != b.Caps[i].C {
				t.Fatalf("slot %d cap %d: observed %+v, want %+v", slot, i, *o.Caps[i], *r.Caps[i])
			}
		}
	}
	if got.Counts() != want.Counts() {
		t.Fatalf("counts %+v, want %+v", got.Counts(), want.Counts())
	}
	if allocs := testing.AllocsPerRun(20, func() { got.ObserveBank(b) }); allocs != 0 {
		t.Fatalf("ObserveBank allocates %.0f times per observation", allocs)
	}
}

func TestVoltDropoutReturnsStaleReading(t *testing.T) {
	p := supercap.DefaultParams()
	b := supercap.MustNewBank([]float64{10}, p)
	b.Caps[0].V = 1.5
	inj := NewInjector(Config{Seed: 2, VoltDropProb: 1})

	// First reading: nothing to go stale to yet, passes through.
	first := inj.ObserveBank(b).Caps[0].V
	if first != 1.5 {
		t.Fatalf("first reading %v, want 1.5", first)
	}
	// Every later reading is the stale first one, whatever the truth.
	b.Caps[0].V = 2.5
	if got := inj.ObserveBank(b).Caps[0].V; got != 1.5 {
		t.Fatalf("dropout read %v, want stale 1.5", got)
	}
	if inj.Counts().VoltDrops == 0 {
		t.Fatal("dropout not counted")
	}
}

func TestCorruptDBNModes(t *testing.T) {
	inj := NewInjector(Config{Seed: 8, DBNCorruptProb: 1})
	sawAlpha, sawTe, sawCap := false, false, false
	for i := 0; i < 200; i++ {
		orig := ann.Output{CapProbs: mat.NewVector(3), Alpha: 0.4, Te: mat.NewVector(5)}
		out := inj.CorruptDBN(orig)
		switch {
		case math.IsNaN(out.Alpha):
			sawAlpha = true
		case math.IsNaN(out.Te[0]):
			sawTe = true
		case math.IsNaN(out.CapProbs[0]):
			sawCap = true
		default:
			t.Fatalf("iteration %d: output not corrupted at p=1: %+v", i, out)
		}
		// The caller's vectors must never be written through.
		if math.IsNaN(orig.Te[0]) || math.IsNaN(orig.CapProbs[0]) {
			t.Fatal("CorruptDBN mutated the input vectors")
		}
	}
	if !sawAlpha || !sawTe || !sawCap {
		t.Fatalf("not all corruption modes seen: alpha=%v te=%v cap=%v", sawAlpha, sawTe, sawCap)
	}
	if got := inj.Counts().DBNCorruptions; got != 200 {
		t.Fatalf("DBNCorruptions = %d, want 200", got)
	}
}

func TestAgeDayAppliesWear(t *testing.T) {
	p := supercap.DefaultParams()
	b := supercap.MustNewBank([]float64{10, 20}, p)
	inj := NewInjector(Config{Seed: 1, CapFade: 0.01, LeakGrowth: 0.05, EffFade: 0.002})
	inj.AgeDay(b)
	for i, c := range b.Caps {
		if c.C >= []float64{10, 20}[i] {
			t.Fatalf("cap %d did not fade: C=%v", i, c.C)
		}
	}
	if inj.Counts().AgedDays != 1 {
		t.Fatalf("AgedDays = %d", inj.Counts().AgedDays)
	}
	// Aging disabled: the bank is untouched.
	inj2 := NewInjector(Config{Seed: 1, OutageProb: 0.5})
	before := b.Caps[0].C
	inj2.AgeDay(b)
	if b.Caps[0].C != before {
		t.Fatal("AgeDay with zero aging config touched the bank")
	}
}
