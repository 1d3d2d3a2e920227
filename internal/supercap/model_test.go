package supercap

import (
	"math"
	"testing"
	"testing/quick"

	"solarsched/internal/rng"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.VHigh = p.VLow
	if err := p.Validate(); err == nil {
		t.Fatal("VHigh == VLow accepted")
	}
	p = DefaultParams()
	p.ChrMax = 1.5
	if err := p.Validate(); err == nil {
		t.Fatal("ChrMax > 1 accepted")
	}
	p = DefaultParams()
	p.CycleBase = 0
	if err := p.Validate(); err == nil {
		t.Fatal("CycleBase = 0 accepted")
	}
}

func TestEfficiencyCurvesMonotone(t *testing.T) {
	p := DefaultParams()
	// Fig. 5: both regulator efficiencies rise with capacitor voltage.
	for v := p.VLow; v < p.VHigh-0.01; v += 0.1 {
		if p.EtaChr(v+0.1) < p.EtaChr(v) {
			t.Fatalf("EtaChr not monotone at %v", v)
		}
		if p.EtaDis(v+0.1) < p.EtaDis(v) {
			t.Fatalf("EtaDis not monotone at %v", v)
		}
	}
	for _, v := range []float64{p.VLow, 2, p.VHigh} {
		if e := p.EtaChr(v); e <= 0 || e >= 1 {
			t.Fatalf("EtaChr(%v) = %v outside (0,1)", v, e)
		}
		if e := p.EtaDis(v); e <= 0 || e >= 1 {
			t.Fatalf("EtaDis(%v) = %v outside (0,1)", v, e)
		}
	}
}

func TestCycleEfficiencyDecreasesWithC(t *testing.T) {
	p := DefaultParams()
	if !(p.EtaCycle(1) > p.EtaCycle(10) && p.EtaCycle(10) > p.EtaCycle(100)) {
		t.Fatal("cycle efficiency should decrease with capacitance")
	}
}

func TestLeakagePowerShape(t *testing.T) {
	p := DefaultParams()
	if p.LeakPower(0, 10) != 0 {
		t.Fatal("leak at V=0 must be zero")
	}
	// Grows with voltage and with capacitance.
	if !(p.LeakPower(3, 10) > p.LeakPower(1.5, 10)) {
		t.Fatal("leakage should grow with voltage")
	}
	if !(p.LeakPower(2, 100) > p.LeakPower(2, 1)) {
		t.Fatal("leakage should grow with capacitance")
	}
	// Superlinearity in V: doubling V more than doubles power.
	if !(p.LeakPower(3, 10) > 2*p.LeakPower(1.5, 10)) {
		t.Fatal("leakage should be superlinear in voltage")
	}
}

func TestNewCapacitorStartsEmpty(t *testing.T) {
	c := New(10, DefaultParams())
	if c.UsableEnergy() != 0 {
		t.Fatalf("new capacitor has usable energy %v", c.UsableEnergy())
	}
	if c.Energy() <= 0 {
		t.Fatal("at cut-off the absolute stored energy is still positive")
	}
}

func TestChargeDischargeRoundTripLoses(t *testing.T) {
	c := New(10, DefaultParams())
	in := 20.0
	stored := c.Charge(in)
	if stored <= 0 || stored >= in {
		t.Fatalf("stored = %v, want in (0, %v)", stored, in)
	}
	out := c.Discharge(1e9)
	if out <= 0 || out >= stored {
		t.Fatalf("delivered = %v, want in (0, %v)", out, stored)
	}
	if eff := out / in; eff < 0.15 || eff > 0.85 {
		t.Fatalf("round-trip efficiency %v implausible", eff)
	}
}

func TestChargeSpillsAtFull(t *testing.T) {
	p := DefaultParams()
	c := New(1, p)
	cap := c.CapacityEnergy()
	stored := c.Charge(1000) // far beyond capacity
	if math.Abs(stored-cap) > 1e-9 {
		t.Fatalf("stored %v, capacity %v: overflow not clamped", stored, cap)
	}
	if math.Abs(c.V-p.VHigh) > 1e-9 {
		t.Fatalf("voltage %v, want VHigh %v", c.V, p.VHigh)
	}
	if c.Charge(1) != 0 {
		t.Fatal("charging a full capacitor stored energy")
	}
}

func TestDischargeStopsAtCutoff(t *testing.T) {
	p := DefaultParams()
	c := New(5, p)
	c.Charge(10)
	c.Discharge(1e9)
	if math.Abs(c.V-p.VLow) > 1e-9 {
		t.Fatalf("voltage after exhaustive discharge = %v, want VLow", c.V)
	}
	if c.Discharge(1) != 0 {
		t.Fatal("discharging an empty capacitor delivered energy")
	}
}

func TestDeliverableMatchesDischarge(t *testing.T) {
	c := New(10, DefaultParams())
	c.Charge(15)
	want := c.Deliverable()
	got := c.Discharge(1e9)
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("Deliverable = %v but exhaustive discharge gave %v", want, got)
	}
}

func TestLeakDrainsEnergy(t *testing.T) {
	c := New(10, DefaultParams())
	c.Charge(20)
	before := c.Energy()
	c.Leak(3600)
	if c.Energy() >= before {
		t.Fatal("leakage did not drain energy")
	}
	// Leakage can pull the voltage below cut-off but never below zero.
	for i := 0; i < 10000; i++ {
		c.Leak(86400)
	}
	if c.V < 0 || math.IsNaN(c.V) {
		t.Fatalf("voltage %v after long leak", c.V)
	}
}

func TestEquation1VoltageUpdate(t *testing.T) {
	// One slot of the paper's eq. (1): ½CV'² = ½CV² − P_leak·Δt + ΔE·η.
	p := DefaultParams()
	c := New(10, p)
	c.Charge(30)
	v0 := c.V
	dE := 2.0
	dt := 60.0
	want := 0.5*c.C*v0*v0 + dE*p.EtaChr(v0)*p.EtaCycle(c.C) - p.LeakPower(v0, c.C)*dt
	c.Charge(dE)
	c.Leak(dt)
	got := 0.5 * c.C * c.V * c.V
	// Leak is evaluated at the post-charge voltage here; tolerance covers it.
	if math.Abs(got-want) > 0.01*want {
		t.Fatalf("eq.(1) update: got %v want %v", got, want)
	}
}

// Property: energy is conserved-or-lost, never created, under random
// charge/discharge/leak sequences.
func TestNoFreeEnergyProperty(t *testing.T) {
	p := DefaultParams()
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c := New([]float64{1, 10, 50, 100}[src.Intn(4)], p)
		injected, extracted := 0.0, 0.0
		for i := 0; i < 200; i++ {
			switch src.Intn(3) {
			case 0:
				e := src.Range(0, 5)
				injected += e
				c.Charge(e)
			case 1:
				extracted += c.Discharge(src.Range(0, 5))
			case 2:
				c.Leak(src.Range(0, 600))
			}
			if c.V < 0 || c.V > p.VHigh+1e-9 || math.IsNaN(c.V) {
				return false
			}
		}
		return extracted <= injected+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBankSwitchAndMigrate(t *testing.T) {
	p := DefaultParams()
	b := MustNewBank([]float64{1, 10, 100}, p)
	if b.Size() != 3 || b.ActiveIndex() != 0 {
		t.Fatal("bank initial state wrong")
	}
	b.Active().Charge(5)
	stored := b.Active().UsableEnergy()
	b.SwitchTo(1)
	if b.ActiveIndex() != 1 {
		t.Fatal("SwitchTo did not switch")
	}
	if b.Caps[0].UsableEnergy() != stored {
		t.Fatal("SwitchTo moved energy")
	}
	b.SwitchTo(0)
	lost := b.MigrateTo(1)
	if lost <= 0 {
		t.Fatalf("migration lost %v, want positive loss", lost)
	}
	if b.Caps[0].UsableEnergy() > 1e-9 {
		t.Fatal("migration left energy behind")
	}
	if b.Caps[1].UsableEnergy() <= 0 {
		t.Fatal("migration delivered nothing")
	}
	if b.Caps[1].UsableEnergy() >= stored {
		t.Fatal("migration was lossless")
	}
}

func TestBankMigrateToSelfNoop(t *testing.T) {
	b := MustNewBank([]float64{10, 10}, DefaultParams())
	b.Active().Charge(5)
	before := b.Active().UsableEnergy()
	if lost := b.MigrateTo(0); lost != 0 {
		t.Fatalf("self-migration lost %v", lost)
	}
	if b.Active().UsableEnergy() != before {
		t.Fatal("self-migration changed state")
	}
}

func TestBankLeakAllAndVoltages(t *testing.T) {
	b := MustNewBank([]float64{10, 50}, DefaultParams())
	b.Caps[0].Charge(10)
	b.Caps[1].Charge(10)
	before := b.TotalUsable()
	b.LeakAll(3600)
	if b.TotalUsable() >= before {
		t.Fatal("LeakAll did not drain")
	}
	vs := b.Voltages()
	if len(vs) != 2 || vs[0] != b.Caps[0].V || vs[1] != b.Caps[1].V {
		t.Fatalf("Voltages = %v", vs)
	}
}

func TestBankCloneIndependent(t *testing.T) {
	b := MustNewBank([]float64{10}, DefaultParams())
	b.Active().Charge(5)
	c := b.Clone()
	c.Active().Discharge(1e9)
	if b.Active().UsableEnergy() <= 0 {
		t.Fatal("Clone shares capacitor state")
	}
}

func TestBankCopyIntoReusesDestination(t *testing.T) {
	b := MustNewBank([]float64{2, 10, 50}, DefaultParams())
	b.Caps[1].Charge(5)
	b.Caps[2].Age(Aging{CapFade: 0.01, LeakGrowth: 0.02, EffFade: 0.01})
	b.SwitchTo(2)
	dst := b.CopyInto(nil)
	caps := append([]*Capacitor(nil), dst.Caps...)
	b.Caps[0].Charge(1)
	b.SwitchTo(1)
	if got := b.CopyInto(dst); got != dst {
		t.Fatal("CopyInto replaced a destination of the right size")
	}
	for i, c := range dst.Caps {
		if c != caps[i] {
			t.Fatalf("CopyInto replaced capacitor %d", i)
		}
		if *c != *b.Caps[i] {
			t.Fatalf("capacitor %d = %+v, want %+v", i, *c, *b.Caps[i])
		}
	}
	if dst.ActiveIndex() != 1 {
		t.Fatalf("active = %d, want 1", dst.ActiveIndex())
	}
	dst.Active().Discharge(1e9)
	if b.Active().UsableEnergy() <= 0 {
		t.Fatal("CopyInto shares capacitor state")
	}
	if allocs := testing.AllocsPerRun(10, func() { b.CopyInto(dst) }); allocs != 0 {
		t.Fatalf("CopyInto into a destination of the right size allocates %.0f times", allocs)
	}
	if small := MustNewBank([]float64{1}, DefaultParams()); b.CopyInto(small) == small {
		t.Fatal("CopyInto kept a destination of the wrong size")
	}
}
