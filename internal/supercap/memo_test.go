package supercap

import (
	"math"
	"testing"

	"solarsched/internal/rng"
)

// refCap is the capacitor of equation (1) with no curve memo: every
// efficiency comes straight from the public Params methods.
type refCap struct {
	C, V float64
	P    Params
}

func (s *refCap) usable() float64 {
	if s.V <= s.P.VLow {
		return 0
	}
	return 0.5 * s.C * (s.V*s.V - s.P.VLow*s.P.VLow)
}

func (s *refCap) energy() float64 { return 0.5 * s.C * s.V * s.V }

func (s *refCap) setEnergy(e float64) {
	if e < 0 {
		e = 0
	}
	if max := 0.5 * s.C * s.P.VHigh * s.P.VHigh; e > max {
		e = max
	}
	s.V = math.Sqrt(2 * e / s.C)
}

func (s *refCap) charge(e float64) float64 {
	if e <= 0 || s.V >= s.P.VHigh {
		return 0
	}
	eta := s.P.EtaChr(s.V) * s.P.EtaCycle(s.C)
	stored := e * eta
	if room := 0.5*s.C*s.P.VHigh*s.P.VHigh - s.energy(); stored > room {
		stored = room
	}
	s.setEnergy(s.energy() + stored)
	return stored
}

func (s *refCap) discharge(e float64) float64 {
	if e <= 0 || s.V <= s.P.VLow {
		return 0
	}
	eta := s.P.EtaDis(s.V) * s.P.EtaCycle(s.C)
	if d := s.usable() * eta; e > d {
		e = d
	}
	s.setEnergy(s.energy() - e/eta)
	return e
}

func (s *refCap) deliverable() float64 {
	return s.usable() * s.P.EtaDis(s.V) * s.P.EtaCycle(s.C)
}

func (s *refCap) leak(dt float64) { s.setEnergy(s.energy() - s.P.LeakPower(s.V, s.C)*dt) }

// migrate is Bank.MigrateTo from `from` into `to`, including the reported
// loss.
func migrate(from, to *refCap) float64 {
	moved := from.discharge(from.deliverable())
	stored := to.charge(moved)
	loss := 0.0
	if eta := from.P.EtaDis(from.V) * from.P.EtaCycle(from.C); eta > 0 && moved > 0 {
		loss = moved * (1/eta - 1)
	}
	return moved - stored + loss
}

// The curve memo is invisible: over a seeded mix of charges, discharges,
// trim checks and leakage — with V, C and every curve parameter written
// between calls, aging, clones and bank migrations — each capacitor of a
// bank answers bit for bit as the memo-free reference does.
func TestCurveMemoMatchesReference(t *testing.T) {
	src := rng.New(2015)
	same := func(step int, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: %s = %v, reference %v", step, what, got, want)
		}
	}
	p := DefaultParams()
	bank := MustNewBank([]float64{2, 10, 50}, p)
	refs := []*refCap{{C: 2, V: p.VLow, P: p}, {C: 10, V: p.VLow, P: p}, {C: 50, V: p.VLow, P: p}}
	for step := 0; step < 20000; step++ {
		i := bank.ActiveIndex()
		c, r := bank.Caps[i], refs[i]
		switch op := src.Intn(14); op {
		case 0, 1:
			e := src.Range(0, 30)
			same(step, "Charge", c.Charge(e), r.charge(e))
		case 2, 3:
			e := src.Range(0, 10)
			same(step, "Discharge", c.Discharge(e), r.discharge(e))
		case 4, 5:
			// The trim's check, then the settle at the same voltage.
			same(step, "Deliverable", c.Deliverable(), r.deliverable())
			e := src.Range(0, 2) * r.deliverable()
			same(step, "Discharge after Deliverable", c.Discharge(e), r.discharge(e))
		case 6:
			dt := src.Range(0, 3600)
			c.Leak(dt)
			r.leak(dt)
		case 7:
			v := src.Range(0, 1.1*r.P.VHigh)
			c.V, r.V = v, v
		case 8:
			cf := src.Range(0.5, 80)
			c.C, r.C = cf, cf
		case 9:
			// One curve parameter at a time, between two evaluations at
			// the same V and C, so a memo keyed on too few of them
			// answers with a stale value.
			same(step, "Deliverable before a parameter write", c.Deliverable(), r.deliverable())
			x := src.Range(0.5, 1.5)
			switch src.Intn(7) {
			case 0:
				c.P.DisMax *= x
			case 1:
				c.P.DisDrop *= x
			case 2:
				c.P.DisRate *= x
			case 3:
				c.P.VLow *= x
			case 4:
				c.P.CycleBase *= x
			case 5:
				c.P.CycleLog *= x
			case 6:
				c.P.ChrRate *= x
			}
			r.P = c.P
			same(step, "Deliverable after a parameter write", c.Deliverable(), r.deliverable())
		case 10:
			a := Aging{CapFade: src.Range(0, 0.05), LeakGrowth: src.Range(0, 0.1), EffFade: src.Range(0, 0.05)}
			c.Age(a)
			rc := Capacitor{C: r.C, V: r.V, P: r.P}
			rc.Age(a)
			r.C, r.V, r.P = rc.C, rc.V, rc.P
		case 11:
			// Continue on a clone: it carries the memo along.
			bank.Caps[i] = c.Clone()
		case 12, 13:
			to := src.Intn(len(bank.Caps))
			if to == i {
				continue
			}
			lost := bank.MigrateTo(to)
			same(step, "MigrateTo", lost, migrate(r, refs[to]))
		}
		for k, c := range bank.Caps {
			same(step, "V", c.V, refs[k].V)
			same(step, "C", c.C, refs[k].C)
		}
	}
}
