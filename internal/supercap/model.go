// Package supercap models the distributed super capacitors of the
// "store and use" channel: the voltage-dependent input/output regulator
// efficiencies of the paper's Figure 5, the capacitance-dependent cycle
// efficiency and leakage of [12], the slot-level voltage update of
// equations (1)–(3) and (11), a capacitor bank with energy migration, a
// migration-efficiency probe (Table 2), and a high-fidelity reference
// simulator that stands in for the paper's hardware measurements.
package supercap

import (
	"fmt"
	"math"
)

// Params holds the data-fit constants of the storage channel. The defaults
// were calibrated so that the migration-efficiency table reproduces the
// shape of the paper's Table 2: a small capacitor wins for small, short
// migrations (high voltage → efficient regulators); a mid-size capacitor
// wins for large, long migrations (capacity limit of small caps, leakage of
// large ones); and the spread across capacitances is ≈30 %.
type Params struct {
	// VHigh and VLow are the full-charge and cut-off voltages shared by all
	// capacitors (paper's V_H, V_L).
	VHigh, VLow float64

	// Input regulator efficiency fit η_chr(V) = ChrMax − ChrDrop·exp(−ChrRate·(V−VLow)).
	ChrMax, ChrDrop, ChrRate float64
	// Output regulator efficiency fit η_dis(V) = DisMax − DisDrop·exp(−DisRate·(V−VLow)).
	DisMax, DisDrop, DisRate float64

	// Cycle efficiency fit η_cycle(C) = CycleBase − CycleLog·ln(1+C).
	CycleBase, CycleLog float64

	// Leakage current fit I_leak(V, C) = LeakConst + C·(LeakLin·V + LeakCubic·V³);
	// leakage power is I_leak·V. The cubic term models the superlinear
	// self-discharge of super capacitors near rated voltage.
	LeakConst, LeakLin, LeakCubic float64
}

// DefaultParams returns the calibrated storage-channel constants.
func DefaultParams() Params {
	return Params{
		VHigh: 3.0, VLow: 1.0,
		ChrMax: 0.845, ChrDrop: 0.295, ChrRate: 1.05,
		DisMax: 0.865, DisDrop: 0.305, DisRate: 1.10,
		CycleBase: 0.99, CycleLog: 0.010,
		LeakConst: 1e-6, LeakLin: 0.5e-6, LeakCubic: 0.40e-6,
	}
}

// Validate reports whether the parameters are physically sensible.
func (p Params) Validate() error {
	if p.VHigh <= p.VLow || p.VLow <= 0 {
		return fmt.Errorf("supercap: need 0 < VLow < VHigh, got VLow=%g VHigh=%g", p.VLow, p.VHigh)
	}
	if p.ChrMax <= 0 || p.ChrMax > 1 || p.DisMax <= 0 || p.DisMax > 1 {
		return fmt.Errorf("supercap: regulator peak efficiencies must be in (0,1]")
	}
	if p.CycleBase <= 0 || p.CycleBase > 1 {
		return fmt.Errorf("supercap: cycle efficiency base must be in (0,1]")
	}
	return nil
}

// EtaChr is the input-regulator efficiency at capacitor voltage v (Fig. 5,
// rising with voltage: boosting into a nearly-empty capacitor is expensive).
func (p Params) EtaChr(v float64) float64 { return p.etaChr(v) }

// EtaDis is the output-regulator efficiency at capacitor voltage v (Fig. 5).
func (p Params) EtaDis(v float64) float64 { return p.etaDis(v) }

// EtaCycle is the average storage-cycle efficiency of a capacitor of c
// farads ([12]; larger capacitors have slightly higher equivalent series
// loss per stored joule).
func (p Params) EtaCycle(c float64) float64 { return p.etaCycle(c) }

// LeakPower is the self-discharge power (W) of a capacitor of c farads at
// voltage v.
func (p Params) LeakPower(v, c float64) float64 { return p.leakPower(v, c) }

// The curves proper read Params through a pointer: the capacitor's slot
// arithmetic calls them several times per slot, and a value receiver
// would copy the whole parameter set on every call.

func (p *Params) etaChr(v float64) float64 {
	return clamp01(p.ChrMax - p.ChrDrop*math.Exp(-p.ChrRate*(v-p.VLow)))
}

func (p *Params) etaDis(v float64) float64 {
	return clamp01(p.DisMax - p.DisDrop*math.Exp(-p.DisRate*(v-p.VLow)))
}

func (p *Params) etaCycle(c float64) float64 {
	return clamp01(p.CycleBase - p.CycleLog*math.Log(1+c))
}

func (p *Params) leakPower(v, c float64) float64 {
	if v <= 0 {
		return 0
	}
	i := p.LeakConst + c*(p.LeakLin*v+p.LeakCubic*v*v*v)
	return i * v
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Capacitor is the coarse (slot-level) super-capacitor model, implementing
// the paper's equation (1): energy bookkeeping at slot granularity with the
// regulator efficiencies evaluated at the slot-begin voltage.
type Capacitor struct {
	C float64 // capacitance in farads
	V float64 // current voltage
	P Params

	memo curveMemo
}

// curveMemo holds the last value of the two regulator curves a slot
// evaluates more than once: η_cycle(C) on every charge, discharge and trim
// check, and η_dis(V), which a deficit slot's trim (Deliverable) and
// settle (Discharge) evaluate at the same voltage. Each value is keyed on
// exactly the inputs its curve reads, compared bit for bit, so it is
// recomputed whenever any of them changed — however the change was made:
// V, C and P are public, and aging, the bank and callers all write them.
// A memo hit returns the value the curve would compute. The memo is not
// part of the capacitor's state (State, JSON) and is never invalidated.
type curveMemo struct {
	cycleOK                     bool
	cycleC, cycleBase, cycleLog float64
	cycle                       float64

	disOK                                   bool
	disV, disMax, disDrop, disRate, disVLow float64
	dis                                     float64
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// etaCycle is P.EtaCycle(C) through the memo.
func (s *Capacitor) etaCycle() float64 {
	m, p := &s.memo, &s.P
	if !m.cycleOK || !sameBits(m.cycleC, s.C) || !sameBits(m.cycleBase, p.CycleBase) || !sameBits(m.cycleLog, p.CycleLog) {
		m.cycle = p.etaCycle(s.C)
		m.cycleC, m.cycleBase, m.cycleLog = s.C, p.CycleBase, p.CycleLog
		m.cycleOK = true
	}
	return m.cycle
}

// etaDis is P.EtaDis(V) through the memo.
func (s *Capacitor) etaDis() float64 {
	m, p := &s.memo, &s.P
	if !m.disOK || !sameBits(m.disV, s.V) || !sameBits(m.disMax, p.DisMax) || !sameBits(m.disDrop, p.DisDrop) ||
		!sameBits(m.disRate, p.DisRate) || !sameBits(m.disVLow, p.VLow) {
		m.dis = p.etaDis(s.V)
		m.disV, m.disMax, m.disDrop, m.disRate, m.disVLow = s.V, p.DisMax, p.DisDrop, p.DisRate, p.VLow
		m.disOK = true
	}
	return m.dis
}

// New returns a capacitor of c farads at the cut-off voltage (empty of
// usable energy).
func New(c float64, p Params) *Capacitor {
	if c <= 0 {
		panic(fmt.Sprintf("supercap: non-positive capacitance %g", c))
	}
	return &Capacitor{C: c, V: p.VLow, P: p}
}

// Energy returns the total stored energy ½CV² (J).
func (s *Capacitor) Energy() float64 { return 0.5 * s.C * s.V * s.V }

// UsableEnergy returns the extractable energy ½C(V²−V_L²) (J), zero when at
// or below cut-off. This is the left side of the paper's constraint (14).
func (s *Capacitor) UsableEnergy() float64 {
	if s.V <= s.P.VLow {
		return 0
	}
	return 0.5 * s.C * (s.V*s.V - s.P.VLow*s.P.VLow)
}

// CapacityEnergy returns the maximum usable energy ½C(V_H²−V_L²) (J).
func (s *Capacitor) CapacityEnergy() float64 {
	return 0.5 * s.C * (s.P.VHigh*s.P.VHigh - s.P.VLow*s.P.VLow)
}

// setEnergy assigns the stored energy, clamping to the physical range.
func (s *Capacitor) setEnergy(e float64) {
	if e < 0 {
		e = 0
	}
	max := 0.5 * s.C * s.P.VHigh * s.P.VHigh
	if e > max {
		e = max
	}
	s.V = math.Sqrt(2 * e / s.C)
}

// Charge offers e joules of harvested surplus at the regulator input and
// returns the amount actually stored (after η_chr·η_cycle) — the paper's
// ΔE·η(V) term of equation (1) for ΔE > 0. Energy beyond V_H is spilled.
func (s *Capacitor) Charge(e float64) (stored float64) {
	if e <= 0 || s.V >= s.P.VHigh {
		return 0
	}
	eta := s.P.etaChr(s.V) * s.etaCycle()
	stored = e * eta
	room := 0.5*s.C*s.P.VHigh*s.P.VHigh - s.Energy()
	if stored > room {
		stored = room
	}
	s.setEnergy(s.Energy() + stored)
	return stored
}

// Discharge requests e joules at the regulator output and returns the
// amount actually delivered (≤ e). Delivering x joules drains
// x/(η_dis·η_cycle) from the store — the 1/η term of equation (3) — and the
// store cannot go below the cut-off voltage.
func (s *Capacitor) Discharge(e float64) (delivered float64) {
	if e <= 0 || s.V <= s.P.VLow {
		return 0
	}
	eta := s.etaDis() * s.etaCycle()
	deliverable := s.UsableEnergy() * eta
	if e > deliverable {
		e = deliverable
	}
	s.setEnergy(s.Energy() - e/eta)
	return e
}

// Deliverable returns the output energy (J) the capacitor could deliver
// right now, i.e. usable energy through the output path at the current
// voltage. This is what schedulers consult before committing load. An
// empty store (at or below V_L) delivers +0 without evaluating the
// regulator curves: for a finite state they are finite, and 0·η·η is +0.
func (s *Capacitor) Deliverable() float64 {
	u := s.UsableEnergy()
	if u == 0 {
		return 0
	}
	return u * s.etaDis() * s.etaCycle()
}

// Leak applies self-discharge over dt seconds (the P_leak·Δt term of
// equation (1)). Leakage continues below the cut-off voltage.
func (s *Capacitor) Leak(dt float64) {
	s.setEnergy(s.Energy() - s.P.leakPower(s.V, s.C)*dt)
}

// Clone returns a copy of the capacitor state (used by planners that
// simulate candidate futures).
func (s *Capacitor) Clone() *Capacitor {
	c := *s
	return &c
}

// Aging describes one day of super-capacitor wear, all as fractional
// drifts per day: capacitance fade (electrode degradation), leakage-current
// growth, and peak regulator-efficiency fade (charge/discharge drift).
type Aging struct {
	CapFade    float64 // fraction of capacitance lost per day, in [0, 1)
	LeakGrowth float64 // fractional leakage-current growth per day, ≥ 0
	EffFade    float64 // fractional charge/discharge peak-efficiency fade per day, in [0, 1)
}

// agedEffFloor keeps an aged regulator from decaying to uselessness: no
// matter how long the drift runs, conversion never drops below this peak
// efficiency (a broken-but-bounded regulator, not a dead one).
const agedEffFloor = 0.30

// Age applies one day of wear to the capacitor. The voltage is held and
// the capacitance reduced, so stored energy ½CV² shrinks with the fade —
// the charge lost to the degraded electrode is gone, not redistributed.
// Leakage currents grow and the regulator peak efficiencies decay toward a
// floor; all drifts are deterministic (aging is drift, not noise).
func (s *Capacitor) Age(a Aging) {
	if a.CapFade > 0 && a.CapFade < 1 {
		s.C *= 1 - a.CapFade
	}
	if a.LeakGrowth > 0 {
		g := 1 + a.LeakGrowth
		s.P.LeakConst *= g
		s.P.LeakLin *= g
		s.P.LeakCubic *= g
	}
	if a.EffFade > 0 && a.EffFade < 1 {
		f := 1 - a.EffFade
		if v := s.P.ChrMax * f; v >= agedEffFloor {
			s.P.ChrMax = v
		} else {
			s.P.ChrMax = agedEffFloor
		}
		if v := s.P.DisMax * f; v >= agedEffFloor {
			s.P.DisMax = v
		} else {
			s.P.DisMax = agedEffFloor
		}
	}
}
