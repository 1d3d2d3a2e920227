package supercap

import "fmt"

// Bank is the set of H distributed super capacitors on the node. Exactly
// one capacitor is active — connected to the store-and-use channel — at any
// time; the power management unit switches among them on scheduling
// decisions. Inactive capacitors hold their charge but keep leaking.
type Bank struct {
	Caps   []*Capacitor
	active int
}

// NewBank builds a bank with the given capacitances (farads), all starting
// at the cut-off voltage, with capacitor 0 active. It returns an error —
// not a panic — on degenerate input: a fault-injecting simulator must
// survive bad configs, not crash on them.
func NewBank(capacitances []float64, p Params) (*Bank, error) {
	if len(capacitances) == 0 {
		return nil, fmt.Errorf("supercap: empty bank")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := &Bank{Caps: make([]*Capacitor, len(capacitances))}
	for i, c := range capacitances {
		if c <= 0 || c != c {
			return nil, fmt.Errorf("supercap: non-positive capacitance %g at index %d", c, i)
		}
		b.Caps[i] = New(c, p)
	}
	return b, nil
}

// MustNewBank is NewBank for call sites whose input is already validated;
// it panics on the errors NewBank would return.
func MustNewBank(capacitances []float64, p Params) *Bank {
	b, err := NewBank(capacitances, p)
	if err != nil {
		panic(err)
	}
	return b
}

// Size returns the number of capacitors H.
func (b *Bank) Size() int { return len(b.Caps) }

// Active returns the currently connected capacitor.
func (b *Bank) Active() *Capacitor { return b.Caps[b.active] }

// ActiveIndex returns the index of the currently connected capacitor.
func (b *Bank) ActiveIndex() int { return b.active }

// SwitchTo connects capacitor i to the channel. The previously active
// capacitor keeps its charge (and its leakage).
func (b *Bank) SwitchTo(i int) {
	if i < 0 || i >= len(b.Caps) {
		panic(fmt.Sprintf("supercap: SwitchTo(%d) out of range [0,%d)", i, len(b.Caps)))
	}
	b.active = i
}

// MigrateTo switches the active capacitor to i, first moving the old
// capacitor's usable energy into the new one through both regulators
// (discharge path of the old, charge path of the new). It returns the
// energy lost in the transfer. Migrating to the already-active capacitor is
// a no-op.
func (b *Bank) MigrateTo(i int) (lost float64) {
	if i == b.active {
		return 0
	}
	from := b.Active()
	b.SwitchTo(i)
	to := b.Active()
	moved := from.Discharge(from.Deliverable())
	stored := to.Charge(moved)
	return moved - stored + (fromLoss(from, moved))
}

// fromLoss computes the store-side loss of extracting `delivered` joules:
// the drain exceeded the delivery by the inverse efficiency. The capacitor
// has already been mutated, so this is reconstructed from the delivered
// amount and the (post-discharge) efficiency estimate; it is a reporting
// aid, not part of the energy bookkeeping.
func fromLoss(c *Capacitor, delivered float64) float64 {
	eta := c.etaDis() * c.etaCycle()
	if eta <= 0 || delivered <= 0 {
		return 0
	}
	return delivered * (1/eta - 1)
}

// AgeAll applies one day of wear to every capacitor (see Capacitor.Age).
func (b *Bank) AgeAll(a Aging) {
	for _, c := range b.Caps {
		c.Age(a)
	}
}

// LeakAll applies self-discharge to every capacitor over dt seconds.
func (b *Bank) LeakAll(dt float64) {
	for _, c := range b.Caps {
		c.Leak(dt)
	}
}

// TotalUsable returns the summed usable energy of all capacitors (J).
func (b *Bank) TotalUsable() float64 {
	sum := 0.0
	for _, c := range b.Caps {
		sum += c.UsableEnergy()
	}
	return sum
}

// Voltages returns the voltage of every capacitor, the paper's ANN input
// V^sc_{i,j,1}(C_h), h ∈ [1, H].
func (b *Bank) Voltages() []float64 {
	vs := make([]float64, len(b.Caps))
	for i, c := range b.Caps {
		vs[i] = c.V
	}
	return vs
}

// Clone returns a deep copy of the bank (for planners).
func (b *Bank) Clone() *Bank { return b.CopyInto(nil) }

// CopyInto makes dst a deep copy of the bank — the active index and every
// capacitor's fields, curve memo included — and returns it. It allocates
// only when dst is nil or holds a different number of capacitors; a
// destination of the right size is overwritten in place, so a caller that
// refreshes the same copy every slot allocates nothing.
func (b *Bank) CopyInto(dst *Bank) *Bank {
	if dst == nil || len(dst.Caps) != len(b.Caps) {
		dst = &Bank{Caps: make([]*Capacitor, len(b.Caps))}
		for i := range dst.Caps {
			dst.Caps[i] = new(Capacitor)
		}
	}
	dst.active = b.active
	for i, c := range b.Caps {
		*dst.Caps[i] = *c
	}
	return dst
}
