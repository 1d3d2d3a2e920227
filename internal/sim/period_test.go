package sim_test

import (
	"math"
	"slices"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/rng"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func samePeriodOutcome(a, b sim.PeriodOutcome) bool {
	if a.Missed != b.Missed || a.CapConsumed != b.CapConsumed || a.FinalV != b.FinalV ||
		a.Delivered != b.Delivered || a.Harvested != b.Harvested || len(a.Executed) != len(b.Executed) {
		return false
	}
	for n := range a.Executed {
		if a.Executed[n] != b.Executed[n] {
			return false
		}
	}
	return true
}

// trimSignature is how many tasks ran in each slot of a reference run on
// a capacitor of c farads at v volts: two start voltages with different
// signatures lie on the two sides of a brown-out trim boundary.
func trimSignature(c, v float64, powers []float64, g *task.Graph,
	allowed []bool, policy sim.SlotPolicy, dt float64) []int {
	var sig []int
	remove := sim.SetRanHook(func(_ *nvp.Set, ran []int) { sig = append(sig, len(ran)) })
	defer remove()
	sim.RunPeriodReference(&supercap.Capacitor{C: c, V: v, P: supercap.DefaultParams()},
		powers, g, allowed, policy, dt, 0.95)
	return sig
}

// trimBoundaries scans start voltages of a c-farad capacitor and returns,
// for up to max trim boundaries it crosses, the two adjacent floats on
// either side of the boundary.
func trimBoundaries(t *testing.T, c float64, max int, powers []float64, g *task.Graph,
	allowed []bool, policy sim.SlotPolicy, dt float64) []float64 {
	p := supercap.DefaultParams()
	sig := func(v float64) []int { return trimSignature(c, v, powers, g, allowed, policy, dt) }
	var out []float64
	const steps = 40
	prev, prevSig := p.VLow, sig(p.VLow)
	for i := 1; i <= steps && len(out) < 2*max; i++ {
		v := p.VLow + (p.VHigh-p.VLow)*float64(i)/steps
		s := sig(v)
		if !slices.Equal(s, prevSig) {
			lo, hi, loSig := prev, v, prevSig
			for {
				mid := lo + (hi-lo)/2
				if mid <= lo || mid >= hi {
					break
				}
				if ms := sig(mid); slices.Equal(ms, loSig) {
					lo = mid
				} else {
					hi = mid
				}
			}
			if math.Nextafter(lo, hi) != hi {
				t.Fatalf("C=%g: bisection stopped at %v and %v, not adjacent floats", c, lo, hi)
			}
			out = append(out, lo, hi)
		}
		prev, prevSig = v, s
	}
	return out
}

// bucketCentre is the start voltage of the LUT's voltage bucket b of B on
// a c-farad capacitor (core.LUT.BucketV's square-root spacing).
func bucketCentre(c float64, b, B int) float64 {
	p := supercap.DefaultParams()
	capacity := 0.5 * c * (p.VHigh*p.VHigh - p.VLow*p.VLow)
	r := (float64(b) + 0.5) / float64(B)
	return math.Sqrt(p.VLow*p.VLow + 2*r*r*capacity/c)
}

// Every lane of a lane run must equal the plain one-capacitor loop on its
// capacitor bit for bit, however its trims split the lanes into
// branches: the lanes mix 2, 10 and 50 F capacitors at V_L, V_H, the
// LUT's bucket centres and both sides of trim boundaries, under seeded
// slot powers, both fine-grained stages, with and without an allowed
// mask, and at two slot lengths. One simulator serves every run of a
// graph, so its pooled branches and deadline marks are reused across runs
// of different lane counts and slot lengths.
func TestRunLanesMatchReference(t *testing.T) {
	p := supercap.DefaultParams()
	r := rng.New(2203)
	for _, g := range []*task.Graph{task.WAM(), task.ECG(), task.SHM(), task.RandomCase(1)} {
		total := 0.0
		for _, tk := range g.Tasks {
			total += tk.Power
		}
		// Dark slots and partial supply: the store carries part of the
		// load, so trims depend on the start voltage.
		powers := make([]float64, 30)
		for i := range powers {
			if r.Float64() < 0.6 {
				powers[i] = r.Range(0, 0.8*total)
			}
		}
		half := make([]bool, g.N())
		for n := range half {
			half[n] = n%3 != 1
		}
		ps := sim.NewPeriodSim(g)
		forks := 0
		for _, c := range []struct {
			name   string
			policy sim.SlotPolicy
			dt     float64
		}{
			{"cheapest", sched.CheapestFirstPolicy(g), 60},
			{"intra", sched.NewIntraMatch(g).Policy(), 60},
			{"cheapest/45s", sched.CheapestFirstPolicy(g), 45},
		} {
			policy, dt := c.policy, c.dt
			for _, allowed := range [][]bool{nil, half} {
				var caps []supercap.Capacitor
				for _, capC := range []float64{2, 10, 50} {
					vs := []float64{p.VLow, p.VHigh}
					for b := 0; b < 28; b++ {
						vs = append(vs, bucketCentre(capC, b, 28))
					}
					vs = append(vs, trimBoundaries(t, capC, 3, powers, g, allowed, policy, dt)...)
					for _, v := range vs {
						caps = append(caps, supercap.Capacitor{C: capC, V: v, P: p})
					}
				}
				r.Shuffle(len(caps), func(i, j int) { caps[i], caps[j] = caps[j], caps[i] })
				start := slices.Clone(caps)

				outs := ps.RunLanes(caps, powers, allowed, policy, dt, 0.95)
				if len(outs) != len(caps) {
					t.Fatalf("%s/%s: %d outcomes for %d lanes", g.Name, c.name, len(outs), len(caps))
				}
				t.Logf("%s/%s allowed=%v: %d lanes, %d branches", g.Name, c.name, allowed != nil, len(caps), ps.Branches())
				if ps.Branches() > 1 {
					forks++
				}
				for i := range caps {
					ref := start[i]
					want := sim.RunPeriodReference(&ref, powers, g, allowed, policy, dt, 0.95)
					if !samePeriodOutcome(outs[i], want) {
						t.Fatalf("%s/%s allowed=%v lane %d (C=%g V=%v): lane %+v, reference %+v",
							g.Name, c.name, allowed != nil, i, start[i].C, start[i].V, outs[i], want)
					}
					if math.Float64bits(caps[i].V) != math.Float64bits(ref.V) {
						t.Fatalf("%s/%s lane %d: capacitor ends at %v V, reference at %v V",
							g.Name, c.name, i, caps[i].V, ref.V)
					}
				}

				// One lane alone is Run, and answers the same.
				one := start[len(start)/2]
				got := ps.Run(&one, powers, allowed, policy, dt, 0.95)
				ref := start[len(start)/2]
				if want := sim.RunPeriodReference(&ref, powers, g, allowed, policy, dt, 0.95); !samePeriodOutcome(got, want) || one.V != ref.V {
					t.Fatalf("%s/%s: Run %+v, reference %+v", g.Name, c.name, got, want)
				}
			}
		}
		if forks == 0 {
			t.Errorf("%s: no lane run forked a branch; the start voltages do not exercise the fork", g.Name)
		}
	}
}

// An empty lane run answers nothing and leaves the simulator usable.
func TestRunLanesEmpty(t *testing.T) {
	g := task.ECG()
	ps := sim.NewPeriodSim(g)
	policy := sched.CheapestFirstPolicy(g)
	if outs := ps.RunLanes(nil, make([]float64, 30), nil, policy, 60, 0.95); len(outs) != 0 || ps.Branches() != 0 {
		t.Fatalf("empty run: %d outcomes, %d branches", len(outs), ps.Branches())
	}
	a := supercap.Capacitor{C: 10, V: 2, P: supercap.DefaultParams()}
	b := a
	got := ps.Run(&a, make([]float64, 30), nil, policy, 60, 0.95)
	if want := sim.RunPeriodReference(&b, make([]float64, 30), g, nil, policy, 60, 0.95); !samePeriodOutcome(got, want) {
		t.Fatalf("after an empty run: %+v, reference %+v", got, want)
	}
}

// Planner-local simulations hide the store from the policy: a lane run
// shares one task trajectory among capacitors, which is exact only while
// the policy cannot read any of them.
func TestPlannerLocalPolicySeesNoStore(t *testing.T) {
	g := task.SHM()
	cap := supercap.New(10, supercap.DefaultParams())
	cap.Charge(5)
	slots := 0
	policy := func(v *sim.SlotView) []int {
		if v.Cap != nil || v.Bank != nil {
			t.Fatalf("slot %d: planner-local policy sees Cap=%v Bank=%v", v.Slot, v.Cap, v.Bank)
		}
		slots++
		return edfOrder(g)
	}
	sim.RunPeriodOnCap(cap, make([]float64, 30), g, nil, policy, 60, 0.95)
	if slots != 30 {
		t.Fatalf("policy called %d times, want 30", slots)
	}
}
