package sim_test

import (
	"math"
	"testing"

	"solarsched/internal/rng"
	"solarsched/internal/sim"
	"solarsched/internal/supercap"
)

// eagerDeliverable is Deliverable as the full product, with the regulator
// curves evaluated even for an empty store.
func eagerDeliverable(c *supercap.Capacitor) float64 {
	return c.UsableEnergy() * c.P.EtaDis(c.V) * c.P.EtaCycle(c.C)
}

// eagerCarried is the brown-out trim that always consults the store.
func eagerCarried(c *supercap.Capacitor, loads []float64, directCap, dt float64) int {
	m := len(loads) - 1
	if m == 0 {
		return 0
	}
	deliverable := eagerDeliverable(c) + 1e-12
	for ; m > 0; m-- {
		if (loads[m]-directCap)*dt <= deliverable {
			break
		}
	}
	return m
}

func TestLazyTrimMatchesEager(t *testing.T) {
	r := rng.New(20150610)
	p := supercap.DefaultParams()
	var exactTop, noDirect, empty, surplus, trimmed, storeCarried int
	for k := 0; k < 20000; k++ {
		c := supercap.New([]float64{0.5, 2, 10, 50}[r.Intn(4)], p)
		switch r.Intn(5) {
		case 0:
			c.V = p.VLow
		case 1:
			c.V = r.Range(0, p.VLow)
		case 2:
			c.V = p.VHigh
		default:
			c.V = r.Range(p.VLow, p.VHigh)
		}
		// Half the states sit within a hair of V_L, where the store holds
		// a few joules at most and trims are common.
		if r.Bool(0.5) && c.V > p.VLow {
			c.V = p.VLow + (c.V-p.VLow)*1e-3
		}
		n := r.IntRange(0, 6)
		loads := []float64{0}
		for i := 0; i < n; i++ {
			loads = append(loads, loads[i]+r.Range(0.005, 0.06))
		}
		var directCap float64
		switch r.Intn(4) {
		case 0:
			directCap = 0
		case 1:
			directCap = loads[n] // the top load exactly
		default:
			directCap = r.Range(0, 0.3)
		}
		dt := []float64{30, 60}[r.Intn(2)]

		if got, want := c.Deliverable(), eagerDeliverable(c); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("state %d (C %g, V %v): Deliverable %v, eager %v", k, c.C, c.V, got, want)
		}
		got, want := sim.Carried(c, loads, directCap, dt), eagerCarried(c, loads, directCap, dt)
		if got != want {
			t.Fatalf("state %d (C %g, V %v, loads %v, direct %v, dt %g): carried %d, eager %d",
				k, c.C, c.V, loads, directCap, dt, got, want)
		}
		if n == 0 {
			continue
		}
		switch {
		case directCap == loads[n]:
			exactTop++
		case directCap == 0:
			noDirect++
		}
		if c.V <= p.VLow {
			empty++
		}
		switch {
		case (loads[n]-directCap)*dt <= 0:
			surplus++
		case want < n:
			trimmed++
		default:
			storeCarried++
		}
	}
	t.Logf("top load = direct %d, no direct %d, empty store %d; surplus %d, trimmed %d, carried by the store %d",
		exactTop, noDirect, empty, surplus, trimmed, storeCarried)
	for _, c := range []int{exactTop, noDirect, empty, surplus, trimmed, storeCarried} {
		if c < 100 {
			t.Fatalf("weak coverage: every class needs 100 states")
		}
	}
}
