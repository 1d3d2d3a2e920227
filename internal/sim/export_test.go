package sim

import "solarsched/internal/nvp"

// Carried exposes the brown-out trim to the external tests.
var Carried = carried

// RunPeriodReference exposes the plain one-capacitor period loop that
// PeriodSim.RunLanes must reproduce.
var RunPeriodReference = runPeriodReference

// SetRanHook installs f as the slot step's hook on every executed slot's
// runnable list (after the trim, before the run) and returns a function
// that removes it. Tests that install a hook must not run in parallel.
func SetRanHook(f func(ts *nvp.Set, ran []int)) (remove func()) {
	ranHook = f
	return func() { ranHook = nil }
}
