package nvp

import "fmt"

// State is the serializable mid-period execution state of a Set: remaining
// execution times S'_n and fired deadline-miss flags. This mirrors exactly
// what a nonvolatile processor preserves across a power failure — progress
// and miss bookkeeping — while graph structure is static configuration.
type State struct {
	Remaining []float64 `json:"remaining"`
	Missed    []bool    `json:"missed"`
}

// State captures the set's execution state.
func (s *Set) State() State {
	return State{
		Remaining: append([]float64(nil), s.remaining...),
		Missed:    append([]bool(nil), s.missed...),
	}
}

// Restore overwrites the execution state with a previously captured one.
// The task count must match the set's graph.
func (s *Set) Restore(st State) error {
	if len(st.Remaining) != s.G.N() || len(st.Missed) != s.G.N() {
		return fmt.Errorf("nvp: restore with %d/%d tasks into graph of %d",
			len(st.Remaining), len(st.Missed), s.G.N())
	}
	copy(s.remaining, st.Remaining)
	copy(s.missed, st.Missed)
	s.trackAll()
	return nil
}
