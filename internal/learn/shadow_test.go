package learn

import (
	"testing"
	"time"

	"solarsched/internal/core"
	"solarsched/internal/obs"
)

// waitShadow polls until the shadow worker has scored n decisions for key.
func waitShadow(t *testing.T, s *Shadow, key string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Compared(key) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("shadow scored %d decisions for %s, want %d", s.Compared(key), key, n)
}

func TestShadowDivergence(t *testing.T) {
	pc, base := testPlanNet(t)
	reg := obs.NewRegistry()
	s := NewShadow(16, reg)
	defer s.Stop()

	req := core.DecideRequest{
		Voltages:    []float64{3.0, 1.2},
		PeriodOfDay: 0,
		ActiveCap:   0,
	}
	served, err := core.Decide(pc, base, req)
	if err != nil {
		t.Fatal(err)
	}

	const key = "k"
	// No candidate installed: Observe is a no-op.
	s.Observe(key, "t0", req, served)
	if s.Compared(key) != 0 {
		t.Fatal("scored a decision with no candidate installed")
	}

	// Candidate = the serving network itself: zero divergence.
	s.SetCandidate(key, pc, base, 1)
	for i := 0; i < 5; i++ {
		s.Observe(key, "t0", req, served)
	}
	waitShadow(t, s, key, 5)
	if d := s.Diverged(key); d != 0 {
		t.Fatalf("identical candidate diverged %d times", d)
	}

	// A claimed-served decision the candidate disagrees with must count as
	// divergence (flip the capacitor choice).
	flipped := served
	flipped.Cap = 1 - served.Cap
	s.SetCandidate(key, pc, base, 2) // counters restart
	s.Observe(key, "t1", req, flipped)
	waitShadow(t, s, key, 1)
	if d := s.Diverged(key); d != 1 {
		t.Fatalf("diverged = %d, want 1", d)
	}
	if v := reg.Counter("learn_shadow_divergence_total", obs.L("tenant", "t1")).Value(); v != 1 {
		t.Fatalf("per-tenant divergence counter = %v, want 1", v)
	}

	// ClearCandidate turns Observe back into a no-op.
	s.ClearCandidate(key)
	s.Observe(key, "t0", req, served)
	if s.Compared(key) != 0 {
		t.Fatal("cleared candidate still scoring")
	}
}

// BenchmarkShadowObserve is what shadow scoring adds to a served decide:
// core.Decide followed by Observe with a candidate installed. Observe
// only enqueues; the candidate's own forward pass runs on the shadow
// worker, so it shows here as contention, not as per-op time.
func BenchmarkShadowObserve(b *testing.B) {
	pc, net := testPlanNet(b)
	s := NewShadow(1024, nil)
	defer s.Stop()
	const key = "bench"
	s.SetCandidate(key, pc, net, 1)
	req := core.DecideRequest{
		Voltages:       []float64{2.25, 2.25},
		AccumulatedDMR: 0.02,
		PeriodOfDay:    pc.Base.PeriodsPerDay / 2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := core.Decide(pc, net, req)
		if err != nil {
			b.Fatal(err)
		}
		s.Observe(key, "t0", req, d)
	}
}
