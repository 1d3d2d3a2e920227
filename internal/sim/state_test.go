package sim_test

import (
	"context"
	"errors"
	"testing"

	"solarsched/internal/obs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

func stateTestEngine(t *testing.T, seed uint64, reg *obs.Registry) (*sim.Engine, *task.Graph, solar.TimeBase) {
	t.Helper()
	g := task.ECG()
	tb := solar.TimeBase{Days: 2, PeriodsPerDay: 6, SlotsPerPeriod: 30, SlotSeconds: 60}
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: seed})
	e, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{5, 40}, Observer: reg})
	if err != nil {
		t.Fatal(err)
	}
	return e, g, tb
}

// ConfigDigest must be stable across engines with equal configurations and
// sensitive to every physical input of the run.
func TestConfigDigest(t *testing.T) {
	a, _, _ := stateTestEngine(t, 4, nil)
	b, _, _ := stateTestEngine(t, 4, nil)
	if a.ConfigDigest() != b.ConfigDigest() {
		t.Fatal("equal configs produced different digests")
	}
	c, _, _ := stateTestEngine(t, 5, nil) // different trace
	if a.ConfigDigest() == c.ConfigDigest() {
		t.Fatal("different traces produced equal digests")
	}
}

// Result.Digest is a pure function of the result value.
func TestResultDigestDeterministic(t *testing.T) {
	e, g, tb := stateTestEngine(t, 4, nil)
	r1, err := e.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff))
	if err != nil {
		t.Fatal(err)
	}
	e2, _, _ := stateTestEngine(t, 4, nil)
	r2, err := e2.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Digest() != r2.Digest() {
		t.Fatalf("identical runs digest differently: %s vs %s", r1.Digest(), r2.Digest())
	}
}

// Cancellation mid-run returns sim.ErrCanceled, flushes a final checkpoint
// through the sink, and the checkpoint resumes to the uninterrupted
// digest — the graceful-shutdown path of the CLIs.
func TestRunContextCancelResumesIdentically(t *testing.T) {
	e, g, tb := stateTestEngine(t, 4, nil)
	want, err := e.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var last *sim.RunState
	saves := 0
	e2, _, _ := stateTestEngine(t, 4, nil)
	_, runErr := e2.Run(ctx, sched.NewInterLSA(g, tb, sim.DefaultDirectEff),
		sim.WithSink(func(rs *sim.RunState) error {
			last = rs
			saves++
			if saves == 4 {
				cancel() // takes effect at the next period boundary
			}
			return nil
		}))
	if !errors.Is(runErr, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", runErr)
	}
	if last == nil {
		t.Fatal("no checkpoint flushed on cancellation")
	}
	if last.NextPeriod >= tb.TotalPeriods() {
		t.Fatalf("cancelled run checkpointed NextPeriod %d of %d", last.NextPeriod, tb.TotalPeriods())
	}

	e3, _, _ := stateTestEngine(t, 4, nil)
	got, err := e3.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff), sim.WithResume(last))
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("resume after cancel digest differs:\nwant %s\ngot  %s", want.Digest(), got.Digest())
	}
}

// A pre-cancelled context stops before the first period and still flushes
// a resumable checkpoint at period zero.
func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, g, tb := stateTestEngine(t, 4, nil)
	var last *sim.RunState
	_, err := e.Run(ctx, sched.NewInterLSA(g, tb, sim.DefaultDirectEff),
		sim.WithSink(func(rs *sim.RunState) error { last = rs; return nil }))
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	if last == nil || last.NextPeriod != 0 {
		t.Fatalf("checkpoint %+v, want NextPeriod 0", last)
	}
}

// Restored observer counters continue from their checkpointed values: the
// final snapshot of a resumed run equals the uninterrupted one for the
// engine's deterministic instruments.
func TestResumeRestoresObservability(t *testing.T) {
	regWant := obs.NewRegistry()
	e, g, tb := stateTestEngine(t, 4, regWant)
	if _, err := e.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff)); err != nil {
		t.Fatal(err)
	}
	want := regWant.Snapshot()

	regKill := obs.NewRegistry()
	e2, _, _ := stateTestEngine(t, 4, regKill)
	var last *sim.RunState
	saves := 0
	killErr := errors.New("kill")
	_, runErr := e2.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff),
		sim.WithSink(func(rs *sim.RunState) error {
			if saves >= 3 {
				return killErr
			}
			saves++
			last = rs
			return nil
		}))
	if !errors.Is(runErr, killErr) {
		t.Fatalf("err = %v", runErr)
	}

	regGot := obs.NewRegistry()
	e3, _, _ := stateTestEngine(t, 4, regGot)
	if _, err := e3.Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff), sim.WithResume(last)); err != nil {
		t.Fatal(err)
	}
	got := regGot.Snapshot()

	wantC := make(map[string]float64)
	for _, c := range want.Counters {
		wantC[c.Name] = c.Value
	}
	for _, c := range got.Counters {
		// Span-derived and wall-clock instruments are not deterministic;
		// compare the engine's simulation counters only.
		switch c.Name {
		case "sim_periods_total", "sim_slots_total", "sim_days_total",
			"sim_deadline_misses_total", "sim_cap_switches_total",
			"sim_tasks_released_total", "sim_brownout_trims_total",
			"sim_harvested_joules_total":
			if wantC[c.Name] != c.Value {
				t.Errorf("%s = %v after resume, want %v", c.Name, c.Value, wantC[c.Name])
			}
		}
	}
}

// Validate must catch the ways a checkpoint can disagree with the engine
// and scheduler it is being applied to.
func TestRunStateValidateRejections(t *testing.T) {
	e, g, tb := stateTestEngine(t, 4, nil)
	s := sched.NewInterLSA(g, tb, sim.DefaultDirectEff)
	var captured *sim.RunState
	saves := 0
	stop := errors.New("stop")
	_, runErr := e.Run(context.Background(), s,
		sim.WithSink(func(rs *sim.RunState) error {
			captured = rs
			saves++
			if saves >= 2 {
				return stop
			}
			return nil
		}))
	if !errors.Is(runErr, stop) {
		t.Fatalf("err = %v", runErr)
	}

	fresh := func() *sim.Engine { e2, _, _ := stateTestEngine(t, 4, nil); return e2 }
	mutate := func(f func(*sim.RunState)) *sim.RunState {
		c := *captured
		f(&c)
		return &c
	}
	cases := map[string]*sim.RunState{
		"version":   mutate(func(rs *sim.RunState) { rs.Version = 99 }),
		"scheduler": mutate(func(rs *sim.RunState) { rs.SchedulerName = "other" }),
		"config":    mutate(func(rs *sim.RunState) { rs.ConfigDigest = "beef" }),
		"period":    mutate(func(rs *sim.RunState) { rs.NextPeriod = tb.TotalPeriods() + 1 }),
		"result":    mutate(func(rs *sim.RunState) { rs.Result = nil }),
	}
	for name, rs := range cases {
		if _, err := fresh().Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff), sim.WithResume(rs)); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}

	// The unmodified checkpoint must still be accepted.
	if _, err := fresh().Run(context.Background(), sched.NewInterLSA(g, tb, sim.DefaultDirectEff), sim.WithResume(captured)); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}
