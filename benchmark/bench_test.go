package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"solarsched/internal/dvfs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0: must fail
	}{
		{100, 0.50, 50},
		{1000, 0.99, 990},
		{999, 0.99, 0}, // rank 990 leaves 9 beyond
		{200, 0.95, 190},
		{199, 0.95, 0},
		{100, 0.99, 0},
		{19, 0.50, 0},
		{20, 0.50, 10},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d = %g, want an error", 100*tc.p, tc.n, got)
		case tc.want != 0 && (err != nil || got != tc.want):
			t.Errorf("p%g of %d = %g, %v; want %g", 100*tc.p, tc.n, got, err, tc.want)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	banks := map[netConfig]int{decideA: 2, decideB: 1}
	draw := func(seed uint64) []request {
		t.Helper()
		s, err := drawSchedule(newRand(seed, 3), 2, banks)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, other := draw(7), draw(7), draw(8)
	if len(a) != 400+80 {
		t.Fatalf("schedule has %d requests, want 400 decides + 80 runs", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Due != b[i].Due || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("request %d differs between two draws of one seed", i)
		}
		if i > 0 && a[i].Due < a[i-1].Due {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if !a[i].Run {
			var body decideBody
			if err := json.Unmarshal(a[i].Body, &body); err != nil {
				t.Fatal(err)
			}
			if want := banks[a[i].Config]; len(body.Voltages) != want {
				t.Fatalf("decide %s carries %d voltages, bank has %d", a[i].ID, len(body.Voltages), want)
			}
		}
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i].Body, other[i].Body) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 drew identical schedules")
	}

	x, y := makeInputs(workloads[0], 7), makeInputs(workloads[0], 7)
	xj, _ := json.Marshal(x.sweep)
	yj, _ := json.Marshal(y.sweep)
	if !bytes.Equal(xj, yj) || len(x.configs) != len(y.configs) {
		t.Fatal("makeInputs differs between two calls with one seed")
	}
	for i := range x.configs {
		if x.configs[i] != y.configs[i] {
			t.Fatalf("config %d: %s vs %s", i, x.configs[i], y.configs[i])
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "b1", Start: ms(25), End: ms(45)}, // grandchild
		{ID: 6, Name: "root2", Start: ms(200), End: ms(260)},       // no children
		{ID: 7, Parent: 6, Name: "empty", Start: ms(210), End: ms(210)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 50 * time.Millisecond, // 100 − |[10,50] ∪ [90,100]|
		2: 20 * time.Millisecond,
		3: 10 * time.Millisecond, // 30 − 20 covered by b1
		4: 30 * time.Millisecond,
		6: 60 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := sumSelf(spans, self, "parent") + sumSelf(spans, self, "root2"); got != 110*time.Millisecond {
		t.Errorf("summed root self time = %v, want 110ms", got)
	}
}

// TestDecoratedSchedulerRunsTheSameRun checks that the timing decorator
// keeps each scheduler's optional interfaces, so a traced run is the same
// run as an untraced one.
func TestDecoratedSchedulerRunsTheSameRun(t *testing.T) {
	g := task.ECG()
	tr, err := solar.Generate(solar.GenConfig{Base: solar.DefaultTimeBase(1), Seed: 3, DayOfYearStart: 120})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() sim.Scheduler{
		func() sim.Scheduler { return sched.NewInterLSA(g, tr.Base, sim.DefaultDirectEff) },
		func() sim.Scheduler { return dvfs.NewLoadTune(g) },
	} {
		bare := mk()
		timer := &schedTimer{}
		wrapped := decorate(mk(), timer)
		_, bareSpeed := bare.(sim.SpeedScheduler)
		_, wrappedSpeed := wrapped.(sim.SpeedScheduler)
		if bareSpeed != wrappedSpeed {
			t.Fatalf("%s: SpeedScheduler %v bare, %v decorated", bare.Name(), bareSpeed, wrappedSpeed)
		}
		var digests [2]string
		for i, s := range []sim.Scheduler{bare, wrapped} {
			eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{10}})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = res.Digest()
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: decorated run digest %s, bare %s", bare.Name(), digests[1], digests[0])
		}
		if timer.periods != int64(tr.Base.TotalPeriods()) || timer.slots == 0 {
			t.Errorf("%s: timer saw %d periods and %d slots", bare.Name(), timer.periods, timer.slots)
		}
	}
}
