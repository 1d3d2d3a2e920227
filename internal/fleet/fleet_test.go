package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// benchFleetFile builds the reference 64-run fleet of the acceptance
// check: 8 configurations (2 benchmarks × 4 schedulers), each evaluated
// on 8 weather seeds. Every configuration's offline artifacts are shared
// by its 8 members, so a warm cache serves ≥87% of artifact requests.
func benchFleetFile() *FileSpec {
	fs := &FileSpec{Defaults: RunSpec{
		Trace: TraceSpec{Kind: "gen", Days: 4},
		Train: &TrainSpec{Days: 5, Seed: 777, DayOfYear: 80, FineEpochs: 50},
	}}
	for _, g := range []string{"wam", "ecg"} {
		for _, s := range []string{"asap", "inter", "intra", "dvfs"} {
			for seed := uint64(1); seed <= 8; seed++ {
				fs.Runs = append(fs.Runs, RunSpec{
					ID:        fmt.Sprintf("%s/%s/seed%d", g, s, seed),
					Graph:     g,
					Scheduler: s,
					Trace:     TraceSpec{Seed: seed},
				})
			}
		}
	}
	return fs
}

// TestFleetMatchesSequentialUncached is the subsystem's core guarantee:
// running 64 specs concurrently through the shared cache produces
// bit-identical result digests to running each spec alone with a cold
// private cache — the cache removes recomputation, never changes inputs —
// while serving at least 87% of artifact requests from memory.
func TestFleetMatchesSequentialUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("64-run fleet in -short mode")
	}
	ctx := context.Background()
	specs, err := benchFleetFile().Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 64 {
		t.Fatalf("compiled %d specs, want 64", len(specs))
	}

	rep, err := Run(ctx, specs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if got := rep.HitRate(); got < 0.87 {
		t.Errorf("cache hit rate = %.3f (%d hits / %d misses), want >= 0.87",
			got, rep.CacheHits, rep.CacheMisses)
	}
	sum := rep.Summarize()
	if sum.Runs != 64 || sum.Failed != 0 {
		t.Fatalf("summary = %d runs / %d failed, want 64 / 0", sum.Runs, sum.Failed)
	}

	// Sequential, uncached: each spec re-compiled and run alone on a cold
	// private cache, one worker, so nothing is shared with anything.
	for i := range specs {
		single, err := benchFleetFile().Compile(nil)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Run(ctx, single[i:i+1], Options{Workers: 1, Cache: NewCache(nil)})
		if err != nil {
			t.Fatal(err)
		}
		if err := solo.FirstErr(); err != nil {
			t.Fatalf("solo %s: %v", specs[i].ID, err)
		}
		if rep.Results[i].ID != specs[i].ID {
			t.Fatalf("result %d out of spec order: %s", i, rep.Results[i].ID)
		}
		if rep.Results[i].Digest != solo.Results[0].Digest {
			t.Errorf("%s: fleet digest %s != sequential uncached %s",
				specs[i].ID, rep.Results[i].Digest, solo.Results[0].Digest)
		}
	}

	// And the whole-fleet outcome is reproducible: a second identical
	// fleet yields the same aggregate digest.
	specs2, err := benchFleetFile().Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(ctx, specs2, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AggregateDigest() != rep2.AggregateDigest() {
		t.Errorf("aggregate digest not reproducible:\n%s\n%s",
			rep.AggregateDigest(), rep2.AggregateDigest())
	}
}

// quickSpec is a minimal healthy fleet member for the failure-mode tests.
func quickSpec(id string, seed uint64) Spec {
	return Spec{ID: id, Prepare: func(ctx context.Context, c *Cache) (*Job, error) {
		tr, err := c.Trace(ctx, solar.GenConfig{Base: solar.DefaultTimeBase(1), Seed: seed})
		if err != nil {
			return nil, err
		}
		g := task.WAM()
		return &Job{
			Config:    sim.Config{Trace: tr, Graph: g, Capacitances: []float64{25}},
			Scheduler: sched.NewASAP(g),
		}, nil
	}}
}

// TestFleetPanicIsolation: one member panicking in Prepare must surface as
// that member's error while the rest of the fleet completes normally.
func TestFleetPanicIsolation(t *testing.T) {
	specs := []Spec{
		quickSpec("ok-1", 1),
		{ID: "boom", Prepare: func(context.Context, *Cache) (*Job, error) { panic("kaboom") }},
		quickSpec("ok-2", 2),
	}
	rep, err := Run(context.Background(), specs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Results[1].Err; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking member err = %v, want recovered panic", err)
	}
	for _, i := range []int{0, 2} {
		if rep.Results[i].Err != nil {
			t.Fatalf("healthy member %s failed: %v", rep.Results[i].ID, rep.Results[i].Err)
		}
		if rep.Results[i].Digest == "" {
			t.Fatalf("healthy member %s missing digest", rep.Results[i].ID)
		}
	}
	if rep.FirstErr() == nil {
		t.Fatal("FirstErr missed the panicked member")
	}
}

// TestFleetCancellation: a canceled context stops the fleet with
// sim.ErrCanceled, and the partial report stays positionally complete —
// unstarted members carry an explicit cancellation error.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, quickSpec(fmt.Sprintf("run-%d", i), uint64(i+1)))
	}
	rep, err := Run(ctx, specs, Options{Workers: 2})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	if rep == nil || len(rep.Results) != len(specs) {
		t.Fatalf("partial report incomplete: %+v", rep)
	}
	for i, rr := range rep.Results {
		if rr.ID != specs[i].ID {
			t.Fatalf("result %d has ID %q, want %q", i, rr.ID, specs[i].ID)
		}
		if rr.Err == nil {
			t.Fatalf("member %s reported success under canceled context", rr.ID)
		}
	}
}

// TestFleetValidation: malformed fleets fail before any work starts.
func TestFleetValidation(t *testing.T) {
	ctx := context.Background()
	for name, specs := range map[string][]Spec{
		"empty id":     {{ID: "", Prepare: quickSpec("x", 1).Prepare}},
		"nil prepare":  {{ID: "x"}},
		"duplicate id": {quickSpec("x", 1), quickSpec("x", 2)},
	} {
		if _, err := Run(ctx, specs, Options{}); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestFleetOnResult: every finished member streams to OnResult exactly
// once, serialized (the unsynchronized counter below is the test — the
// race detector flags any parallel invocation).
func TestFleetOnResult(t *testing.T) {
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, quickSpec(fmt.Sprintf("run-%d", i), uint64(i+1)))
	}
	calls := 0
	seen := map[string]bool{}
	rep, err := Run(context.Background(), specs, Options{
		Workers: 4,
		OnResult: func(rr RunResult) {
			calls++
			seen[rr.ID] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if calls != len(specs) || len(seen) != len(specs) {
		t.Fatalf("OnResult called %d times over %d IDs, want %d", calls, len(seen), len(specs))
	}
}

// TestFleetMidQueueCancellation: a cancellation landing while the fleet is
// mid-queue — here fired from OnResult after the second result — stops the
// feed with a wrapped sim.ErrCanceled, keeps the partial report
// positionally complete (finished members keep their digests, unstarted
// members carry explicit cancellation errors), and still populates the
// report's cache statistics.
func TestFleetMidQueueCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var specs []Spec
	for i := 0; i < 8; i++ {
		specs = append(specs, quickSpec(fmt.Sprintf("run-%d", i), uint64(i+1)))
	}
	results := 0
	rep, err := Run(ctx, specs, Options{
		Workers: 1, // sequential feed: the cancel lands with specs still queued
		OnResult: func(rr RunResult) {
			results++
			if results == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want wrapped sim.ErrCanceled", err)
	}
	if rep == nil || len(rep.Results) != len(specs) {
		t.Fatalf("partial report not positionally complete: %+v", rep)
	}
	finished, unstarted := 0, 0
	for i, rr := range rep.Results {
		if rr.ID != specs[i].ID {
			t.Fatalf("result %d has ID %q, want %q", i, rr.ID, specs[i].ID)
		}
		switch {
		case rr.Err == nil && rr.Digest != "":
			finished++
		case errors.Is(rr.Err, sim.ErrCanceled):
			unstarted++
		default:
			t.Fatalf("member %s: err %v digest %q — neither finished nor canceled", rr.ID, rr.Err, rr.Digest)
		}
	}
	if finished < 2 {
		t.Fatalf("finished %d members before the cancel, want >= 2", finished)
	}
	if unstarted == 0 {
		t.Fatal("cancel landed after the whole queue drained; not a mid-queue cancellation")
	}
	if rep.CacheHits+rep.CacheMisses == 0 {
		t.Fatal("partial report lost the cache statistics")
	}
}

// TestFileSpecDefaults: zero-valued run fields inherit from Defaults, and
// unknown names are rejected at compile time with the run's ID.
func TestFileSpecDefaults(t *testing.T) {
	fs := &FileSpec{
		Defaults: RunSpec{Graph: "shm", Scheduler: "intra", Trace: TraceSpec{Kind: "gen", Seed: 9, Days: 2}},
		Runs:     []RunSpec{{}, {Scheduler: "asap"}},
	}
	specs, err := fs.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].ID != "shm-intra-9#0" || specs[1].ID != "shm-asap-9#1" {
		t.Fatalf("auto IDs = %q, %q", specs[0].ID, specs[1].ID)
	}

	for _, bad := range []FileSpec{
		{Runs: []RunSpec{{Graph: "nope"}}},
		{Runs: []RunSpec{{Scheduler: "nope"}}},
		{},
	} {
		if _, err := bad.Compile(nil); err == nil {
			t.Errorf("Compile(%+v): no error", bad)
		}
	}

	// And the compiled specs actually run.
	rep, err := Run(context.Background(), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
}

// Negative sizes and counts fail at compile time with the run named, not
// as a panic inside the job (h) or a silently skipped stage (fine_epochs).
func TestCompileRejectsNegativeCounts(t *testing.T) {
	for field, body := range map[string]string{
		"h":                 `{"runs":[{"id":"neg","scheduler":"proposed","h":-3}]}`,
		"trace.days":        `{"runs":[{"id":"neg","trace":{"days":-1}}]}`,
		"train.days":        `{"runs":[{"id":"neg","train":{"days":-2}}]}`,
		"train.fine_epochs": `{"runs":[{"id":"neg","train":{"fine_epochs":-1}}]}`,
	} {
		_, err := ReadSpecs(strings.NewReader(body), nil)
		if err == nil {
			t.Errorf("%s: negative value compiled", field)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "run neg") || !strings.Contains(msg, field) {
			t.Errorf("%s: error %q does not name the run and the field", field, msg)
		}
	}
	// Defaults are checked once merged into each run.
	fs := &FileSpec{Defaults: RunSpec{H: -1}, Runs: []RunSpec{{ID: "a"}}}
	if _, err := fs.Resolved(); err == nil || !strings.Contains(err.Error(), "run a") {
		t.Errorf("negative default h: err = %v", err)
	}
}

// TestReadSpecsRejectsUnknownFields: spec files are user input; a typoed
// field must be an error, not a silently ignored default.
func TestReadSpecsRejectsUnknownFields(t *testing.T) {
	_, err := ReadSpecs(strings.NewReader(`{"runs":[{"sheduler":"asap"}]}`), nil)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}
