package sim_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/nvp"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// constraintCheck holds the paper's scheduling constraints against every
// executed slot it is shown: (7) a task runs only once every predecessor
// has finished, and (9) one task per NVP. Readiness is read from
// Remaining, not from the set's pending mask, so the check does not share
// the code it guards.
type constraintCheck struct {
	mu                       sync.Mutex
	slots, withPreds, shared int
	err                      error
}

func (c *constraintCheck) slot(ts *nvp.Set, ran []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.slots++
	for i, n := range ran {
		preds := ts.G.Predecessors(n)
		if len(preds) > 0 {
			c.withPreds++
		}
		for _, p := range preds {
			if ts.Remaining(p) != 0 {
				c.err = fmt.Errorf("constraint (7): task %d of %s runs while predecessor %d has %v s left",
					n, ts.G.Name, p, ts.Remaining(p))
				return
			}
		}
		for _, m := range ran[:i] {
			if ts.G.Tasks[m].NVP == ts.G.Tasks[n].NVP {
				c.err = fmt.Errorf("constraint (9): tasks %d and %d of %s share NVP %d in one slot",
					m, n, ts.G.Name, ts.G.Tasks[n].NVP)
				return
			}
		}
	}
	if len(ran) > 1 {
		c.shared++
	}
}

// install makes c the slot step's hook for the rest of the test.
func (c *constraintCheck) install(t *testing.T) {
	t.Cleanup(sim.SetRanHook(c.slot))
}

// verify fails the test on a violation or on too little coverage.
func (c *constraintCheck) verify(t *testing.T) {
	t.Helper()
	if c.err != nil {
		t.Fatal(c.err)
	}
	t.Logf("%d executed slots: %d ran a task with predecessors, %d ran two or more tasks", c.slots, c.withPreds, c.shared)
	if c.slots == 0 || c.withPreds == 0 || c.shared == 0 {
		t.Fatalf("weak coverage: %d slots, %d with predecessors, %d with two or more tasks", c.slots, c.withPreds, c.shared)
	}
}

func TestConstraintsHoldOnSweepRuns(t *testing.T) {
	var c constraintCheck
	c.install(t)
	train := fleet.TrainSpec{Days: 2, Seed: 9001, DayOfYear: 100, FineEpochs: 40}
	fs := fleet.FileSpec{Defaults: fleet.RunSpec{H: 4, Train: &train}}
	for _, g := range []string{"wam", "ecg"} {
		for _, s := range []string{"asap", "inter", "intra", "dvfs", "proposed", "hardened"} {
			for _, intensity := range []float64{0, 1} {
				fs.Runs = append(fs.Runs, fleet.RunSpec{
					ID:    fmt.Sprintf("%s/%s/faults=%g", g, s, intensity),
					Graph: g, Scheduler: s,
					Trace:          fleet.TraceSpec{Kind: "gen", Days: 2, Seed: 4242, DayOfYear: 120},
					FaultIntensity: intensity, FaultSeed: 17,
				})
			}
		}
	}
	specs, err := fs.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(context.Background(), specs, fleet.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FirstErr(); err != nil {
		t.Fatal(err)
	}
	c.verify(t)
}

func TestConstraintsHoldOnTeacherRuns(t *testing.T) {
	var c constraintCheck
	c.install(t)
	ctx := context.Background()
	cache := fleet.NewCache(nil)
	for _, cfg := range []struct {
		g *task.Graph
		h int
	}{{task.WAM(), 4}, {task.RandomCase(1), 2}} {
		tr, err := cache.Trace(ctx, solar.GenConfig{Base: solar.DefaultTimeBase(2), Seed: 9001, DayOfYearStart: 100})
		if err != nil {
			t.Fatal(err)
		}
		bank, err := cache.Sizing(ctx, tr, cfg.g, cfg.h, supercap.DefaultParams(), sim.DefaultDirectEff)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.CollectSamples(core.DefaultPlanConfig(cfg.g, tr.Base, bank), tr); err != nil {
			t.Fatalf("%s: %v", cfg.g.Name, err)
		}
	}
	c.verify(t)
}
