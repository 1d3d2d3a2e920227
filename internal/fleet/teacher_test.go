package fleet

import (
	"context"
	"testing"

	"solarsched/internal/core"
	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
)

// TestTeacherCountersGolden pins the DP teacher's work on the benchmark's
// seed-1 offline_cold configurations: how many horizon solves, option
// expansions (Fig. 10(a)), LUT builds and lookups and teacher slots it
// takes to label them. A change that claims to leave the teacher's
// decisions alone — a faster table, a memoized curve, a replayed
// trajectory — must leave every count exactly where it was.
func TestTeacherCountersGolden(t *testing.T) {
	configs := []struct {
		graph string
		h     int
		train TrainSpec
	}{
		{"wam", 4, TrainSpec{Days: 2, Seed: 9001, DayOfYear: 100}},
		{"shm", 4, TrainSpec{Days: 2, Seed: 9001, DayOfYear: 100}},
		{"random1", 2, TrainSpec{Days: 2, Seed: 9002, DayOfYear: 190}},
		{"ecg", 2, TrainSpec{Days: 2, Seed: 1806979001, DayOfYear: 38}},
		{"ecg", 2, DefaultTrainSpec()},
	}
	ctx := context.Background()
	c := NewCache(nil)
	reg := obs.NewRegistry()
	samples := 0
	for _, cfg := range configs {
		g, err := graphByName(cfg.graph)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.Trace(ctx, solar.GenConfig{
			Base: solar.DefaultTimeBase(cfg.train.Days), Seed: cfg.train.Seed, DayOfYearStart: cfg.train.DayOfYear,
		})
		if err != nil {
			t.Fatal(err)
		}
		bank, err := c.Sizing(ctx, tr, g, cfg.h, supercap.DefaultParams(), sim.DefaultDirectEff)
		if err != nil {
			t.Fatal(err)
		}
		pc := core.DefaultPlanConfig(g, tr.Base, bank)
		pc.Observer = reg
		inputs, _, err := core.CollectSamples(pc, tr)
		if err != nil {
			t.Fatalf("%s/h%d: %v", cfg.graph, cfg.h, err)
		}
		samples += len(inputs)
	}

	hits, misses := reg.Counter("core_lut_hits_total").Value(), reg.Counter("core_lut_misses_total").Value()
	for _, k := range []struct {
		name      string
		got, want float64
	}{
		{"dp_solves", float64(reg.Timer("core_dp_solve_seconds").Count()), 624},
		{"dp_expansions", reg.Counter("core_dp_expansions_total").Value(), 9_704_318},
		{"lut_builds", misses, 4_956},
		{"lut_lookups", hits + misses, 1_878_096},
		{"teacher_slots", reg.Counter("sim_slots_total").Value(), 18_720},
		{"samples", float64(samples), 624},
	} {
		if k.got != k.want {
			t.Errorf("%s = %v, want %v", k.name, k.got, k.want)
		}
	}
}
