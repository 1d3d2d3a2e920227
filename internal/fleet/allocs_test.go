package fleet

import (
	"context"
	"fmt"
	"testing"

	"solarsched/internal/sim"
)

// TestSweepSchedulersAllocsPerPeriod guards the per-period hot path of the
// benchmark sweep's schedulers: a warm two-day WAM run — engine and
// scheduler reused, as AllocsPerRun repeats them — allocates at most once
// per period on average, with and without the reference sensor, outage,
// PMU and DBN faults. What a run allocates is then the per-run set-up
// (bank, task set, result, fault streams), not per-slot or per-period
// work: a fresh observation bank per slot, a fresh feature vector or task
// mask per period, or an admission mask copied per period all show here.
func TestSweepSchedulersAllocsPerPeriod(t *testing.T) {
	ctx := context.Background()
	c := NewCache(nil)
	train := TrainSpec{Days: 2, Seed: 9001, DayOfYear: 100, FineEpochs: 40}
	for _, name := range []string{"asap", "inter", "intra", "dvfs", "proposed", "hardened"} {
		for _, intensity := range []float64{0, 1} {
			t.Run(fmt.Sprintf("%s/faults=%g", name, intensity), func(t *testing.T) {
				rs := RunSpec{
					Graph: "wam", Scheduler: name, H: 4, Train: &train,
					Trace:          TraceSpec{Kind: "gen", Days: 2, Seed: 4242, DayOfYear: 120},
					FaultIntensity: intensity, FaultSeed: 17,
				}
				job, err := rs.prepare(ctx, c, nil)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := sim.New(job.Config)
				if err != nil {
					t.Fatal(err)
				}
				periods := float64(job.Config.Trace.Base.TotalPeriods())
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := eng.Run(ctx, job.Scheduler); err != nil {
						t.Fatal(err)
					}
				})
				per := allocs / periods
				t.Logf("%.0f allocations per run, %.2f per period", allocs, per)
				if per > 1 {
					t.Errorf("a warm two-day run allocates %.0f times, %.2f per period; want at most 1 per period", allocs, per)
				}
			})
		}
	}
}
