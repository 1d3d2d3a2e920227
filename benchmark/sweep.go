package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"solarsched/internal/fleet"
	"solarsched/internal/obs"
)

// sweepRep is one fleet.Run of the sweep over a warm cache.
type sweepRep struct {
	report  *fleet.Report
	elapsed time.Duration
	periods int
	digest  string
}

func (r *sweepRep) periodsPerSecond() float64 { return float64(r.periods) / r.elapsed.Seconds() }

// runSweep executes the compiled sweep once, on GOMAXPROCS workers. It
// fails on any per-run error: a sweep that lost a member measured a
// smaller fleet. A non-nil mem accumulates the allocation and GC deltas
// of fleet.Run alone.
func runSweep(ctx context.Context, specs []fleet.Spec, cache *fleet.Cache, mem *runtime.MemStats) (*sweepRep, error) {
	var before, after runtime.MemStats
	if mem != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	rep, err := fleet.Run(ctx, specs, fleet.Options{Cache: cache})
	elapsed := time.Since(start)
	if mem != nil {
		runtime.ReadMemStats(&after)
		mem.Mallocs += after.Mallocs - before.Mallocs
		mem.TotalAlloc += after.TotalAlloc - before.TotalAlloc
		mem.NumGC += after.NumGC - before.NumGC
		mem.PauseTotalNs += after.PauseTotalNs - before.PauseTotalNs
	}
	if err != nil {
		return nil, err
	}
	if err := rep.FirstErr(); err != nil {
		return nil, err
	}
	r := &sweepRep{report: rep, elapsed: elapsed, digest: rep.AggregateDigest()}
	for _, rr := range rep.Results {
		r.periods += len(rr.Result.PeriodMisses)
	}
	return r, nil
}

// dmrOf returns the mean DMR of the report's runs of one scheduler.
func dmrOf(rep *fleet.Report, scheduler string) float64 {
	var dmrs []float64
	for _, rr := range rep.Results {
		if rr.Scheduler == scheduler {
			dmrs = append(dmrs, rr.Result.DMR())
		}
	}
	return mean(dmrs)
}

// sweepProbe instruments one traced sweep: every spec's Prepare is timed
// and every prepared scheduler is decorated with a callback timer.
type sweepProbe struct {
	tr  *tracer
	reg *obs.Registry

	mu       sync.Mutex
	timers   []*schedTimer
	prepared map[string][2]time.Time // run id → Prepare start and end
}

// compile turns the sweep into specs whose Prepare and job scheduler are
// wrapped, with engines reporting into p.reg.
func (p *sweepProbe) compile(fs fleet.FileSpec) ([]fleet.Spec, error) {
	resolved, err := fs.Resolved()
	if err != nil {
		return nil, err
	}
	specs, err := fs.Compile(p.reg)
	if err != nil {
		return nil, err
	}
	p.prepared = make(map[string][2]time.Time, len(specs))
	for i := range specs {
		id, prepare, key := specs[i].ID, specs[i].Prepare, resolved[i].Scheduler
		specs[i].Prepare = func(ctx context.Context, c *fleet.Cache) (*fleet.Job, error) {
			start := time.Now()
			job, err := prepare(ctx, c)
			end := time.Now()
			p.mu.Lock()
			defer p.mu.Unlock()
			p.prepared[id] = [2]time.Time{start, end}
			if err != nil {
				return nil, err
			}
			t := &schedTimer{name: key}
			p.timers = append(p.timers, t)
			job.Scheduler = decorate(job.Scheduler, t)
			return job, nil
		}
	}
	return specs, nil
}

// spans records, per run, a fleet.run span from Prepare's start over the
// run's elapsed time, with a fleet.prepare child, so that the run's self
// time is the engine's (scheduler callbacks included).
func (p *sweepProbe) spans(rep *fleet.Report) error {
	for _, rr := range rep.Results {
		prep, ok := p.prepared[rr.ID]
		if !ok {
			return fmt.Errorf("run %s was never prepared", rr.ID)
		}
		run := p.tr.add("fleet.run", rr.ID, 0, prep[0], prep[0].Add(rr.Elapsed))
		p.tr.add("fleet.prepare", rr.ID, run, prep[0], prep[1])
	}
	return nil
}
