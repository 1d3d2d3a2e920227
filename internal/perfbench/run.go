package perfbench

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"

	"reflect"

	"solarsched/internal/core"
	"solarsched/internal/dist"
	"solarsched/internal/fleet"
	"solarsched/internal/learn"
	"solarsched/internal/mat"
	"solarsched/internal/obs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/stats"
	"solarsched/internal/task"
)

// Benchmark names emitted by Run. The comparator matches on these.
const (
	BenchEngineRun   = "engine_run"   // one WAM day under the intra baseline
	BenchFleetCold   = "fleet_cold"   // quick fleet, empty artifact cache
	BenchDecide      = "decide_once"  // one-shot online inference
	BenchDecideBatch = "decide_batch" // coalesced inference, ns per decision in a batch
	BenchFleetDist   = "fleet_dist"   // quick fleet through the coordinator/worker protocol
	BenchShadowEval  = "shadow_eval"  // decide with live shadow-scoring enabled vs off
)

// Config tunes a benchmark run. The zero value is the CI configuration.
type Config struct {
	// Top bounds the hot frames kept per profile; 0 means 10.
	Top int
	// DecideIters is the decide_once sample count; 0 means 2000.
	DecideIters int
	// Benchmarks filters which benchmarks run (by the Bench* names);
	// empty runs all of them.
	Benchmarks []string
	// ProfileDir, when non-empty, keeps the raw CPU/heap profiles as
	// <name>_cpu.pb.gz / <name>_heap.pb.gz for offline `go tool pprof`.
	ProfileDir string
	// Log receives progress; nil discards.
	Log *slog.Logger
}

// QuickTrainSpec is the reduced offline configuration the fleet and
// decide benchmarks share: enough work to exercise the real pipeline
// (trace gen → sizing → teacher DP → DBN training), small enough that a
// cold run stays in CI budget. Any change here invalidates comparisons
// against older snapshots, so treat it like part of the schema.
func QuickTrainSpec() fleet.TrainSpec {
	return fleet.TrainSpec{Days: 2, Seed: 777, DayOfYear: 80, FineEpochs: 8}
}

// quickFleetSpec is the fleet scenario: four schedulers on the WAM graph
// over a two-day synthetic trace, sharing one trained network.
func quickFleetSpec() *fleet.FileSpec {
	train := QuickTrainSpec()
	return &fleet.FileSpec{
		Defaults: fleet.RunSpec{
			Graph: "wam",
			Trace: fleet.TraceSpec{Kind: "gen", Days: 2, Seed: 42, DayOfYear: 80},
			Train: &train,
		},
		Runs: []fleet.RunSpec{
			{ID: "proposed", Scheduler: "proposed"},
			{ID: "intra", Scheduler: "intra"},
			{ID: "inter", Scheduler: "inter"},
			{ID: "asap", Scheduler: "asap"},
		},
	}
}

// Run executes the benchmark suite and returns the snapshot, stamped
// with the host fingerprint. Benchmarks run sequentially — the process
// supports one CPU profile at a time, and parallel benchmarks would
// contend for the cores they are measuring.
func Run(ctx context.Context, cfg Config) (*Snapshot, error) {
	if cfg.Top == 0 {
		cfg.Top = 10
	}
	if cfg.DecideIters == 0 {
		cfg.DecideIters = 2000
	}
	logger := cfg.Log
	if logger == nil {
		logger = obs.NopLogger()
	}
	want := map[string]bool{}
	for _, n := range cfg.Benchmarks {
		want[n] = true
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	snap := &Snapshot{
		SchemaVersion: SchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Host:          Host(),
	}
	// The fleet and decide benchmarks share one artifact cache so the
	// offline training cost is paid exactly once (by fleet_cold, or by
	// decide_once when the fleet benchmarks are filtered out).
	cache := fleet.NewCache(nil)

	type bench struct {
		name string
		run  func(ctx context.Context) (BenchResult, error)
	}
	suite := []bench{
		{BenchEngineRun, func(ctx context.Context) (BenchResult, error) {
			return benchEngineRun(ctx, cache)
		}},
		{BenchFleetCold, func(ctx context.Context) (BenchResult, error) {
			return benchFleetCold(ctx, cache)
		}},
		{BenchDecide, func(ctx context.Context) (BenchResult, error) {
			return benchDecide(ctx, cache, cfg.DecideIters)
		}},
		{BenchDecideBatch, func(ctx context.Context) (BenchResult, error) {
			return benchDecideBatch(ctx, cache, cfg.DecideIters)
		}},
		{BenchFleetDist, benchFleetDist},
		{BenchShadowEval, func(ctx context.Context) (BenchResult, error) {
			return benchShadowEval(ctx, cache, cfg.DecideIters)
		}},
	}
	for _, b := range suite {
		if !enabled(b.name) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		logger.Info("benchmark starting", "name", b.name)
		start := time.Now()
		res, err := profiled(ctx, cfg, b.name, b.run)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s: %w", b.name, err)
		}
		snap.Results = append(snap.Results, res)
		logger.Info("benchmark done", "name", b.name,
			"ns_per_op", res.NsPerOp, "iterations", res.Iterations,
			"elapsed_ms", time.Since(start).Milliseconds())
	}
	return snap, nil
}

// minCPUSamples is the fewest CPU profile samples (10 ms each) a cpu_hot
// attribution is published from: below it, the shares are noise.
const minCPUSamples = 50

// profiled wraps one benchmark with CPU profiling and heap profiles taken
// before and after it, attaching the parsed top-N flat attribution to its
// result. The heap attribution is the difference of the two, so it names
// only what this benchmark allocated.
func profiled(ctx context.Context, cfg Config, name string, fn func(context.Context) (BenchResult, error)) (BenchResult, error) {
	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		return BenchResult{}, fmt.Errorf("start cpu profile: %w", err)
	}
	// The baseline follows the CPU profiler's start, whose buffers would
	// otherwise top every small benchmark's heap attribution.
	var baseBuf bytes.Buffer
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(&baseBuf, 0); err != nil {
		pprof.StopCPUProfile()
		return BenchResult{}, fmt.Errorf("heap profile: %w", err)
	}
	res, err := fn(ctx)
	pprof.StopCPUProfile()
	if err != nil {
		return BenchResult{}, err
	}
	res.Name = name

	var heapBuf bytes.Buffer
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(&heapBuf, 0); err != nil {
		return BenchResult{}, fmt.Errorf("heap profile: %w", err)
	}

	if cp, err := ParseProfile(cpuBuf.Bytes()); err == nil && cp.Total(cp.IndexFor("samples", "count")) >= minCPUSamples {
		res.CPUHot = cp.Top(cfg.Top, cp.IndexFor("cpu", "nanoseconds"))
	}
	hp, err := ParseProfile(heapBuf.Bytes())
	base, baseErr := ParseProfile(baseBuf.Bytes())
	if err == nil && baseErr == nil {
		res.HeapHot = hp.TopSince(base, cfg.Top, hp.IndexFor("alloc_space", "bytes"))
	}
	if cfg.ProfileDir != "" {
		if err := os.MkdirAll(cfg.ProfileDir, 0o755); err != nil {
			return BenchResult{}, err
		}
		for suffix, buf := range map[string]*bytes.Buffer{"cpu": &cpuBuf, "heap": &heapBuf} {
			p := filepath.Join(cfg.ProfileDir, fmt.Sprintf("%s_%s.pb.gz", name, suffix))
			if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
				return BenchResult{}, err
			}
		}
	}
	return res, nil
}

// benchReps is how many independent repetitions the timed benchmarks
// take the minimum of. Shared machines (CI runners, containers) add
// noise that is strictly additive — contention only ever makes a run
// slower — so min-of-N recovers the intrinsic cost and keeps the 10%
// regression gate from tripping on a neighbor's workload.
const benchReps = 3

// benchEngineRun measures raw simulator throughput via testing.Benchmark:
// one representative day of the WAM workload under the intra-task
// baseline (the same scenario as BenchmarkEngineDay in bench_test.go,
// kept in lockstep so `go test -bench` and `solarsched bench` agree).
// The reported numbers are from the fastest of benchReps independent
// benchmark runs. The cache parameter is unused — the signature matches
// the rest of the suite.
func benchEngineRun(ctx context.Context, _ *fleet.Cache) (BenchResult, error) {
	tb := solar.DefaultTimeBase(4)
	tr := solar.RepresentativeDays(tb).SliceDays(0, 1)
	g := task.WAM()
	eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: []float64{25}})
	if err != nil {
		return BenchResult{}, err
	}
	var best BenchResult
	for rep := 0; rep < benchReps; rep++ {
		var runErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(ctx, sched.NewIntraMatch(g)); err != nil {
					runErr = err
					b.FailNow()
				}
			}
		})
		if runErr != nil {
			return BenchResult{}, runErr
		}
		if br.N == 0 {
			return BenchResult{}, fmt.Errorf("benchmark produced no iterations")
		}
		if rep == 0 || float64(br.NsPerOp()) < best.NsPerOp {
			best = BenchResult{
				Iterations:  br.N,
				NsPerOp:     float64(br.NsPerOp()),
				BytesPerOp:  br.AllocedBytesPerOp(),
				AllocsPerOp: br.AllocsPerOp(),
			}
		}
	}
	periods := float64(tb.PeriodsPerDay) // one simulated day per op
	best.Extra = map[string]float64{
		"ns_per_period": best.NsPerOp / periods,
		"periods":       periods,
	}
	return best, nil
}

// benchFleetCold reports the fastest of benchReps cold passes. The first
// pass runs against the suite's shared cache (warming it for decide_once);
// the remaining passes measure the same cold cost on throwaway caches so
// every sample really pays the offline stages.
func benchFleetCold(ctx context.Context, shared *fleet.Cache) (BenchResult, error) {
	best, err := benchFleet(ctx, shared)
	if err != nil {
		return BenchResult{}, err
	}
	for rep := 1; rep < benchReps; rep++ {
		r, err := benchFleet(ctx, fleet.NewCache(nil))
		if err != nil {
			return BenchResult{}, err
		}
		if r.NsPerOp < best.NsPerOp {
			r.Extra["cache_hit_rate"] = best.Extra["cache_hit_rate"]
			best = r
		}
	}
	best.Iterations = benchReps
	return best, nil
}

// benchFleet measures one wall-clock pass of the quick fleet against
// cache (trace gen, sizing, DP and training when the cache is empty), with
// the pass's cache-hit rate in Extra.
func benchFleet(ctx context.Context, cache *fleet.Cache) (BenchResult, error) {
	specs, err := quickFleetSpec().Compile(nil)
	if err != nil {
		return BenchResult{}, err
	}
	hits0, misses0 := cache.Stats()
	start := time.Now()
	rep, err := fleet.Run(ctx, specs, fleet.Options{Cache: cache})
	elapsed := float64(time.Since(start).Nanoseconds())
	if err != nil {
		return BenchResult{}, err
	}
	if ferr := rep.FirstErr(); ferr != nil {
		return BenchResult{}, ferr
	}
	hits1, misses1 := cache.Stats()
	dh, dm := float64(hits1-hits0), float64(misses1-misses0)
	hitRate := 0.0
	if dh+dm > 0 {
		hitRate = dh / (dh + dm)
	}
	return BenchResult{
		Name:       BenchFleetCold,
		Iterations: 1,
		NsPerOp:    elapsed,
		Extra: map[string]float64{
			"runs":           float64(len(specs)),
			"cache_hit_rate": hitRate,
		},
	}, nil
}

// benchFleetDist measures the quick fleet through the internal/dist
// coordinator/worker protocol: two in-process workers over a shared
// directory, items claimed by rename, results committed as sealed
// files. The workers share one in-memory cache across repetitions, so
// after the first (cold) pass the min-of-N isolates the protocol tax —
// publish + claim + lease heartbeats + sealed-result commit — on top of
// the simulation itself.
func benchFleetDist(ctx context.Context) (BenchResult, error) {
	cache := fleet.NewCache(nil)
	var best BenchResult
	for rep := 0; rep < benchReps; rep++ {
		dir, err := os.MkdirTemp("", "perfbench-dist-")
		if err != nil {
			return BenchResult{}, err
		}
		wctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := dist.NewWorker(dist.WorkerOptions{
					Dir:       dir,
					Heartbeat: 100 * time.Millisecond,
					Poll:      5 * time.Millisecond,
					Cache:     cache,
				})
				_ = w.Run(wctx)
			}()
		}
		start := time.Now()
		frep, err := dist.Coordinate(ctx, quickFleetSpec(), dist.Options{
			Dir:                dir,
			Poll:               10 * time.Millisecond,
			LeaseTTL:           5 * time.Second,
			LocalFallbackAfter: -1,
		})
		elapsed := float64(time.Since(start).Nanoseconds())
		cancel()
		wg.Wait()
		os.RemoveAll(dir)
		if err != nil {
			return BenchResult{}, err
		}
		if ferr := frep.FirstErr(); ferr != nil {
			return BenchResult{}, ferr
		}
		if rep == 0 || elapsed < best.NsPerOp {
			best = BenchResult{
				Iterations: 1,
				NsPerOp:    elapsed,
				Extra: map[string]float64{
					"runs":    float64(len(frep.Results)),
					"workers": 2,
				},
			}
		}
	}
	best.Iterations = benchReps
	return best, nil
}

// benchDecide measures the one-shot online inference path the daemon's
// /v1/decide serves: feature build → DBN forward pass → closure repair →
// threshold rules. NsPerOp is the median — the mean of a µs-scale loop
// is dominated by whichever GC cycles land inside it, and the gate needs
// a statistic that two back-to-back runs agree on. The mean and the tail
// (p99 — the number a sensor-node period boundary actually has to fit)
// ride along in Extra.
func benchDecide(ctx context.Context, cache *fleet.Cache, iters int) (BenchResult, error) {
	pc, net, err := fleet.NetworkFor(ctx, cache, nil, "wam", 4, QuickTrainSpec())
	if err != nil {
		return BenchResult{}, err
	}
	voltages := make([]float64, len(pc.Capacitances))
	for i := range voltages {
		voltages[i] = 0.75 * pc.Params.VHigh
	}
	req := core.DecideRequest{
		Voltages:       voltages,
		AccumulatedDMR: 0.02,
		PeriodOfDay:    pc.Base.PeriodsPerDay / 2,
	}
	call := func() error {
		_, err := core.Decide(pc, net, req)
		return err
	}
	for i := 0; i < 10; i++ { // warmup
		if err := call(); err != nil {
			return BenchResult{}, err
		}
	}
	var best BenchResult
	durs := make([]float64, iters)
	for rep := 0; rep < benchReps; rep++ {
		start := time.Now()
		for i := range durs {
			t0 := time.Now()
			if err := call(); err != nil {
				return BenchResult{}, err
			}
			durs[i] = float64(time.Since(t0).Nanoseconds())
		}
		total := time.Since(start)
		sort.Float64s(durs)
		p50 := stats.Percentile(durs, 0.50)
		if rep == 0 || p50 < best.NsPerOp {
			best = BenchResult{
				Iterations: iters,
				NsPerOp:    p50,
				Extra: map[string]float64{
					"mean_ns": float64(total.Nanoseconds()) / float64(iters),
					"p50_ns":  p50,
					"p99_ns":  stats.Percentile(durs, 0.99),
				},
			}
		}
	}
	return best, nil
}

// benchDecideBatch measures the amortized per-decision cost of the
// coalesced inference path the daemon's -batch-window serves: one
// DecideBatchWS call over a varied 64-request batch, against the same
// requests decided one at a time. NsPerOp is the batched ns per decision;
// the sequential number and the speedup ride in Extra, which is the
// matmul-amortization claim of the serving layer as a committed,
// regression-gated measurement. Before timing anything it verifies the
// batch is bit-identical to the sequential decisions — a divergence fails
// the benchmark rather than recording a fast wrong answer.
func benchDecideBatch(ctx context.Context, cache *fleet.Cache, iters int) (BenchResult, error) {
	pc, net, err := fleet.NetworkFor(ctx, cache, nil, "wam", 4, QuickTrainSpec())
	if err != nil {
		return BenchResult{}, err
	}
	const batchN = 64
	reqs := make([]core.DecideRequest, batchN)
	for i := range reqs {
		v := make([]float64, len(pc.Capacitances))
		for j := range v {
			// Deterministic spread across the operating band so the rows
			// exercise different E_th/δ branches, not one decision 64 times.
			v[j] = (0.35 + 0.6*float64((i*7+j*3)%10)/10) * pc.Params.VHigh
		}
		reqs[i] = core.DecideRequest{
			Voltages:       v,
			AccumulatedDMR: 0.01 * float64(i%5),
			PeriodOfDay:    (i * 13) % pc.Base.PeriodsPerDay,
			ActiveCap:      i % len(pc.Capacitances),
		}
	}

	batched, err := core.DecideBatch(pc, net, reqs)
	if err != nil {
		return BenchResult{}, err
	}
	for i := range reqs {
		solo, err := core.Decide(pc, net, reqs[i])
		if err != nil {
			return BenchResult{}, err
		}
		if !reflect.DeepEqual(solo, batched[i]) {
			return BenchResult{}, fmt.Errorf("batched decision %d diverged from sequential: %+v vs %+v", i, batched[i], solo)
		}
	}

	passes := iters / batchN
	if passes < 1 {
		passes = 1
	}
	ws := mat.NewWorkspace()
	var best BenchResult
	for rep := 0; rep < benchReps; rep++ {
		t0 := time.Now()
		for p := 0; p < passes; p++ {
			for i := range reqs {
				if _, err := core.Decide(pc, net, reqs[i]); err != nil {
					return BenchResult{}, err
				}
			}
		}
		seqNs := float64(time.Since(t0).Nanoseconds()) / float64(passes*batchN)

		t0 = time.Now()
		for p := 0; p < passes; p++ {
			ws.Reset()
			if _, err := core.DecideBatchWS(pc, net, reqs, ws); err != nil {
				return BenchResult{}, err
			}
		}
		batNs := float64(time.Since(t0).Nanoseconds()) / float64(passes*batchN)

		if rep == 0 || batNs < best.NsPerOp {
			best = BenchResult{
				Iterations: passes * batchN,
				NsPerOp:    batNs,
				Extra: map[string]float64{
					"batch_size":                 batchN,
					"sequential_ns_per_decision": seqNs,
					"speedup":                    seqNs / batNs,
				},
			}
		}
	}
	return best, nil
}

// benchShadowEval measures what live shadow evaluation adds to the
// decide hot path: the same one-shot inference as decide_once, with and
// without a learn.Shadow candidate installed and Observe called after
// every decision — exactly the tax RecordDecision pays in the daemon.
// Observe is a lock + non-blocking channel send; the candidate's own
// forward passes run on the shadow worker goroutine, so they show up
// only as background CPU contention, never as serving latency. NsPerOp
// is the shadowed p50; the bare numbers and the p99 overhead (the
// figure the <5% serving-tax claim is gated on) ride in Extra. Each
// side's percentiles are the min over benchReps so one noisy rep cannot
// manufacture phantom overhead.
func benchShadowEval(ctx context.Context, cache *fleet.Cache, iters int) (BenchResult, error) {
	pc, net, err := fleet.NetworkFor(ctx, cache, nil, "wam", 4, QuickTrainSpec())
	if err != nil {
		return BenchResult{}, err
	}
	voltages := make([]float64, len(pc.Capacitances))
	for i := range voltages {
		voltages[i] = 0.75 * pc.Params.VHigh
	}
	req := core.DecideRequest{
		Voltages:       voltages,
		AccumulatedDMR: 0.02,
		PeriodOfDay:    pc.Base.PeriodsPerDay / 2,
	}

	const key = "bench|wam"
	shadow := learn.NewShadow(1024, nil)
	defer shadow.Stop()
	shadow.SetCandidate(key, pc, net, 1)

	durs := make([]float64, iters)
	measure := func(observed bool) (p50, p99 float64, err error) {
		for i := 0; i < 10; i++ { // warmup
			d, err := core.Decide(pc, net, req)
			if err != nil {
				return 0, 0, err
			}
			if observed {
				shadow.Observe(key, "bench", req, d)
			}
		}
		for i := range durs {
			t0 := time.Now()
			d, err := core.Decide(pc, net, req)
			if err != nil {
				return 0, 0, err
			}
			if observed {
				shadow.Observe(key, "bench", req, d)
			}
			durs[i] = float64(time.Since(t0).Nanoseconds())
		}
		sort.Float64s(durs)
		return stats.Percentile(durs, 0.50), stats.Percentile(durs, 0.99), nil
	}

	var baseP50, baseP99, shadowP50, shadowP99 float64
	for rep := 0; rep < benchReps; rep++ {
		b50, b99, err := measure(false)
		if err != nil {
			return BenchResult{}, err
		}
		s50, s99, err := measure(true)
		if err != nil {
			return BenchResult{}, err
		}
		if rep == 0 || b50 < baseP50 {
			baseP50 = b50
		}
		if rep == 0 || b99 < baseP99 {
			baseP99 = b99
		}
		if rep == 0 || s50 < shadowP50 {
			shadowP50 = s50
		}
		if rep == 0 || s99 < shadowP99 {
			shadowP99 = s99
		}
	}
	return BenchResult{
		Iterations: iters,
		NsPerOp:    shadowP50,
		Extra: map[string]float64{
			"base_p50_ns":      baseP50,
			"base_p99_ns":      baseP99,
			"shadow_p50_ns":    shadowP50,
			"shadow_p99_ns":    shadowP99,
			"p99_overhead_pct": 100 * (shadowP99 - baseP99) / baseP99,
		},
	}, nil
}
