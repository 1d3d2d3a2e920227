package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/supercap"
)

const (
	// rounds is how many times a run cycles through its three phases. A
	// small shared host's speed can swing by 2x for 10-20 s at a time, so
	// each phase samples the whole run rather than one stretch of it.
	rounds = 3
)

// bench is one run of one workload.
type bench struct {
	w         workload
	seed      uint64
	seconds   float64
	traced    bool
	daemonBin string
	dir       string
	execAt    time.Time
	ctx       context.Context

	in  *inputs
	tr  *tracer
	ref hostRef
	e2e map[string]metric
	lay map[string]metric

	attempted, failed int
	wrong             int // failed output checks, also counted in failed

	mu   sync.Mutex
	live *daemon // the daemon to kill if the run is interrupted

	// Set by setUp after the first offline cycle.
	main      *fleet.Cache // warm cache for the sweep and the output checks
	specs     []fleet.Spec
	warm      *sweepRep
	schedules [][]request // one per round
	d         *daemon     // the daemon serving the current round

	// Samples gathered over the rounds; cold, restart and pps are in
	// reference time (see ref.go), the *Raw ones are the same units
	// unscaled.
	setup               float64   // seconds; the work after exec in reference time
	daemonSetup         []float64 // reference seconds, one per daemon
	daemonRSS           []float64 // MB, one per daemon
	cold, restart       []float64
	coldRaw, restartRaw []float64
	offlineSpent        time.Duration
	nets, samples       string
	pps, ppsRaw         []float64
	periods             int
	mem                 runtime.MemStats // allocation deltas of the untraced sweep reps
	played              []playedWindow

	// Reference seconds of the same in-process units untraced and traced,
	// for trace_overhead.
	untracedRef, tracedRef float64
}

type playedWindow struct {
	sched  []request
	outs   []outcome
	traced bool
}

// interrupted kills the running daemon, if any; main calls it on SIGINT
// or SIGTERM before exiting, so no daemon outlives the benchmark.
func (b *bench) interrupted() {
	b.mu.Lock()
	d := b.live
	b.mu.Unlock()
	if d != nil {
		d.kill()
	}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// check records an output check; a failed one fails the run.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.wrong++
		b.fail("check failed: "+format, args...)
	}
}

func set(m map[string]metric, name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// share returns one round's part of a phase's share of the run.
func (b *bench) share(frac float64, n int) time.Duration {
	return time.Duration(frac * b.seconds / float64(n) * float64(time.Second))
}

func (b *bench) run() (*result, error) {
	b.e2e, b.lay = map[string]metric{}, map[string]metric{}
	b.in = makeInputs(b.w, b.seed)
	if b.traced {
		b.tr = newTracer()
	}
	b.setup = time.Since(b.execAt).Seconds()
	defer func() {
		if b.d != nil {
			b.d.kill()
		}
	}()

	n := rounds
	if b.traced {
		n = 1
	}
	for r := 1; r <= n; r++ {
		if err := b.offlineRound(r, n); err != nil {
			return nil, fmt.Errorf("offline phase: %w", err)
		}
		if r == 1 {
			if err := b.setUp(); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		if err := b.sweepRound(n); err != nil {
			return nil, fmt.Errorf("sweep phase: %w", err)
		}
		if err := b.serveRound(r); err != nil {
			return nil, fmt.Errorf("serve phase: %w", err)
		}
	}

	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return nil, err
	}
	if b.w.daemonRSS {
		rss = median(b.daemonRSS)
	}
	// Each untraced round's percentiles; a run reports their medians, so
	// one round on a slow stretch of the host does not set a value. The
	// tails are per-layer metrics, computed only in the traced run.
	q := map[string][]float64{}
	var lag []float64
	for _, p := range b.played {
		bad, first, err := verify(b.ctx, b.main, p.sched, p.outs)
		if err != nil {
			return nil, err
		}
		b.check(bad == 0, "%d of %d answers differ from in-process results; first: %s", bad, len(p.sched), first)
		if p.traced {
			continue
		}
		var w window
		w.add(p.sched, p.outs)
		b.failed += w.failed
		lag = append(lag, w.lagMs...)
		type pct struct {
			name string
			xs   []float64
			q    float64
		}
		pcts := []pct{{"decide_p50_ms", w.decideMs, 0.50}, {"run_p50_ms", w.runMs, 0.50}}
		if b.traced {
			pcts = append(pcts, pct{"decide_p99_ms", w.decideMs, 0.99}, pct{"run_p95_ms", w.runMs, 0.95})
		}
		for _, pq := range pcts {
			v, err := percentile(pq.xs, pq.q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pq.name, err)
			}
			q[pq.name] = append(q[pq.name], v)
		}
	}

	res := &result{Correct: b.wrong == 0, Attempted: b.attempted, Failed: min(b.failed, b.attempted)}
	if b.traced {
		set(b.lay, "trace_overhead", b.tracedRef/b.untracedRef, "ratio")
		set(b.lay, "host.ref_ms", median(b.ref.samples)/float64(time.Millisecond), "ms")
		set(b.lay, "host.raw_offline_s", median(b.coldRaw), "s")
		set(b.lay, "host.raw_restart_s", median(b.restartRaw), "s")
		set(b.lay, "host.raw_periods_per_s", median(b.ppsRaw), "periods/s")
		// The tails stay out of the end-to-end set: across ten seeds their
		// quartile distance reached 0.25-0.29 of the median on a 2-vCPU
		// shared host, more than any bound a regression gate can hold.
		set(b.lay, "serve.decide_p99_ms", median(q["decide_p99_ms"]), "ms")
		set(b.lay, "serve.run_p50_ms", median(q["run_p50_ms"]), "ms")
		set(b.lay, "serve.run_p95_ms", median(q["run_p95_ms"]), "ms")
		res.Metrics = b.lay
		return res, nil
	}
	set(b.e2e, "setup_s", b.setup+median(b.daemonSetup), "s")
	set(b.e2e, "peak_rss_mb", rss, "MB")
	set(b.e2e, "success_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	set(b.e2e, "offline_s", median(b.cold), "s")
	set(b.e2e, "restart_s", median(b.restart), "s")
	set(b.e2e, "periods_per_s", median(b.pps), "periods/s")
	set(b.e2e, "dmr_proposed", dmrOf(b.warm.report, "proposed"), "ratio")
	set(b.e2e, "decide_p50_ms", median(q["decide_p50_ms"]), "ms")
	lagP99, _ := percentile(lag, 0.99)
	fmt.Fprintf(os.Stderr, "benchmark: kernel median %.3v ms; in reference time: cold passes %.3v s, "+
		"restart median %.3v s, sweep reps %.4v periods/s; per round: %v; dispatcher lag p99 %.3v ms, "+
		"in-process set-up %.3v s, daemon set-ups %.3v s\n", median(b.ref.samples)/1e6, b.cold, median(b.restart), b.pps, q, lagP99,
		b.setup, b.daemonSetup)
	res.Metrics = b.e2e
	return res, nil
}

// offlineRound runs offline cycles while the time spent on them stays
// within round r's part of the offline budget, and always one in the
// first round. A traced run makes two untraced cycles, the second of
// which is trace_overhead's baseline (the first also pays for the heap's
// growth), and then one traced cycle.
func (b *bench) offlineRound(r, n int) error {
	budget := time.Duration(r) * b.share(b.w.offline, n)
	for r == 1 || b.offlineSpent+b.offlineSpent/time.Duration(len(b.cold)) <= budget {
		if err := b.offlineCycle(); err != nil {
			return err
		}
		if b.traced && len(b.cold) == 1 {
			continue
		}
		if r == 1 || b.traced {
			break
		}
	}
	if !b.traced {
		return nil
	}
	return b.offlineTraced()
}

// offlineCycle runs a cold pass over a fresh store and restartsPerCycle
// restart passes over it, and checks their digests. The first cycle's
// last restart cache becomes the run's warm cache.
func (b *bench) offlineCycle() error {
	cfgs := b.in.configs
	restarts := restartsPerCycle
	if b.traced {
		restarts = 1
	}
	start := time.Now()
	cycle := len(b.cold) + 1
	dir := filepath.Join(b.dir, fmt.Sprintf("store%d", cycle))
	b.attempted += len(cfgs)
	cp, err := coldPass(b.ctx, dir, cfgs, nil, &b.ref)
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	b.cold = append(b.cold, cp.ref)
	b.coldRaw = append(b.coldRaw, cp.elapsed.Seconds())
	if b.traced && cycle == 2 {
		b.untracedRef += cp.ref
	}
	nets, samples, err := digests(b.ctx, cp.cache, cfgs)
	if err != nil {
		return err
	}
	if cycle == 1 {
		b.nets, b.samples = nets, samples
		if b.w.name == "offline_cold" && b.seed == defaultSeed {
			b.check(nets == golden.offlineNets, "network digest %s, golden %s", nets, golden.offlineNets)
			b.check(samples == golden.offlineSamples, "sample digest %s, golden %s", samples, golden.offlineSamples)
		}
	}
	b.check(nets == b.nets && samples == b.samples, "cold pass %d digests differ from cold pass 1", cycle)
	// A restart pass takes milliseconds, so each is scaled by the kernel
	// samples right around it, and their digests are checked after the
	// last one. A sample ends with a collection, so every pass starts from
	// a swept heap.
	var caches []*fleet.Cache
	prev := b.ref.sample()
	for k := 0; k < restarts; k++ {
		b.attempted += len(cfgs)
		rp, err := restartPass(b.ctx, dir, cfgs, nil)
		if err != nil {
			return fmt.Errorf("restart pass: %w", err)
		}
		next := b.ref.sample()
		ref := scale(prev, next) * rp.elapsed.Seconds()
		prev = next
		b.restart = append(b.restart, ref)
		b.restartRaw = append(b.restartRaw, rp.elapsed.Seconds())
		if b.traced && cycle == 2 {
			b.untracedRef += ref
		}
		caches = append(caches, rp.cache)
	}
	for _, c := range caches {
		nets, samples, err := digests(b.ctx, c, cfgs)
		if err != nil {
			return err
		}
		b.check(nets == b.nets && samples == b.samples, "restart pass digests differ from the cold pass")
	}
	if cycle == 1 {
		b.main = caches[len(caches)-1]
	}
	if cycle > 1 {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.offlineSpent += time.Since(start)
	return nil
}

// offlineTraced runs one traced cycle and records the offline layers.
func (b *bench) offlineTraced() error {
	cfgs := b.in.configs
	pr := &probe{tr: b.tr, reg: obs.NewRegistry()}
	dir := filepath.Join(b.dir, "traced")
	defer os.RemoveAll(dir)
	b.attempted += 2 * len(cfgs)
	cp, err := coldPass(b.ctx, dir, cfgs, pr, &b.ref)
	if err != nil {
		return fmt.Errorf("traced cold pass: %w", err)
	}
	before := b.ref.sample()
	rp, err := restartPass(b.ctx, dir, cfgs, pr)
	if err != nil {
		return fmt.Errorf("traced restart pass: %w", err)
	}
	b.tracedRef += cp.ref + scale(before, b.ref.sample())*rp.elapsed.Seconds()
	L := b.lay
	set(L, "store.puts", float64(cp.tp.puts.Load()), "count")
	set(L, "store.put_bytes", float64(cp.tp.putBytes.Load()), "bytes")
	set(L, "store.put_s", time.Duration(cp.tp.putNs.Load()).Seconds(), "s")
	set(L, "store.gets", float64(rp.tp.gets.Load()), "count")
	set(L, "store.get_bytes", float64(rp.tp.getBytes.Load()), "bytes")
	set(L, "store.get_s", time.Duration(rp.tp.getNs.Load()).Seconds(), "s")
	set(L, "store.verify_s", rp.verify.Seconds(), "s")
	set(L, "store.warm_hit_ratio", rp.cache.WarmHitRate(), "ratio")
	ch, cm := cp.cache.Stats()
	rh, rm := rp.cache.Stats()
	set(L, "fleet.cache_hits", float64(ch+rh), "count")
	set(L, "fleet.cache_misses", float64(cm+rm), "count")

	for _, c := range []*fleet.Cache{cp.cache, rp.cache} {
		nets, samples, err := digests(b.ctx, c, cfgs)
		if err != nil {
			return err
		}
		b.check(nets == b.nets && samples == b.samples, "traced pass digests differ from the untraced ones")
	}

	spans := b.tr.snapshot()
	for name, stage := range map[string]string{
		"solar.trace_s": "solar.trace", "sizing.patterns_s": "sizing.patterns", "sizing.bank_s": "sizing.bank",
		"core.samples_s": "core.samples", "ann.train_s": "ann.network",
	} {
		set(L, name, sumDur(spans, "cold/"+stage).Seconds(), "s")
	}
	reg := pr.reg
	dp := reg.Timer("core_dp_solve_seconds")
	set(L, "core.dp_solve_s", dp.Sum(), "s")
	set(L, "core.dp_solves", float64(dp.Count()), "count")
	set(L, "core.dp_expansions", reg.Counter("core_dp_expansions_total").Value(), "count")
	hits, misses := reg.Counter("core_lut_hits_total").Value(), reg.Counter("core_lut_misses_total").Value()
	set(L, "core.lut_builds", misses, "count")
	set(L, "core.lut_lookups", hits+misses, "count")
	set(L, "core.lut_hit_ratio", hits/(hits+misses), "ratio")
	set(L, "sim.teacher_slots", reg.Counter("sim_slots_total").Value(), "count")

	nSamples, us, subsets, err := b.periodOptions(cp.cache)
	if err != nil {
		return err
	}
	set(L, "ann.samples", float64(nSamples), "count")
	set(L, "core.period_options_us", us, "us")
	set(L, "core.closed_subsets", subsets, "count")
	return nil
}

// periodOptions counts the teacher samples the cache holds and times
// core.PeriodOptions on a seed-drawn sample of its inputs: per
// configuration, random capacitors, start voltages and periods of the
// training trace. It returns the sample count, the median call time in
// µs and the mean number of closed subsets each call simulates.
func (b *bench) periodOptions(c *fleet.Cache) (int, float64, float64, error) {
	const callsPerConfig = 40
	r := newRand(b.seed, 4)
	p := supercap.DefaultParams()
	var us, subsets []float64
	nSamples := 0
	for _, cfg := range b.in.configs {
		pc, _, err := fleet.NetworkFor(b.ctx, c, nil, cfg.Graph, cfg.H, cfg.Train)
		if err != nil {
			return 0, 0, 0, err
		}
		trainTr, err := c.Trace(b.ctx, genConfig(cfg.Train))
		if err != nil {
			return 0, 0, 0, err
		}
		ss, err := c.Samples(b.ctx, pc, trainTr)
		if err != nil {
			return 0, 0, 0, err
		}
		nSamples += len(ss.Inputs)
		n := float64(len(core.ClosedSubsets(pc.Graph)))
		for i := 0; i < callsPerConfig; i++ {
			capC := pc.Capacitances[r.IntN(len(pc.Capacitances))]
			v0 := p.VLow + r.Float64()*(p.VHigh-p.VLow)
			powers := trainTr.PeriodPowers(r.IntN(trainTr.Base.Days), r.IntN(trainTr.Base.PeriodsPerDay))
			start := time.Now()
			core.PeriodOptions(capC, v0, powers, pc)
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
			subsets = append(subsets, n)
		}
	}
	return nSamples, median(us), mean(subsets), nil
}

// setUp prepares the sweep and serve phases after the first offline
// cycle: every shared network in the warm cache, one untimed sweep rep
// (which also generates the sweep's weather) and one serve schedule per
// round drawn against the sized banks. Its time joins setup_s, the
// networks and the sweep rep in reference time.
func (b *bench) setUp() error {
	_, shared, err := resolveAll(b.ctx, b.main, sharedConfigs, nil, "", &b.ref)
	if err != nil {
		return err
	}
	start := time.Now()
	if b.specs, err = b.in.sweep.Compile(nil); err != nil {
		return err
	}
	unscaled := time.Since(start)
	before := b.ref.sample()
	if b.warm, err = runSweep(b.ctx, b.specs, b.main, nil); err != nil {
		return fmt.Errorf("sweep warm-up: %w", err)
	}
	warm := scale(before, b.ref.sample()) * b.warm.elapsed.Seconds()
	if b.seed == defaultSeed {
		b.check(b.warm.digest == golden.sweep, "sweep digest %s, golden %s", b.warm.digest, golden.sweep)
	}
	n := rounds
	if b.traced {
		n = 1
	}
	start = time.Now()
	for r := 0; r < n; r++ {
		sched, err := b.drawSchedule(10+uint64(r), n)
		if err != nil {
			return err
		}
		b.schedules = append(b.schedules, sched)
	}
	unscaled += time.Since(start)
	b.setup += shared + warm + unscaled.Seconds()
	return nil
}

// sweepRound runs this round's timed sweep reps: at least one, and until
// the round's share of the sweep budget is spent. A traced run then adds
// one traced rep.
func (b *bench) sweepRound(n int) error {
	budget := b.share(b.w.sweep, n)
	start := time.Now()
	prev := b.ref.sample()
	for reps := 1; ; reps++ {
		b.attempted += len(b.specs)
		rep, err := runSweep(b.ctx, b.specs, b.main, &b.mem)
		if err != nil {
			return err
		}
		next := b.ref.sample()
		b.check(rep.digest == b.warm.digest, "sweep rep digest %s, warm-up %s", rep.digest, b.warm.digest)
		f := scale(prev, next)
		b.pps = append(b.pps, rep.periodsPerSecond()/f)
		b.ppsRaw = append(b.ppsRaw, rep.periodsPerSecond())
		prev = next
		if b.traced {
			b.untracedRef += f * rep.elapsed.Seconds()
		}
		b.periods += rep.periods
		spent := time.Since(start)
		if b.traced || spent+spent/time.Duration(reps) > budget {
			break
		}
	}
	if !b.traced {
		return nil
	}
	return b.sweepTraced()
}

// sweepTraced runs one traced sweep rep and records the sweep layers.
func (b *bench) sweepTraced() error {
	L := b.lay
	periods := float64(b.periods)
	set(L, "sim.allocs_per_period", float64(b.mem.Mallocs)/periods, "count")
	set(L, "sim.bytes_per_period", float64(b.mem.TotalAlloc)/periods, "bytes")
	set(L, "runtime.gc_cycles", float64(b.mem.NumGC), "count")
	set(L, "runtime.gc_pause_s", time.Duration(b.mem.PauseTotalNs).Seconds(), "s")

	sp := &sweepProbe{tr: b.tr, reg: obs.NewRegistry()}
	specs, err := sp.compile(b.in.sweep)
	if err != nil {
		return err
	}
	b.attempted += len(specs)
	before := b.ref.sample()
	rep, err := runSweep(b.ctx, specs, b.main, nil)
	if err != nil {
		return fmt.Errorf("traced rep: %w", err)
	}
	b.tracedRef += scale(before, b.ref.sample()) * rep.elapsed.Seconds()
	b.check(rep.digest == b.warm.digest, "traced sweep digest %s, untraced %s", rep.digest, b.warm.digest)
	if err := sp.spans(rep.report); err != nil {
		return err
	}
	spans := b.tr.snapshot()
	runS := sumSelf(spans, selfTimes(spans), "fleet.run")
	var callbacks, busy, propBegin time.Duration
	var propPeriods int64
	slot, begin := map[string]time.Duration{}, map[string]time.Duration{}
	for _, t := range sp.timers {
		callbacks += time.Duration(t.beginNs + t.slotNs)
		slot[t.name] += time.Duration(t.slotNs)
		begin[t.name] += time.Duration(t.beginNs)
		if t.name == "proposed" {
			propBegin += time.Duration(t.beginNs)
			propPeriods += t.periods
		}
	}
	for _, rr := range rep.report.Results {
		busy += rr.Elapsed
	}
	set(L, "fleet.prepare_s", sumDur(spans, "fleet.prepare").Seconds(), "s")
	set(L, "fleet.worker_busy_ratio", busy.Seconds()/(float64(runtime.GOMAXPROCS(0))*rep.elapsed.Seconds()), "ratio")
	set(L, "sim.run_s", runS.Seconds(), "s")
	set(L, "sim.engine_self_s", (runS - callbacks).Seconds(), "s")
	for _, name := range sweepSchedulers {
		set(L, "sched."+name+".slot_s", slot[name].Seconds(), "s")
		set(L, "sched."+name+".begin_period_s", begin[name].Seconds(), "s")
	}
	set(L, "core.proposed_period_us", float64(propBegin)/float64(time.Microsecond)/float64(propPeriods), "us")
	set(L, "sim.periods", sp.reg.Counter("sim_periods_total").Value(), "count")
	set(L, "sim.slots", sp.reg.Counter("sim_slots_total").Value(), "count")
	return nil
}

// serveRound starts and warms a fresh daemon, plays round r's schedule
// against it and stops it. A traced run plays a second schedule, drawn
// from another stream of the seed, with /metrics scraped around it,
// before the daemon stops.
func (b *bench) serveRound(r int) error {
	seg := b.schedules[r-1]
	if err := b.startRoundDaemon(seg); err != nil {
		return err
	}
	outs := fire(b.ctx, b.d.base, seg)
	b.attempted += len(seg)
	b.played = append(b.played, playedWindow{sched: seg, outs: outs})
	if b.traced {
		if err := b.serveTraced(); err != nil {
			return err
		}
	}
	return b.stopRoundDaemon()
}

// startRoundDaemon execs solarschedd and warms it with one decide per
// network and one run job. Exec to warmed, scaled by the kernel samples
// right around it, is one sample of the daemon's set-up time; setup_s
// takes their median over the rounds, so the samples spread over the run
// instead of sharing one stretch of the host. Warming is training-bound
// work like the in-process set-up, and over six seeds the scaled sum
// spread 0.13 against 0.16 unscaled.
func (b *bench) startRoundDaemon(sched []request) error {
	kb := b.ref.sample()
	start := time.Now()
	d, err := startDaemon(b.daemonBin)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.live = d
	b.mu.Unlock()
	b.d = d
	if err := warmDaemon(b.ctx, d, sched); err != nil {
		return fmt.Errorf("warming daemon: %w", err)
	}
	raw := time.Since(start).Seconds()
	b.daemonSetup = append(b.daemonSetup, scale(kb, b.ref.sample())*raw)
	return nil
}

// stopRoundDaemon records the daemon's peak resident memory and drains it
// with SIGTERM; an unclean exit is a failed operation.
func (b *bench) stopRoundDaemon() error {
	rss, err := peakRSSMB(strconv.Itoa(b.d.cmd.Process.Pid))
	if err != nil {
		return err
	}
	b.daemonRSS = append(b.daemonRSS, rss)
	b.attempted++
	err = b.d.stop()
	b.mu.Lock()
	b.live = nil
	b.mu.Unlock()
	b.d = nil
	if err != nil {
		b.fail("%v", err)
	}
	return nil
}

// serveTraced plays a second schedule with /metrics scraped around it and
// records the serve layers: daemon-side handler and job times from the
// scrapes, the load generator's own lateness, and an in-process replay of
// its decides that splits a decide into network resolution, the decision
// and the forward pass.
func (b *bench) serveTraced() error {
	sched, err := b.drawSchedule(5, 1)
	if err != nil {
		return err
	}
	before, err := scrape(b.d.base)
	if err != nil {
		return err
	}
	outs := fire(b.ctx, b.d.base, sched)
	after, err := scrape(b.d.base)
	if err != nil {
		return err
	}
	b.attempted += len(sched)
	b.played = append(b.played, playedWindow{sched: sched, outs: outs, traced: true})
	for i, o := range outs {
		name := "serve.decide"
		if sched[i].Run {
			name = "serve.run"
		}
		b.tr.add(name, sched[i].ID, 0, o.sent, o.done)
	}
	var w window
	w.add(sched, outs)
	b.failed += w.failed

	L := b.lay
	delta := func(series string) float64 { return after[series] - before[series] }
	handlerMs := 1000 * delta("serve_decide_seconds_sum") / delta("serve_decide_seconds_count")
	set(L, "serve.decide_handler_ms", handlerMs, "ms")
	set(L, "serve.decide_outside_ms", mean(w.decideSentMs)-handlerMs, "ms")
	set(L, "serve.job_s", delta("serve_job_seconds_sum")/delta("serve_job_seconds_count"), "s")
	set(L, "loadgen.run_conn_busy_ratio", w.runBusy.Seconds()/w.wall.Seconds(), "ratio")
	set(L, "serve.rejected", delta("serve_jobs_rejected_total"), "count")
	set(L, "serve.errors", float64(w.failed), "count")
	for _, p := range []struct {
		name string
		q    float64
	}{{"loadgen.lag_p50_ms", 0.50}, {"loadgen.lag_p99_ms", 0.99}} {
		v, err := percentile(w.lagMs, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		set(L, p.name, v, "ms")
	}
	set(L, "loadgen.decides", float64(len(w.decideMs)), "count")
	set(L, "loadgen.runs", float64(len(w.runMs)), "count")

	var resolveUs, decideUs, forwardUs []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, r := range sched {
		if r.Run {
			continue
		}
		t0 := time.Now()
		pc, net, err := fleet.NetworkFor(b.ctx, b.main, nil, r.Config.Graph, r.Config.H, r.Config.Train)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := core.Decide(pc, net, r.Decide); err != nil {
			return err
		}
		t2 := time.Now()
		x := core.Features(r.Decide.PrevPowers, r.Decide.Voltages, r.Decide.AccumulatedDMR,
			r.Decide.PeriodOfDay, pc.Base.PeriodsPerDay, pc.Params)
		t3 := time.Now()
		net.Forward(x)
		t4 := time.Now()
		resolveUs = append(resolveUs, us(t1.Sub(t0)))
		decideUs = append(decideUs, us(t2.Sub(t1)))
		forwardUs = append(forwardUs, us(t4.Sub(t3)))
	}
	set(L, "fleet.network_for_us", median(resolveUs), "us")
	set(L, "core.decide_us", median(decideUs), "us")
	set(L, "ann.forward_us", median(forwardUs), "us")
	return nil
}

// drawSchedule draws one of n rounds' serve schedules from the given
// stream of the seed, with the banks the warm cache sized for the decide
// configurations.
func (b *bench) drawSchedule(stream uint64, n int) ([]request, error) {
	banks := map[netConfig]int{}
	for _, cfg := range []netConfig{decideA, decideB} {
		pc, _, err := fleet.NetworkFor(b.ctx, b.main, nil, cfg.Graph, cfg.H, cfg.Train)
		if err != nil {
			return nil, err
		}
		banks[cfg] = len(pc.Capacitances)
	}
	return drawSchedule(newRand(b.seed, stream), b.w.serve*b.seconds/float64(n), banks)
}

// warmDaemon sends one decide per network and one run job, so the rounds
// measure a daemon whose caches hold what the schedule needs.
func warmDaemon(ctx context.Context, d *daemon, sched []request) error {
	client := &http.Client{Timeout: 120 * time.Second}
	defer client.CloseIdleConnections()
	// The two networks train concurrently, one connection each.
	cfgs := []netConfig{decideA, decideB}
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		var body []byte
		for _, r := range sched {
			if !r.Run && r.Config == cfg {
				body = r.Body
				break
			}
		}
		if body == nil {
			return fmt.Errorf("schedule has no decide for %s", cfg)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = expectOK(post(ctx, client, d.base+"/v1/decide", "warm-"+cfg.Graph, body))
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	train := decideB.Train
	body, err := json.Marshal(fleet.FileSpec{
		Defaults: fleet.RunSpec{
			Graph: decideB.Graph, H: decideB.H, Train: &train,
			Trace: fleet.TraceSpec{Kind: "gen", Days: 2, Seed: 1, DayOfYear: 1},
		},
		Runs: []fleet.RunSpec{{Scheduler: "inter"}, {Scheduler: "intra"}, {Scheduler: "proposed"}},
	})
	if err != nil {
		return err
	}
	return expectOK(post(ctx, client, d.base+"/v1/runs?wait=1", "warm-run", body))
}

func expectOK(status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	return nil
}
