// Package sim is the discrete-time simulator of the dual-channel
// solar-powered nonvolatile sensor node (the paper's Figure 3). It advances
// the node slot by slot: the scheduler proposes a priority-ordered task
// list for each slot, the engine enforces physical feasibility (direct
// channel first, then the active super capacitor down to its cut-off
// voltage, trimming lowest-priority tasks on brownout), performs the energy
// bookkeeping of equations (1)–(3), fires deadline misses (eq. (5)) and
// accumulates the DMR and energy-utilization metrics reported in §6.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"solarsched/internal/fault"
	"solarsched/internal/nvp"
	"solarsched/internal/obs"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// DefaultDirectEff is the efficiency of the direct supply channel — the
// high-efficiency path of the dual-channel architecture [11].
const DefaultDirectEff = 0.95

// PeriodView is what a scheduler sees at the beginning of each period: the
// clock, the capacitor bank voltages, the harvest of the period that just
// ended and the accumulated DMR — exactly the online inputs of the paper's
// ANN (§5.1). The engine reuses one PeriodView for the whole run, so a
// scheduler must not keep v.
type PeriodView struct {
	Day, Period int
	Base        solar.TimeBase
	Graph       *task.Graph
	// Bank is the bank as the node's sensors report it. Under sensor
	// faults it is the fault injector's observation, refreshed in place
	// at the next observation (the next slot): read it during
	// BeginPeriod, never keep or modify it.
	Bank             *supercap.Bank
	LastPeriodEnergy float64 // J harvested during the previous period
	AccumulatedDMR   float64 // paper's DMR^acc over all completed periods
}

// PeriodPlan is a scheduler's period-level decision: which capacitor to
// activate (the C_{h,i} selection) and which tasks it intends to execute
// this period (the te_{i,j}(n) set). A nil Allowed permits every task.
type PeriodPlan struct {
	// SwitchTo activates the given capacitor index; negative keeps the
	// current one.
	SwitchTo int
	// Migrate moves the residual usable energy of the old capacitor into
	// the new one through both regulators when switching.
	Migrate bool
	// Allowed masks the tasks the scheduler will execute this period.
	// The engine reads it at every slot of the period, so it must stay
	// unchanged until the period ends; it may be the scheduler's own
	// buffer, rewritten by its next BeginPeriod.
	Allowed []bool
}

// KeepCap is the PeriodPlan that changes nothing.
var KeepCap = PeriodPlan{SwitchTo: -1}

// SlotView is what a scheduler sees at each slot: the clock, the measured
// solar power of the current slot, the active capacitor and the execution
// state of the tasks.
type SlotView struct {
	Day, Period, Slot int
	Base              solar.TimeBase
	SolarPower        float64 // W, measured for the current slot
	// Cap is the active capacitor; nil inside planner-local simulations
	// (PeriodSim, RunPeriodOnCap), whose policies must not read the store:
	// PeriodSim.RunLanes shares one task trajectory among capacitors,
	// which holds only while the policy ignores the store.
	// Under sensor faults Cap and Bank are the fault injector's
	// observation, refreshed in place at the next observation: valid
	// until the next Slot call, like the view itself.
	Cap       *supercap.Capacitor
	Bank      *supercap.Bank // nil inside planner-local simulations
	Tasks     *nvp.Set
	DirectEff float64
}

// Elapsed returns the seconds elapsed in the current period at the
// beginning of the slot.
func (v *SlotView) Elapsed() float64 { return float64(v.Slot) * v.Base.SlotSeconds }

// Scheduler is the contract every scheduling algorithm implements. A
// scheduler instance serves one run at a time: it may keep per-run state
// and slot scratch.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// BeginPeriod is called once at every period boundary.
	BeginPeriod(v *PeriodView) PeriodPlan
	// Slot returns the tasks to execute in this slot, highest priority
	// first. The engine filters the list for readiness and one-task-per-NVP
	// and trims it from the tail if the energy cannot carry the load.
	// The returned slice is valid only until the next Slot call: it may be
	// the scheduler's own buffer, so callers read it and never keep or
	// modify it. The engine reuses one SlotView for the whole run, so a
	// scheduler must not keep v either.
	Slot(v *SlotView) []int
}

// SlotPolicy is a slot-level scheduling function, used standalone by the
// planners in internal/core to simulate candidate periods. Like
// Scheduler.Slot, its result is valid only until the next call and callers
// never keep it; a policy with scratch serves one simulation at a time.
type SlotPolicy func(v *SlotView) []int

// SpeedScheduler is an optional Scheduler extension for DVFS-capable nodes
// (the paper's related work [5–8]): after the engine filters a slot's task
// list, it asks the scheduler for a per-task speed f ∈ (0, 1]. A task at
// speed f advances f·Δt of work while drawing P_n·f^DVFSPowerExponent —
// voltage-frequency scaling trades latency for energy. Schedulers that do
// not implement this run everything at full speed.
type SpeedScheduler interface {
	Scheduler
	// Speeds returns one speed per entry of selected (the engine's
	// post-filter task list for this slot). Values are clamped to
	// [MinDVFSSpeed, 1]. Like Slot's result, the slice may be the
	// scheduler's buffer: it is valid until the next call.
	Speeds(v *SlotView, selected []int) []float64
}

// DVFSPowerExponent is the power-vs-frequency exponent: P ∝ f³ from
// P ≈ C·V²·f with V ∝ f, so energy per unit work scales as f².
const DVFSPowerExponent = 3

// MinDVFSSpeed is the lowest supported frequency ratio.
const MinDVFSSpeed = 0.25

// Config describes one simulation run.
type Config struct {
	Trace        *solar.Trace
	Graph        *task.Graph
	Capacitances []float64       // the distributed bank (C_h)
	Params       supercap.Params // zero value → supercap.DefaultParams()
	DirectEff    float64         // zero → DefaultDirectEff

	// Observer receives the engine's metrics and run/day/period spans.
	// Nil disables instrumentation entirely; the hot path then pays one
	// branch per record site (see BenchmarkEngineBare).
	Observer *obs.Registry

	// Faults configures the deterministic fault-injection layer: power
	// interruptions, sensor corruption of the scheduler's observations,
	// capacitor aging, PMU switch drops and DBN corruption. The zero value
	// disables injection entirely — the engine then follows the exact
	// pre-fault code paths, bit for bit. Each Run derives its own injector
	// from Faults.Seed, so concurrent Runs stay independent and two runs
	// with equal configs produce identical fault patterns.
	Faults fault.Config

	// SlotSpans additionally emits a span per simulated slot. Off by
	// default: it samples the wall clock twice per slot, which is
	// measurable next to the ~µs slot execution itself.
	SlotSpans bool
}

// Observable is an optional Scheduler extension: the engine hands the
// run's observer to any scheduler implementing it before the first
// period, so schedulers can publish their own instruments (admission
// counts, forecast error, guard overrides) into the same pipeline.
type Observable interface {
	SetObserver(*obs.Registry)
}

// FaultAware is an optional Scheduler extension: the engine hands the
// run's fault injector (nil when faults are disabled) to any scheduler
// implementing it before the first period. Schedulers that embed a fault
// surface of their own — the proposed scheduler's DBN inference — draw
// their corruption from the same seeded streams as the engine, keeping the
// whole run reproducible. Implementations must tolerate a nil injector.
type FaultAware interface {
	SetFaultInjector(*fault.Injector)
}

// Engine runs schedulers over a configuration.
type Engine struct {
	cfg Config
	m   *engineMetrics
}

// New validates the configuration and returns an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := cfg.Trace.Base.Validate(); err != nil {
		return nil, err
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if err := cfg.Graph.Validate(cfg.Trace.Base.PeriodSeconds()); err != nil {
		return nil, err
	}
	if len(cfg.Capacitances) == 0 {
		return nil, fmt.Errorf("sim: empty capacitor bank")
	}
	for _, c := range cfg.Capacitances {
		if c <= 0 {
			return nil, fmt.Errorf("sim: non-positive capacitance %g", c)
		}
	}
	if cfg.Params == (supercap.Params{}) {
		cfg.Params = supercap.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.DirectEff == 0 {
		cfg.DirectEff = DefaultDirectEff
	}
	if cfg.DirectEff < 0 || cfg.DirectEff > 1 {
		return nil, fmt.Errorf("sim: direct efficiency %g outside [0,1]", cfg.DirectEff)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, m: newEngineMetrics(cfg.Observer)}, nil
}

// Config returns the engine's (validated, defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// ErrCanceled is returned (wrapped) by Run when the run's context is
// canceled at a period boundary. The partial Result up to the boundary is
// returned alongside it, and — when a checkpoint sink is configured — a
// final checkpoint has already been flushed, so the run can be resumed with
// bit-identical results. Test with errors.Is(err, sim.ErrCanceled).
var ErrCanceled = errors.New("sim: run canceled")

// ErrConfigMismatch is wrapped into every error that rejects a checkpoint
// against the engine or scheduler that tries to resume it: wrong scheduler,
// wrong config digest, wrong schema version, inconsistent cursor. Callers
// use errors.Is(err, sim.ErrConfigMismatch) instead of string-matching.
var ErrConfigMismatch = errors.New("sim: checkpoint does not match run configuration")

// RunOptions controls one simulation run beyond the scheduler itself.
// The zero value reproduces a plain Run exactly. It is constructed through
// the RunOption functional options of Run — there is no other entry point.
type RunOptions struct {
	// Recorder receives a record after every simulated slot (nil is off).
	Recorder Recorder

	// Context cancels the run at the next period boundary; the run then
	// flushes a final checkpoint (if a sink is set) and returns an error
	// wrapping ErrCanceled. Nil means never canceled.
	Context context.Context

	// Resume restarts the run from a previously captured RunState instead
	// of from scratch. The state must validate against this engine and
	// scheduler (same config digest, same scheduler name).
	Resume *RunState

	// Sink receives checkpoints at period boundaries. Nil disables
	// checkpointing.
	Sink func(*RunState) error

	// Gate, when non-nil, is consulted before a periodic checkpoint is
	// captured; returning false skips both the capture and the Sink call.
	// Capturing a RunState serializes the whole run state, so wall-clock
	// throttles (ckpt.Throttle) belong here, where a skipped checkpoint
	// costs one function call. The final flush on context cancellation
	// bypasses the gate — a graceful stop never loses its stopping point.
	Gate func() bool

	// CheckpointEvery is the number of periods between checkpoints when a
	// Sink is set; <= 0 means every period.
	CheckpointEvery int
}

// RunOption configures one call to Run.
type RunOption func(*RunOptions)

// WithRecorder attaches a per-slot state recorder (nil is allowed and is a
// no-op), used for debugging and trace visualization.
func WithRecorder(rec Recorder) RunOption {
	return func(o *RunOptions) { o.Recorder = rec }
}

// WithResume restarts the run from a previously captured RunState instead
// of from scratch. The state must validate against the engine and scheduler
// (same config digest, same scheduler name); a mismatch fails with an error
// wrapping ErrConfigMismatch.
func WithResume(st *RunState) RunOption {
	return func(o *RunOptions) { o.Resume = st }
}

// WithSink delivers checkpoints to sink at period boundaries.
func WithSink(sink func(*RunState) error) RunOption {
	return func(o *RunOptions) { o.Sink = sink }
}

// WithGate consults gate before each periodic checkpoint capture; returning
// false skips both the capture and the sink call (see RunOptions.Gate).
func WithGate(gate func() bool) RunOption {
	return func(o *RunOptions) { o.Gate = gate }
}

// WithCheckpointEvery sets the number of periods between checkpoints when a
// sink is set; n <= 0 means every period.
func WithCheckpointEvery(n int) RunOption {
	return func(o *RunOptions) { o.CheckpointEvery = n }
}

// Run simulates the whole trace under the given scheduler. The context
// cancels the run at the next period boundary (the partial result and an
// error wrapping ErrCanceled are returned); a nil context means never
// canceled. Recording, checkpointing and resume are attached through
// functional options:
//
//	res, err := eng.Run(ctx, s,
//		sim.WithRecorder(rec),
//		sim.WithSink(store.Sink()),
//		sim.WithCheckpointEvery(8))
//
// The period loop is flat — day = k / PeriodsPerDay, period-of-day =
// k % PeriodsPerDay — so a resumed run re-enters at an arbitrary flat
// period index. Checkpoints are captured at period boundaries, before the
// day-boundary aging of the next day (the resumed run reapplies it), which
// is exactly the state a surviving run would carry across that boundary.
func (e *Engine) Run(ctx context.Context, s Scheduler, opts ...RunOption) (*Result, error) {
	ro := RunOptions{Context: ctx}
	for _, opt := range opts {
		if opt != nil {
			opt(&ro)
		}
	}
	return e.run(s, ro)
}

func (e *Engine) run(s Scheduler, opts RunOptions) (*Result, error) {
	tb := e.cfg.Trace.Base
	rec := opts.Recorder
	bank, err := supercap.NewBank(e.cfg.Capacitances, e.cfg.Params)
	if err != nil {
		return nil, err
	}
	ts, err := nvp.NewSet(e.cfg.Graph)
	if err != nil {
		return nil, err
	}
	res := newResult(s.Name(), tb, e.cfg.Graph.N())
	dt := tb.SlotSeconds

	// The fault layer of this run. A nil injector (faults disabled) makes
	// every call below a no-op returning its input, so the clean path is
	// bit-identical to the pre-fault engine.
	inj := fault.NewInjector(e.cfg.Faults)
	inj.SetObserver(e.cfg.Observer)

	if o, ok := s.(Observable); ok {
		o.SetObserver(e.cfg.Observer)
	}
	if fa, ok := s.(FaultAware); ok {
		fa.SetFaultInjector(inj)
	}

	lastEnergy := 0.0
	startPeriod := 0
	if opts.Resume != nil {
		res, lastEnergy, err = e.restoreState(opts.Resume, s, bank, ts, inj)
		if err != nil {
			return nil, err
		}
		startPeriod = opts.Resume.NextPeriod
	}

	runSpan := e.cfg.Observer.StartSpan("sim/run")
	defer runSpan.End()

	// The instrumented hot loop only counts brown-out trims and feeds the
	// slot-load histogram batch; everything else is published per period
	// as deltas of res (see flushPeriod). All of this state is run-local,
	// so concurrent Runs on one engine never share mutable state. On
	// resume the marks seed from the restored totals — the restored obs
	// snapshot already accounts for everything before the boundary.
	marks := energyMarks{
		harvested: res.Harvested,
		delivered: res.Delivered,
		drawn:     res.DrawnOut,
		stored:    res.StoredIn,
		storeLoss: res.StoreLoss,
		leaked:    res.Leaked,
	}
	trims := 0
	loadBatch := e.m.slotLoadBatch()

	var step slotStep
	sv := &step.view
	pv := new(PeriodView) // the run's one PeriodView, reset every period
	var speedsFor func(run []int) []float64
	if ss, ok := s.(SpeedScheduler); ok {
		speedsFor = func(run []int) []float64 { return ss.Speeds(sv, run) }
	}

	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	checkpoint := func(next int) error {
		if opts.Sink == nil {
			return nil
		}
		st, err := e.captureState(s, next, bank, ts, res, lastEnergy, inj)
		if err != nil {
			return err
		}
		return opts.Sink(st)
	}

	var daySpan *obs.Span
	for k := startPeriod; k < tb.TotalPeriods(); k++ {
		day, period := k/tb.PeriodsPerDay, k%tb.PeriodsPerDay
		if opts.Context != nil && opts.Context.Err() != nil {
			// Canceled: flush a final checkpoint at this boundary — the
			// same state a periodic checkpoint at the end of period k-1
			// would have captured — and hand back the partial result.
			daySpan.End()
			if err := checkpoint(k); err != nil {
				return res, err
			}
			return res, fmt.Errorf("%w at period %d/%d: %v",
				ErrCanceled, k, tb.TotalPeriods(), opts.Context.Err())
		}
		if daySpan == nil {
			daySpan = runSpan.Child("day")
		}
		if period == 0 && day > 0 {
			// One day of component wear on the real bank (no-op without
			// aging faults). Schedulers never learn the drifted constants
			// directly — they only see the voltages their sensors report.
			inj.AgeDay(bank)
		}
		periodSpan := daySpan.Child("period")
		*pv = PeriodView{
			Day: day, Period: period, Base: tb,
			Graph: e.cfg.Graph, Bank: inj.ObserveBank(bank),
			LastPeriodEnergy: lastEnergy,
			AccumulatedDMR:   res.DMR(),
		}
		plan := s.BeginPeriod(pv)
		if plan.SwitchTo >= 0 && plan.SwitchTo != bank.ActiveIndex() {
			if plan.SwitchTo >= bank.Size() {
				return nil, fmt.Errorf("sim: scheduler %s switched to capacitor %d of %d",
					s.Name(), plan.SwitchTo, bank.Size())
			}
			if inj.DropSwitch() {
				// PMU fault: the switch request is silently ignored;
				// the scheduler believes it switched.
				res.DroppedSwitches++
			} else {
				if plan.Migrate {
					before := res.MigrationLoss
					res.MigrationLoss += bank.MigrateTo(plan.SwitchTo)
					if e.m != nil {
						e.m.migLoss.Add(res.MigrationLoss - before)
					}
				} else {
					bank.SwitchTo(plan.SwitchTo)
				}
				res.CapSwitches++
				if e.m != nil {
					e.m.capSwitches.Inc()
				}
			}
		}
		ts.ResetPeriod()

		for slot := 0; slot < tb.SlotsPerPeriod; slot++ {
			var slotSpan *obs.Span
			if e.cfg.SlotSpans {
				slotSpan = periodSpan.Child("slot")
			}
			solarW := e.cfg.Trace.At(day, period, slot)
			if inj.DeadSlot() {
				// Power interruption: no channel supplies the load, the
				// panel harvests nothing and the node (scheduler
				// included) does not run. The NVPs suspend at zero cost
				// and retain state — only wall-clock physics continue:
				// capacitors leak and deadlines keep approaching.
				res.DeadSlots++
				before := bankEnergy(bank)
				bank.LeakAll(dt)
				res.Leaked += before - bankEnergy(bank)
				if e.m != nil {
					loadBatch.Observe(0)
				}
				ts.CheckDeadlines(float64(slot+1) * dt)
				if rec != nil {
					rec.Record(SlotRecord{
						Day: day, Period: period, Slot: slot,
						SolarW: solarW, LoadW: 0,
						ActiveCap: bank.ActiveIndex(), ActiveV: bank.Active().V,
						UsableJ:      bank.Active().UsableEnergy(),
						PeriodMisses: ts.Misses(),
					})
				}
				slotSpan.End()
				continue
			}
			*sv = SlotView{
				Day: day, Period: period, Slot: slot, Base: tb,
				SolarPower: solarW, Cap: bank.Active(), Bank: bank,
				Tasks: ts, DirectEff: e.cfg.DirectEff,
			}
			if inj.SensorFaults() {
				// Observation shim: the scheduler sees what the node's
				// sensors report, never the ground truth the physics
				// below run on.
				obsBank := inj.ObserveBank(bank)
				sv.SolarPower = inj.ObserveSolar(solarW)
				sv.Bank = obsBank
				sv.Cap = obsBank.Active()
			}
			order := s.Slot(sv)
			var st SlotStats
			if speedsFor != nil {
				st = step.execDVFS(bank.Active(), ts, order, plan.Allowed, speedsFor, solarW, dt, e.cfg.DirectEff)
			} else {
				st = step.exec(bank.Active(), ts, order, plan.Allowed, solarW, dt, e.cfg.DirectEff)
			}
			res.Harvested += solarW * dt
			res.Delivered += st.LoadPower * dt
			res.StoredIn += st.Stored
			res.StoreLoss += st.SurplusOffered - st.Stored
			res.DrawnOut += st.DrawnOut

			before := bankEnergy(bank)
			bank.LeakAll(dt)
			leakedJ := before - bankEnergy(bank)
			res.Leaked += leakedJ

			if e.m != nil {
				trims += st.Trimmed
				loadBatch.Observe(st.LoadPower)
			}

			ts.CheckDeadlines(float64(slot+1) * dt)
			if rec != nil {
				rec.Record(SlotRecord{
					Day: day, Period: period, Slot: slot,
					SolarW: solarW, LoadW: st.LoadPower,
					ActiveCap: bank.ActiveIndex(), ActiveV: bank.Active().V,
					UsableJ:      bank.Active().UsableEnergy(),
					Ran:          append([]int(nil), st.Ran...),
					PeriodMisses: ts.Misses(),
				})
			}
			slotSpan.End()
		}
		res.recordPeriod(ts.Misses())
		lastEnergy = e.cfg.Trace.PeriodEnergy(day, period)
		if e.m != nil {
			e.m.flushPeriod(res, &marks, tb.SlotsPerPeriod, trims, ts.Misses(), e.cfg.Graph.N())
			trims = 0
			loadBatch.Flush()
		}
		// The span's duration doubles as the per-period engine timing
		// histogram — the distribution the hot-path speed campaign is
		// judged on, not just the run total.
		periodDur := periodSpan.End()
		if e.m != nil {
			e.m.periodSecs.Observe(periodDur)
		}
		if period == tb.PeriodsPerDay-1 {
			daySpan.End()
			daySpan = nil
			if e.m != nil {
				e.m.days.Inc()
			}
		}
		if opts.Sink != nil && (k+1)%every == 0 && k+1 < tb.TotalPeriods() &&
			(opts.Gate == nil || opts.Gate()) {
			if err := checkpoint(k + 1); err != nil {
				return res, err
			}
		}
	}
	res.FinalStored = bank.TotalUsable()
	return res, nil
}

// slotStep is Engine.run's slot execution: the allowed-mask filter, then
// FilterRunnable, brown-out trim, run and settle (execDVFS for
// speed-scaling schedulers). PeriodSim.RunLanes takes the same steps,
// split between its branches and lanes, over a slotStep's view and
// filter. Its scratch belongs to one run, so a warm step allocates
// nothing. Leakage, deadlines, faults and recording stay with the
// drivers.
type slotStep struct {
	view    SlotView  // the run's one SlotView, reset every slot
	allowed []int     // filterAllowed's result
	loads   []float64 // prefix loads of the slot's runnable list
	speeds  []float64 // execDVFS's clamped speeds
}

// ranHook, when set, sees every slot's runnable list after the brown-out
// trim and before the NVPs run it. It is nil except in tests, which check
// the paper's constraints (7) and (9) on every executed slot through it.
var ranHook func(ts *nvp.Set, ran []int)

// exec executes order under the period's allowed mask (nil permits every
// task) on cap and ts.
func (st *slotStep) exec(cap *supercap.Capacitor, ts *nvp.Set, order []int, allowed []bool,
	solarW, dt, directEff float64) SlotStats {
	return st.run(cap, ts, ts.FilterRunnable(st.filterAllowed(order, allowed)), solarW, dt, directEff)
}

// run trims a runnable list to the load the slot can carry, runs the
// survivors and settles the slot's energy.
func (st *slotStep) run(cap *supercap.Capacitor, ts *nvp.Set, run []int,
	solarW, dt, directEff float64) SlotStats {
	st.loads = prefixLoads(st.loads, ts.G, run)
	k := carried(cap, st.loads, solarW*directEff, dt)
	stats := SlotStats{Ran: run[:k], Trimmed: len(run) - k}
	if ranHook != nil {
		ranHook(ts, stats.Ran)
	}
	stats.LoadPower = ts.Run(stats.Ran, dt)
	settleEnergy(cap, &stats, solarW, dt, directEff)
	return stats
}

// filterAllowed drops the tasks outside allowed (and out-of-range ids),
// preserving order. The result is the step's buffer unless allowed is nil.
func (st *slotStep) filterAllowed(order []int, allowed []bool) []int {
	if allowed == nil {
		return order
	}
	out := st.allowed[:0]
	for _, n := range order {
		if n >= 0 && n < len(allowed) && allowed[n] {
			out = append(out, n)
		}
	}
	st.allowed = out
	return out
}

// prefixLoads returns, in dst's storage, the prefix loads of a runnable
// list as carried reads them: loads[m] is the summed power of the list's
// first m tasks.
func prefixLoads(dst []float64, g *task.Graph, run []int) []float64 {
	loads := append(dst[:0], 0)
	for _, n := range run {
		loads = append(loads, loads[len(loads)-1]+g.Tasks[n].Power)
	}
	return loads
}

// carried is the brown-out trim: it returns how many leading tasks of a
// priority-ordered runnable list the slot can power, dropping tasks from
// the tail until the direct channel (directCap W at the load) plus the
// capacitor's deliverable energy carry the rest. loads[m] is the load (W)
// of the list's first m tasks, summed in list order from loads[0] = 0 —
// the same float nvp.Set.Run returns for those m tasks.
//
// When the direct channel alone carries the whole list, the store is not
// consulted: Deliverable is never negative for a finite capacitor state,
// so the full list passes the check whatever it returns, and a surplus
// slot pays no η_dis evaluation.
func carried(cap *supercap.Capacitor, loads []float64, directCap, dt float64) int {
	m := len(loads) - 1
	if m == 0 || (loads[m]-directCap)*dt <= 0 {
		return m
	}
	deliverable := cap.Deliverable() + 1e-12
	for ; m > 0; m-- {
		if (loads[m]-directCap)*dt <= deliverable {
			break
		}
	}
	return m
}

func bankEnergy(b *supercap.Bank) float64 {
	sum := 0.0
	for _, c := range b.Caps {
		sum += c.Energy()
	}
	return sum
}

// SlotStats is the energy ledger of one executed slot.
type SlotStats struct {
	Ran            []int   // tasks that actually executed; the nvp.Set's buffer, valid until its next FilterRunnable
	Trimmed        int     // runnable tasks dropped on brownout
	LoadPower      float64 // W delivered to the NVPs
	SurplusOffered float64 // J offered to the capacitor input
	Stored         float64 // J actually stored (after η_chr·η_cycle and spill)
	DrawnOut       float64 // J delivered by the capacitor output
}

// ExecSlot performs the physical execution of one slot: it filters the
// priority-ordered candidate list for readiness and NVP exclusivity, trims
// it from the tail until the direct channel plus the capacitor can carry
// the load (brownout behavior: an NVP whose task is trimmed simply retains
// its state), runs the survivors, draws the deficit from the capacitor and
// offers the surplus to it. It mutates cap and ts.
func ExecSlot(cap *supercap.Capacitor, ts *nvp.Set, order []int, solarW, dt, directEff float64) SlotStats {
	var st slotStep
	return st.run(cap, ts, ts.FilterRunnable(order), solarW, dt, directEff)
}

// ExecSlotDVFS is ExecSlot for DVFS-capable runs: speedsFor returns a speed
// per task of the filtered list; the load of task n is P_n·f^3 while its
// progress is f·Δt. Trimming drops the lowest-priority task together with
// its speed.
func ExecSlotDVFS(cap *supercap.Capacitor, ts *nvp.Set, order []int,
	speedsFor func(run []int) []float64, solarW, dt, directEff float64) SlotStats {
	var st slotStep
	return st.execDVFS(cap, ts, order, nil, speedsFor, solarW, dt, directEff)
}

// execDVFS is exec for a SpeedScheduler (see ExecSlotDVFS), over the
// step's speed and load buffers.
func (st *slotStep) execDVFS(cap *supercap.Capacitor, ts *nvp.Set, order []int, allowed []bool,
	speedsFor func(run []int) []float64, solarW, dt, directEff float64) SlotStats {

	run := ts.FilterRunnable(st.filterAllowed(order, allowed))
	speeds := speedsFor(run)
	if len(speeds) != len(run) {
		panic(fmt.Sprintf("sim: %d speeds for %d tasks", len(speeds), len(run)))
	}
	clamped := st.speeds[:0]
	loads := append(st.loads[:0], 0)
	for i, f := range speeds {
		f = math.Min(1, math.Max(MinDVFSSpeed, f))
		clamped = append(clamped, f)
		loads = append(loads, loads[i]+ts.G.Tasks[run[i]].Power*f*f*f)
	}
	st.speeds, st.loads = clamped, loads
	k := carried(cap, loads, solarW*directEff, dt)
	stats := SlotStats{Ran: run[:k], Trimmed: len(run) - k}
	if ranHook != nil {
		ranHook(ts, stats.Ran)
	}
	stats.LoadPower = ts.RunScaled(stats.Ran, clamped[:k], DVFSPowerExponent, dt)
	settleEnergy(cap, &stats, solarW, dt, directEff)
	return stats
}

// settleEnergy routes the slot's energy: the load draws from the direct
// channel first, the deficit comes from the capacitor, and the remaining
// solar input charges it.
func settleEnergy(cap *supercap.Capacitor, st *SlotStats, solarW, dt, directEff float64) {
	directCap := solarW * directEff
	directUsed := math.Min(st.LoadPower, directCap)
	if deficit := (st.LoadPower - directUsed) * dt; deficit > 1e-15 {
		st.DrawnOut = cap.Discharge(deficit)
	}
	// Solar input power not consumed by the load is offered to the storage
	// channel. The load consumed directUsed/directEff at the panel side.
	surplusW := solarW
	if directEff > 0 {
		surplusW = solarW - directUsed/directEff
	}
	if surplusW > 1e-15 {
		st.SurplusOffered = surplusW * dt
		st.Stored = cap.Charge(st.SurplusOffered)
	}
}
