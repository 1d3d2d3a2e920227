package fault

import (
	"math"

	"solarsched/internal/ann"
	"solarsched/internal/obs"
	"solarsched/internal/rng"
	"solarsched/internal/supercap"
)

// Counts is the run-local tally of injected faults, used by reports and
// tests. The injector also publishes the same quantities through obs
// counters when an observer is attached.
type Counts struct {
	Outages        int // power interruptions begun
	DeadSlots      int // slots lost to interruptions
	SolarDrops     int // solar readings dropped to zero
	VoltDrops      int // voltage readings gone stale
	SwitchDrops    int // PMU switch requests silently ignored
	DBNCorruptions int // corrupted network inferences
	AgedDays       int // day boundaries with aging applied
}

// Injector draws and applies the faults of one simulation run. Every
// method is safe on a nil receiver (and then a no-op returning its input),
// so the engine's hot path stays branch-free when faults are disabled.
// An Injector is single-run state: the engine builds a fresh one per Run,
// which is what keeps concurrent Runs on one engine deterministic.
type Injector struct {
	cfg Config

	// One independent stream per fault class: tuning one class never
	// perturbs another's draws.
	outage, solarS, voltS, pmu, dbn *rng.Source

	outageLeft int       // slots remaining in the current interruption
	lastVolts  []float64 // last observed voltage per capacitor (stale reads)
	haveVolts  []bool

	// observed is the bank ObserveBank hands out, refreshed in place on
	// every call. Scratch, not state: it is rebuilt from the true bank at
	// the next observation, so checkpoints leave it out.
	observed *supercap.Bank

	counts Counts
	m      *injMetrics
}

type injMetrics struct {
	deadSlots, outages, solarDrops, voltDrops *obs.Counter
	switchDrops, dbnCorruptions, agedDays     *obs.Counter
}

// NewInjector returns an injector for the config, or nil when the config
// disables every fault class (the nil injector is the no-op layer).
// The config must have been validated.
func NewInjector(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.OutageSlots <= 0 {
		cfg.OutageSlots = 1
	}
	base := rng.New(cfg.Seed)
	return &Injector{
		cfg:    cfg,
		outage: base.SplitLabeled("fault/outage"),
		solarS: base.SplitLabeled("fault/solar"),
		voltS:  base.SplitLabeled("fault/volt"),
		pmu:    base.SplitLabeled("fault/pmu"),
		dbn:    base.SplitLabeled("fault/dbn"),
	}
}

// SetObserver attaches obs counters for every fault class. Nil receivers
// and nil registries are ignored.
func (inj *Injector) SetObserver(reg *obs.Registry) {
	if inj == nil || reg == nil {
		return
	}
	inj.m = &injMetrics{
		deadSlots:      reg.Counter("fault_dead_slots_total"),
		outages:        reg.Counter("fault_outages_total"),
		solarDrops:     reg.Counter("fault_sensor_drops_total", obs.L("sensor", "solar")),
		voltDrops:      reg.Counter("fault_sensor_drops_total", obs.L("sensor", "voltage")),
		switchDrops:    reg.Counter("fault_switch_drops_total"),
		dbnCorruptions: reg.Counter("fault_dbn_corruptions_total"),
		agedDays:       reg.Counter("fault_aged_days_total"),
	}
}

// Counts returns the faults injected so far in this run.
func (inj *Injector) Counts() Counts {
	if inj == nil {
		return Counts{}
	}
	return inj.counts
}

// SensorFaults reports whether the engine must build corrupted observation
// views for the scheduler.
func (inj *Injector) SensorFaults() bool {
	return inj != nil && inj.cfg.SensorFaults()
}

// DeadSlot advances the power-interruption state by one slot and reports
// whether this slot is dead: no harvest, no channel supplying the load, no
// scheduler execution. NVPs retain their state across the interruption.
func (inj *Injector) DeadSlot() bool {
	if inj == nil {
		return false
	}
	if inj.outageLeft > 0 {
		inj.outageLeft--
		inj.counts.DeadSlots++
		if inj.m != nil {
			inj.m.deadSlots.Inc()
		}
		return true
	}
	if inj.cfg.OutageProb > 0 && inj.outage.Float64() < inj.cfg.OutageProb {
		inj.outageLeft = inj.cfg.OutageSlots - 1
		inj.counts.Outages++
		inj.counts.DeadSlots++
		if inj.m != nil {
			inj.m.outages.Inc()
			inj.m.deadSlots.Inc()
		}
		return true
	}
	return false
}

// ObserveSolar corrupts one solar-power reading: dropout to zero, then
// multiplicative Gaussian noise, clamped non-negative. The true value is
// untouched; the engine keeps using it for the physics.
func (inj *Injector) ObserveSolar(w float64) float64 {
	if inj == nil {
		return w
	}
	if inj.cfg.SolarDropProb > 0 && inj.solarS.Float64() < inj.cfg.SolarDropProb {
		inj.counts.SolarDrops++
		if inj.m != nil {
			inj.m.solarDrops.Inc()
		}
		return 0
	}
	if inj.cfg.SolarNoise > 0 {
		w *= 1 + inj.solarS.Norm(0, inj.cfg.SolarNoise)
		if w < 0 {
			w = 0
		}
	}
	return w
}

// ObserveBank returns a copy of the bank whose capacitor voltages are
// what the node's sensors would report: possibly stale (dropout), noisy
// and quantized. Schedulers see this copy; the engine keeps the ground
// truth. The copy's parameters (including aging drift) are the real ones —
// aging corrupts the plant, not the sensor.
//
// The copy is the injector's own bank, refreshed in place: it is valid
// until the next ObserveBank call, and callers never keep or modify it.
func (inj *Injector) ObserveBank(b *supercap.Bank) *supercap.Bank {
	if inj == nil || !inj.cfg.SensorFaults() {
		return b
	}
	out := b.CopyInto(inj.observed)
	inj.observed = out
	if len(inj.lastVolts) < len(out.Caps) {
		inj.lastVolts = append(inj.lastVolts, make([]float64, len(out.Caps)-len(inj.lastVolts))...)
		inj.haveVolts = append(inj.haveVolts, make([]bool, len(out.Caps)-len(inj.haveVolts))...)
	}
	for i, c := range out.Caps {
		c.V = inj.observeVolt(i, c.V)
	}
	return out
}

// observeVolt corrupts one voltage reading and records it as the stale
// value future dropouts return.
func (inj *Injector) observeVolt(i int, v float64) float64 {
	if inj.cfg.VoltDropProb > 0 && inj.voltS.Float64() < inj.cfg.VoltDropProb && inj.haveVolts[i] {
		inj.counts.VoltDrops++
		if inj.m != nil {
			inj.m.voltDrops.Inc()
		}
		return inj.lastVolts[i]
	}
	if inj.cfg.VoltNoise > 0 {
		v += inj.voltS.Norm(0, inj.cfg.VoltNoise)
	}
	if step := inj.cfg.VoltQuantStep; step > 0 {
		v = math.Round(v/step) * step
	}
	if v < 0 {
		v = 0
	}
	inj.lastVolts[i], inj.haveVolts[i] = v, true
	return v
}

// DropSwitch reports whether the PMU silently ignores the current
// capacitor-switch request. Drawn only when a switch is actually
// requested.
func (inj *Injector) DropSwitch() bool {
	if inj == nil || inj.cfg.SwitchDropProb <= 0 {
		return false
	}
	if inj.pmu.Float64() < inj.cfg.SwitchDropProb {
		inj.counts.SwitchDrops++
		if inj.m != nil {
			inj.m.switchDrops.Inc()
		}
		return true
	}
	return false
}

// CorruptDBN corrupts one network inference with probability
// DBNCorruptProb: NaN pattern index, NaN task mask or NaN capacitor head —
// the out-of-range outputs a misbehaving accelerator or bit-flipped weight
// store produces. The input vectors are not mutated.
func (inj *Injector) CorruptDBN(o ann.Output) ann.Output {
	if inj == nil || inj.cfg.DBNCorruptProb <= 0 || inj.dbn.Float64() >= inj.cfg.DBNCorruptProb {
		return o
	}
	inj.counts.DBNCorruptions++
	if inj.m != nil {
		inj.m.dbnCorruptions.Inc()
	}
	nan := math.NaN()
	switch inj.dbn.Intn(3) {
	case 0:
		o.Alpha = nan
	case 1:
		te := make([]float64, len(o.Te))
		for i := range te {
			te[i] = nan
		}
		o.Te = te
	default:
		probs := make([]float64, len(o.CapProbs))
		for i := range probs {
			probs[i] = nan
		}
		o.CapProbs = probs
	}
	return o
}

// AgeDay applies one day of component wear to every capacitor in the
// bank: capacitance fade, leakage growth and regulator-efficiency drift.
// Deterministic — aging is drift, not noise.
func (inj *Injector) AgeDay(b *supercap.Bank) {
	if inj == nil {
		return
	}
	a := supercap.Aging{
		CapFade:    inj.cfg.CapFade,
		LeakGrowth: inj.cfg.LeakGrowth,
		EffFade:    inj.cfg.EffFade,
	}
	if a == (supercap.Aging{}) {
		return
	}
	b.AgeAll(a)
	inj.counts.AgedDays++
	if inj.m != nil {
		inj.m.agedDays.Inc()
	}
}
