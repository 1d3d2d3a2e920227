package core

import (
	"context"
	"fmt"

	"solarsched/internal/ann"
	"solarsched/internal/fault"
	"solarsched/internal/mat"
	"solarsched/internal/obs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// Proposed is the paper's online scheduler (§5): at every period boundary
// the trained DBN maps (last period's solar, all capacitor voltages,
// accumulated DMR) to the capacitor of the day, the pattern index α and the
// executed-task set te; the E_th rule (eq. (22)) gates capacitor switching
// and the δ rule picks the fine-grained stage that runs each slot.
type Proposed struct {
	pc  PlanConfig
	net *ann.Network

	// DisableGuards turns off the §5.2 online selection repairs (the
	// full-set override and the cheapest-affordable fallback), leaving the
	// raw network outputs in charge. Used by the guard ablation study.
	DisableGuards bool

	// Harden, when non-nil, enables the graceful-degradation layer (output
	// sanitizer, watchdog fallback to the WCMA lazy baseline, E_th switch
	// debounce — see HardenConfig). Nil keeps the paper's exact behavior.
	Harden *HardenConfig

	prevPowers []float64
	curPowers  []float64
	fine       finePolicies
	policy     sim.SlotPolicy
	wcma       *solar.WCMA
	// ws recycles the DBN forward-pass scratch across periods; a Proposed
	// runs single-goroutine inside one engine run, so one arena suffices.
	// Not part of checkpointed state.
	ws *mat.Workspace

	// Period scratch, rewritten by every BeginPeriod (not checkpointed
	// state): the feature vector, the bank voltages, the thresholded te
	// mask, the rejected output's copy of the last accepted set and the
	// cheapest-affordable fallback. A mask handed out as the plan's
	// Allowed stays untouched until the next BeginPeriod.
	x     mat.Vector
	volts []float64
	te    []bool
	rejTe []bool
	cheap cheapScratch
	// full is the whole task set and topo the graph's topological order,
	// both built once and never written.
	full []bool
	topo []int

	// Fault-injection hook (nil when faults are disabled) and the hardened
	// variant's run state.
	inj      *fault.Injector
	fallback *sched.InterLSA
	obsReg   *obs.Registry
	hs       hardState

	// Guard telemetry (nil-safe): how often each §5.2 online repair fired
	// and how often eq. (22) vetoed a network capacitor switch.
	mFullOverride *obs.Counter
	mFallback     *obs.Counter
	mEthVeto      *obs.Counter

	// Hardening telemetry (nil-safe).
	mSanitizerRejects *obs.Counter
	mWatchdogTrips    *obs.Counter
	mFallbackPeriods  *obs.Counter
	mEthDebounceHolds *obs.Counter
}

// SetObserver implements sim.Observable. A nil registry is ignored.
func (s *Proposed) SetObserver(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsReg = reg
	s.mFullOverride = reg.Counter("core_guard_full_overrides_total")
	s.mFallback = reg.Counter("core_guard_fallbacks_total")
	s.mEthVeto = reg.Counter("core_eth_switch_vetoes_total")
	s.mSanitizerRejects = reg.Counter("core_sanitizer_rejects_total")
	s.mWatchdogTrips = reg.Counter("core_watchdog_trips_total")
	s.mFallbackPeriods = reg.Counter("core_fallback_periods_total")
	s.mEthDebounceHolds = reg.Counter("core_eth_debounce_holds_total")
	if s.fallback != nil {
		s.fallback.SetObserver(reg)
	}
}

// SetFaultInjector implements sim.FaultAware: the engine hands the
// scheduler its per-run injector so DBN corruption strikes inside the
// inference path, where a real bit-flip would. A nil injector (faults
// disabled) leaves inference untouched.
func (s *Proposed) SetFaultInjector(inj *fault.Injector) { s.inj = inj }

// ensureFallback lazily builds the watchdog's fallback scheduler — the
// paper's Inter-task LSA baseline, which needs no network — on the first
// hardened period, and runs its BeginPeriod every period thereafter so its
// WCMA predictor stays warm for the moment the watchdog trips.
func (s *Proposed) ensureFallback(tb solar.TimeBase) {
	if s.fallback != nil {
		return
	}
	s.fallback = sched.NewInterLSA(s.pc.Graph, tb, s.pc.DirectEff)
	if s.obsReg != nil {
		s.fallback.SetObserver(s.obsReg)
	}
}

// NewProposed wraps a trained network as a scheduler. The network must have
// been built by Train (matching feature dimension and head sizes).
func NewProposed(pc PlanConfig, net *ann.Network) (*Proposed, error) {
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	cfg := net.Config()
	if cfg.InputDim != FeatureDim(len(pc.Capacitances)) {
		return nil, fmt.Errorf("core: network input dim %d, want %d", cfg.InputDim, FeatureDim(len(pc.Capacitances)))
	}
	if cfg.CapClasses != len(pc.Capacitances) {
		return nil, fmt.Errorf("core: network has %d capacitor classes, bank has %d", cfg.CapClasses, len(pc.Capacitances))
	}
	if cfg.TaskCount != pc.Graph.N() {
		return nil, fmt.Errorf("core: network has %d task outputs, graph has %d", cfg.TaskCount, pc.Graph.N())
	}
	topo, err := pc.Graph.TopoOrder()
	if err != nil {
		return nil, err
	}
	full := make([]bool, pc.Graph.N())
	for i := range full {
		full[i] = true
	}
	return &Proposed{
		pc:         pc,
		net:        net,
		prevPowers: make([]float64, pc.Base.SlotsPerPeriod),
		curPowers:  make([]float64, pc.Base.SlotsPerPeriod),
		fine:       newFinePolicies(pc.Graph),
		wcma:       solar.NewWCMA(0.5, 4, 3, pc.Base.PeriodsPerDay),
		full:       full,
		topo:       topo,
	}, nil
}

// Name implements sim.Scheduler.
func (s *Proposed) Name() string {
	if s.Harden != nil {
		return "proposed-hardened"
	}
	return "proposed"
}

// BeginPeriod implements sim.Scheduler: one DBN forward pass (the
// coarse-grained stage), then the E_th and δ selection rules.
func (s *Proposed) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	// The powers recorded during the period that just finished become the
	// "solar power of the last period" input.
	s.prevPowers, s.curPowers = s.curPowers, s.prevPowers
	for i := range s.curPowers {
		s.curPowers[i] = 0
	}

	// Feed the on-node WCMA forecaster (the same predictor the platform
	// already runs for the baselines) with the finished period.
	cold := v.Day == 0 && v.Period == 0
	prevP := v.Period - 1
	if prevP < 0 {
		prevP += v.Base.PeriodsPerDay
	}
	if !cold {
		s.wcma.Observe(v.Day, prevP, v.LastPeriodEnergy)
	}
	forecast := s.wcma.Predict(v.Day, v.Period)

	// The hardened variant keeps the fallback baseline's own predictor and
	// admission state warm every period — its plan is discarded unless the
	// watchdog has tripped.
	hardened := s.Harden != nil
	var fbPlan sim.PeriodPlan
	if hardened {
		s.ensureFallback(v.Base)
		fbPlan = s.fallback.BeginPeriod(v)
	}

	if s.ws == nil {
		s.ws = mat.NewWorkspace()
	}
	s.ws.Reset() // reclaim the previous period's inference scratch
	s.volts = s.volts[:0]
	for _, c := range v.Bank.Caps {
		s.volts = append(s.volts, c.V)
	}
	s.x = featuresTo(s.x, s.prevPowers, s.volts, v.AccumulatedDMR,
		v.Period, v.Base.PeriodsPerDay, s.pc.Params)
	out := s.net.ForwardWS(s.x, s.ws)
	if s.inj != nil {
		out = s.inj.CorruptDBN(out)
	}

	// Output sanitizer: a corrupted inference (NaN/Inf, malformed heads,
	// wild α) is rejected wholesale and replaced by the last accepted task
	// set on the current capacitor — never act on garbage.
	rejected := false
	var te []bool
	capStar := 0
	if hardened && !saneOutput(out, v.Bank.Size(), s.pc.Graph.N(), s.Harden.MaxAlphaRaw) {
		rejected = true
		s.mSanitizerRejects.Inc()
		if s.hs.lastGoodTe != nil {
			s.rejTe = append(s.rejTe[:0], s.hs.lastGoodTe...)
			te = s.rejTe
		} else {
			te = s.full
		}
		capStar = v.Bank.ActiveIndex()
	} else {
		s.te = out.TeMaskTo(s.te)
		te = closeUnderPredecessors(s.pc.Graph, s.topo, s.te)
		capStar = out.Cap()
	}

	// Online selection (§5.2): two guard rules repair degenerate network
	// outputs. When the forecast supply covers the whole task set (α over
	// the full set ≤ 1) there is no reason to drop anything — skipping
	// tasks only pays off when energy must be rationed. Conversely the node
	// must never idle a period while the store could pay for at least the
	// cheapest task chain: an empty selection falls back to the greedy
	// cheapest affordable subset, which is what the offline optimizer's
	// night rationing converges to.
	if !s.DisableGuards {
		if !cold && Alpha(s.pc.Graph, s.full, forecast) <= 1 {
			if popcount(te) != s.pc.Graph.N() {
				s.mFullOverride.Inc()
			}
			te = s.full
		} else if popcount(te) == 0 {
			budget := v.Bank.Active().Deliverable() + forecast*s.pc.DirectEff
			te = s.cheap.cheapestAffordable(s.pc.Graph, budget)
			s.mFallback.Inc()
		}
	}

	// Watchdog: fold this period's sanitizer verdict and the recent
	// deadline-miss record in; while a tripped window is open, hand the
	// period to the fallback baseline wholesale.
	if hardened {
		s.watchdogUpdate(v, rejected)
		if s.hs.fallbackLeft > 0 {
			s.hs.fallbackLeft--
			s.hs.inFallback = true
			s.mFallbackPeriods.Inc()
			return fbPlan
		}
		s.hs.inFallback = false
		if !rejected {
			s.hs.lastGoodTe = append(s.hs.lastGoodTe[:0], te...)
		}
	}

	// The pattern index: eq. (18) on the chosen task set with the WCMA
	// supply estimate; the DBN's α head covers the cold start.
	alpha := alphaFromOutput(out.Alpha)
	if !cold {
		alpha = Alpha(s.pc.Graph, te, forecast)
	} else if rejected {
		// Cold start with a corrupted α head: balanced pacing beats NaN.
		alpha = 1
	}
	s.policy = s.fine.pick(alpha, s.pc.Delta)

	plan := sim.PeriodPlan{SwitchTo: -1, Allowed: te}
	active := v.Bank.ActiveIndex()
	// Eq. (22): only abandon the current capacitor when its stored energy
	// is below E_th — migrating a full store is wasteful. The hardened
	// variant debounces the below-threshold reading (see ethSwitchAllowed).
	eth := s.pc.EThFraction * v.Bank.Active().CapacityEnergy()
	below := v.Bank.Active().UsableEnergy() < eth
	allowSwitch := s.ethSwitchAllowed(below)
	if capStar != active {
		switch {
		case allowSwitch:
			plan.SwitchTo = capStar
			plan.Migrate = true
		case below:
			s.mEthDebounceHolds.Inc()
		default:
			s.mEthVeto.Inc()
		}
	}
	return plan
}

// Slot implements sim.Scheduler.
func (s *Proposed) Slot(v *sim.SlotView) []int {
	s.curPowers[v.Slot] = v.SolarPower
	if s.Harden != nil && s.hs.inFallback {
		return s.fallback.Slot(v)
	}
	return s.policy(v)
}

// cheapScratch is cheapestAffordable's buffers: the selection it returns
// and chainCost's visit marks.
type cheapScratch struct {
	te, seen []bool
}

// cheapestAffordable greedily selects the cheapest dependence-closed task
// subset whose total energy fits the budget: tasks are considered in
// ascending chain-closure cost, each pulled in together with its not-yet
// selected ancestors. The result is the scratch's buffer, valid until the
// next call.
func (cs *cheapScratch) cheapestAffordable(g *task.Graph, budget float64) []bool {
	if len(cs.te) != g.N() {
		cs.te, cs.seen = make([]bool, g.N()), make([]bool, g.N())
	}
	te := cs.te
	for i := range te {
		te[i] = false
	}
	remaining := budget
	for {
		best, bestCost := -1, 0.0
		for n := 0; n < g.N(); n++ {
			if te[n] {
				continue
			}
			cost := cs.chainCost(g, te, n)
			if cost <= remaining && (best < 0 || cost < bestCost) {
				best, bestCost = n, cost
			}
		}
		if best < 0 {
			return te
		}
		addChain(g, te, best)
		remaining -= bestCost
	}
}

// chainCost returns the energy of task n plus all its unselected ancestors.
func (cs *cheapScratch) chainCost(g *task.Graph, te []bool, n int) float64 {
	for i := range cs.seen {
		cs.seen[i] = false
	}
	return cs.visit(g, te, n)
}

// visit sums the energy of m and its unselected, unvisited ancestors,
// depth first in predecessor order.
func (cs *cheapScratch) visit(g *task.Graph, te []bool, m int) float64 {
	if te[m] || cs.seen[m] {
		return 0
	}
	cs.seen[m] = true
	cost := g.Tasks[m].Energy()
	for _, p := range g.Predecessors(m) {
		cost += cs.visit(g, te, p)
	}
	return cost
}

// addChain marks task n and all its ancestors selected.
func addChain(g *task.Graph, te []bool, n int) {
	if te[n] {
		return
	}
	te[n] = true
	for _, p := range g.Predecessors(n) {
		addChain(g, te, p)
	}
}

// closeUnderPredecessors repairs a learned task mask in place so that every
// selected task's predecessors are selected too (constraint (7)) —
// otherwise the selection could never execute and the period would waste
// its energy. order is g's topological order.
func closeUnderPredecessors(g *task.Graph, order []int, te []bool) []bool {
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if !te[n] {
			continue
		}
		for _, p := range g.Predecessors(n) {
			te[p] = true
		}
	}
	return te
}

// topoOrder is g's topological order, or nil when g has a cycle: the
// predecessor closure then leaves a mask as it is.
func topoOrder(g *task.Graph) []int {
	order, err := g.TopoOrder()
	if err != nil {
		return nil
	}
	return order
}

// sampleRecorder runs the clairvoyant teacher through the engine while
// capturing (feature, target) pairs at every period boundary — the offline
// training samples of §4.2, taken from the states the node actually visits.
type sampleRecorder struct {
	inner   *Horizon
	pc      PlanConfig
	trace   *solar.Trace
	inputs  []mat.Vector
	targets []ann.Target
}

func (r *sampleRecorder) Name() string { return "sample-recorder" }

func (r *sampleRecorder) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	flat := v.Base.PeriodIndex(v.Day, v.Period)
	var prev []float64
	if flat > 0 {
		prevFlat := flat - 1
		prev = r.trace.PeriodPowers(prevFlat/v.Base.PeriodsPerDay, prevFlat%v.Base.PeriodsPerDay)
	}
	x := Features(prev, v.Bank.Voltages(), v.AccumulatedDMR, v.Period, v.Base.PeriodsPerDay, r.pc.Params)
	plan := r.inner.BeginPeriod(v)
	d := r.inner.LastDecision()
	te := make([]float64, len(d.Te))
	for i, b := range d.Te {
		if b {
			te[i] = 1
		}
	}
	r.inputs = append(r.inputs, x)
	r.targets = append(r.targets, ann.Target{Cap: d.CapIdx, Alpha: alphaToTarget(d.Alpha), Te: te})
	return plan
}

func (r *sampleRecorder) Slot(v *sim.SlotView) []int { return r.inner.Slot(v) }

// teacherHours is the lookahead of the clairvoyant teacher used for sample
// generation and for the evaluation's "Optimal" bound: 48 h, the knee of
// the prediction-length study (§6.4).
const teacherHours = 48

// CollectSamples runs the clairvoyant teacher over the training trace and
// returns the recorded (input, target) pairs.
func CollectSamples(pc PlanConfig, tr *solar.Trace) ([]mat.Vector, []ann.Target, error) {
	teacher, err := NewClairvoyant(pc, tr, teacherHours)
	if err != nil {
		return nil, nil, err
	}
	eng, err := sim.New(sim.Config{
		Trace: tr, Graph: pc.Graph, Capacitances: pc.Capacitances,
		Params: pc.Params, DirectEff: pc.DirectEff, Observer: pc.Observer,
	})
	if err != nil {
		return nil, nil, err
	}
	span := pc.Observer.StartSpan("offline/collect-samples")
	rec := &sampleRecorder{inner: teacher, pc: pc, trace: tr}
	if _, err := eng.Run(context.Background(), rec); err != nil {
		return nil, nil, err
	}
	span.End()
	return rec.inputs, rec.targets, nil
}

// TrainOptions configures offline training of the Proposed scheduler.
type TrainOptions struct {
	Hidden         []int
	PretrainEpochs int
	Fine           ann.TrainOptions
	Seed           uint64
}

// DefaultTrainOptions returns the training settings used in the evaluation.
func DefaultTrainOptions() TrainOptions {
	fine := ann.DefaultTrainOptions()
	fine.Epochs = 400
	fine.AlphaWeight = 1.0
	return TrainOptions{
		Hidden:         []int{48, 24},
		PretrainEpochs: 8,
		Fine:           fine,
		Seed:           2015,
	}
}

// Train runs the full offline pipeline of Figure 4 on a training trace:
// long-term DP → sample collection → RBM pretraining → BP fine-tuning.
// It returns the trained network and the final training loss.
func Train(pc PlanConfig, trainTrace *solar.Trace, opt TrainOptions) (*ann.Network, float64, error) {
	inputs, targets, err := CollectSamples(pc, trainTrace)
	if err != nil {
		return nil, 0, err
	}
	return TrainOnSamples(pc, inputs, targets, opt)
}

// TrainOnSamples is the network half of Train: RBM pretraining plus BP
// fine-tuning on already-collected DP teacher samples. Splitting it from
// CollectSamples lets a batch runner cache the (expensive) DP solutions and
// the trained weights as separate artifacts.
func TrainOnSamples(pc PlanConfig, inputs []mat.Vector, targets []ann.Target, opt TrainOptions) (*ann.Network, float64, error) {
	if err := pc.Validate(); err != nil {
		return nil, 0, err
	}
	if len(inputs) == 0 || len(inputs) != len(targets) {
		return nil, 0, fmt.Errorf("core: %d inputs, %d targets", len(inputs), len(targets))
	}
	net := ann.New(ann.Config{
		InputDim:   FeatureDim(len(pc.Capacitances)),
		Hidden:     opt.Hidden,
		CapClasses: len(pc.Capacitances),
		TaskCount:  pc.Graph.N(),
		Seed:       opt.Seed,
	})
	net.SetObserver(pc.Observer)
	span := pc.Observer.StartSpan("offline/train")
	net.Pretrain(inputs, opt.PretrainEpochs, 0.05)
	loss := net.Train(inputs, targets, opt.Fine)
	span.End()
	net.SetProvenance(&ann.Provenance{
		Samples:        len(inputs),
		PretrainEpochs: opt.PretrainEpochs,
		FineEpochs:     opt.Fine.Epochs,
		Loss:           loss,
		Seed:           opt.Seed,
	})
	return net, loss, nil
}

// TrainProposed is the one-call convenience: train on trainTrace and wrap
// the network as a scheduler.
func TrainProposed(pc PlanConfig, trainTrace *solar.Trace, opt TrainOptions) (*Proposed, error) {
	net, _, err := Train(pc, trainTrace, opt)
	if err != nil {
		return nil, err
	}
	return NewProposed(pc, net)
}
