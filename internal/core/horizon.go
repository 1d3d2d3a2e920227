package core

import (
	"math"

	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
)

// Horizon is the receding-horizon form of the long-term deadline-aware
// analysis: at every period boundary it re-runs the §4.2 DP over the next
// PredictionHours of *forecast* solar power and executes the first
// decision. Sweeping PredictionHours reproduces the prediction-length study
// of Figure 10(a): longer horizons see further (better DMR) until forecast
// error outweighs lookahead, while the DP work grows with the horizon.
type Horizon struct {
	pc       PlanConfig
	lut      *LUT
	fc       *solar.HorizonForecast
	ahead    int // horizon in periods
	name     string
	fine     finePolicies
	policy   sim.SlotPolicy
	decision Decision

	window [][]float64 // the forecast window, reused every period
	full   []bool      // every task; read-only, like the LUT's subsets

	// Expansions accumulates DP option evaluations over the whole run —
	// the complexity series of Figure 10(a). Replans counts DP runs.
	Expansions int
	Replans    int

	mReplans *obs.Counter
}

// NewHorizon returns a receding-horizon planner looking predictionHours
// ahead using the given forecaster (whose Trace also defines the run).
func NewHorizon(pc PlanConfig, fc *solar.HorizonForecast, predictionHours float64) (*Horizon, error) {
	if err := pc.Validate(); err != nil {
		return nil, err
	}
	ahead := int(math.Round(predictionHours * 3600 / pc.Base.PeriodSeconds()))
	if ahead < 1 {
		ahead = 1
	}
	full := make([]bool, pc.Graph.N())
	for i := range full {
		full[i] = true
	}
	return &Horizon{
		pc: pc, lut: NewLUT(pc), fc: fc, ahead: ahead, name: "horizon-dp",
		fine:     newFinePolicies(pc.Graph),
		window:   make([][]float64, ahead),
		full:     full,
		mReplans: pc.Observer.Counter("core_replans_total"),
	}, nil
}

// NewClairvoyant returns the evaluation's "Optimal" upper bound: the same
// receding-horizon DP, but fed the *true* future solar powers (a perfect
// forecaster) — the static optimal scheduler of §4.2 executed closed-loop
// so that quantization drift is corrected every period.
func NewClairvoyant(pc PlanConfig, tr *solar.Trace, predictionHours float64) (*Horizon, error) {
	fc := solar.NewHorizonForecast(tr, 0)
	fc.Sigma0, fc.SigmaPerDay = 0, 0
	h, err := NewHorizon(pc, fc, predictionHours)
	if err != nil {
		return nil, err
	}
	h.name = "optimal"
	return h, nil
}

// Name implements sim.Scheduler.
func (h *Horizon) Name() string { return h.name }

// SetObserver implements sim.Observable: the engine hands its run
// observer to the planner so DP metrics land in the same pipeline. A nil
// registry is ignored.
func (h *Horizon) SetObserver(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.mReplans = reg.Counter("core_replans_total")
	h.lut.SetObserver(reg)
}

// LastDecision returns the decision taken at the most recent period
// boundary (used by the training-sample recorder).
func (h *Horizon) LastDecision() Decision { return h.decision }

// PredictionPeriods returns the lookahead in periods.
func (h *Horizon) PredictionPeriods() int { return h.ahead }

// BeginPeriod implements sim.Scheduler: re-plan over the forecast window
// and follow the first decision.
func (h *Horizon) BeginPeriod(v *sim.PeriodView) sim.PeriodPlan {
	tb := h.pc.Base
	now := tb.PeriodIndex(v.Day, v.Period)
	last := tb.TotalPeriods() - 1

	n := min(h.ahead, last-now+1)
	powers := h.window[:n]
	for t := range powers {
		flat := now + t
		powers[t] = h.fc.AppendPeriodPowers(powers[t], v.Day, v.Period, flat/tb.PeriodsPerDay, flat%tb.PeriodsPerDay)
	}
	active := v.Bank.ActiveIndex()
	res := PlanHorizon(h.lut, powers, v.Period, active, v.Bank.Active().V)
	h.Expansions += res.Expansions
	h.Replans++
	h.mReplans.Inc()
	h.decision = res.Decisions[0]

	// When this period's (forecast) harvest covers the entire task set,
	// rationing cannot help: running everything leaves the same surplus for
	// the store. This repairs cost-to-go quantization artifacts that would
	// otherwise skip free work (the online scheduler applies the same rule
	// with its WCMA estimate, §5.2).
	harvest := 0.0
	for _, p := range powers[0] {
		harvest += p
	}
	harvest *= h.pc.Base.SlotSeconds
	if Alpha(h.pc.Graph, h.full, harvest) <= 1 {
		h.decision.Te = h.full
		h.decision.Alpha = Alpha(h.pc.Graph, h.full, harvest)
	}
	h.policy = h.fine.pick(h.decision.Alpha, h.pc.Delta)

	plan := sim.PeriodPlan{SwitchTo: -1, Allowed: h.decision.Te}
	if h.decision.CapIdx != active {
		// The DP only switches at day boundaries; additionally honor the
		// E_th rule of eq. (22): never walk away from a still-charged
		// capacitor.
		eth := h.pc.EThFraction * v.Bank.Active().CapacityEnergy()
		if v.Period == 0 || v.Bank.Active().UsableEnergy() < eth {
			plan.SwitchTo = h.decision.CapIdx
			plan.Migrate = true
		}
	}
	return plan
}

// Slot implements sim.Scheduler.
func (h *Horizon) Slot(v *sim.SlotView) []int { return h.policy(v) }
