package core

import (
	"fmt"

	"solarsched/internal/ann"
	"solarsched/internal/supercap"
)

// OnlineDecision is one stateless pass of the paper's online stage (§5): the DBN
// maps (last period's solar powers, capacitor voltages, accumulated DMR)
// to the capacitor of the day, the pattern index α and the executed-task
// set, and the E_th rule (eq. (22)) decides whether abandoning the active
// capacitor is worthwhile. It is the unit the /v1/decide service endpoint
// returns to a fielded node.
type OnlineDecision struct {
	// Cap is the DBN's capacitor-of-the-day index C*_{h,i}.
	Cap int
	// Alpha is the scheduling-pattern index α of §5.2, decoded from the
	// network's α head; |1−α| ≤ δ selects the intra-task load-matching
	// stage, anything else the simple inter-task stage.
	Alpha float64
	// Intra reports the δ rule's verdict on Alpha.
	Intra bool
	// Te is the executed-task set te_{i,j}(n), repaired to be closed under
	// predecessors (constraint (7)).
	Te []bool
	// Switch reports whether the node should actually move to Cap: the DBN
	// picked a different capacitor AND the active one is below E_th.
	Switch bool
	// Migrate mirrors the engine's switching convention: a permitted
	// switch carries the residual usable energy along (global energy
	// migration).
	Migrate bool
	// EThJoules and UsableJoules expose the eq. (22) comparison the
	// Switch verdict came from.
	EThJoules    float64
	UsableJoules float64
}

// DecideRequest carries the inputs of one period-boundary inference. It is
// the single validated input type shared by Decide and the /v1/decide
// handler.
type DecideRequest struct {
	// PrevPowers is the slot powers of the previous period in W (nil on a
	// cold start); each lies in [0, maxSlotPower].
	PrevPowers []float64
	// Voltages is the per-capacitor voltages; len must equal
	// len(pc.Capacitances).
	Voltages []float64
	// AccumulatedDMR is the deadline-miss ratio accumulated so far, in
	// [0, 1].
	AccumulatedDMR float64
	// PeriodOfDay ∈ [0, pc.Base.PeriodsPerDay).
	PeriodOfDay int
	// ActiveCap is the currently active capacitor index.
	ActiveCap int
}

// maxSlotPower is the largest harvested slot power a DecideRequest may
// report: 1 W, ten times powerNorm and about ten times the default panel's
// 0.0945 W peak. Bounding it keeps every feature finite, so the forward pass
// never sees ±Inf.
const maxSlotPower = 10 * powerNorm

// Validate checks the request against the plan and the network it will be
// decided with. It folds in pc.Validate and the network-shape checks so one
// call answers "would Decide accept this?". The comparisons are written so
// that NaN fails them.
func (r DecideRequest) Validate(pc PlanConfig, net *ann.Network) error {
	if err := pc.Validate(); err != nil {
		return err
	}
	cfg := net.Config()
	if cfg.InputDim != FeatureDim(len(pc.Capacitances)) {
		return fmt.Errorf("core: network input dim %d, want %d", cfg.InputDim, FeatureDim(len(pc.Capacitances)))
	}
	if cfg.TaskCount != pc.Graph.N() {
		return fmt.Errorf("core: network has %d task outputs, graph has %d", cfg.TaskCount, pc.Graph.N())
	}
	if len(r.Voltages) != len(pc.Capacitances) {
		return fmt.Errorf("core: %d voltages for a bank of %d", len(r.Voltages), len(pc.Capacitances))
	}
	if r.ActiveCap < 0 || r.ActiveCap >= len(pc.Capacitances) {
		return fmt.Errorf("core: active capacitor %d outside bank of %d", r.ActiveCap, len(pc.Capacitances))
	}
	if r.PeriodOfDay < 0 || r.PeriodOfDay >= pc.Base.PeriodsPerDay {
		return fmt.Errorf("core: period-of-day %d outside [0,%d)", r.PeriodOfDay, pc.Base.PeriodsPerDay)
	}
	for i, v := range r.Voltages {
		if !(v >= 0 && v <= pc.Params.VHigh*1.5) {
			return fmt.Errorf("core: voltage[%d] = %g outside the physical range", i, v)
		}
	}
	if !(r.AccumulatedDMR >= 0 && r.AccumulatedDMR <= 1) {
		return fmt.Errorf("core: accumulated DMR %g outside [0,1]", r.AccumulatedDMR)
	}
	for i, w := range r.PrevPowers {
		if !(w >= 0 && w <= maxSlotPower) {
			return fmt.Errorf("core: last-period power[%d] = %g W outside [0,%g]", i, w, maxSlotPower)
		}
	}
	return nil
}

// Decide runs one period-boundary inference without any scheduler state:
// features → DBN forward pass → predecessor-closure repair → E_th gate.
//
// Unlike the in-simulator Proposed scheduler it has no WCMA forecaster to
// refine α (eq. (18)) and no guard history, so α always comes from the
// network's head — exactly the paper's cold-start path. Stateless means
// shareable: one trained network serves any number of concurrent callers.
func Decide(pc PlanConfig, net *ann.Network, req DecideRequest) (OnlineDecision, error) {
	if err := req.Validate(pc, net); err != nil {
		return OnlineDecision{}, err
	}
	x := Features(req.PrevPowers, req.Voltages, req.AccumulatedDMR, req.PeriodOfDay, pc.Base.PeriodsPerDay, pc.Params)
	return decisionFrom(pc, req, net.Forward(x)), nil
}

// decisionFrom applies the §5 post-processing rules to one network output.
func decisionFrom(pc PlanConfig, req DecideRequest, out ann.Output) OnlineDecision {
	d := OnlineDecision{
		Cap:   out.Cap(),
		Alpha: alphaFromOutput(out.Alpha),
		Te:    closeUnderPredecessors(pc.Graph, topoOrder(pc.Graph), out.TeMask()),
	}
	d.Intra = d.Alpha >= 1-pc.Delta && d.Alpha <= 1+pc.Delta

	// Eq. (22): only abandon the active capacitor when its stored energy
	// is below E_th — migrating a full store is wasteful.
	c := supercap.New(pc.Capacitances[req.ActiveCap], pc.Params)
	c.V = req.Voltages[req.ActiveCap]
	d.EThJoules = pc.EThFraction * c.CapacityEnergy()
	d.UsableJoules = c.UsableEnergy()
	if d.Cap != req.ActiveCap && d.UsableJoules < d.EThJoules {
		d.Switch = true
		d.Migrate = true
	}
	return d
}
