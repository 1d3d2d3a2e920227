// Package core implements the paper's primary contribution: long-term
// deadline-aware task scheduling with global energy migration.
//
// Offline (§4): per-period minimum-energy optimization over
// dependence-closed task subsets (eqs. (15)–(17)), a lookup table keyed by
// quantized solar profile, capacitor and voltage (eq. (13)), and a dynamic
// program over periods and days that picks per-period DMR targets and
// per-day capacitors to minimize the long-term DMR (eq. (12)). The DP with
// the true solar trace is the paper's "Optimal" static upper bound and the
// generator of ANN training samples.
//
// Online (§5): the Proposed scheduler — a DBN maps (last period's solar,
// capacitor voltages, accumulated DMR) to (capacitor of the day C_{h,i},
// scheduling-pattern index α, executed-task set te); the E_th rule
// (eq. (22)) gates capacitor switching and the δ rule selects between the
// inter-task and intra-task fine-grained stages. A receding-horizon DP
// planner provides the prediction-length study of Figure 10(a).
package core

import (
	"fmt"
	"math"

	"solarsched/internal/obs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// PlanConfig carries everything the offline optimizer and the online
// scheduler share: the workload, the time base, the capacitor bank and the
// decision thresholds.
type PlanConfig struct {
	Graph        *task.Graph
	Base         solar.TimeBase
	Capacitances []float64
	Params       supercap.Params
	DirectEff    float64

	// VBuckets quantizes a capacitor's usable energy for the DP state and
	// the LUT key. More buckets → finer plans, larger tables.
	VBuckets int

	// Delta is the scheduling-pattern threshold δ of §5.2: |1−α| > δ
	// selects the simple inter-task stage, otherwise the intra-task
	// load-matching stage runs.
	Delta float64

	// EThFraction expresses the capacitor-switch threshold E_th (eq. (22))
	// as a fraction of the active capacitor's usable capacity.
	EThFraction float64

	// Observer receives the offline stage's metrics: DP solve time and
	// expansions, LUT hit/miss counts, training epochs and spans. Nil
	// disables instrumentation.
	Observer *obs.Registry
}

// DefaultPlanConfig returns the configuration used throughout the
// evaluation.
func DefaultPlanConfig(g *task.Graph, base solar.TimeBase, capacitances []float64) PlanConfig {
	return PlanConfig{
		Graph:        g,
		Base:         base,
		Capacitances: capacitances,
		Params:       supercap.DefaultParams(),
		DirectEff:    sim.DefaultDirectEff,
		VBuckets:     28,
		Delta:        0.25,
		EThFraction:  0.10,
	}
}

// Validate reports configuration errors.
func (pc PlanConfig) Validate() error {
	if pc.Graph == nil {
		return fmt.Errorf("core: nil graph")
	}
	if n := pc.Graph.N(); n > maxSubsetTasks {
		return fmt.Errorf("core: graph %q has %d tasks; the period optimizer enumerates task subsets of at most %d",
			pc.Graph.Name, n, maxSubsetTasks)
	}
	if err := pc.Base.Validate(); err != nil {
		return err
	}
	if err := pc.Graph.Validate(pc.Base.PeriodSeconds()); err != nil {
		return err
	}
	if len(pc.Capacitances) == 0 {
		return fmt.Errorf("core: empty capacitor bank")
	}
	for _, c := range pc.Capacitances {
		if c <= 0 {
			return fmt.Errorf("core: non-positive capacitance %g", c)
		}
	}
	if err := pc.Params.Validate(); err != nil {
		return err
	}
	if pc.DirectEff <= 0 || pc.DirectEff > 1 {
		return fmt.Errorf("core: direct efficiency %g outside (0,1]", pc.DirectEff)
	}
	if pc.VBuckets < 2 {
		return fmt.Errorf("core: VBuckets %d < 2", pc.VBuckets)
	}
	if pc.Delta < 0 {
		return fmt.Errorf("core: negative delta %g", pc.Delta)
	}
	if pc.EThFraction < 0 || pc.EThFraction > 1 {
		return fmt.Errorf("core: EThFraction %g outside [0,1]", pc.EThFraction)
	}
	return nil
}

// Alpha computes the scheduling-pattern selection index of eq. (18): the
// ratio of the selected load's energy demand to the period's solar supply.
// With no supply at all (night) the index is +Inf-like large, which the δ
// rule maps to the inter-task stage.
func Alpha(g *task.Graph, te []bool, harvest float64) float64 {
	demand := 0.0
	for n, on := range te {
		if on {
			demand += g.Tasks[n].Energy()
		}
	}
	if harvest <= 0 {
		if demand == 0 {
			return 1
		}
		return 100 // far beyond any δ: inter-task
	}
	return demand / harvest
}

// FinePolicy returns the fine-grained slot stage of §5.2 for a period with
// the given α: the simple inter-task stage (plain earliest-deadline ASAP,
// cheap to run on the node) when |1−α| > δ, the intra-task load-matching
// stage otherwise. It builds a fresh stage; planners that re-select the
// stage every period or subset hold a finePolicies instead.
func FinePolicy(g *task.Graph, alpha, delta float64) sim.SlotPolicy {
	return newFinePolicies(g).pick(alpha, delta)
}

// finePolicies holds one instance of each fine-grained stage. Both stages
// keep slot scratch, so a finePolicies serves one simulation at a time.
type finePolicies struct{ inter, intra sim.SlotPolicy }

func newFinePolicies(g *task.Graph) finePolicies {
	return finePolicies{inter: interStagePolicy(g), intra: sched.NewIntraMatch(g).Policy()}
}

// pick applies the δ rule of §5.2 to the held stages.
func (f finePolicies) pick(alpha, delta float64) sim.SlotPolicy {
	if math.Abs(1-alpha) > delta {
		return f.inter
	}
	return f.intra
}

// interStagePolicy is the "simple inter-task scheduling" of §5.2: when the
// supply/demand ratio is extreme there is nothing to match, so tasks run
// whole, cheapest-remaining-energy first (meeting the most deadlines with a
// fixed store), with urgent tasks jumping the queue.
func interStagePolicy(g *task.Graph) sim.SlotPolicy {
	return sched.CheapestFirstPolicy(g)
}
