// Package dvfs implements the dynamic voltage and frequency scaling
// extension of the paper's related work ([5] Liu et al. ISLPED'10,
// [6] TVLSI'12, [7] SolarTune RTCSA'13, [8] ISLPED'13): a load-tuning
// scheduler that paces every task at the lowest frequency still meeting
// its effective deadline. Because power scales as f³ while progress scales
// as f, work done per joule improves as 1/f² — pacing stretches the stored
// energy through the night at the cost of occupying the NVPs longer.
//
// The scheduler implements sim.SpeedScheduler; on engines without DVFS
// support it degrades to full-speed execution.
package dvfs

import (
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/task"
)

// Levels are the supported frequency ratios (a realistic 4-step DVFS
// ladder).
var Levels = []float64{0.25, 0.5, 0.75, 1.0}

// LoadTune paces ready tasks at the slowest level that still meets their
// effective deadline, boosting toward full speed only to soak solar that
// would otherwise spill from a full capacitor.
type LoadTune struct {
	g   *task.Graph
	eff []float64
	edf []int

	// planned[n] is the speed chosen for task n in the current slot; 0
	// means not planned (every ladder level is positive).
	planned []float64
	// out and speeds are the results of Slot and Speeds, reused.
	out    []int
	speeds []float64
}

// NewLoadTune returns the DVFS load-tuning scheduler.
func NewLoadTune(g *task.Graph) *LoadTune {
	eff := sched.EffectiveDeadlines(g)
	return &LoadTune{
		g:       g,
		eff:     eff,
		edf:     edfOrder(eff),
		planned: make([]float64, g.N()),
		out:     make([]int, 0, g.N()),
		speeds:  make([]float64, 0, g.N()),
	}
}

func edfOrder(eff []float64) []int {
	order := make([]int, len(eff))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // insertion sort, stable, tiny n
		for j := i; j > 0 && eff[order[j]] < eff[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Name implements sim.Scheduler.
func (s *LoadTune) Name() string { return "dvfs-loadtune" }

// BeginPeriod implements sim.Scheduler.
func (s *LoadTune) BeginPeriod(*sim.PeriodView) sim.PeriodPlan { return sim.KeepCap }

// Slot implements sim.Scheduler: every ready task is offered for execution
// at its just-in-time pace; the engine's brownout trimming drops the tail
// if even the paced load cannot be carried. The result is the scheduler's
// buffer, valid until the next Slot.
func (s *LoadTune) Slot(v *sim.SlotView) []int {
	clear(s.planned)
	now := v.Elapsed()
	// Boost when the active capacitor is nearly full: the marginal solar
	// joule would spill, so spending it on the f³ premium is free.
	boost := v.Cap != nil && v.Cap.UsableEnergy() > 0.95*v.Cap.CapacityEnergy()

	out := s.out[:0]
	for _, n := range s.edf {
		if !v.Tasks.Ready(n) {
			continue
		}
		slack := s.eff[n] - now
		if slack <= 0 {
			continue // the deadline check will fire; don't burn energy
		}
		need := v.Tasks.Remaining(n) / slack
		if need > 1 {
			need = 1
		}
		f := levelFor(need)
		if boost {
			f = 1
		}
		// Starting now and running continuously at f, the task finishes at
		// now + remaining/f; if that overruns the effective deadline, the
		// chosen level is too slow — escalate to full speed.
		if now+v.Tasks.Remaining(n)/f > s.eff[n]+1e-9 && f < 1 {
			f = 1
		}
		s.planned[n] = f
		out = append(out, n)
	}
	s.out = out
	return out
}

// levelFor returns the smallest ladder level ≥ need.
func levelFor(need float64) float64 {
	for _, l := range Levels {
		if l >= need {
			return l
		}
	}
	return 1
}

// Speeds implements sim.SpeedScheduler: each selected task runs at the
// speed Slot planned for it, or at full speed if none was planned. The
// result is the scheduler's buffer, valid until the next Speeds.
func (s *LoadTune) Speeds(_ *sim.SlotView, selected []int) []float64 {
	speeds := s.speeds[:0]
	for _, n := range selected {
		f := 1.0
		if n >= 0 && n < len(s.planned) && s.planned[n] > 0 {
			f = s.planned[n]
		}
		speeds = append(speeds, f)
	}
	s.speeds = speeds
	return speeds
}
