package sim

import (
	"fmt"

	"solarsched/internal/solar"
)

// Result accumulates the metrics of one simulation run: the deadline miss
// rate of eq. (6) at every aggregation level, and the full energy ledger
// needed for the energy-utilization comparison of Figure 9(b).
type Result struct {
	SchedulerName  string
	Base           solar.TimeBase
	TasksPerPeriod int

	// PeriodMisses[k] is the number of missed tasks in flat period k.
	PeriodMisses []int

	// Energy ledger, all joules.
	Harvested     float64 // total solar energy at the panel output
	Delivered     float64 // energy delivered to the NVPs (task execution)
	StoredIn      float64 // energy banked into capacitors (after losses)
	StoreLoss     float64 // conversion + spill loss on the charge path
	DrawnOut      float64 // energy delivered by capacitors to the load
	Leaked        float64 // capacitor self-discharge
	MigrationLoss float64 // losses of explicit capacitor-to-capacitor moves
	FinalStored   float64 // usable energy left in the bank at the end

	CapSwitches int

	// Fault-layer tallies, all zero when sim.Config.Faults is disabled.
	DeadSlots       int // slots lost to injected power interruptions
	DroppedSwitches int // capacitor-switch requests the faulty PMU ignored
}

func newResult(name string, tb solar.TimeBase, n int) *Result {
	return &Result{
		SchedulerName:  name,
		Base:           tb,
		TasksPerPeriod: n,
		PeriodMisses:   make([]int, 0, tb.TotalPeriods()),
	}
}

func (r *Result) recordPeriod(misses int) {
	r.PeriodMisses = append(r.PeriodMisses, misses)
}

// TotalTasks returns the number of task instances released so far.
func (r *Result) TotalTasks() int { return len(r.PeriodMisses) * r.TasksPerPeriod }

// MissedTasks returns the number of deadline misses so far.
func (r *Result) MissedTasks() int {
	sum := 0
	for _, m := range r.PeriodMisses {
		sum += m
	}
	return sum
}

// DMR returns the overall deadline miss rate (eq. (6)); zero before any
// period completes.
func (r *Result) DMR() float64 {
	if len(r.PeriodMisses) == 0 {
		return 0
	}
	return float64(r.MissedTasks()) / float64(r.TotalTasks())
}

// PeriodDMR returns the DMR of flat period k.
func (r *Result) PeriodDMR(k int) float64 {
	return float64(r.PeriodMisses[k]) / float64(r.TasksPerPeriod)
}

// DayDMR returns the DMR of one day.
func (r *Result) DayDMR(day int) float64 {
	pp := r.Base.PeriodsPerDay
	lo, hi := day*pp, (day+1)*pp
	if lo < 0 || hi > len(r.PeriodMisses) {
		panic(fmt.Sprintf("sim: DayDMR(%d) out of range", day))
	}
	sum := 0
	for _, m := range r.PeriodMisses[lo:hi] {
		sum += m
	}
	return float64(sum) / float64(pp*r.TasksPerPeriod)
}

// RangeDMR returns the DMR over days [from, to).
func (r *Result) RangeDMR(from, to int) float64 {
	sum, n := 0, 0
	pp := r.Base.PeriodsPerDay
	for _, m := range r.PeriodMisses[from*pp : to*pp] {
		sum += m
		n += r.TasksPerPeriod
	}
	return float64(sum) / float64(n)
}

// EnergyUtilization returns the fraction of the harvested solar energy that
// reached the NVPs as task execution.
func (r *Result) EnergyUtilization() float64 {
	if r.Harvested == 0 {
		return 0
	}
	return r.Delivered / r.Harvested
}

// DirectUseRatio returns the fraction of the harvested energy the load
// consumed *as it arrived*, through the direct channel — the quantity the
// load-matching baselines [3, 9] maximize, and the "energy utilization"
// axis of Figure 9(b): a long-term scheduler deliberately sacrifices
// direct use to migrate energy through the (lossy) capacitors.
func (r *Result) DirectUseRatio() float64 {
	if r.Harvested == 0 {
		return 0
	}
	return (r.Delivered - r.DrawnOut) / r.Harvested
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s: DMR=%.3f (%d/%d missed), util=%.3f, harvested=%.1fJ delivered=%.1fJ leaked=%.1fJ",
		r.SchedulerName, r.DMR(), r.MissedTasks(), r.TotalTasks(),
		r.EnergyUtilization(), r.Harvested, r.Delivered, r.Leaked)
}
