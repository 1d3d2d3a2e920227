package sched

import (
	"sort"
	"testing"

	"solarsched/internal/nvp"
	"solarsched/internal/rng"
	"solarsched/internal/sim"
	"solarsched/internal/task"
)

// cheapestFirstReference is CheapestFirstPolicy as two stable sorts of
// every task: by remaining energy then D', then urgent ready tasks to the
// front. The single-pass policy must return the reference's ready tasks,
// in the reference's order.
func cheapestFirstReference(g *task.Graph) sim.SlotPolicy {
	eff := EffectiveDeadlines(g)
	return func(v *sim.SlotView) []int {
		order := make([]int, 0, g.N())
		for n := 0; n < g.N(); n++ {
			order = append(order, n)
		}
		sort.SliceStable(order, func(a, b int) bool {
			ca := v.Tasks.Remaining(order[a]) * g.Tasks[order[a]].Power
			cb := v.Tasks.Remaining(order[b]) * g.Tasks[order[b]].Power
			if ca != cb {
				return ca < cb
			}
			return eff[order[a]] < eff[order[b]]
		})
		sort.SliceStable(order, func(a, b int) bool {
			ua := v.Tasks.Ready(order[a]) && urgent(v, order[a], eff)
			ub := v.Tasks.Ready(order[b]) && urgent(v, order[b], eff)
			return ua && !ub
		})
		return order
	}
}

// tieGraph draws a random DAG whose powers, execution times and deadlines
// come from small sets, so equal remaining energies and equal D' are
// common.
func tieGraph(r *rng.Source) *task.Graph {
	n := r.IntRange(2, 10)
	nvps := r.IntRange(1, 3)
	powers := []float64{1e-3, 2e-3, 4e-3}
	execs := []float64{60, 120, 240}
	deadlines := []float64{600, 1200, 1800}
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       i,
			ExecTime: execs[r.Intn(len(execs))],
			Power:    powers[r.Intn(len(powers))],
			Deadline: deadlines[r.Intn(len(deadlines))],
			NVP:      r.Intn(nvps),
		}
	}
	var edges []task.Edge
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if r.Bool(0.2) {
				edges = append(edges, task.Edge{From: from, To: to})
			}
		}
	}
	return task.NewGraph("ties", tasks, edges, nvps)
}

func TestCheapestFirstPolicyMatchesTwoPassReference(t *testing.T) {
	r := rng.New(20150607)
	tb := smallBase(1)
	states, urgentSeen, costTies, effTies := 0, 0, 0, 0
	for gi := 0; gi < 150; gi++ {
		g := tieGraph(r)
		got, want := CheapestFirstPolicy(g), cheapestFirstReference(g)
		eff := EffectiveDeadlines(g)
		ts := nvp.MustNewSet(g)
		for k := 0; k < 8; k++ {
			st := nvp.State{Remaining: make([]float64, g.N()), Missed: make([]bool, g.N())}
			for n, tk := range g.Tasks {
				// Whole and half slots of progress, including none and done.
				st.Remaining[n] = tk.ExecTime * float64(r.Intn(5)) / 4
				st.Missed[n] = r.Bool(0.15)
			}
			if err := ts.Restore(st); err != nil {
				t.Fatal(err)
			}
			v := &sim.SlotView{Slot: r.Intn(tb.SlotsPerPeriod), Base: tb, Tasks: ts}
			a, b := got(v), want(v)
			states++
			var ready []int
			for _, n := range b {
				if ts.Ready(n) {
					ready = append(ready, n)
				}
			}
			if !equalInts(a, ready) {
				t.Fatalf("graph %d state %d: order %v, reference's ready tasks %v (of %v)", gi, k, a, ready, b)
			}
			runA := append([]int(nil), ts.FilterRunnable(a)...)
			if runB := ts.FilterRunnable(b); !equalInts(runA, runB) {
				t.Fatalf("graph %d state %d: runnable %v, reference's %v", gi, k, runA, runB)
			}
			for i := 1; i < len(b); i++ {
				p, q := b[i-1], b[i]
				if ts.Ready(p) && urgent(v, p, eff) {
					urgentSeen++
				}
				if ts.Remaining(p)*g.Tasks[p].Power == ts.Remaining(q)*g.Tasks[q].Power {
					costTies++
					if eff[p] == eff[q] {
						effTies++
					}
				}
			}
		}
	}
	t.Logf("%d states: %d urgent, %d adjacent cost ties, %d of them also D' ties",
		states, urgentSeen, costTies, effTies)
	if states < 1000 || urgentSeen == 0 || costTies == 0 || effTies == 0 {
		t.Fatalf("weak coverage: %d states, %d urgent, %d cost ties, %d D' ties",
			states, urgentSeen, costTies, effTies)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
