package nvp

import (
	"fmt"
	"testing"

	"solarsched/internal/rng"
	"solarsched/internal/task"
)

// refReady is Ready as a walk of the predecessor list, the form the
// pending mask replaced.
func refReady(s *Set, n int) bool {
	if s.Remaining(n) <= 0 || s.Missed(n) {
		return false
	}
	for _, p := range s.G.Predecessors(n) {
		if s.Remaining(p) > 0 {
			return false
		}
	}
	return true
}

// readyGraph draws a DAG of n tasks with dense dependences, so that most
// tasks wait on a predecessor at some point of a period.
func readyGraph(r *rng.Source, n int) *task.Graph {
	nvps := r.IntRange(1, 4)
	tasks := make([]task.Task, n)
	for i := range tasks {
		tasks[i] = task.Task{
			ID:       i,
			Name:     fmt.Sprintf("t%d", i),
			ExecTime: float64(r.IntRange(1, 4)) * 60,
			Power:    r.Range(0.005, 0.05),
			Deadline: float64(r.IntRange(2, 30)) * 60,
			NVP:      r.Intn(nvps),
		}
	}
	var edges []task.Edge
	for to := 1; to < n; to++ {
		for k := 0; k < 2; k++ {
			if r.Bool(0.5) {
				edges = append(edges, task.Edge{From: r.Intn(to), To: to})
			}
		}
	}
	return task.NewGraph("ready", tasks, edges, nvps)
}

func TestReadyMatchesPredecessorWalk(t *testing.T) {
	r := rng.New(20150609)
	checks, unblocked, scaledUnblocks := 0, 0, 0
	sizes := []int{1, 2, 3, 5, 8, 12, 16, 64, 65}
	for gi := 0; gi < 60; gi++ {
		n := sizes[gi%len(sizes)]
		g := readyGraph(r, n)
		if masked := g.PredMasks() != nil; masked != (n <= task.MaskTasks) {
			t.Fatalf("%d tasks: PredMasks non-nil = %v", n, masked)
		}
		s := MustNewSet(g)
		var saved []State
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		compare := func(op string, step int) {
			t.Helper()
			for k := 0; k < n; k++ {
				got, want := s.Ready(k), refReady(s, k)
				if got != want {
					t.Fatalf("graph %d (%d tasks) step %d after %s: Ready(%d) = %v, predecessor walk %v",
						gi, n, step, op, k, got, want)
				}
				checks++
				if got && len(g.Predecessors(k)) > 0 {
					unblocked++
				}
			}
		}
		compare("NewSet", 0)
		elapsed := 0.0
		for step := 1; step <= 80; step++ {
			var op string
			switch c := r.Intn(10); {
			case c < 3:
				op = "Run"
				r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				s.Run(s.FilterRunnable(all), float64(r.IntRange(1, 2))*60)
			case c < 6:
				op = "RunScaled"
				r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				run := append([]int(nil), s.FilterRunnable(all)...)
				speeds := make([]float64, len(run))
				for i := range speeds {
					speeds[i] = []float64{0.25, 0.5, 1}[r.Intn(3)]
				}
				var before []bool
				for _, k := range all {
					before = append(before, s.Ready(k))
				}
				s.RunScaled(run, speeds, 3, float64(r.IntRange(1, 4))*60)
				for i, k := range all {
					if !before[i] && refReady(s, k) {
						scaledUnblocks++
					}
				}
			case c < 7:
				op = "CheckDeadlines"
				elapsed += 60
				s.CheckDeadlines(elapsed)
			case c < 8:
				op = "Restore"
				st := s.State()
				if len(saved) > 0 && r.Bool(0.5) {
					st = saved[r.Intn(len(saved))]
				} else {
					for k := range st.Remaining {
						st.Remaining[k] = g.Tasks[k].ExecTime * float64(r.Intn(3)) / 2
						st.Missed[k] = r.Bool(0.1)
					}
				}
				if err := s.Restore(st); err != nil {
					t.Fatal(err)
				}
			case c < 9:
				op = "Clone"
				saved = append(saved, s.State())
				s = s.Clone()
			default:
				op = "ResetPeriod"
				elapsed = 0
				s.ResetPeriod()
			}
			compare(op, step)
		}
	}
	t.Logf("%d checks, %d ready tasks with predecessors, %d tasks made ready by RunScaled", checks, unblocked, scaledUnblocks)
	if unblocked == 0 || scaledUnblocks == 0 {
		t.Fatalf("weak coverage: %d ready tasks with predecessors, %d made ready by RunScaled", unblocked, scaledUnblocks)
	}
}
