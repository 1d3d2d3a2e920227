package nvp

import (
	"testing"

	"solarsched/internal/task"
)

func TestSetStateRoundTrip(t *testing.T) {
	g := task.ECG()
	live := MustNewSet(g)
	live.Run(live.FilterRunnable([]int{0, 1, 2}), 30)
	live.CheckDeadlines(g.Tasks[0].Deadline + 1)

	restored := MustNewSet(g)
	if err := restored.Restore(live.State()); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < g.N(); n++ {
		if live.Remaining(n) != restored.Remaining(n) {
			t.Fatalf("task %d remaining %v != %v", n, live.Remaining(n), restored.Remaining(n))
		}
		if live.Missed(n) != restored.Missed(n) {
			t.Fatalf("task %d missed %v != %v", n, live.Missed(n), restored.Missed(n))
		}
	}
	if live.Misses() != restored.Misses() {
		t.Fatalf("misses %d != %d", live.Misses(), restored.Misses())
	}
}

func TestSetRestoreRejectsShapeMismatch(t *testing.T) {
	s := MustNewSet(task.ECG())
	st := MustNewSet(task.WAM()).State()
	if len(st.Remaining) == len(s.State().Remaining) {
		t.Skip("benchmarks have equal task counts; mismatch not exercised")
	}
	if err := s.Restore(st); err == nil {
		t.Fatal("restore with wrong task count accepted")
	}
}

// CopyFrom copies the execution state and the last runnable list without
// allocating, and the copy then evolves on its own: readiness, runs and
// deadline checks on it match the source's and never touch the source.
func TestSetCopyFrom(t *testing.T) {
	g := task.ECG()
	src := MustNewSet(g)
	src.Run(src.FilterRunnable([]int{0, 3, 1}), 240)
	src.CheckDeadlines(g.Tasks[0].Deadline + 1)
	run := src.FilterRunnable([]int{1, 2, 3, 4, 5})

	dst := MustNewSet(g)
	dst.Run(dst.FilterRunnable([]int{0}), 60) // state the copy must overwrite
	if n := testing.AllocsPerRun(10, func() { dst.CopyFrom(src) }); n != 0 {
		t.Fatalf("CopyFrom allocates %v times", n)
	}
	got := dst.CopyFrom(src)
	if len(got) != len(run) || (len(run) > 0 && &got[0] == &run[0]) {
		t.Fatalf("runnable copy %v of %v: must be the copy's own buffer", got, run)
	}
	for i := range run {
		if got[i] != run[i] {
			t.Fatalf("runnable copy %v, source %v", got, run)
		}
	}
	same := func(what string) {
		t.Helper()
		for n := 0; n < g.N(); n++ {
			if src.Remaining(n) != dst.Remaining(n) || src.Missed(n) != dst.Missed(n) || src.Ready(n) != dst.Ready(n) {
				t.Fatalf("%s: task %d remaining %v/%v missed %v/%v ready %v/%v", what, n,
					src.Remaining(n), dst.Remaining(n), src.Missed(n), dst.Missed(n), src.Ready(n), dst.Ready(n))
			}
		}
	}
	same("after CopyFrom")

	before := src.State()
	dst.Run(got, 240)
	dst.CheckDeadlines(1800)
	for n := 0; n < g.N(); n++ {
		if src.Remaining(n) != before.Remaining[n] || src.Missed(n) != before.Missed[n] {
			t.Fatalf("running the copy changed the source's task %d", n)
		}
	}
	src.Run(run, 240)
	src.CheckDeadlines(1800)
	same("after the same run and deadline check")
}
