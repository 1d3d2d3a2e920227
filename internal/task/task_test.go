package task

import (
	"testing"
	"testing/quick"
)

const period = 1800.0

func TestAllBenchmarksValid(t *testing.T) {
	for _, g := range AllBenchmarks() {
		if err := g.Validate(period); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestBenchmarkShapes(t *testing.T) {
	if got := WAM().N(); got != 8 {
		t.Errorf("WAM has %d tasks, want 8", got)
	}
	if got := ECG().N(); got != 6 {
		t.Errorf("ECG has %d tasks, want 6", got)
	}
	if got := SHM().N(); got != 5 {
		t.Errorf("SHM has %d tasks, want 5", got)
	}
	if got := WAM().NumNVPs; got != 3 {
		t.Errorf("WAM has %d NVPs, want 3", got)
	}
	for i := 1; i <= 3; i++ {
		g := RandomCase(i)
		if g.N() < 4 || g.N() > 8 {
			t.Errorf("%s has %d tasks, want 4..8", g.Name, g.N())
		}
		if len(g.Edges) > 2 {
			t.Errorf("%s has %d edges, want 0..2", g.Name, len(g.Edges))
		}
		if g.NumNVPs < 2 || g.NumNVPs > 6 {
			t.Errorf("%s has %d NVPs, want 2..6", g.Name, g.NumNVPs)
		}
	}
}

func TestTaskEnergy(t *testing.T) {
	tk := Task{ExecTime: 100, Power: 0.05}
	if got := tk.Energy(); got != 5 {
		t.Fatalf("Energy = %v, want 5", got)
	}
}

func TestPeriodEnergyPositiveAndPlausible(t *testing.T) {
	for _, g := range AllBenchmarks() {
		e := g.PeriodEnergy()
		// Each benchmark should demand between 2 J and 100 J per 30-min
		// period — the regime where a ~95 mW-peak panel produces DMRs in the
		// paper's range.
		if e < 2 || e > 100 {
			t.Errorf("%s period energy %v J implausible", g.Name, e)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := WAM()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %v violated in order %v", e, order)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	tasks := []Task{
		{ID: 0, Name: "a", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0},
	}
	g := NewGraph("cyclic", tasks, []Edge{{0, 1}, {1, 0}}, 1)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(period); err == nil {
		t.Fatal("Validate accepted a cyclic graph")
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mk := func(mut func(*Task)) *Graph {
		tk := Task{ID: 0, Name: "x", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0}
		mut(&tk)
		return NewGraph("bad", []Task{tk}, nil, 1)
	}
	cases := map[string]*Graph{
		"zero exec":      mk(func(t *Task) { t.ExecTime = 0 }),
		"zero power":     mk(func(t *Task) { t.Power = 0 }),
		"zero deadline":  mk(func(t *Task) { t.Deadline = 0 }),
		"late deadline":  mk(func(t *Task) { t.Deadline = period + 1 }),
		"nvp out of set": mk(func(t *Task) { t.NVP = 5 }),
		"infeasible":     mk(func(t *Task) { t.ExecTime = 700 }),
		"non-contiguous": mk(func(t *Task) { t.ID = 3 }),
	}
	for name, g := range cases {
		if err := g.Validate(period); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := NewGraph("empty", nil, nil, 1).Validate(period); err == nil {
		t.Error("empty graph accepted")
	}
	if err := NewGraph("nonvp", []Task{{ID: 0, Name: "x", ExecTime: 60, Power: 0.01, Deadline: 600}}, nil, 0).Validate(period); err == nil {
		t.Error("zero NVPs accepted")
	}
}

func TestValidateRejectsSelfLoopAndRangeEdges(t *testing.T) {
	tk := []Task{{ID: 0, Name: "x", ExecTime: 60, Power: 0.01, Deadline: 600, NVP: 0}}
	if err := NewGraph("self", tk, []Edge{{0, 0}}, 1).Validate(period); err == nil {
		t.Error("self-loop accepted")
	}
	if err := NewGraph("range", tk, []Edge{{0, 7}}, 1).Validate(period); err == nil {
		t.Error("out-of-range edge accepted")
	}
}

func TestEarliestFinishSerializesNVP(t *testing.T) {
	// Two independent tasks on the same NVP must finish sequentially.
	tasks := []Task{
		{ID: 0, Name: "a", ExecTime: 100, Power: 0.01, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 100, Power: 0.01, Deadline: 1800, NVP: 0},
	}
	g := NewGraph("serial", tasks, nil, 1)
	finish, err := g.EarliestFinish()
	if err != nil {
		t.Fatal(err)
	}
	if finish[0] == finish[1] {
		t.Fatalf("same-NVP tasks finished together: %v", finish)
	}
	if max(finish[0], finish[1]) != 200 {
		t.Fatalf("serialized finish = %v, want 200", finish)
	}
}

func TestEarliestFinishHonorsDependence(t *testing.T) {
	tasks := []Task{
		{ID: 0, Name: "a", ExecTime: 100, Power: 0.01, Deadline: 1800, NVP: 0},
		{ID: 1, Name: "b", ExecTime: 50, Power: 0.01, Deadline: 1800, NVP: 1},
	}
	g := NewGraph("dep", tasks, []Edge{{0, 1}}, 2)
	finish, err := g.EarliestFinish()
	if err != nil {
		t.Fatal(err)
	}
	if finish[1] != 150 {
		t.Fatalf("dependent finish = %v, want 150", finish[1])
	}
}

func TestPredecessorsSuccessors(t *testing.T) {
	g := ECG()
	// hpf2 (2) has predecessor hpf1 (1) and successors qrs (3) and fft (4).
	if p := g.Predecessors(2); len(p) != 1 || p[0] != 1 {
		t.Fatalf("Predecessors(hpf2) = %v", p)
	}
	s := g.Successors(2)
	if len(s) != 2 {
		t.Fatalf("Successors(hpf2) = %v", s)
	}
}

func TestScale(t *testing.T) {
	g := WAM()
	s := g.Scale(2)
	if s.PeriodEnergy() != 2*g.PeriodEnergy() {
		t.Fatal("Scale did not double energy")
	}
	if g.Tasks[0].Power == s.Tasks[0].Power {
		t.Fatal("Scale mutated nothing")
	}
	// Original untouched.
	if g.Tasks[0].Power != WAM().Tasks[0].Power {
		t.Fatal("Scale mutated the original")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random("r", 7, period, 60)
	b := Random("r", 7, period, 60)
	if a.N() != b.N() || len(a.Edges) != len(b.Edges) || a.NumNVPs != b.NumNVPs {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			t.Fatalf("task %d differs", i)
		}
	}
}

// Property: every random benchmark is valid, across many seeds.
func TestRandomAlwaysValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Random("prop", seed, period, 60)
		return g.Validate(period) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: deadlines of random benchmarks land on slot boundaries.
func TestRandomDeadlinesOnSlotsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := Random("prop", seed, period, 60)
		for _, tk := range g.Tasks {
			if tk.Deadline != float64(int(tk.Deadline/60))*60 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
