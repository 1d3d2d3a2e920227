// Package task models the workload side of the sensor node: directed
// acyclic graphs of periodic real-time tasks G(V, W) with per-task deadlines
// D_n, execution times S_n, average powers P_n and nonvolatile-processor
// bindings A_k, exactly as in §3.1 of the paper. It also provides the six
// evaluation benchmarks: the three real applications (wild animal
// monitoring, electrocardiogram, structural health monitoring) and a seeded
// generator for the three random benchmarks.
package task

import (
	"fmt"
	"math"

	"solarsched/internal/rng"
)

// Task is one periodic task τ_n. Every period it must execute for ExecTime
// seconds at Power watts, finishing before Deadline seconds into the period.
type Task struct {
	ID       int
	Name     string
	ExecTime float64 // S_n, seconds of execution needed per period
	Power    float64 // P_n^τ, average execution power in watts
	Deadline float64 // D_n, seconds from period start
	NVP      int     // index of the nonvolatile processor that runs it (A_k)
}

// Energy returns the energy (J) one full execution of the task consumes.
func (t Task) Energy() float64 { return t.ExecTime * t.Power }

// Edge is one dependence W_{n,l} = 1: To cannot start until From completes.
type Edge struct {
	From, To int
}

// Graph is a task set with its dependence edges and NVP count.
type Graph struct {
	Name    string
	Tasks   []Task
	Edges   []Edge
	NumNVPs int

	preds    [][]int // predecessor lists
	succs    [][]int
	predMask []uint64 // predecessors as a bit mask; nil above MaskTasks tasks
}

// MaskTasks is the largest graph whose predecessor sets PredMask holds:
// one bit per task in a uint64.
const MaskTasks = 64

// NewGraph builds a graph and its adjacency indexes. It does not validate;
// call Validate before use.
func NewGraph(name string, tasks []Task, edges []Edge, numNVPs int) *Graph {
	g := &Graph{Name: name, Tasks: tasks, Edges: edges, NumNVPs: numNVPs}
	g.buildAdjacency()
	return g
}

func (g *Graph) buildAdjacency() {
	n := len(g.Tasks)
	g.preds = make([][]int, n)
	g.succs = make([][]int, n)
	if n <= MaskTasks {
		g.predMask = make([]uint64, n)
	}
	for _, e := range g.Edges {
		if e.From >= 0 && e.From < n && e.To >= 0 && e.To < n {
			g.preds[e.To] = append(g.preds[e.To], e.From)
			g.succs[e.From] = append(g.succs[e.From], e.To)
			if g.predMask != nil {
				g.predMask[e.To] |= 1 << e.From
			}
		}
	}
}

// N returns the number of tasks.
func (g *Graph) N() int { return len(g.Tasks) }

// Predecessors returns the tasks τ_n with W_{n,l} = 1 for task l.
func (g *Graph) Predecessors(l int) []int { return g.preds[l] }

// PredMasks returns every task's predecessors as a bit mask: bit n of
// PredMasks()[l] is set when W_{n,l} = 1. It is nil for a graph of more
// than MaskTasks tasks. The slice belongs to the graph; callers only read
// it.
func (g *Graph) PredMasks() []uint64 { return g.predMask }

// Successors returns the tasks that depend on task n.
func (g *Graph) Successors(n int) []int { return g.succs[n] }

// PeriodEnergy returns the energy (J) required to run every task once.
func (g *Graph) PeriodEnergy() float64 {
	sum := 0.0
	for _, t := range g.Tasks {
		sum += t.Energy()
	}
	return sum
}

// TopoOrder returns a topological order of the tasks, or an error if the
// dependence graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Tasks)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range g.succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("task: graph %q has a dependence cycle", g.Name)
	}
	return order, nil
}

// EarliestFinish returns, for every task, the earliest completion time (s)
// achievable with unlimited energy, honoring dependences and one-task-per-NVP
// serialization (list scheduling in topological order, shorter-deadline
// first among ready tasks).
func (g *Graph) EarliestFinish() ([]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	finish := make([]float64, g.N())
	nvpFree := make([]float64, g.NumNVPs)
	for _, v := range order {
		start := nvpFree[g.Tasks[v].NVP]
		for _, p := range g.preds[v] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[v] = start + g.Tasks[v].ExecTime
		nvpFree[g.Tasks[v].NVP] = finish[v]
	}
	return finish, nil
}

// Validate checks structural and schedulability invariants against a period
// of periodSeconds: tasks exist, execution times and powers are positive,
// deadlines lie in (0, period], NVP bindings are in range, the dependence
// graph is acyclic, and every task can finish before its deadline when
// energy is unconstrained.
func (g *Graph) Validate(periodSeconds float64) error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("task: graph %q has no tasks", g.Name)
	}
	if g.NumNVPs <= 0 {
		return fmt.Errorf("task: graph %q has %d NVPs", g.Name, g.NumNVPs)
	}
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("task: graph %q task %d has ID %d, want contiguous IDs", g.Name, i, t.ID)
		}
		if t.ExecTime <= 0 {
			return fmt.Errorf("task: %q/%s has non-positive exec time", g.Name, t.Name)
		}
		if t.Power <= 0 {
			return fmt.Errorf("task: %q/%s has non-positive power", g.Name, t.Name)
		}
		if t.Deadline <= 0 || t.Deadline > periodSeconds {
			return fmt.Errorf("task: %q/%s deadline %g outside (0, %g]", g.Name, t.Name, t.Deadline, periodSeconds)
		}
		if t.NVP < 0 || t.NVP >= g.NumNVPs {
			return fmt.Errorf("task: %q/%s bound to NVP %d of %d", g.Name, t.Name, t.NVP, g.NumNVPs)
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Tasks) || e.To < 0 || e.To >= len(g.Tasks) {
			return fmt.Errorf("task: graph %q has edge %v out of range", g.Name, e)
		}
		if e.From == e.To {
			return fmt.Errorf("task: graph %q has a self-loop on %d", g.Name, e.From)
		}
	}
	finish, err := g.EarliestFinish()
	if err != nil {
		return err
	}
	for i, t := range g.Tasks {
		if finish[i] > t.Deadline+1e-9 {
			return fmt.Errorf("task: %q/%s infeasible: earliest finish %g > deadline %g",
				g.Name, t.Name, finish[i], t.Deadline)
		}
	}
	return nil
}

// MaxConcurrentPower returns an upper bound on the node's instantaneous
// load: the sum over NVPs of the most power-hungry task bound to each.
func (g *Graph) MaxConcurrentPower() float64 {
	perNVP := make([]float64, g.NumNVPs)
	for _, t := range g.Tasks {
		perNVP[t.NVP] = math.Max(perNVP[t.NVP], t.Power)
	}
	sum := 0.0
	for _, p := range perNVP {
		sum += p
	}
	return sum
}

// Scale returns a copy of the graph with every task's power multiplied by
// powerFactor — used to sweep workload intensity in calibration studies.
func (g *Graph) Scale(powerFactor float64) *Graph {
	tasks := make([]Task, len(g.Tasks))
	copy(tasks, g.Tasks)
	for i := range tasks {
		tasks[i].Power *= powerFactor
	}
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return NewGraph(g.Name, tasks, edges, g.NumNVPs)
}

// Random generates a random benchmark in the style of the paper's §6.1:
// 4–8 tasks, 0–2 dependence edges, 2–6 NVPs, with execution times in whole
// slots and deadlines guaranteed feasible under list scheduling. The same
// seed always yields the same benchmark. Draws whose load cannot fit the
// period are rejected and redrawn from a derived seed.
func Random(name string, seed uint64, periodSeconds, slotSeconds float64) *Graph {
	base := rng.New(seed).SplitLabeled("task-random")
	for {
		if g := tryRandom(name, base, periodSeconds, slotSeconds); g != nil {
			return g
		}
	}
}

// tryRandom draws one candidate benchmark; it returns nil when the draw is
// not schedulable within the period.
func tryRandom(name string, src *rng.Source, periodSeconds, slotSeconds float64) *Graph {
	n := src.IntRange(4, 8)
	nvps := src.IntRange(2, 6)
	if nvps > n {
		nvps = n
	}
	nEdges := src.IntRange(0, 2)

	tasks := make([]Task, n)
	for i := range tasks {
		slots := src.IntRange(2, 8)
		tasks[i] = Task{
			ID:       i,
			Name:     fmt.Sprintf("t%d", i),
			ExecTime: float64(slots) * slotSeconds,
			Power:    src.Range(0.008, 0.060), // 8–60 mW
			NVP:      src.Intn(nvps),
		}
	}
	// Edges only from lower to higher ID keep the graph acyclic.
	edges := make([]Edge, 0, nEdges)
	for len(edges) < nEdges {
		a, b := src.Intn(n), src.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		dup := false
		for _, e := range edges {
			if e.From == a && e.To == b {
				dup = true
				break
			}
		}
		if !dup {
			edges = append(edges, Edge{From: a, To: b})
		}
	}
	g := NewGraph(name, tasks, edges, nvps)
	// Deadlines: earliest finish plus random slack, clamped to the period.
	finish, err := g.EarliestFinish()
	if err != nil {
		panic(err) // unreachable: edges are ordered
	}
	for i := range tasks {
		if finish[i] > periodSeconds {
			return nil // load does not fit the period: redraw
		}
		d := finish[i] * src.Range(1.3, 2.5)
		// Round up to a slot boundary, then clamp.
		d = math.Ceil(d/slotSeconds) * slotSeconds
		if d > periodSeconds {
			d = periodSeconds
		}
		tasks[i].Deadline = d
	}
	g = NewGraph(name, tasks, edges, nvps)
	if err := g.Validate(periodSeconds); err != nil {
		return nil
	}
	return g
}
