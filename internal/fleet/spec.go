package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/dvfs"
	"solarsched/internal/fault"
	"solarsched/internal/obs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// FileSpec is the JSON fleet description the `solarsched fleet` subcommand
// consumes: shared defaults plus one entry per run. Zero-valued fields of a
// run inherit from Defaults field by field (a run's zero seed therefore
// means "the default seed", not seed 0 — pin seeds in Defaults).
type FileSpec struct {
	Defaults RunSpec   `json:"defaults"`
	Runs     []RunSpec `json:"runs"`
}

// RunSpec describes one run. Graph names the built-in benchmark (wam, ecg,
// shm, random1..random3); Scheduler one of asap, inter, intra, dvfs,
// proposed, hardened, optimal.
type RunSpec struct {
	ID        string    `json:"id,omitempty"`
	Graph     string    `json:"graph,omitempty"`
	Scheduler string    `json:"scheduler,omitempty"`
	Trace     TraceSpec `json:"trace,omitempty"`

	// H is the distributed bank size for proposed/hardened/optimal
	// (default 4); baselines always run on a single sized capacitor.
	H int `json:"h,omitempty"`

	// FaultIntensity scales fault.Reference(); 0 disables faults.
	FaultIntensity float64 `json:"fault_intensity,omitempty"`
	FaultSeed      uint64  `json:"fault_seed,omitempty"`

	// Train configures the offline stage (sizing + DBN training).
	Train *TrainSpec `json:"train,omitempty"`
}

// TraceSpec selects the evaluation weather. Kind is gen (synthetic, by
// seed), representative (the four Fig. 8 days), twomonth (the Fig. 9
// seasonal trace) or csv (a trace file written by solar.Trace.WriteCSV).
type TraceSpec struct {
	Kind      string `json:"kind,omitempty"`
	Days      int    `json:"days,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	DayOfYear int    `json:"day_of_year,omitempty"`
	Path      string `json:"path,omitempty"`
}

// TrainSpec configures the offline training history.
type TrainSpec struct {
	Days       int    `json:"days,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	DayOfYear  int    `json:"day_of_year,omitempty"`
	FineEpochs int    `json:"fine_epochs,omitempty"`
}

// DefaultTrainSpec matches the experiments package's quick configuration.
func DefaultTrainSpec() TrainSpec {
	return TrainSpec{Days: 5, Seed: 777, DayOfYear: 80, FineEpochs: 200}
}

// LoadSpecFile reads and compiles a fleet spec file.
func LoadSpecFile(path string, reg *obs.Registry) ([]Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpecs(f, reg)
}

// ReadSpecs parses a FileSpec document and compiles it.
func ReadSpecs(r io.Reader, reg *obs.Registry) ([]Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var fs FileSpec
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("fleet: parse spec: %w", err)
	}
	return fs.Compile(reg)
}

// merged returns rs with zero fields filled from d.
func (rs RunSpec) merged(d RunSpec) RunSpec {
	if rs.Graph == "" {
		rs.Graph = d.Graph
	}
	if rs.Scheduler == "" {
		rs.Scheduler = d.Scheduler
	}
	if rs.Trace.Kind == "" {
		rs.Trace.Kind = d.Trace.Kind
	}
	if rs.Trace.Days == 0 {
		rs.Trace.Days = d.Trace.Days
	}
	if rs.Trace.Seed == 0 {
		rs.Trace.Seed = d.Trace.Seed
	}
	if rs.Trace.DayOfYear == 0 {
		rs.Trace.DayOfYear = d.Trace.DayOfYear
	}
	if rs.Trace.Path == "" {
		rs.Trace.Path = d.Trace.Path
	}
	if rs.H == 0 {
		rs.H = d.H
	}
	if rs.FaultIntensity == 0 {
		rs.FaultIntensity = d.FaultIntensity
	}
	if rs.FaultSeed == 0 {
		rs.FaultSeed = d.FaultSeed
	}
	if rs.Train == nil {
		rs.Train = d.Train
	}
	return rs
}

// Compile resolves defaults and turns every run into an executable Spec.
// reg (may be nil) becomes the observer of each run's engine and offline
// stage.
func (fs *FileSpec) Compile(reg *obs.Registry) ([]Spec, error) {
	return fs.CompileWith(reg, nil)
}

// Resolved merges Defaults into every run, fills remaining zero fields
// with the package defaults, assigns IDs and validates names — exactly
// the RunSpec set Compile executes. Resolution is idempotent, so a
// resolved RunSpec compiles elsewhere with identical semantics.
func (fs *FileSpec) Resolved() ([]RunSpec, error) {
	if len(fs.Runs) == 0 {
		return nil, fmt.Errorf("fleet: spec file has no runs")
	}
	out := make([]RunSpec, 0, len(fs.Runs))
	for i, raw := range fs.Runs {
		rs := raw.merged(fs.Defaults)
		if rs.Graph == "" {
			rs.Graph = "ecg"
		}
		if rs.Scheduler == "" {
			rs.Scheduler = "proposed"
		}
		if rs.Trace.Kind == "" {
			rs.Trace.Kind = "gen"
		}
		if rs.Trace.Days == 0 {
			rs.Trace.Days = 4
		}
		if rs.H == 0 {
			rs.H = 4
		}
		if rs.Train == nil {
			t := DefaultTrainSpec()
			rs.Train = &t
		}
		if rs.ID == "" {
			rs.ID = fmt.Sprintf("%s-%s-%d#%d", rs.Graph, rs.Scheduler, rs.Trace.Seed, i)
		}
		if _, err := graphByName(rs.Graph); err != nil {
			return nil, fmt.Errorf("fleet: run %s: %w", rs.ID, err)
		}
		if !knownScheduler(rs.Scheduler) {
			return nil, fmt.Errorf("fleet: run %s: unknown scheduler %q", rs.ID, rs.Scheduler)
		}
		if err := rs.checkCounts(); err != nil {
			return nil, fmt.Errorf("fleet: run %s: %w", rs.ID, err)
		}
		out = append(out, rs)
	}
	return out, nil
}

// checkCounts rejects negative sizes and counts at submission. Past this
// point they fail mid-job or not at all: a negative h panics in capacitor
// sizing once the job has started, and a negative fine_epochs silently
// skips fine-tuning.
func (rs RunSpec) checkCounts() error {
	for _, c := range []struct {
		name string
		v    int
	}{
		{"h", rs.H},
		{"trace.days", rs.Trace.Days},
		{"train.days", rs.Train.Days},
		{"train.fine_epochs", rs.Train.FineEpochs},
	} {
		if c.v < 0 {
			return fmt.Errorf("%s is %d, must not be negative", c.name, c.v)
		}
	}
	return nil
}

// CompileWith is Compile plus a per-run option hook: extra (may be nil) is
// called once per resolved run at Prepare time and its options are
// appended to the job — the serving daemon attaches per-run recorders
// (decision streaming) and checkpoint sinks this way without the spec
// format knowing about either.
func (fs *FileSpec) CompileWith(reg *obs.Registry, extra func(rs RunSpec) []sim.RunOption) ([]Spec, error) {
	resolved, err := fs.Resolved()
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, 0, len(resolved))
	for _, rs := range resolved {
		spec := rs // capture per iteration
		specs = append(specs, Spec{
			ID: rs.ID,
			Prepare: func(ctx context.Context, c *Cache) (*Job, error) {
				job, err := spec.prepare(ctx, c, reg)
				if err != nil {
					return nil, err
				}
				if extra != nil {
					job.Options = append(job.Options, extra(spec)...)
				}
				return job, nil
			},
		})
	}
	return specs, nil
}

func graphByName(name string) (*task.Graph, error) {
	switch strings.ToLower(name) {
	case "wam":
		return task.WAM(), nil
	case "ecg":
		return task.ECG(), nil
	case "shm":
		return task.SHM(), nil
	case "random1", "random2", "random3":
		return task.RandomCase(int(name[len(name)-1] - '0')), nil
	default:
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
}

func knownScheduler(name string) bool {
	switch name {
	case "asap", "inter", "intra", "dvfs", "proposed", "hardened", "optimal":
		return true
	}
	return false
}

// evalTrace resolves the evaluation weather through the cache.
func (ts TraceSpec) evalTrace(ctx context.Context, c *Cache) (*solar.Trace, error) {
	tb := solar.DefaultTimeBase(ts.Days)
	switch ts.Kind {
	case "gen":
		return c.Trace(ctx, solar.GenConfig{Base: tb, Seed: ts.Seed, DayOfYearStart: ts.DayOfYear})
	case "representative", "twomonth":
		return c.BuiltinTrace(ctx, ts.Kind, tb)
	case "csv":
		v, err := c.Do(ctx, artifactKey("trace-csv", ts.Path), func() (any, error) {
			f, err := os.Open(ts.Path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return solar.ReadCSV(f)
		})
		if err != nil {
			return nil, err
		}
		return c.handOut(v.(*solar.Trace)), nil
	default:
		return nil, fmt.Errorf("fleet: unknown trace kind %q", ts.Kind)
	}
}

// prepare derives the run's job, pulling every offline artifact through the
// shared cache: training trace, sized bank, and — for the learned and
// optimal schedulers — teacher samples, trained network or whole-trace
// plan.
func (rs RunSpec) prepare(ctx context.Context, c *Cache, reg *obs.Registry) (*Job, error) {
	g, err := graphByName(rs.Graph)
	if err != nil {
		return nil, err
	}
	tr, err := rs.Trace.evalTrace(ctx, c)
	if err != nil {
		return nil, err
	}
	trainTr, err := c.Trace(ctx, solar.GenConfig{
		Base:           solar.DefaultTimeBase(rs.Train.Days),
		Seed:           rs.Train.Seed,
		DayOfYearStart: rs.Train.DayOfYear,
	})
	if err != nil {
		return nil, err
	}
	p := supercap.DefaultParams()
	h := rs.H
	if !multiCapScheduler(rs.Scheduler) {
		h = 1
	}
	bank, err := c.Sizing(ctx, trainTr, g, h, p, sim.DefaultDirectEff)
	if err != nil {
		return nil, err
	}

	var s sim.Scheduler
	switch rs.Scheduler {
	case "asap":
		s = sched.NewASAP(g)
	case "inter":
		s = sched.NewInterLSA(g, tr.Base, sim.DefaultDirectEff)
	case "intra":
		s = sched.NewIntraMatch(g)
	case "dvfs":
		s = dvfs.NewLoadTune(g)
	case "proposed", "hardened":
		pc := core.DefaultPlanConfig(g, trainTr.Base, bank)
		pc.Observer = reg
		topt := core.DefaultTrainOptions()
		topt.Fine.Epochs = rs.Train.FineEpochs
		net, err := c.Network(ctx, pc, trainTr, topt)
		if err != nil {
			return nil, err
		}
		pcEval := pc
		pcEval.Base = tr.Base
		prop, err := core.NewProposed(pcEval, net)
		if err != nil {
			return nil, err
		}
		if rs.Scheduler == "hardened" {
			hc := core.DefaultHardenConfig()
			prop.Harden = &hc
		}
		s = prop
	case "optimal":
		pc := core.DefaultPlanConfig(g, tr.Base, bank)
		pc.Observer = reg
		art, err := c.Plan(ctx, pc, tr)
		if err != nil {
			return nil, err
		}
		s, err = core.NewOptimalFromPlan(pc, tr, art.Plan, art.Entries)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("fleet: unknown scheduler %q", rs.Scheduler)
	}

	cfg := sim.Config{Trace: tr, Graph: g, Capacitances: bank, Observer: reg}
	if rs.FaultIntensity > 0 {
		fc := fault.Reference().Scale(rs.FaultIntensity)
		fc.Seed = rs.FaultSeed
		cfg.Faults = fc
	}
	return &Job{Config: cfg, Scheduler: s}, nil
}

// NetworkFor resolves the trained DBN and its plan configuration for a
// (graph, h, train) triple through the shared cache — the artifact path of
// the proposed scheduler, exposed so the serving daemon's one-shot
// /v1/decide endpoint reuses exactly the networks fleet runs train. The
// first call per configuration pays sizing + teacher DP + training;
// every later call (and every fleet member sharing the configuration) is
// a cache hit.
func NetworkFor(ctx context.Context, c *Cache, reg *obs.Registry, graph string, h int, train TrainSpec) (core.PlanConfig, *ann.Network, error) {
	g, err := graphByName(graph)
	if err != nil {
		return core.PlanConfig{}, nil, err
	}
	if h <= 0 {
		h = 4
	}
	if train == (TrainSpec{}) {
		train = DefaultTrainSpec()
	}
	trainTr, err := c.Trace(ctx, solar.GenConfig{
		Base:           solar.DefaultTimeBase(train.Days),
		Seed:           train.Seed,
		DayOfYearStart: train.DayOfYear,
	})
	if err != nil {
		return core.PlanConfig{}, nil, err
	}
	bank, err := c.Sizing(ctx, trainTr, g, h, supercap.DefaultParams(), sim.DefaultDirectEff)
	if err != nil {
		return core.PlanConfig{}, nil, err
	}
	pc := core.DefaultPlanConfig(g, trainTr.Base, bank)
	pc.Observer = reg
	topt := core.DefaultTrainOptions()
	topt.Fine.Epochs = train.FineEpochs
	net, err := c.Network(ctx, pc, trainTr, topt)
	if err != nil {
		return core.PlanConfig{}, nil, err
	}
	return pc, net, nil
}

// multiCapScheduler reports whether the scheduler uses the distributed
// bank; the paper's baselines run on a single sized capacitor.
func multiCapScheduler(name string) bool {
	switch name {
	case "proposed", "hardened", "optimal":
		return true
	}
	return false
}
