// Package solarsched is a library-level reproduction of "Deadline-aware
// Task Scheduling for Solar-powered Nonvolatile Sensor Nodes with Global
// Energy Migration" (Zhang et al., DAC 2015).
//
// It simulates a dual-channel solar-powered sensor node — a direct supply
// channel plus a "store and use" channel over distributed super capacitors
// — executing periodic task graphs on nonvolatile processors, and provides
// the paper's full scheduling stack:
//
//   - baseline schedulers: a WCMA-driven lazy inter-task scheduler and an
//     intra-task load-matching scheduler;
//   - the offline stage: super-capacitor sizing, a per-period
//     minimum-energy optimizer, and a long-term DP over periods and days;
//   - the online stage: a from-scratch deep belief network that selects the
//     capacitor of the day, the scheduling pattern and the task set each
//     period, followed by inter/intra fine-grained slot scheduling.
//
// This root package is a facade: it re-exports the user-facing API of the
// internal packages so applications can depend on a single import.
//
//	tr := solarsched.RepresentativeDays(solarsched.DefaultTimeBase(4))
//	g := solarsched.WAM()
//	eng, _ := solarsched.NewEngine(solarsched.EngineConfig{
//		Trace: tr, Graph: g, Capacitances: []float64{10},
//	})
//	res, _ := eng.Run(context.Background(), solarsched.NewIntraMatch(g))
//	fmt.Println(res.DMR())
//
// Run takes a context (cancellation stops the engine at the next period
// boundary with ErrCanceled) and functional options — WithRecorder,
// WithResume, WithSink, WithCheckpointEvery — for tracing and
// crash-consistent checkpointing. Batches of runs go through RunFleet,
// which executes FleetSpecs on a bounded worker pool with a shared
// offline-artifact cache.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package solarsched

import (
	"io"

	"solarsched/internal/ann"
	"solarsched/internal/ckpt"
	"solarsched/internal/core"
	"solarsched/internal/experiments"
	"solarsched/internal/fault"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/overhead"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/sizing"
	"solarsched/internal/solar"
	"solarsched/internal/stats"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// ---- Time and solar supply -------------------------------------------------

// TimeBase is the discrete time structure (days / periods / slots).
type TimeBase = solar.TimeBase

// Trace is a per-slot solar power trace.
type Trace = solar.Trace

// GenConfig configures the synthetic solar generator.
type GenConfig = solar.GenConfig

// Panel is the photovoltaic panel model.
type Panel = solar.Panel

// Condition is a day-level weather pattern.
type Condition = solar.Condition

// Weather conditions of the synthetic generator.
const (
	Sunny        = solar.Sunny
	PartlyCloudy = solar.PartlyCloudy
	Overcast     = solar.Overcast
	Rainy        = solar.Rainy
)

// DefaultTimeBase returns the evaluation time base: 48 periods of 30 min,
// 30 slots of 60 s, over the given number of days.
func DefaultTimeBase(days int) TimeBase { return solar.DefaultTimeBase(days) }

// GenerateTrace produces a deterministic synthetic solar trace.
func GenerateTrace(cfg GenConfig) (*Trace, error) { return solar.Generate(cfg) }

// RepresentativeDays returns the paper's four representative days (Fig. 7).
func RepresentativeDays(tb TimeBase) *Trace { return solar.RepresentativeDays(tb) }

// TwoMonthTrace returns the 60-day evaluation trace (Fig. 9, Fig. 10a).
func TwoMonthTrace(tb TimeBase) *Trace { return solar.TwoMonthTrace(tb) }

// ReadTraceCSV reads a trace written by Trace.WriteCSV.
var ReadTraceCSV = solar.ReadCSV

// Predictor forecasts per-period harvest energy.
type Predictor = solar.Predictor

// WCMA is the Weather-Conditioned Moving Average predictor (baseline [3]).
type WCMA = solar.WCMA

// NewWCMA returns a WCMA predictor.
func NewWCMA(alpha float64, days, k, periodsPerDay int) *WCMA {
	return solar.NewWCMA(alpha, days, k, periodsPerDay)
}

// HorizonForecast perturbs a true trace with lead-time-dependent error.
type HorizonForecast = solar.HorizonForecast

// NewHorizonForecast returns a forecaster over a true trace.
func NewHorizonForecast(tr *Trace, seed uint64) *HorizonForecast {
	return solar.NewHorizonForecast(tr, seed)
}

// ---- Workload ---------------------------------------------------------------

// Task is one periodic task τ_n.
type Task = task.Task

// TaskGraph is a periodic task DAG with NVP bindings.
type TaskGraph = task.Graph

// Edge is one dependence W_{n,l}.
type Edge = task.Edge

// NewTaskGraph builds a task graph.
func NewTaskGraph(name string, tasks []Task, edges []Edge, numNVPs int) *TaskGraph {
	return task.NewGraph(name, tasks, edges, numNVPs)
}

// The six evaluation benchmarks of §6.1.
var (
	WAM           = task.WAM
	ECG           = task.ECG
	SHM           = task.SHM
	RandomCase    = task.RandomCase
	AllBenchmarks = task.AllBenchmarks
)

// RandomTaskGraph generates a seeded random benchmark.
func RandomTaskGraph(name string, seed uint64, periodSeconds, slotSeconds float64) *TaskGraph {
	return task.Random(name, seed, periodSeconds, slotSeconds)
}

// ---- Energy storage ----------------------------------------------------------

// CapParams holds the storage-channel data-fit constants (Fig. 5, [12]).
type CapParams = supercap.Params

// Capacitor is the slot-level super-capacitor model (eq. (1)).
type Capacitor = supercap.Capacitor

// CapBank is the distributed super-capacitor bank.
type CapBank = supercap.Bank

// MigrationPattern describes a Table 2 migration experiment.
type MigrationPattern = supercap.Pattern

// DefaultCapParams returns the calibrated storage constants.
func DefaultCapParams() CapParams { return supercap.DefaultParams() }

// NewCapacitor returns a capacitor of c farads at cut-off voltage.
func NewCapacitor(c float64, p CapParams) *Capacitor { return supercap.New(c, p) }

// NewCapBank builds a bank of distributed capacitors. It returns an error
// on degenerate input (empty bank, non-positive capacitance, bad params).
func NewCapBank(capacitances []float64, p CapParams) (*CapBank, error) {
	return supercap.NewBank(capacitances, p)
}

// MigrationEfficiency runs the Table 2 probe on the coarse model.
func MigrationEfficiency(c float64, pat MigrationPattern, p CapParams, dt float64) float64 {
	return supercap.MigrationEfficiency(c, pat, p, dt)
}

// HiFiMigrationEfficiency runs the probe on the measurement-grade reference
// simulator (the "Test" column of Table 2).
func HiFiMigrationEfficiency(c float64, pat MigrationPattern, p CapParams) float64 {
	return supercap.HiFiMigrationEfficiency(c, pat, p)
}

// SizeBank runs the offline capacitor sizing of §4.1.
func SizeBank(tr *Trace, g *TaskGraph, h int, p CapParams, directEff float64) []float64 {
	return sizing.SizeBank(tr, g, h, p, directEff)
}

// BankMigrationEfficiency estimates a sized bank's migration efficiency.
func BankMigrationEfficiency(tr *Trace, g *TaskGraph, bank []float64, p CapParams, directEff float64) float64 {
	return sizing.BankMigrationEfficiency(tr, g, bank, p, directEff)
}

// ---- Node simulation ----------------------------------------------------------

// EngineConfig describes one simulation run.
type EngineConfig = sim.Config

// Engine is the discrete-time node simulator.
type Engine = sim.Engine

// Result carries the DMR and energy ledger of a run.
type Result = sim.Result

// Scheduler is the contract every scheduling algorithm implements.
type Scheduler = sim.Scheduler

// PeriodView and SlotView are the scheduler-visible state snapshots.
type (
	PeriodView = sim.PeriodView
	SlotView   = sim.SlotView
	PeriodPlan = sim.PeriodPlan
)

// DefaultDirectEff is the direct supply channel efficiency.
const DefaultDirectEff = sim.DefaultDirectEff

// NewEngine validates a configuration and returns an engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return sim.New(cfg) }

// ---- Run options, state and errors -------------------------------------------

// RunOption is a functional option of Engine.Run.
type RunOption = sim.RunOption

// RunState is a resumable point-in-time snapshot of a run.
type RunState = sim.RunState

// EventRecorder receives the engine's slot/period event stream.
type EventRecorder = sim.Recorder

// The Run options: per-run tracing, checkpoint resume, checkpoint sinks
// (cadence-based via WithCheckpointEvery or custom-gated via
// WithCheckpointGate).
var (
	WithRecorder        = sim.WithRecorder
	WithResume          = sim.WithResume
	WithCheckpointSink  = sim.WithSink
	WithCheckpointGate  = sim.WithGate
	WithCheckpointEvery = sim.WithCheckpointEvery
)

// Sentinel errors of the run/checkpoint pipeline; match with errors.Is.
var (
	// ErrCanceled reports a run stopped by context cancellation.
	ErrCanceled = sim.ErrCanceled
	// ErrConfigMismatch reports a checkpoint that does not belong to the
	// run configuration it was resumed under.
	ErrConfigMismatch = sim.ErrConfigMismatch
	// ErrCorruptCheckpoint reports a checkpoint that fails structural or
	// checksum validation.
	ErrCorruptCheckpoint = ckpt.ErrCorruptCheckpoint
)

// ---- Fleet runs ---------------------------------------------------------------

// FleetSpec is one member of a fleet: an ID plus a Prepare hook that
// derives the run's job, pulling offline artifacts through the shared
// cache.
type FleetSpec = fleet.Spec

// FleetJob is a prepared run: engine config, scheduler, run options.
type FleetJob = fleet.Job

// FleetOptions tunes a fleet run (worker count, cache, observer).
type FleetOptions = fleet.Options

// FleetReport aggregates a fleet's per-run results and cache statistics.
type FleetReport = fleet.Report

// FleetRunResult is one fleet member's outcome.
type FleetRunResult = fleet.RunResult

// FleetSummary is the fleet-level DMR distribution.
type FleetSummary = fleet.Summary

// FleetFileSpec and FleetRunSpec are the JSON shapes of the
// `solarsched fleet` subcommand's spec files.
type (
	FleetFileSpec = fleet.FileSpec
	FleetRunSpec  = fleet.RunSpec
)

// ArtifactCache is the content-addressed offline-artifact cache shared by
// fleet members: traces, sized banks, DP teacher samples, trained
// networks and whole-trace plans, deduplicated by a single-flight.
type ArtifactCache = fleet.Cache

// NewArtifactCache returns an empty cache; reg (may be nil) receives the
// cache's hit/miss/build instrumentation.
func NewArtifactCache(reg *MetricsRegistry) *ArtifactCache { return fleet.NewCache(reg) }

// RunFleet executes the specs on a bounded worker pool. See fleet.Run.
var RunFleet = fleet.Run

// LoadFleetSpecFile reads and compiles a fleet spec file; ReadFleetSpecs
// does the same from a reader.
var (
	LoadFleetSpecFile = fleet.LoadSpecFile
	ReadFleetSpecs    = fleet.ReadSpecs
)

// ---- Fault injection ---------------------------------------------------------

// FaultConfig holds the fault intensities of one run; set it as
// EngineConfig.Faults. The zero value disables fault injection entirely
// and the engine takes the exact pre-fault-layer code path.
type FaultConfig = fault.Config

// ReferenceFaults returns the moderate full-coverage fault profile — the
// unit intensity of the fault sweep. Scale it to move along the intensity
// axis.
func ReferenceFaults() FaultConfig { return fault.Reference() }

// ParseFaultSpec parses a -faults style spec: "" (disabled), a bare
// intensity λ (scales the reference profile), or a key=value list such as
// "outage=0.01,volt-noise=0.05,dbn=0.1".
func ParseFaultSpec(s string) (FaultConfig, error) { return fault.ParseSpec(s) }

// ---- Schedulers ------------------------------------------------------------------

// NewASAP returns the as-soon-as-possible scheduler (§4.1's pattern source).
func NewASAP(g *TaskGraph) Scheduler { return sched.NewASAP(g) }

// NewInterLSA returns the paper's Inter-task baseline [3].
func NewInterLSA(g *TaskGraph, tb TimeBase, directEff float64) Scheduler {
	return sched.NewInterLSA(g, tb, directEff)
}

// NewIntraMatch returns the paper's Intra-task baseline [9].
func NewIntraMatch(g *TaskGraph) Scheduler { return sched.NewIntraMatch(g) }

// PlanConfig configures the long-term scheduler.
type PlanConfig = core.PlanConfig

// Network is the trained deep belief network.
type Network = ann.Network

// TrainOptions configures offline training.
type TrainOptions = core.TrainOptions

// DefaultPlanConfig returns the evaluation's long-term settings.
func DefaultPlanConfig(g *TaskGraph, tb TimeBase, capacitances []float64) PlanConfig {
	return core.DefaultPlanConfig(g, tb, capacitances)
}

// DefaultTrainOptions returns the evaluation's training settings.
func DefaultTrainOptions() TrainOptions { return core.DefaultTrainOptions() }

// Train runs the offline pipeline of Figure 4 (DP → samples → DBN).
func Train(pc PlanConfig, trainTrace *Trace, opt TrainOptions) (*Network, float64, error) {
	return core.Train(pc, trainTrace, opt)
}

// NewProposed wraps a trained network as the paper's online scheduler (§5).
func NewProposed(pc PlanConfig, net *Network) (Scheduler, error) {
	return core.NewProposed(pc, net)
}

// HardenConfig tunes the proposed scheduler's graceful-degradation layer:
// output sanitizer, watchdog fallback to the lazy baseline, and E_th
// switch debounce.
type HardenConfig = core.HardenConfig

// DefaultHardenConfig returns the fault sweep's hardening thresholds.
func DefaultHardenConfig() HardenConfig { return core.DefaultHardenConfig() }

// NewHardenedProposed wraps a trained network as the proposed scheduler
// with the graceful-degradation layer enabled.
func NewHardenedProposed(pc PlanConfig, net *Network, hc HardenConfig) (Scheduler, error) {
	p, err := core.NewProposed(pc, net)
	if err != nil {
		return nil, err
	}
	p.Harden = &hc
	return p, nil
}

// TrainProposed trains on a trace and returns the online scheduler.
func TrainProposed(pc PlanConfig, trainTrace *Trace, opt TrainOptions) (Scheduler, error) {
	return core.TrainProposed(pc, trainTrace, opt)
}

// DecideRequest is the observable state a node carries to a period
// boundary: previous-period powers, per-capacitor voltages, accumulated
// DMR, period index and active capacitor.
type DecideRequest = core.DecideRequest

// OnlineDecision is one §5 period decision: chosen capacitor, scheduling
// pattern α, task enable set, and the E_th-driven switch/migrate flags.
type OnlineDecision = core.OnlineDecision

// Decide runs one online inference — features → DBN forward pass →
// predecessor closure → E_th/δ rules — without simulating anything.
func Decide(pc PlanConfig, net *Network, req DecideRequest) (OnlineDecision, error) {
	return core.Decide(pc, net, req)
}

// NewClairvoyant returns the "Optimal" upper bound: the long-term DP fed
// the true future solar powers.
func NewClairvoyant(pc PlanConfig, tr *Trace, predictionHours float64) (Scheduler, error) {
	return core.NewClairvoyant(pc, tr, predictionHours)
}

// NewHorizonScheduler returns the receding-horizon planner used in the
// prediction-length study (Fig. 10a).
func NewHorizonScheduler(pc PlanConfig, fc *HorizonForecast, predictionHours float64) (Scheduler, error) {
	return core.NewHorizon(pc, fc, predictionHours)
}

// ---- Reporting and experiments ---------------------------------------------------

// Table is an aligned text/CSV table.
type Table = stats.Table

// ExperimentConfig scales the paper-experiment harnesses.
type ExperimentConfig = experiments.Config

// DefaultExperiments returns the full-scale experiment configuration;
// QuickExperiments the reduced one.
var (
	DefaultExperiments = experiments.Default
	QuickExperiments   = experiments.Quick
)

// The per-figure/table harnesses of §6 (see EXPERIMENTS.md).
var (
	Fig5       = experiments.Fig5
	Fig7       = experiments.Fig7
	Table2     = experiments.Table2
	Fig8       = experiments.Fig8
	Fig9       = experiments.Fig9
	Fig10a     = experiments.Fig10a
	Fig10b     = experiments.Fig10b
	Overhead   = experiments.Overhead
	FaultSweep = experiments.FaultSweep
)

// MCU is the 93.5 kHz on-node cost model of §6.5.
type MCU = overhead.MCU

// DefaultMCU returns the paper's node processor model.
func DefaultMCU() MCU { return overhead.DefaultMCU() }

// ---- Observability ----------------------------------------------------------

// MetricsRegistry is the instrumentation registry of internal/obs: typed
// counters, gauges, histograms and timers plus hierarchical spans, safe
// for concurrent use. Pass one as EngineConfig.Observer (and
// PlanConfig.Observer) to collect per-run telemetry; a nil registry
// disables instrumentation at negligible cost.
type MetricsRegistry = obs.Registry

// MetricsSnapshot is a deterministic point-in-time copy of a registry.
type MetricsSnapshot = obs.Snapshot

// MetricLabel is one constant key=value dimension of an instrument.
type MetricLabel = obs.Label

// Metrics returns the process-wide shared registry — the pipeline the
// cmd binaries' -metrics flags and library callers share by default.
func Metrics() *MetricsRegistry { return obs.Default() }

// NewMetricsRegistry returns an isolated registry for callers that do not
// want to share the process-wide pipeline (parallel runs, tests).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Metrics exposition formats accepted by WriteMetrics.
const (
	MetricsProm    = obs.FormatProm
	MetricsJSON    = obs.FormatJSON
	MetricsSummary = obs.FormatSummary
)

// WriteMetrics writes a snapshot in the given format: Prometheus text
// exposition, indented JSON, or a human-readable summary table.
func WriteMetrics(w io.Writer, s MetricsSnapshot, format string) error {
	return obs.WriteFormat(w, s, format)
}
