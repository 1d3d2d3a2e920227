// Command solarsched regenerates the tables and figures of the paper's
// evaluation (§6). Each subcommand prints the corresponding rows; --csv
// additionally writes them as CSV files.
//
// Usage:
//
//	solarsched [flags] <experiment>...
//
// Experiments: fig5 fig7 table2 fig8 fig9 fig10a fig10b overhead all
//
// The fleet subcommand (solarsched fleet <spec.json>) runs a batch of
// simulations on the internal/fleet worker pool with a shared offline
// artifact cache; see cmd/solarsched/fleet.go.
//
// Flags:
//
//	-quick          reduced configuration (smoke-test scale)
//	-csv DIR        write each table as DIR/<experiment>.csv
//	-benchmarks STR comma-separated benchmark filter for fig8
//	                (Random1,Random2,Random3,WAM,ECG,SHM)
//	-quiet          suppress tables and timing; only -metrics output
//	                reaches stdout
//	-metrics, -metrics-format, -metrics-out, -cpuprofile, -memprofile,
//	-exectrace — see internal/obs.Flags
//
// SIGINT/SIGTERM stop the running experiment at the next period boundary
// and exit with status 130; a second signal kills immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/experiments"
	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/stats"
	"solarsched/internal/task"
)

func main() {
	os.Exit(run())
}

// run is main's body with an exit code instead of os.Exit calls, so every
// return path — including graceful interruption — unwinds the deferred
// signal handler and maps its error honestly onto the process status.
func run() int {
	// The fleet, store and model subcommands carry their own flag sets;
	// dispatch before the global flag.Parse so they never collide.
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		return runFleet(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "store" {
		return runStore(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "model" {
		return runModel(os.Args[2:])
	}
	quick := flag.Bool("quick", false, "run the reduced (smoke-test) configuration")
	csvDir := flag.String("csv", "", "directory to write CSV copies of each table")
	benchFilter := flag.String("benchmarks", "", "comma-separated benchmark filter for fig8")
	faultGridStr := flag.String("faults", "0,0.25,0.5,1", "comma-separated fault-intensity grid for faultsweep")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the faultsweep fault-injection streams")
	plot := flag.Bool("plot", false, "also render figures as ASCII charts")
	quiet := flag.Bool("quiet", false, "suppress diagnostics; only metrics output reaches stdout")
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 {
		usage()
		return 2
	}
	logger, err := of.Logger(*quiet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched: %v\n", err)
		return 2
	}
	ctx, cancel := cli.SignalContext()
	defer cancel()
	diag := io.Writer(os.Stdout)
	if *quiet {
		diag = io.Discard
	}
	if of.Metrics {
		experiments.Observer = obs.Default()
	}
	stop, err := of.Start()
	if err != nil {
		logger.Error("profile setup failed", "err", err)
		return 1
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	faultGrid, err := parseGrid(*faultGridStr)
	if err != nil {
		logger.Error("bad fault grid", "err", err)
		return 1
	}

	var wanted []string
	for _, arg := range flag.Args() {
		switch arg {
		case "all":
			wanted = append(wanted, "fig5", "fig7", "table2", "fig8", "fig9",
				"fig10a", "fig10b", "overhead")
		case "ablations":
			wanted = append(wanted, "ablation-thresholds", "ablation-ann",
				"ablation-guards", "ablation-predictor", "ablation-dvfs")
		default:
			wanted = append(wanted, arg)
		}
	}
	for _, name := range wanted {
		start := time.Now()
		span := experiments.Observer.StartSpan("experiments/" + name)
		tbl, err := dispatch(ctx, name, cfg, *benchFilter, faultGrid, *faultSeed)
		span.End()
		if err != nil {
			logger.Error("experiment failed", "experiment", name, "err", err)
			if errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled) {
				stopAndEmit(stop, &of) // flush what the finished experiments gathered
			}
			return cli.ExitCode(err)
		}
		tbl.Render(diag)
		if *plot {
			renderPlot(ctx, diag, name, cfg)
		}
		fmt.Fprintf(diag, "  (%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, tbl); err != nil {
				logger.Error("writing csv failed", "experiment", name, "err", err)
				return 1
			}
		}
	}
	if err := stopAndEmit(stop, &of); err != nil {
		logger.Error("metrics emit failed", "err", err)
		return 1
	}
	return 0
}

// stopAndEmit finishes the observability session: stop the profiles, then
// emit the metrics. The first error wins but both always run.
func stopAndEmit(stop func() error, of *obs.Flags) error {
	err := stop()
	if e := of.Emit(os.Stdout, obs.Default()); err == nil {
		err = e
	}
	return err
}

func dispatch(ctx context.Context, name string, cfg experiments.Config, benchFilter string, faultGrid []float64, faultSeed uint64) (*stats.Table, error) {
	switch name {
	case "fig5":
		t, _ := experiments.Fig5()
		return t, nil
	case "fig7":
		t, _ := experiments.Fig7()
		return t, nil
	case "table2":
		t, res := experiments.Table2()
		t.AddRow("avg err", stats.Pct(res.AvgError), "", "", "max spread", stats.Pct(res.MaxSpread), "")
		return t, nil
	case "fig8":
		benchmarks, err := selectBenchmarks(benchFilter)
		if err != nil {
			return nil, err
		}
		t, _, err := experiments.Fig8(ctx, cfg, benchmarks)
		return t, err
	case "fig9":
		t, _, err := experiments.Fig9(ctx, cfg)
		return t, err
	case "fig10a":
		t, _, err := experiments.Fig10a(ctx, cfg)
		return t, err
	case "fig10b":
		t, _, err := experiments.Fig10b(ctx, cfg)
		return t, err
	case "overhead":
		t, _ := experiments.Overhead(cfg)
		return t, nil
	case "ablation-thresholds":
		return experiments.AblationThresholds(ctx, cfg)
	case "ablation-ann":
		return experiments.AblationANN(ctx, cfg)
	case "ablation-guards":
		return experiments.AblationGuards(ctx, cfg)
	case "ablation-predictor":
		return experiments.AblationPredictor(ctx, cfg)
	case "ablation-dvfs":
		return experiments.AblationDVFS(ctx, cfg)
	case "robustness":
		t, _, err := experiments.Robustness(ctx, cfg, 10)
		return t, err
	case "faultsweep":
		t, _, err := experiments.FaultSweep(ctx, cfg, faultGrid, faultSeed)
		return t, err
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

// renderPlot draws the figure-shaped experiments as ASCII charts.
func renderPlot(ctx context.Context, w io.Writer, name string, cfg experiments.Config) {
	switch name {
	case "fig5":
		_, series := experiments.Fig5()
		c := stats.Chart{Title: "Figure 5 (shape)", XLabel: "V", YLabel: "efficiency", Series: series}
		c.Render(w)
	case "fig7":
		_, tr := experiments.Fig7()
		var series []stats.Series
		for d := 0; d < tr.Base.Days; d++ {
			s := stats.Series{Name: fmt.Sprintf("day%d", d+1)}
			for p := 0; p < tr.Base.PeriodsPerDay; p++ {
				s.Add(float64(p)*0.5, tr.PeriodEnergy(d, p)/tr.Base.PeriodSeconds()*1000)
			}
			series = append(series, s)
		}
		c := stats.Chart{Title: "Figure 7 (shape)", XLabel: "hour", YLabel: "mW", Series: series}
		c.Render(w)
	case "fig10a":
		_, res, err := experiments.Fig10a(ctx, cfg)
		if err != nil {
			return
		}
		s := stats.Series{Name: "DMR"}
		for _, r := range res {
			s.Add(r.Hours, 100*r.DMR)
		}
		c := stats.Chart{Title: "Figure 10a (shape)", XLabel: "prediction hours", YLabel: "DMR %",
			Series: []stats.Series{s}, Height: 10}
		c.Render(w)
	case "fig10b":
		_, res, err := experiments.Fig10b(ctx, cfg)
		if err != nil {
			return
		}
		eff := stats.Series{Name: "migration eff %"}
		dmr := stats.Series{Name: "DMR %"}
		for _, r := range res {
			eff.Add(float64(r.H), 100*r.MigrationEff)
			dmr.Add(float64(r.H), 100*r.DMR)
		}
		c := stats.Chart{Title: "Figure 10b (shape)", XLabel: "capacitors H", YLabel: "%",
			Series: []stats.Series{eff, dmr}, Height: 10}
		c.Render(w)
	}
}

// parseGrid parses the -faults intensity grid.
func parseGrid(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 || v != v {
			return nil, fmt.Errorf("bad fault intensity %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty fault-intensity grid")
	}
	return out, nil
}

func selectBenchmarks(filter string) ([]*task.Graph, error) {
	if filter == "" {
		return nil, nil // all
	}
	byName := map[string]*task.Graph{}
	for _, g := range task.AllBenchmarks() {
		byName[strings.ToLower(g.Name)] = g
	}
	var out []*task.Graph
	for _, name := range strings.Split(filter, ",") {
		g, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		out = append(out, g)
	}
	return out, nil
}

func writeCSV(dir, name string, tbl *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w, err := atomicio.NewWriter(filepath.Join(dir, name+".csv"), 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := tbl.WriteCSV(w); err != nil {
		return err
	}
	return w.Commit()
}

func usage() {
	fmt.Fprintf(os.Stderr, `solarsched — regenerate the DAC'15 evaluation tables and figures

usage: solarsched [flags] <experiment>...

experiments:
  fig5      regulator efficiency curves
  fig7      solar power of four representative days
  table2    energy migration efficiencies (model vs test)
  fig8      DMR comparison over four days, six benchmarks
  fig9      two-month DMR and energy utilization (WAM)
  fig10a    solar prediction length sweep
  fig10b    distributed capacitor count sweep
  overhead  on-node algorithm cost (93.5 kHz)
  all       everything above

ablations (design-choice studies, not in the paper's figures):
  ablation-thresholds   delta and E_th selection thresholds
  ablation-ann          DBN layer/neuron sweep
  ablation-guards       online selection guards on/off
  ablation-predictor    solar predictor of the Inter-task baseline
  ablation-dvfs         DVFS load-tuning extension vs baselines
  ablations             all five
  robustness            DMR distribution over independent weather draws
  faultsweep            DMR vs fault intensity, hardened vs plain proposed
                        (-faults grid, -fault-seed)

batch runs:
  fleet <spec.json>     run a batch of simulations on the shared-cache
                        worker pool (see \"solarsched fleet -h\")

continuous learning:
  model                 inspect, promote and roll back versions in a
                        learn-dir model registry (see \"solarsched model -h\")

flags:
`)
	flag.PrintDefaults()
}
