// Command nodesim runs the simulated sensor node on user-supplied
// workloads: export or author a workload JSON, train the long-term
// scheduler's network offline, and simulate any scheduler over any trace.
//
// Usage:
//
//	nodesim workload -benchmark wam -o wam.json
//	nodesim size     -workload wam.json -days 16 -seed 777 -h 4
//	nodesim train    -workload wam.json -days 16 -seed 777 -bank 2,10,50 -o model.json
//	nodesim run      -workload wam.json -scheduler proposed -model model.json -bank 2,10,50 [-trace t.csv]
//	nodesim run      -workload wam.json -scheduler intra -bank 25
//
// Schedulers: asap, inter, intra, dvfs, optimal, proposed.
// Without -trace, the four representative days are simulated.
//
// Every subcommand additionally accepts the observability flags
// (-metrics, -metrics-format, -metrics-out, -cpuprofile, -memprofile,
// -exectrace) and -quiet, which silences diagnostics so that only the
// metrics emission can reach stdout.
//
// The run subcommand checkpoints: `-checkpoint run.ckpt` persists the
// complete run state crash-consistently during the simulation, and
// `-resume` continues a killed run from its last checkpoint — the final
// metrics digest is bit-identical to an uninterrupted run. SIGINT or
// SIGTERM stops the run at the next period boundary (flushing a final
// checkpoint) and exits with status 130.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"solarsched/internal/ann"
	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/core"
	"solarsched/internal/dvfs"
	"solarsched/internal/fault"
	"solarsched/internal/obs"
	"solarsched/internal/sched"
	"solarsched/internal/sim"
	"solarsched/internal/sizing"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "workload":
		err = workloadCmd(os.Args[2:])
	case "size":
		err = sizeCmd(os.Args[2:])
	case "train":
		err = trainCmd(os.Args[2:])
	case "run":
		err = runCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		logger, _ := obs.NewLogger(os.Stderr, obs.LogText, false)
		logger.Error("command failed", "cmd", os.Args[1], "err", err)
		os.Exit(cli.ExitCode(err))
	}
}

// obsFlags registers the shared diagnostic and observability flags on a
// subcommand's flag set. After fs.Parse, call the returned setup: it
// starts the requested profilers and hands back the diagnostic writer
// (io.Discard under -quiet), the structured logger (honoring -quiet and
// -log-format), the observer registry (nil unless -metrics) and the
// profiler stop function. The caller must defer finish with a pointer to
// its named error so profiles are flushed and metrics emitted on every
// exit path.
func obsFlags(fs *flag.FlagSet, of *obs.Flags) (setup func() (io.Writer, *slog.Logger, *obs.Registry, func() error, error)) {
	quiet := fs.Bool("quiet", false, "suppress diagnostics; only metrics output reaches stdout")
	of.Register(fs)
	return func() (io.Writer, *slog.Logger, *obs.Registry, func() error, error) {
		diag := io.Writer(os.Stdout)
		if *quiet {
			diag = io.Discard
		}
		logger, err := of.Logger(*quiet)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		var reg *obs.Registry
		if of.Metrics {
			reg = obs.Default()
		}
		stop, err := of.Start()
		if err != nil {
			return nil, nil, nil, nil, err
		}
		return diag, logger, reg, stop, nil
	}
}

// finish stops profilers and emits metrics, folding any of their errors
// into the subcommand's named return error (work errors win).
func finish(of *obs.Flags, stop func() error, errp *error) {
	if serr := stop(); serr != nil && *errp == nil {
		*errp = serr
	}
	if *errp == nil {
		*errp = of.Emit(os.Stdout, obs.Default())
	}
}

func workloadCmd(args []string) (err error) {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	name := fs.String("benchmark", "wam", "builtin benchmark to export (wam, ecg, shm, random1..3)")
	out := fs.String("o", "", "output path (default stdout)")
	var of obs.Flags
	setup := obsFlags(fs, &of)
	fs.Parse(args)
	_, _, _, stop, err := setup()
	if err != nil {
		return err
	}
	defer finish(&of, stop, &err)

	if *out == "" {
		return workloadCmdTo(os.Stdout, *name)
	}
	w, err := atomicio.NewWriter(*out, 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := workloadCmdTo(w, *name); err != nil {
		return err
	}
	return w.Commit()
}

// workloadCmdTo writes the named builtin benchmark as workload JSON.
func workloadCmdTo(w io.Writer, name string) error {
	var g *task.Graph
	switch strings.ToLower(name) {
	case "wam":
		g = task.WAM()
	case "ecg":
		g = task.ECG()
	case "shm":
		g = task.SHM()
	case "random1", "random2", "random3":
		g = task.RandomCase(int(name[len(name)-1] - '0'))
	default:
		return fmt.Errorf("unknown benchmark %q", name)
	}
	return g.WriteJSON(w)
}

func loadWorkload(path string, periodSeconds float64) (*task.Graph, error) {
	if path == "" {
		return nil, fmt.Errorf("-workload is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return task.ReadJSON(f, periodSeconds)
}

func parseBank(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("-bank is required (e.g. -bank 2,10,50)")
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("bad capacitance %q", part)
		}
		out = append(out, c)
	}
	return out, nil
}

func trainingTrace(days int, seed uint64) (*solar.Trace, error) {
	return solar.Generate(solar.GenConfig{Base: solar.DefaultTimeBase(days), Seed: seed})
}

func sizeCmd(args []string) (err error) {
	fs := flag.NewFlagSet("size", flag.ExitOnError)
	workload := fs.String("workload", "", "workload JSON path")
	days := fs.Int("days", 16, "training history length (days)")
	seed := fs.Uint64("seed", 777, "training trace seed")
	h := fs.Int("h", 4, "number of distributed capacitors")
	var of obs.Flags
	setup := obsFlags(fs, &of)
	fs.Parse(args)
	diag, _, reg, stop, err := setup()
	if err != nil {
		return err
	}
	defer finish(&of, stop, &err)

	tb := solar.DefaultTimeBase(*days)
	g, err := loadWorkload(*workload, tb.PeriodSeconds())
	if err != nil {
		return err
	}
	tr, err := trainingTrace(*days, *seed)
	if err != nil {
		return err
	}
	span := reg.StartSpan("offline/sizing")
	bank := sizing.SizeBank(tr, g, *h, supercap.DefaultParams(), sim.DefaultDirectEff)
	eff := sizing.BankMigrationEfficiency(tr, g, bank, supercap.DefaultParams(), sim.DefaultDirectEff)
	span.End()
	parts := make([]string, len(bank))
	for i, c := range bank {
		parts[i] = fmt.Sprintf("%.2f", c)
	}
	fmt.Fprintf(diag, "bank: %s F\nmigration efficiency over history: %.1f%%\n",
		strings.Join(parts, ","), 100*eff)
	return nil
}

func trainCmd(args []string) (err error) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	workload := fs.String("workload", "", "workload JSON path")
	days := fs.Int("days", 16, "training history length (days)")
	seed := fs.Uint64("seed", 777, "training trace seed")
	bankStr := fs.String("bank", "", "comma-separated capacitances (F)")
	out := fs.String("o", "model.json", "model output path")
	var of obs.Flags
	setup := obsFlags(fs, &of)
	fs.Parse(args)
	diag, _, reg, stop, err := setup()
	if err != nil {
		return err
	}
	defer finish(&of, stop, &err)

	tb := solar.DefaultTimeBase(*days)
	g, err := loadWorkload(*workload, tb.PeriodSeconds())
	if err != nil {
		return err
	}
	bank, err := parseBank(*bankStr)
	if err != nil {
		return err
	}
	tr, err := trainingTrace(*days, *seed)
	if err != nil {
		return err
	}
	pc := core.DefaultPlanConfig(g, tb, bank)
	pc.Observer = reg
	net, loss, err := core.Train(pc, tr, core.DefaultTrainOptions())
	if err != nil {
		return err
	}
	w, err := atomicio.NewWriter(*out, 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := net.WriteJSON(w); err != nil {
		return err
	}
	if err := w.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(diag, "trained on %d days (final loss %.3f), model written to %s\n", *days, loss, *out)
	return nil
}

func runCmd(args []string) (err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "workload JSON path")
	schedName := fs.String("scheduler", "intra", "asap | inter | intra | dvfs | optimal | proposed")
	model := fs.String("model", "", "model JSON (required for proposed)")
	bankStr := fs.String("bank", "", "comma-separated capacitances (F)")
	tracePath := fs.String("trace", "", "solar trace CSV (default: four representative days)")
	logPath := fs.String("log", "", "write a per-slot state log (CSV) to this path")
	faultSpec := fs.String("faults", "", "fault injection: intensity λ (scales the reference profile) or key=value list, e.g. outage=0.01,volt-noise=0.05")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the fault-injection streams")
	harden := fs.Bool("harden", false, "enable graceful degradation on the proposed scheduler (sanitizer, watchdog fallback, E_th debounce)")
	var ck cli.CheckpointFlags
	ck.Register(fs)
	var of obs.Flags
	setup := obsFlags(fs, &of)
	fs.Parse(args)
	diag, logger, reg, stop, err := setup()
	if err != nil {
		return err
	}
	defer finish(&of, stop, &err)
	ctx, cancel := cli.SignalContext()
	defer cancel()

	var tr *solar.Trace
	if *tracePath == "" {
		tr = solar.RepresentativeDays(solar.DefaultTimeBase(4))
	} else {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		var rerr error
		tr, rerr = solar.ReadCSV(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
	}
	g, err := loadWorkload(*workload, tr.Base.PeriodSeconds())
	if err != nil {
		return err
	}
	bank, err := parseBank(*bankStr)
	if err != nil {
		return err
	}
	fc, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		return err
	}
	fc.Seed = *faultSeed
	if *harden && strings.ToLower(*schedName) != "proposed" {
		return fmt.Errorf("-harden only applies to the proposed scheduler")
	}

	var s sim.Scheduler
	switch strings.ToLower(*schedName) {
	case "asap":
		s = sched.NewASAP(g)
	case "inter":
		s = sched.NewInterLSA(g, tr.Base, sim.DefaultDirectEff)
	case "intra":
		s = sched.NewIntraMatch(g)
	case "dvfs":
		s = dvfs.NewLoadTune(g)
	case "optimal":
		pc := core.DefaultPlanConfig(g, tr.Base, bank)
		pc.Observer = reg
		s, err = core.NewClairvoyant(pc, tr, 48)
		if err != nil {
			return err
		}
	case "proposed":
		if *model == "" {
			return fmt.Errorf("-model is required for the proposed scheduler")
		}
		f, err := os.Open(*model)
		if err != nil {
			return err
		}
		net, rerr := ann.ReadJSON(f)
		f.Close()
		if rerr != nil {
			return rerr
		}
		pc := core.DefaultPlanConfig(g, tr.Base, bank)
		pc.Observer = reg
		p, perr := core.NewProposed(pc, net)
		if perr != nil {
			return perr
		}
		if *harden {
			hc := core.DefaultHardenConfig()
			p.Harden = &hc
		}
		s = p
	default:
		return fmt.Errorf("unknown scheduler %q", *schedName)
	}

	eng, err := sim.New(sim.Config{Trace: tr, Graph: g, Capacitances: bank, Observer: reg, Faults: fc})
	if err != nil {
		return err
	}
	var opts []sim.RunOption
	var logRec *sim.CSVRecorder
	var logW *atomicio.Writer
	if *logPath != "" {
		logW, err = atomicio.NewWriter(*logPath, 0o644)
		if err != nil {
			return err
		}
		defer logW.Abort()
		logRec = sim.NewCSVRecorder(logW)
		opts = append(opts, sim.WithRecorder(logRec))
	}
	ckOpts, store, resumed, err := ck.Apply()
	if err != nil {
		return err
	}
	opts = append(opts, ckOpts...)
	if resumed != nil {
		fmt.Fprintf(diag, "resuming from %s at period %d of %d\n",
			store.Path(), resumed.NextPeriod, tr.Base.TotalPeriods())
	}
	res, err := eng.Run(ctx, s, opts...)
	if err != nil {
		if errors.Is(err, sim.ErrCanceled) && store != nil {
			logger.Warn("run interrupted", "resume_hint",
				fmt.Sprintf("-resume -checkpoint %s", store.Path()))
		}
		return err
	}
	if logRec != nil {
		// An interrupted run aborts the log (the previous file survives);
		// only a completed run publishes it.
		if err := logRec.Flush(); err != nil {
			return err
		}
		if err := logW.Commit(); err != nil {
			return err
		}
	}
	fmt.Fprintf(diag, "scheduler: %s\nworkload:  %s (%d tasks, %d NVPs)\ntrace:     %d days, %.0f J harvest\n\n",
		s.Name(), g.Name, g.N(), g.NumNVPs, tr.Base.Days, tr.TotalEnergy())
	fmt.Fprintf(diag, "deadline miss rate: %.1f%% (%d of %d task instances)\n",
		100*res.DMR(), res.MissedTasks(), res.TotalTasks())
	fmt.Fprintf(diag, "energy: delivered %.0f J of %.0f J harvested (util %.1f%%, direct-use %.1f%%)\n",
		res.Delivered, res.Harvested, 100*res.EnergyUtilization(), 100*res.DirectUseRatio())
	fmt.Fprintf(diag, "storage: banked %.0f J, drew %.0f J, leaked %.0f J, %d capacitor switches\n",
		res.StoredIn, res.DrawnOut, res.Leaked, res.CapSwitches)
	if fc.Enabled() {
		fmt.Fprintf(diag, "faults:  %d dead slots, %d dropped switches (seed %d)\n",
			res.DeadSlots, res.DroppedSwitches, fc.Seed)
	}
	for d := 0; d < tr.Base.Days; d++ {
		fmt.Fprintf(diag, "  day %2d: DMR %.1f%%\n", d+1, 100*res.DayDMR(d))
	}
	// The digest covers every metric above; two runs printing the same
	// digest produced bit-identical results (the resume guarantee).
	fmt.Fprintf(diag, "metrics digest: %s\n", res.Digest())
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `nodesim — simulate the solar node on custom workloads

usage:
  nodesim workload -benchmark wam -o wam.json
  nodesim size     -workload wam.json [-days N] [-seed S] [-h H]
  nodesim train    -workload wam.json -bank 2,10,50 [-days N] [-seed S] [-o model.json]
  nodesim run      -workload wam.json -scheduler NAME -bank 2,10,50 [-model model.json] [-trace t.csv] [-log slots.csv]
                   [-faults SPEC] [-fault-seed N] [-harden]
                   [-checkpoint run.ckpt [-resume] [-ckpt-every N]]

checkpointing (run):
  -checkpoint FILE                 persist the run state crash-consistently during the run
  -ckpt-every N                    periods between durable checkpoints
                                   (default 0: every period, at most one write per second)
  -resume                          continue from the -checkpoint file; the final metrics
                                   digest matches the uninterrupted run bit for bit
  SIGINT/SIGTERM flush a final checkpoint at the next period boundary and exit 130

fault injection (run):
  -faults λ                        scale the reference fault profile by λ (0 disables)
  -faults key=value,...            set individual intensities; keys: outage, outage-slots,
                                   solar-noise, solar-drop, volt-noise, volt-drop, volt-quant,
                                   cap-fade, leak-growth, eff-fade, switch-drop, dbn
  -fault-seed N                    make the injected fault pattern reproducible
  -harden                          graceful degradation for -scheduler proposed

every subcommand also accepts:
  -quiet                           suppress diagnostics (metrics output still reaches stdout)
  -metrics                         collect and emit instrumentation when done
  -metrics-format prom|json|summary
  -metrics-out FILE                metrics destination (default stdout)
  -cpuprofile/-memprofile/-exectrace FILE
`)
}
