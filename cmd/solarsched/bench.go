package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"solarsched/internal/ckpt"
	"solarsched/internal/cli"
	"solarsched/internal/obs"
	"solarsched/internal/perfbench"
)

// runBench implements `solarsched bench`: run the perfbench suite, emit
// the snapshot, and optionally gate against a committed baseline. Exit
// status 0 means no regression beyond the threshold; 1 means at least
// one benchmark got slower (or the run itself failed); 2 is a usage
// error. It writes the BENCH_NNNN.json snapshots; speed claims are
// settled by paired runs of the repository benchmark (scripts/ab.sh),
// not by comparing a snapshot with one taken on another host.
func runBench(args []string) int {
	fs := flag.NewFlagSet("solarsched bench", flag.ExitOnError)
	baseline := fs.String("baseline", "", "committed BENCH_*.json to diff against (empty: no gate)")
	out := fs.String("out", "", "write the fresh snapshot to this path")
	top := fs.Int("top", 10, "hot frames to keep per profile")
	threshold := fs.Float64("threshold", perfbench.DefaultThreshold, "regression gate as a fraction (0.10 = 10%)")
	jsonOut := fs.Bool("json", false, "print the snapshot (and comparison) as JSON instead of text")
	profileDir := fs.String("profile-dir", "", "keep raw CPU/heap profiles here for go tool pprof")
	loadgenPath := fs.String("loadgen", "", "embed a loadgen -json summary file into the snapshot")
	loadgenUnbatchedPath := fs.String("loadgen-unbatched", "", "embed the batching-off control loadgen summary next to -loadgen")
	decideIters := fs.Int("decide-iters", 2000, "decide_once sample count")
	only := fs.String("only", "", "comma-separated benchmark filter (engine_run,fleet_cold,decide_once,decide_batch,fleet_dist,shadow_eval)")
	quiet := fs.Bool("quiet", false, "suppress progress diagnostics")
	logFormat := fs.String("log-format", obs.LogText, "diagnostic log format: text or json")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, `solarsched bench — run the performance benchmark suite with profiling

usage: solarsched bench [flags]

Runs the engine/fleet/decide benchmarks under CPU+heap profiling, emits a
schema-versioned snapshot with top-N hot-frame attribution, and (with
-baseline) fails on any benchmark slower than the baseline by more than
-threshold. Trajectory points live in the repo root as BENCH_NNNN.json.

flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *quiet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
		return 2
	}

	ctx, cancel := cli.SignalContext()
	defer cancel()

	cfg := perfbench.Config{
		Top:         *top,
		DecideIters: *decideIters,
		ProfileDir:  *profileDir,
		Log:         logger,
	}
	if *only != "" {
		cfg.Benchmarks = splitComma(*only)
	}
	snap, err := perfbench.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
		return cli.ExitCode(err)
	}
	if *loadgenPath != "" {
		lg, err := readLoadgenSummary(*loadgenPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
			return 1
		}
		snap.Loadgen = lg
	}
	if *loadgenUnbatchedPath != "" {
		lg, err := readLoadgenSummary(*loadgenUnbatchedPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
			return 1
		}
		snap.LoadgenUnbatched = lg
	}

	if *out != "" {
		if err := writeSnapshot(*out, snap); err != nil {
			fmt.Fprintf(os.Stderr, "solarsched bench: writing %s: %v\n", *out, err)
			return 1
		}
		logger.Info("snapshot written", "path", *out)
	}

	var cmp *perfbench.Comparison
	if *baseline != "" {
		base, err := perfbench.ReadSnapshot(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched bench: baseline: %v\n", err)
			return 1
		}
		cmp, err = perfbench.Compare(base, snap, *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
			return 1
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		payload := struct {
			Snapshot   *perfbench.Snapshot   `json:"snapshot"`
			Comparison *perfbench.Comparison `json:"comparison,omitempty"`
		}{snap, cmp}
		if err := enc.Encode(payload); err != nil {
			fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
			return 1
		}
	} else {
		printSnapshot(snap)
		if cmp != nil {
			fmt.Printf("\nvs %s (threshold %.0f%%):\n", *baseline, 100**threshold)
			if err := cmp.WriteText(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "solarsched bench: %v\n", err)
				return 1
			}
		}
	}
	if cmp != nil && cmp.Failed() {
		return 1
	}
	return 0
}

// printSnapshot renders the snapshot's headline numbers as text.
func printSnapshot(s *perfbench.Snapshot) {
	fmt.Printf("perfbench snapshot (schema v%d, %s, %s/%s go %s)\n",
		s.SchemaVersion, s.CreatedAt, s.Host.GOOS, s.Host.GOARCH, s.Host.GoVersion)
	for _, r := range s.Results {
		fmt.Printf("  %-12s %12.0f ns/op", r.Name, r.NsPerOp)
		if r.BytesPerOp > 0 {
			fmt.Printf("  %8d B/op  %6d allocs/op", r.BytesPerOp, r.AllocsPerOp)
		}
		if v, ok := r.Extra["p99_ns"]; ok {
			fmt.Printf("  p99 %.0f ns", v)
		}
		if v, ok := r.Extra["cache_hit_rate"]; ok {
			fmt.Printf("  cache hit %.0f%%", 100*v)
		}
		fmt.Printf("  (n=%d)\n", r.Iterations)
		for i, f := range r.CPUHot {
			if i >= 3 {
				break
			}
			fmt.Printf("      cpu %4.1f%% %s\n", 100*f.Share, f.Function)
		}
	}
	if s.Loadgen != nil {
		fmt.Printf("  %-12s %12.1f req/s  error rate %.2f%%\n",
			"loadgen", s.Loadgen.Throughput, 100*s.Loadgen.ErrorRate)
	}
	if s.LoadgenUnbatched != nil && s.Loadgen != nil && s.LoadgenUnbatched.DecideP99MS > 0 {
		fmt.Printf("  %-12s decide p99 %.2fms batched vs %.2fms unbatched\n",
			"", s.Loadgen.DecideP99MS, s.LoadgenUnbatched.DecideP99MS)
	}
}

// writeSnapshot writes the snapshot atomically so a crash mid-run never
// leaves a truncated trajectory point.
func writeSnapshot(path string, s *perfbench.Snapshot) error {
	w, err := ckpt.NewAtomicWriter(path, 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := s.WriteJSON(w); err != nil {
		return err
	}
	return w.Commit()
}

func readLoadgenSummary(path string) (*perfbench.LoadgenSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg perfbench.LoadgenSummary
	if err := json.Unmarshal(data, &lg); err != nil {
		return nil, fmt.Errorf("parsing loadgen summary %s: %w", path, err)
	}
	return &lg, nil
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
