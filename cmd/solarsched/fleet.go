// The fleet subcommand runs a batch of simulations described by a JSON
// spec file on the shared-cache worker pool of internal/fleet:
//
//	solarsched fleet [flags] <spec.json>
//
// Flags:
//
//	-workers N   worker-pool size (default GOMAXPROCS)
//	-csv FILE    write the per-run report as CSV
//	-json FILE   write the full report (metrics included) as JSON
//	-digest      print only the aggregate digest (for golden comparisons)
//	-quiet       suppress the table; errors still reach stderr
//	-store-dir D durable artifact store: offline artifacts persist across
//	             invocations and are verified + adopted on open
//	-retry-attempts N attempts per run; transient failures retry with backoff
//	-log-format  diagnostic log format: text or json
//	-metrics...  see internal/obs.Flags
//
// The process exits 0 when every run succeeded, 1 when any run failed and
// 130 on SIGINT/SIGTERM; a partial report is still written on interruption.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/store"
)

// runFleet is the `fleet` subcommand body, dispatched before the global
// flag.Parse so its flag set stays independent of the experiment flags.
func runFleet(args []string) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "worker-pool size (default GOMAXPROCS)")
	csvPath := fs.String("csv", "", "write the per-run report as CSV to this file")
	jsonPath := fs.String("json", "", "write the full JSON report to this file")
	digestOnly := fs.Bool("digest", false, "print only the aggregate digest")
	quiet := fs.Bool("quiet", false, "suppress the table; errors still reach stderr")
	storeDir := fs.String("store-dir", "", "durable artifact store: reuse offline artifacts across invocations")
	retryAttempts := fs.Int("retry-attempts", 1, "attempts per run; transient failures retry with backoff")
	var of obs.Flags
	of.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: solarsched fleet [flags] <spec.json>\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	logger, err := of.Logger(*quiet || *digestOnly)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarsched: fleet: %v\n", err)
		return 2
	}
	ctx, cancel := cli.SignalContext()
	defer cancel()
	var reg *obs.Registry
	if of.Metrics {
		reg = obs.Default()
	}
	stop, err := of.Start()
	if err != nil {
		logger.Error("profile setup failed", "err", err)
		return 1
	}

	diag := io.Writer(os.Stdout)
	if *quiet || *digestOnly {
		diag = io.Discard
	}

	specs, err := fleet.LoadSpecFile(fs.Arg(0), reg)
	if err != nil {
		logger.Error("loading spec failed", "path", fs.Arg(0), "err", err)
		return 1
	}
	logger.Info("fleet starting", "runs", len(specs), "spec", fs.Arg(0))

	opts := fleet.Options{
		Workers:  *workers,
		Observer: reg,
		Retry:    fleet.RetryPolicy{MaxAttempts: *retryAttempts, JitterSeed: uint64(os.Getpid())},
	}
	var durable *fleet.Cache
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Registry: reg})
		if err != nil {
			logger.Error("opening store failed", "dir", *storeDir, "err", err)
			return 1
		}
		if vs, err := st.Verify(); err == nil {
			logger.Info("store opened", "dir", *storeDir,
				"adopted", vs.Adopted, "quarantined", vs.Quarantined)
		}
		durable = fleet.NewDurableCache(reg, st)
		opts.Cache = durable
	}
	rep, runErr := fleet.Run(ctx, specs, opts)
	// A canceled fleet still returns the partial report; render and persist
	// what completed before mapping the error onto the exit status.
	if rep != nil {
		rep.Table().Render(diag)
		if *digestOnly {
			fmt.Fprintln(os.Stdout, rep.AggregateDigest())
		} else {
			fmt.Fprintf(diag, "  aggregate digest: %s\n", rep.AggregateDigest())
			fmt.Fprintf(diag, "  cache: %d hits, %d misses (%.1f%% hit rate)\n",
				rep.CacheHits, rep.CacheMisses, 100*rep.HitRate())
			if durable != nil {
				w, cold := durable.WarmStats()
				fmt.Fprintf(diag, "  store: %d warm hits, %d cold builds (%.1f%% warm)\n",
					w, cold, 100*durable.WarmHitRate())
			}
		}
		if *csvPath != "" {
			if err := writeReport(*csvPath, rep.WriteCSV); err != nil {
				logger.Error("writing csv failed", "path", *csvPath, "err", err)
				return 1
			}
		}
		if *jsonPath != "" {
			if err := writeReport(*jsonPath, rep.WriteJSON); err != nil {
				logger.Error("writing json failed", "path", *jsonPath, "err", err)
				return 1
			}
		}
	}
	if err := stopAndEmit(stop, &of); err != nil {
		logger.Error("metrics emit failed", "err", err)
		return 1
	}
	if runErr != nil {
		logger.Error("fleet failed", "err", runErr)
		return cli.ExitCode(runErr)
	}
	if err := rep.FirstErr(); err != nil {
		failed := rep.FailedIndices()
		logger.Error("runs failed", "failed", len(failed), "total", len(rep.Results),
			"spec_indices", formatIndices(failed))
		for _, i := range failed {
			logger.Error("run failed", "index", i, "run_id", rep.Results[i].ID,
				"err", rep.Results[i].Err)
		}
		return 1
	}
	return 0
}

// formatIndices renders spec indices as a comma-separated list.
func formatIndices(xs []int) string {
	var b []byte
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", x)
	}
	return string(b)
}

// writeReport writes one report rendering atomically.
func writeReport(path string, render func(io.Writer) error) error {
	w, err := atomicio.NewWriter(path, 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := render(w); err != nil {
		return err
	}
	return w.Commit()
}
