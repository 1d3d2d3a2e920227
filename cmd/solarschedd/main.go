// Command solarschedd is the scheduler-as-a-service daemon: the
// internal/serve subsystem behind an http.Server. It exposes fleet
// submission, status, streaming, one-shot online DBN decisions and
// Prometheus metrics over one shared offline-artifact cache, so repeated
// and concurrent requests pay sizing/teacher/training once per
// configuration.
//
// Usage:
//
//	solarschedd [flags]
//	solarschedd loadgen [flags] <base-url>
//
// Flags:
//
//	-addr ADDR        listen address (default :7468)
//	-workers N        per-job fleet worker-pool size (default GOMAXPROCS)
//	-queue N          admission queue depth; a full queue answers 429 (default 8)
//	-retain N         finished jobs kept queryable (default 256)
//	-ckpt-dir DIR     checkpoint directory for long runs (empty disables)
//	-store-dir DIR    durable artifact store: offline artifacts (sizing,
//	                  teacher samples, trained networks, plans) persist
//	                  across restarts and are verified + adopted on boot
//	-store-max-bytes N, -store-max-age D — store GC budget (LRU)
//	-retry-attempts N per-run supervision: transient failures retry with
//	                  exponential backoff (default 1 = no retry)
//	-api-keys-file F  JSON tenant list ({name, key, rate_per_sec, burst});
//	                  enables API-key auth, per-tenant token-bucket rate
//	                  limits (429 + jittered Retry-After) and per-tenant
//	                  metrics on /v1/decide
//	-learn-dir DIR    continuous-learning state (telemetry log, versioned
//	                  model registry); enables telemetry-driven retraining
//	                  and shadow-gated promotion of fine-tuned DBNs
//	-learn-interval D background retraining cadence (default 15m)
//	-learn-min-samples N, -learn-fine-epochs N, -learn-canary F,
//	-learn-gate-min-decisions N, -learn-gate-min-improvement F,
//	-learn-auto-promote — retraining/promotion-gate tuning (see
//	                  internal/learn.TrainerConfig)
//	-run-timeout D    per-attempt deadline for each fleet run
//	-debug-addr ADDR  serve /debug/pprof/* and /debug/vars on a separate
//	                  listener (empty disables; keep it off public interfaces)
//	-chrome-trace F   write daemon spans as a Chrome trace_event file on exit
//	-log-format FMT   structured log format: text or json
//	-quiet            log errors only
//	-cpuprofile, -memprofile, -exectrace — see internal/obs.Flags
//
// Every request is assigned (or propagates, via X-Request-ID) a
// correlation ID that appears in the structured log, as span tags in the
// Chrome trace, and as serve_job_info metric labels — one ID joins all
// three telemetry channels.
//
// SIGINT/SIGTERM drain gracefully: the listener stops (in-flight
// requests finish), queued and in-flight jobs are canceled (engines stop
// at the next period boundary and, with -ckpt-dir, flush resumable
// checkpoints), buffered learn telemetry is flushed, and the process
// exits 130. A second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr

	// expvar's side-effect registration puts /debug/vars next to the
	// pprof handlers on the same debug listener.
	_ "expvar"
	"os"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/cli"
	"solarsched/internal/fleet"
	"solarsched/internal/learn"
	"solarsched/internal/obs"
	"solarsched/internal/serve"
	"solarsched/internal/store"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		os.Exit(runLoadgen(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("solarschedd", flag.ContinueOnError)
	addr := fs.String("addr", ":7468", "listen address")
	workers := fs.Int("workers", 0, "per-job fleet worker-pool size (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (default 8)")
	retain := fs.Int("retain", 0, "finished jobs kept queryable (default 256)")
	ckptDir := fs.String("ckpt-dir", "", "checkpoint directory for long runs (empty disables)")
	storeDir := fs.String("store-dir", "", "durable artifact store directory (empty disables persistence)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "store size budget in bytes, LRU-evicted by GC (0 = unlimited)")
	storeMaxAge := fs.Duration("store-max-age", 0, "evict store entries unread for this long (0 = unlimited)")
	apiKeysFile := fs.String("api-keys-file", "", "JSON array of tenants ({name, key, rate_per_sec, burst}); enables per-tenant auth, rate limits and metrics on /v1/decide")
	learnDir := fs.String("learn-dir", "", "continuous-learning state directory (telemetry, model registry); empty disables the loop")
	learnInterval := fs.Duration("learn-interval", 15*time.Minute, "background retraining cadence (0 disables the ticker; cycles then run only via the model CLI)")
	learnMinSamples := fs.Int("learn-min-samples", 0, "telemetry records a lineage needs before a retraining cycle attempts a candidate")
	learnFineEpochs := fs.Int("learn-fine-epochs", 0, "fine-tuning epochs per retraining cycle (default 40)")
	learnGateMinDecisions := fs.Int("learn-gate-min-decisions", 0, "live shadow decisions a candidate must score before promotion (0 = sim A/B gate only)")
	learnGateMinImprovement := fs.Float64("learn-gate-min-improvement", 0, "canary DMR improvement required to promote (default 0.005; negative = any non-worse)")
	learnCanary := fs.Float64("learn-canary", 0, "fraction of held-out days the promotion gate simulates (default 1.0)")
	learnAutoPromote := fs.Bool("learn-auto-promote", true, "let the gate promote passing candidates (false: register only; promote via solarsched model)")
	retryAttempts := fs.Int("retry-attempts", 1, "attempts per fleet run; transient failures retry with backoff")
	runTimeout := fs.Duration("run-timeout", 0, "per-attempt deadline for each fleet run (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 2*time.Minute, "how long shutdown waits for in-flight jobs")
	debugAddr := fs.String("debug-addr", "", "separate listener for /debug/pprof/* and /debug/vars (empty disables)")
	chromeTrace := fs.String("chrome-trace", "", "write daemon spans as a Chrome trace_event file on exit")
	quiet := fs.Bool("quiet", false, "log errors only")
	var of obs.Flags
	of.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: solarschedd [flags]\n       solarschedd loadgen [flags] <base-url>\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	logger, err := of.Logger(*quiet)
	if err != nil {
		fmt.Fprintf(os.Stderr, "solarschedd: %v\n", err)
		return 2
	}

	stop, err := of.Start()
	if err != nil {
		logger.Error("profile setup failed", "err", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			logger.Error("profile teardown failed", "err", err)
		}
	}()

	ctx, cancel := cli.SignalContext()
	defer cancel()
	cli.HardExitOnSecondSignal(ctx)

	// The daemon registry backs /metrics, the span tree, and — when
	// -chrome-trace is set — the per-event trace buffer the exporter
	// drains at exit. The runtime sampler adds heap/GC/scheduler gauges
	// so a scrape sees the process next to the domain metrics.
	reg := obs.NewRegistry()
	if *chromeTrace != "" {
		reg.EnableTraceEvents(0)
	}
	sampler := obs.NewRuntimeSampler(reg, 10*time.Second)
	sampler.Start()
	defer sampler.Stop()

	cfg := serve.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		RetainJobs:    *retain,
		CheckpointDir: *ckptDir,
		Registry:      reg,
		Logger:        logger,
		Retry: fleet.RetryPolicy{
			MaxAttempts: *retryAttempts,
			RunTimeout:  *runTimeout,
			JitterSeed:  uint64(os.Getpid()),
		},
		RetryAfterSeed: uint64(time.Now().UnixNano()),
	}
	if *apiKeysFile != "" {
		tenants, err := serve.LoadTenantsFile(*apiKeysFile)
		if err != nil {
			logger.Error("api keys file rejected", "path", *apiKeysFile, "err", err)
			return 2
		}
		cfg.Tenants = tenants
		logger.Info("tenancy enabled", "tenants", len(tenants))
	}
	if *storeDir != "" {
		// Warm restart: open the store a previous process may have
		// populated and verify every surviving entry before serving from
		// it — corrupt ones are quarantined here, at boot, not at request
		// time.
		st, err := store.Open(*storeDir, store.Options{
			Registry: reg,
			MaxBytes: *storeMaxBytes,
			MaxAge:   *storeMaxAge,
		})
		if err != nil {
			logger.Error("store open failed", "dir", *storeDir, "err", err)
			return 1
		}
		vs, err := st.Verify()
		if err != nil && !errors.Is(err, store.ErrLocked) {
			logger.Error("store verify failed", "dir", *storeDir, "err", err)
			return 1
		}
		logger.Info("store opened", "dir", *storeDir,
			"adopted", vs.Adopted, "quarantined", vs.Quarantined, "bytes", vs.Bytes)
		cfg.Store = st
	}
	// Continuous learning shares the daemon's artifact cache, so the
	// trainer's DP labeling and base-network resolution reuse (and feed)
	// the same offline artifacts the serving path does.
	var loop *learn.Loop
	if *learnDir != "" {
		if cfg.Store != nil {
			cfg.Cache = fleet.NewDurableCache(reg, cfg.Store)
		} else {
			cfg.Cache = fleet.NewCache(reg)
		}
		var err error
		loop, err = learn.Open(learn.Config{
			Dir:      *learnDir,
			Registry: reg,
			Cache:    cfg.Cache,
			Interval: *learnInterval,
			Trainer: learn.TrainerConfig{
				MinSamples:         *learnMinSamples,
				FineEpochs:         *learnFineEpochs,
				ShadowMinDecisions: *learnGateMinDecisions,
				MinImprovement:     *learnGateMinImprovement,
				CanaryFraction:     *learnCanary,
				AutoPromote:        *learnAutoPromote,
			},
		})
		if err != nil {
			logger.Error("learn loop open failed", "dir", *learnDir, "err", err)
			return 1
		}
		loop.Start(ctx)
		cfg.Learn = loop
		logger.Info("continuous learning enabled", "dir", *learnDir, "interval", *learnInterval)
	}
	s := serve.New(cfg)
	s.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	// The debug listener is separate from the API listener on purpose:
	// pprof and expvar expose process internals, so they bind their own
	// (typically loopback) address and never ride the public port.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
		logger.Info("debug listening", "addr", *debugAddr)
	}

	select {
	case err := <-serveErr:
		logger.Error("listener failed", "err", err)
		return 1
	case <-ctx.Done():
	}

	logger.Info("draining", "note", "second signal exits immediately")
	drainCtx, drainCancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer drainCancel()
	// Stop accepting connections first, then drain the job backend; the
	// order means in-flight status requests finish while jobs wind down.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown failed", "err", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(drainCtx)
	}
	if err := s.Shutdown(drainCtx); err != nil {
		logger.Error("drain timed out", "err", err)
		return 1
	}
	if loop != nil {
		// After the job drain: buffered telemetry flushes to disk so the
		// next process's trainer sees everything this one served.
		if err := loop.Close(); err != nil {
			logger.Error("learn loop close failed", "err", err)
		}
	}
	if *chromeTrace != "" {
		if err := writeChromeTrace(*chromeTrace, reg); err != nil {
			logger.Error("chrome trace write failed", "path", *chromeTrace, "err", err)
			return 1
		}
		logger.Info("chrome trace written", "path", *chromeTrace)
	}
	logger.Info("drained")
	return cli.ExitCodeInterrupted
}

// writeChromeTrace drains the registry's trace buffer into a Chrome
// trace_event file (load it at chrome://tracing or ui.perfetto.dev).
func writeChromeTrace(path string, reg *obs.Registry) error {
	events, dropped := reg.TraceEvents()
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "solarschedd: chrome trace dropped %d oldest events (buffer full)\n", dropped)
	}
	w, err := atomicio.NewWriter(path, 0o644)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := obs.WriteChromeTrace(w, events); err != nil {
		return err
	}
	return w.Commit()
}
