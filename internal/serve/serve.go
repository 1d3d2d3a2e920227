// Package serve is the scheduler-as-a-service subsystem: a long-lived
// HTTP/JSON front end over the internal/fleet batch runner. Every
// submission is coalesced onto one shared content-addressed artifact
// cache, so concurrent and repeated requests pay each offline stage
// (sizing, DP teacher samples, DBN training) once per configuration —
// the cross-request amortization a resident policy engine exists for.
//
// Endpoints:
//
//	POST /v1/runs              submit a fleet spec; 202 + job id (or ?wait=1)
//	GET  /v1/runs/{id}         job status + full report (digests, DMR distribution)
//	DELETE /v1/runs/{id}       cancel a queued or running job
//	GET  /v1/runs/{id}/stream  SSE of per-period decisions as the fleet executes
//	POST /v1/decide            one-shot online DBN decision (§5 served directly)
//	GET  /healthz, /readyz     liveness / readiness
//	GET  /metrics              Prometheus exposition of the daemon registry
//
// Admission is a bounded queue: when it is full the daemon answers 429
// with Retry-After instead of building unbounded backlog. Per-request
// deadlines (timeout_ms, or the client connection in ?wait=1 mode)
// propagate as context cancellation all the way into Engine.Run, which
// stops at the next period boundary and — when a checkpoint directory is
// configured — flushes a resumable checkpoint first.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"solarsched/internal/ckpt"
	"solarsched/internal/fleet"
	"solarsched/internal/learn"
	"solarsched/internal/obs"
	"solarsched/internal/rng"
	"solarsched/internal/sim"
	"solarsched/internal/store"
)

// Config tunes the daemon backend.
type Config struct {
	// Workers bounds each job's fleet worker pool; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue (jobs accepted but not yet
	// executing); 0 means 8. A full queue answers 429.
	QueueDepth int
	// RetainJobs bounds how many finished jobs stay queryable; 0 means 256.
	RetainJobs int
	// MaxBodyBytes caps request bodies; 0 means 1 MiB.
	MaxBodyBytes int64
	// CheckpointDir, when non-empty, gives every fleet member a
	// crash-consistent checkpoint store named after its job and run ID —
	// a drained daemon leaves resumable state behind.
	CheckpointDir string
	// Registry receives the daemon's metrics and is served at /metrics.
	// Nil builds a private registry.
	Registry *obs.Registry
	// Cache is the shared offline-artifact cache; nil builds one. All
	// jobs and /v1/decide calls share it.
	Cache *fleet.Cache
	// Store, when non-nil, layers the durable artifact store under the
	// cache (ignored if Cache is set explicitly): artifacts built by a
	// previous process are adopted on boot, so a warm restart skips the
	// offline stages entirely. The caller opens (and verifies) it.
	Store *store.Store
	// Retry is each job's fleet supervision policy: transient per-run
	// failures retry with backoff, per-attempt deadlines cut off hung
	// runs. The zero value runs every spec once.
	Retry fleet.RetryPolicy
	// RetryAfterSeed seeds the jittered Retry-After answered with 429 —
	// synchronized clients that all hit a full queue spread their retries
	// instead of stampeding back in the same second.
	RetryAfterSeed uint64
	// Tenants, when non-empty, turns on API-key tenancy for /v1/decide:
	// requests must present a known key (X-API-Key or Bearer token), are
	// accounted per tenant in the metrics, and are admission-limited by
	// each tenant's token bucket (429 + jittered Retry-After when it runs
	// dry). Empty keeps the pre-tenancy behavior: anonymous, unlimited.
	// Usually loaded via LoadTenantsFile (-api-keys-file).
	Tenants []Tenant
	// Learn, when non-nil, closes the continuous-learning loop around
	// /v1/decide: every answered decision is recorded as telemetry (and
	// shadow-scored when a candidate model is trialing), and promoted
	// models from the loop's registry override the offline-trained network
	// for their lineage. Nil serves the base networks only.
	Learn *learn.Loop
	// Logger receives the daemon's structured request/job log. Every line
	// of the serving path carries the request's correlation ID
	// (request_id), and job lines add job_id and the result digest, so one
	// request is traceable across logs, spans and metrics. Nil discards.
	Logger *slog.Logger
}

// serverMetrics pre-resolves the daemon's instruments.
type serverMetrics struct {
	requests   func(route string) *obs.Counter
	submitted  *obs.Counter
	rejected   *obs.Counter
	completed  *obs.Counter
	canceled   *obs.Counter
	failed     *obs.Counter
	queueDepth *obs.Gauge
	jobSeconds *obs.Timer
	decideSecs *obs.Timer
	sseClients *obs.Gauge

	// Per-tenant decide accounting. The closures resolve (and the registry
	// caches) one instrument per tenant label.
	tenantDecides   func(tenant string) *obs.Counter
	tenantThrottled func(tenant string) *obs.Counter
	unauthorized    *obs.Counter
}

// Server is the daemon backend: an http.Handler plus one executor
// goroutine draining the admission queue into fleet.Run.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	cache  *fleet.Cache
	store  *jobStore
	m      serverMetrics
	log    *slog.Logger
	reqSeq atomic.Uint64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	queue    chan *job
	started  bool
	draining bool

	jitterMu sync.Mutex
	jitter   *rng.Source

	tenants *tenantSet
	learn   *learn.Loop // nil when continuous learning is off

	wg  sync.WaitGroup
	mux *http.ServeMux
}

// New builds a server. Call Start to launch the executor; until then
// submissions queue but nothing runs (and /readyz reports 503).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cache := cfg.Cache
	if cache == nil {
		if cfg.Store != nil {
			cache = fleet.NewDurableCache(reg, cfg.Store)
		} else {
			cache = fleet.NewCache(reg)
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		cache:      cache,
		log:        logger,
		store:      newJobStore(cfg.RetainJobs),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		jitter:     rng.New(cfg.RetryAfterSeed).SplitLabeled("serve/retry-after"),
		m: serverMetrics{
			requests: func(route string) *obs.Counter {
				return reg.Counter("serve_http_requests_total", obs.L("route", route))
			},
			submitted:  reg.Counter("serve_jobs_submitted_total"),
			rejected:   reg.Counter("serve_jobs_rejected_total"),
			completed:  reg.Counter("serve_jobs_completed_total"),
			canceled:   reg.Counter("serve_jobs_canceled_total"),
			failed:     reg.Counter("serve_jobs_failed_total"),
			queueDepth: reg.Gauge("serve_queue_depth"),
			jobSeconds: reg.Timer("serve_job_seconds"),
			decideSecs: reg.Timer("serve_decide_seconds"),
			sseClients: reg.Gauge("serve_sse_clients"),
			tenantDecides: func(tenant string) *obs.Counter {
				return reg.Counter("serve_tenant_decides_total", obs.L("tenant", tenant))
			},
			tenantThrottled: func(tenant string) *obs.Counter {
				return reg.Counter("serve_tenant_throttled_total", obs.L("tenant", tenant))
			},
			unauthorized: reg.Counter("serve_decide_unauthorized_total"),
		},
	}
	s.tenants = newTenantSet(cfg.Tenants, nil)
	s.learn = cfg.Learn
	s.mux = http.NewServeMux()
	s.route("POST /v1/runs", s.handleSubmit)
	s.route("GET /v1/runs/{id}", s.handleStatus)
	s.route("DELETE /v1/runs/{id}", s.handleCancel)
	s.route("GET /v1/runs/{id}/stream", s.handleStream)
	s.route("POST /v1/decide", s.handleDecide)
	s.route("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.route("GET /readyz", s.handleReady)
	metrics := obs.Handler(reg)
	s.route("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		metrics.ServeHTTP(w, r)
	})
	return s
}

// ridKey carries the request's correlation ID through the context.
type ridKey struct{}

// RequestID returns the correlation ID the route middleware assigned to
// this request ("" outside a served request). Handlers and everything
// they call use it to label logs, spans and metrics consistently.
func RequestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// statusWriter captures the response status for the request log while
// passing the Flusher capability through (the SSE handler needs it).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// route installs a handler wrapped with the per-route request counter and
// the correlation middleware: every request gets a request ID (the
// client's X-Request-ID, or a generated one), echoed in the response
// header, stored in the context and logged with the route and outcome.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	c := s.m.requests(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = fmt.Sprintf("r%08x", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		s.log.Info("http request",
			"request_id", rid, "route", pattern, "status", sw.status,
			"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the daemon's metrics registry (the one /metrics serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Cache returns the shared artifact cache.
func (s *Server) Cache() *fleet.Cache { return s.cache }

// Start launches the executor goroutine. Safe to call once.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.wg.Add(1)
	go s.executor()
}

// Ready reports whether the daemon accepts submissions.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.draining
}

// Shutdown drains the daemon: new submissions are refused (503), every
// queued and in-flight job's context is canceled — in-flight engines stop
// at the next period boundary and flush a final checkpoint when a
// checkpoint directory is configured — and the executor finishes
// bookkeeping for everything admitted. Returns ctx.Err() if the drain
// outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.baseCancel() // cancels every job ctx derived from baseCtx
		close(s.queue)
	}
	started := s.started
	s.mu.Unlock()
	if !started {
		// No executor: mark everything still queued as canceled so
		// waiters are released.
		for j := range s.queue {
			s.finishJob(j, nil, fmt.Errorf("serve: %w: daemon shut down before execution", sim.ErrCanceled), 0, 0)
		}
		return nil
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// executor drains the admission queue one job at a time — the batched
// fleet backend. Within a job, parallelism comes from the fleet worker
// pool; across jobs, the shared cache carries the amortization.
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.m.queueDepth.Add(-1)
		s.execute(j)
		if s.cfg.Store != nil {
			// Enforce the store's size/age budget between jobs, where it
			// cannot race this process's own Puts. ErrLocked (another
			// process's maintenance pass) just means skip this round.
			if _, err := s.cfg.Store.GC(); err != nil && !errors.Is(err, store.ErrLocked) {
				s.log.Warn("store gc failed", "err", err)
			}
		}
	}
}

// execute runs one job's fleet and records the outcome. The job span
// carries the correlation chain (request_id → job_id, and the aggregate
// digest once known) into the Chrome-trace export, alongside the same
// fields in the structured log.
func (s *Server) execute(j *job) {
	s.store.setRunning(j)
	span := s.reg.StartSpan("serve/job").Tag("job_id", j.id).Tag("request_id", j.reqID)
	s.log.Info("job started", "request_id", j.reqID, "job_id", j.id, "runs", j.runs)
	sw := s.m.jobSeconds.Start()
	h0, m0 := s.cache.Stats()
	rep, err := fleet.Run(j.ctx, j.specs, fleet.Options{
		Workers:  s.cfg.Workers,
		Cache:    s.cache,
		Observer: s.reg,
		Retry:    s.cfg.Retry,
		OnResult: func(rr fleet.RunResult) {
			// The run is over: flush its recorder's pending final
			// period, then emit the result event. OnResult runs on the
			// worker that drove the run, after its last Record call, so
			// this never races with the recorder.
			if rec, ok := j.recorders.Load(rr.ID); ok {
				rec.(*periodRecorder).flush()
			}
			e := Event{Type: "result", Run: rr.ID, Digest: rr.Digest}
			if rr.Err != nil {
				e.Error = rr.Err.Error()
				s.log.Warn("run failed", "request_id", j.reqID, "job_id", j.id,
					"run_id", rr.ID, "err", rr.Err)
			} else if rr.Result != nil {
				e.DMR = rr.Result.DMR()
				s.log.Info("run finished", "request_id", j.reqID, "job_id", j.id,
					"run_id", rr.ID, "digest", rr.Digest, "dmr", e.DMR)
			}
			j.events.publish(e)
		},
	})
	h1, m1 := s.cache.Stats()
	sw.Stop()
	if rep != nil {
		span.Tag("digest", rep.AggregateDigest())
	}
	// The span is recorded before the job reads as finished, so a client
	// answered on completion (?wait=1) finds it in the trace.
	span.End()
	s.finishJob(j, rep, err, h1-h0, m1-m0)
}

// finishJob records a terminal state and emits the done event.
func (s *Server) finishJob(j *job, rep *fleet.Report, err error, hits, misses int64) {
	s.store.finish(j, rep, err, hits, misses)
	s.m.completed.Inc()
	final := Event{Type: "done", State: string(j.state)}
	switch j.state {
	case StateCanceled:
		s.m.canceled.Inc()
	case StateFailed:
		s.m.failed.Inc()
	}
	if rep != nil {
		final.Digest = rep.AggregateDigest()
	}
	if err != nil {
		final.Error = err.Error()
	}
	s.log.Info("job finished", "request_id", j.reqID, "job_id", j.id,
		"state", string(j.state), "digest", final.Digest, "err", final.Error,
		"cache_hits", hits, "cache_misses", misses)
	j.events.publish(final)
	j.events.close()
}

// admit pushes a queued job onto the executor's queue. It returns an
// admission error (queue full or draining) without blocking.
func (s *Server) admit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- j:
		s.m.queueDepth.Add(1)
		return nil
	default:
		return errQueueFull
	}
}

var (
	errDraining  = errors.New("serve: daemon is draining")
	errQueueFull = errors.New("serve: admission queue full")
)

// retryAfterSeconds draws the jittered backoff hint for a 429: an integer
// in [1, 3]. A fixed value would re-synchronize every rejected client onto
// the same retry instant; spreading them over a few seconds drains a
// thundering herd through the queue instead of bouncing it off again.
func (s *Server) retryAfterSeconds() int {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return s.jitter.IntRange(1, 3)
}

// runOptionsFor builds the per-run extra options of a job: the SSE period
// recorder, plus a checkpoint sink when a checkpoint directory is
// configured. Prepare runs on fleet worker goroutines, so recorder
// registration goes through the job's sync.Map.
func (s *Server) runOptionsFor(j *job) func(rs fleet.RunSpec) []sim.RunOption {
	return func(rs fleet.RunSpec) []sim.RunOption {
		rec := &periodRecorder{run: rs.ID, hub: j.events}
		j.recorders.Store(rs.ID, rec)
		opts := []sim.RunOption{sim.WithRecorder(rec)}
		if s.cfg.CheckpointDir != "" {
			store, err := ckpt.StoreInDir(s.cfg.CheckpointDir, j.id+"-"+rs.ID)
			if err == nil {
				opts = append(opts,
					sim.WithSink(store.Sink()),
					sim.WithGate(ckpt.Throttle(ckpt.DefaultInterval)))
			}
		}
		return opts
	}
}

// isCanceled classifies an error as a cancellation outcome.
func isCanceled(err error) bool {
	return errors.Is(err, sim.ErrCanceled) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}
