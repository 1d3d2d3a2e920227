// The loadgen subcommand drives a running solarschedd and reports
// latency percentiles and the daemon's cache hit rate:
//
//	solarschedd loadgen [flags] <base-url>
//
// Flags:
//
//	-mode decide|runs  request type (default decide)
//	-mix SPEC          mixed traffic, e.g. -mix decide=80,run=20 — drives
//	                   both request classes interleaved and reports
//	                   per-class p50/p95/p99 and error rates (overrides
//	                   -mode and -n)
//	-clients N         concurrent clients (default 4)
//	-n N               total requests (default 100)
//	-spec FILE         fleet spec body for run requests (built-in default)
//	-body FILE         decide body for decide requests (built-in default)
//	-api-key KEY       send KEY as X-API-Key on every request (for daemons
//	                   started with -api-keys-file)
//	-json              emit the summary (error rate, sustained req/s,
//	                   latency percentiles, per-class breakdown, cache
//	                   deltas) as JSON (LoadgenSummary)
//
// Mode decide posts one-shot online inferences — the latency that matters
// for a node asking the service for its next period's plan. Mode runs
// posts synchronous fleet submissions (?wait=1), so the first request
// pays the offline stages and the rest measure warm-cache service time.
// A -mix run interleaves the two, the realistic shape for a daemon serving
// both planners and live nodes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"solarsched/internal/obs"
	"solarsched/internal/stats"
)

// defaultDecideBody is a valid cold-start decide request against the
// default training configuration.
const defaultDecideBody = `{
  "graph": "wam", "h": 2,
  "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10},
  "voltages": [3.0, 1.2],
  "period_of_day": 0,
  "active_cap": 0
}`

// defaultRunsBody is a small three-run fleet spec.
const defaultRunsBody = `{
  "defaults": {
    "trace": {"kind": "gen", "days": 2, "seed": 31},
    "h": 2,
    "train": {"days": 2, "seed": 777, "day_of_year": 80, "fine_epochs": 10}
  },
  "runs": [
    {"graph": "wam", "scheduler": "inter"},
    {"graph": "wam", "scheduler": "intra"},
    {"graph": "wam", "scheduler": "proposed"}
  ]
}`

// LoadgenSummary is the -json output of a loadgen run.
type LoadgenSummary struct {
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	ErrorRate   float64 `json:"error_rate"`
	ElapsedSecs float64 `json:"elapsed_secs"`
	Throughput  float64 `json:"throughput_rps"`
	DecideP50MS float64 `json:"decide_p50_ms,omitempty"`
	DecideP99MS float64 `json:"decide_p99_ms,omitempty"`
	CacheHits   int64   `json:"cache_hits,omitempty"`
	CacheMisses int64   `json:"cache_misses,omitempty"`
	// Throttled counts requests that were answered 429 and retried after
	// the daemon's jittered Retry-After — backpressure, not failure.
	Throttled int64 `json:"throttled,omitempty"`
	// Classes breaks the run down per request class when the generator
	// drove mixed traffic (loadgen -mix decide=N,run=M).
	Classes []LoadgenClass `json:"classes,omitempty"`
}

// LoadgenClass is one request class of a mixed loadgen run: its share of
// the traffic with its own error rate and latency percentiles, so a cheap
// class (decide) isn't averaged away by an expensive one (runs).
type LoadgenClass struct {
	Name      string  `json:"name"`
	Requests  int     `json:"requests"`
	Errors    int     `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
}

// loadClass is one request class of the generated traffic: every request
// of the class posts the same body to the same path.
type loadClass struct {
	name string
	path string
	body string
	n    int
}

func runLoadgen(args []string) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	mode := fs.String("mode", "decide", "request type: decide or runs")
	mix := fs.String("mix", "", "mixed traffic, e.g. decide=80,run=20 (overrides -mode and -n)")
	clients := fs.Int("clients", 4, "concurrent clients")
	n := fs.Int("n", 100, "total requests")
	specPath := fs.String("spec", "", "fleet spec body for run requests (built-in default)")
	bodyPath := fs.String("body", "", "decide body for decide requests (built-in default)")
	apiKey := fs.String("api-key", "", "X-API-Key header value (for daemons with -api-keys-file)")
	jsonOut := fs.Bool("json", false, "emit the summary as JSON")
	logFormat := fs.String("log-format", obs.LogText, "diagnostic log format: text or json")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: solarschedd loadgen [flags] <base-url>\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		return 2
	}
	base := strings.TrimRight(fs.Arg(0), "/")

	decideBody := defaultDecideBody
	if *bodyPath != "" {
		b, err := os.ReadFile(*bodyPath)
		if err != nil {
			logger.Error("reading body failed", "path", *bodyPath, "err", err)
			return 1
		}
		decideBody = string(b)
	}
	runsBody := defaultRunsBody
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			logger.Error("reading spec failed", "path", *specPath, "err", err)
			return 1
		}
		runsBody = string(b)
	}

	var classes []loadClass
	if *mix != "" {
		classes, err = parseMix(*mix, decideBody, runsBody)
		if err != nil {
			logger.Error("bad -mix", "mix", *mix, "err", err)
			return 2
		}
	} else {
		switch *mode {
		case "decide":
			classes = []loadClass{{name: "decide", path: "/v1/decide", body: decideBody, n: *n}}
		case "runs":
			classes = []loadClass{{name: "run", path: "/v1/runs?wait=1", body: runsBody, n: *n}}
		default:
			logger.Error("unknown mode", "mode", *mode, "want", "decide or runs")
			return 2
		}
	}
	plan := buildPlan(classes)
	total := len(plan)

	h0, m0, err := cacheCounters(base)
	if err != nil {
		logger.Error("scraping metrics failed", "url", base+"/metrics", "err", err)
		return 1
	}

	latencies := make([]float64, total)
	classErrs := make([]atomic.Int64, len(classes))
	var next, throttled atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				cls := &classes[plan[i]]
				t0 := time.Now()
				// A 429 is backpressure, not failure: honor the daemon's
				// (jittered) Retry-After and resubmit, up to a small budget.
				// The jitter spreads the re-entry of clients rejected
				// together, so the retries drain instead of colliding again.
				ok := false
				for attempt := 0; attempt < 5; attempt++ {
					req, err := http.NewRequest(http.MethodPost, base+cls.path, strings.NewReader(cls.body))
					if err != nil {
						break
					}
					req.Header.Set("Content-Type", "application/json")
					if *apiKey != "" {
						req.Header.Set("X-API-Key", *apiKey)
					}
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						break
					}
					io.Copy(io.Discard, resp.Body)
					code := resp.StatusCode
					ra := resp.Header.Get("Retry-After")
					resp.Body.Close()
					if code != http.StatusTooManyRequests {
						ok = code == http.StatusOK
						break
					}
					throttled.Add(1)
					time.Sleep(retryAfterDelay(ra))
				}
				if !ok {
					classErrs[plan[i]].Add(1)
				}
				latencies[i] = time.Since(t0).Seconds()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	h1, m1, err := cacheCounters(base)
	if err != nil {
		logger.Error("scraping metrics failed", "url", base+"/metrics", "err", err)
		return 1
	}
	hits, misses := h1-h0, m1-m0
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}

	// Partition latencies by class before the global sort destroys the
	// request→class correspondence.
	perClass := make([][]float64, len(classes))
	for i, c := range plan {
		perClass[c] = append(perClass[c], latencies[i])
	}
	fails := 0
	classSummaries := make([]LoadgenClass, len(classes))
	for c, cls := range classes {
		sort.Float64s(perClass[c])
		ce := int(classErrs[c].Load())
		fails += ce
		classSummaries[c] = LoadgenClass{
			Name:      cls.name,
			Requests:  cls.n,
			Errors:    ce,
			ErrorRate: float64(ce) / float64(cls.n),
			P50MS:     1000 * stats.Percentile(perClass[c], 0.50),
			P95MS:     1000 * stats.Percentile(perClass[c], 0.95),
			P99MS:     1000 * stats.Percentile(perClass[c], 0.99),
		}
	}

	// The headline decide percentiles come from the decide class when one
	// exists (the single-class decide run is just that degenerate case);
	// otherwise they fall back to whatever traffic was driven, preserving
	// the old single-mode -mode runs behavior.
	headline := latencies
	for c, cls := range classes {
		if cls.name == "decide" {
			headline = perClass[c]
		}
	}
	sort.Float64s(latencies)
	summary := LoadgenSummary{
		Requests:    total,
		Errors:      fails,
		ErrorRate:   float64(fails) / float64(total),
		ElapsedSecs: elapsed.Seconds(),
		Throughput:  float64(total) / elapsed.Seconds(),
		DecideP50MS: 1000 * stats.Percentile(headline, 0.50),
		DecideP99MS: 1000 * stats.Percentile(headline, 0.99),
		CacheHits:   hits,
		CacheMisses: misses,
		Throttled:   throttled.Load(),
		Classes:     classSummaries,
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			logger.Error("encoding summary failed", "err", err)
			return 1
		}
	} else {
		fmt.Printf("loadgen: %s clients=%d n=%d elapsed=%s (%.1f req/s, %.1f%% errors)\n",
			describeClasses(classes), *clients, total, elapsed.Round(time.Millisecond), summary.Throughput, 100*summary.ErrorRate)
		for _, cs := range classSummaries {
			fmt.Printf("  %-7s n=%-5d p50=%s p95=%s p99=%s errors=%d (%.1f%%)\n",
				cs.Name, cs.Requests,
				fmtSecs(cs.P50MS/1000), fmtSecs(cs.P95MS/1000), fmtSecs(cs.P99MS/1000),
				cs.Errors, 100*cs.ErrorRate)
		}
		fmt.Printf("  latency p50=%s p95=%s p99=%s max=%s\n",
			fmtSecs(stats.Percentile(latencies, 0.50)),
			fmtSecs(stats.Percentile(latencies, 0.95)),
			fmtSecs(stats.Percentile(latencies, 0.99)),
			fmtSecs(latencies[len(latencies)-1]))
		fmt.Printf("  cache: %d hits, %d misses (%.1f%% hit rate)\n", hits, misses, 100*hitRate)
		if tr := throttled.Load(); tr > 0 {
			fmt.Printf("  throttled: %d requests answered 429 and retried\n", tr)
		}
		if fails > 0 {
			fmt.Printf("  failures: %d of %d\n", fails, total)
		}
	}
	if fails > 0 {
		return 1
	}
	return 0
}

// parseMix turns "decide=80,run=20" into request classes. Class names are
// decide and run ("runs" is accepted as an alias); counts must be
// non-negative with a positive sum.
func parseMix(spec, decideBody, runsBody string) ([]loadClass, error) {
	var classes []loadClass
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		name, count, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("%q is not name=count", part)
		}
		c, err := strconv.Atoi(count)
		if err != nil || c < 0 {
			return nil, fmt.Errorf("bad count in %q", part)
		}
		var cls loadClass
		switch name {
		case "decide":
			cls = loadClass{name: "decide", path: "/v1/decide", body: decideBody, n: c}
		case "run", "runs":
			cls = loadClass{name: "run", path: "/v1/runs?wait=1", body: runsBody, n: c}
		default:
			return nil, fmt.Errorf("unknown class %q (want decide or run)", name)
		}
		if seen[cls.name] {
			return nil, fmt.Errorf("class %q listed twice", cls.name)
		}
		seen[cls.name] = true
		if c > 0 {
			classes = append(classes, cls)
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("no requests in mix %q", spec)
	}
	return classes, nil
}

// buildPlan lays the classes out over the run via largest-deficit
// round-robin, so a decide=80,run=20 mix interleaves one run request into
// every four decides instead of front-loading one class — the contention
// pattern a real daemon sees.
func buildPlan(classes []loadClass) []int {
	total := 0
	for _, c := range classes {
		total += c.n
	}
	plan := make([]int, 0, total)
	issued := make([]int, len(classes))
	for len(plan) < total {
		best, bestDef := -1, 0.0
		for c := range classes {
			if issued[c] >= classes[c].n {
				continue
			}
			def := float64(len(plan)+1)*float64(classes[c].n)/float64(total) - float64(issued[c])
			if best == -1 || def > bestDef {
				best, bestDef = c, def
			}
		}
		plan = append(plan, best)
		issued[best]++
	}
	return plan
}

func describeClasses(classes []loadClass) string {
	if len(classes) == 1 {
		return "mode=" + classes[0].name
	}
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = fmt.Sprintf("%s=%d", c.name, c.n)
	}
	return "mix " + strings.Join(parts, ",")
}

// retryAfterDelay parses a Retry-After value (delay-seconds form), capped
// at 5s so a misbehaving server can't stall the generator.
func retryAfterDelay(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 1 {
		secs = 1
	}
	if secs > 5 {
		secs = 5
	}
	return time.Duration(secs) * time.Second
}

var promCounterRe = regexp.MustCompile(`(?m)^(fleet_cache_hits_total|fleet_cache_misses_total)\s+([0-9.eE+-]+)$`)

// cacheCounters scrapes the daemon's /metrics for the shared cache's
// cumulative hit and miss counters.
func cacheCounters(base string) (hits, misses int64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range promCounterRe.FindAllStringSubmatch(string(b), -1) {
		v, perr := strconv.ParseFloat(m[2], 64)
		if perr != nil {
			continue
		}
		if m[1] == "fleet_cache_hits_total" {
			hits = int64(v)
		} else {
			misses = int64(v)
		}
	}
	return hits, misses, nil
}

func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
